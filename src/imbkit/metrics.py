"""Classification metrics, ranking AUC and class-overlap ratios."""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .data_model import Dataset, PipelineWarning
from .distances import nearest, pairwise_sq, reduce_rows


def confusion_matrix(preds: np.ndarray, truth: np.ndarray, n_classes: int) -> np.ndarray:
    """(n, n) count matrix, rows = true class, columns = predicted class.

    Every label, predicted or true, must lie in [0, n_classes).
    """
    preds = np.asarray(preds, dtype=np.int64)
    truth = np.asarray(truth, dtype=np.int64)
    if preds.shape != truth.shape:
        raise ValueError(f"length mismatch: {preds.shape} vs {truth.shape}")
    try:  # raises for any label outside [0, n_classes), negative ones included
        flat = np.ravel_multi_index((truth, preds), (n_classes, n_classes))
    except ValueError:
        name = "preds" if np.any((preds < 0) | (preds >= n_classes)) else "truth"
        raise ValueError(f"{name} holds a label outside [0, n_classes) = [0, {n_classes})") from None
    flat = np.bincount(flat.ravel(), minlength=n_classes * n_classes)
    return flat.reshape(n_classes, n_classes)


def classification_metrics(preds, truth, n_classes: int) -> dict:
    """{"accuracy", "precision", "recall", "f1", "g_mean"} of one non-empty set of labels.

    Precision, recall and F1 are one-vs-rest per class, averaged unweighted;
    G-mean is the n-th root of the product of the per-class recalls.  Classes
    absent from ``truth`` are excluded from the averages and the G-mean with a
    warning.  A class with no predicted positives gets precision 0, and F1 is
    0 whenever precision + recall is 0.  Empty labels raise ``ValueError``.
    """
    cm = confusion_matrix(preds, truth, n_classes)
    total = cm.sum()
    if total == 0:
        raise ValueError("no labels to score")
    tp = cm.diagonal()
    pos = np.array((cm.T, cm)).sum(axis=2)  # predicted, true count per class
    scores = np.zeros((3, n_classes))
    precision, recall, f1 = scores
    np.divide(tp, pos, out=scores[:2], where=pos > 0)
    pr = precision + recall
    np.divide(2.0 * precision * recall, pr, out=f1, where=pr > 0)
    present = pos[1] > 0
    n_present = int(np.count_nonzero(present))
    if n_present < n_classes:
        absent = np.flatnonzero(~present).tolist()
        warnings.warn(f"classes absent from truth excluded from macro averages: {absent}",
                      PipelineWarning, stacklevel=2)
    kept = scores[:, present]
    # each row's sum / count is the reduction np.mean makes, so the macro means keep their bits
    # (one sum over the 2-D axis adds in another order once 8 or more classes are present)
    macro_precision, macro_recall, macro_f1 = (float(row.sum() / n_present) for row in kept)
    return {"accuracy": float(tp.sum() / total), "precision": macro_precision,
            "recall": macro_recall, "f1": macro_f1,
            "g_mean": float(np.prod(kept[1]) ** (1.0 / n_present))}


def _average_ranks(x: np.ndarray) -> np.ndarray:
    """1-based ranks with ties sharing their average rank."""
    _, tie_group, counts = np.unique(x, return_inverse=True, return_counts=True)
    return (np.cumsum(counts) - (counts - 1) / 2)[tie_group]


def macro_ovr_auc(scores: np.ndarray, truth: np.ndarray) -> float:
    """Unweighted mean over classes of the one-vs-rest ranking AUC (ties count 0.5)."""
    scores = np.asarray(scores, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.int64)
    if not np.all(np.isfinite(scores)):
        raise ValueError("scores must be finite")
    n_classes = scores.shape[1]
    aucs = []
    for c in range(n_classes):
        pos = truth == c
        n_pos, n_neg = int(pos.sum()), int((~pos).sum())
        if n_pos == 0 or n_neg == 0:
            warnings.warn(f"class {c} absent from truth (or its complement); excluded from AUC",
                          PipelineWarning, stacklevel=2)
            continue
        ranks = _average_ranks(scores[:, c])
        u = ranks[pos].sum() - n_pos * (n_pos + 1) / 2.0
        aucs.append(u / (n_pos * n_neg))
    if not aucs:
        raise ValueError("no class with both positives and negatives")
    return float(np.mean(aucs))


@dataclass(frozen=True)
class OverlapReport:
    or_class: np.ndarray    # per-class fraction of samples in cross-class neighborhoods
    or_dataset: float       # mean of the per-class ratios


def overlap_ratios(ds: Dataset, knn_k: int = 5, neighbors: np.ndarray | None = None) -> OverlapReport:
    """Neighborhood-based overlap ratios.

    A sample is flagged overlapping when at least ceil(knn_k / 2) of its
    knn_k nearest neighbors (self excluded, ties by index) carry a different
    label.  A class's ratio is the fraction of its samples flagged, and the
    dataset's ratio is the mean of the class ratios.  ``neighbors``, if given,
    is that (n_samples, knn_k) table of row indices, and no distance is computed.
    """
    if knn_k < 1:
        raise ValueError("knn_k must be >= 1")
    m = ds.n_samples
    if m < knn_k + 1:
        raise ValueError(f"need at least knn_k+1={knn_k + 1} samples, have {m}")
    n = ds.n_classes
    nb = neighbors if neighbors is not None else reduce_rows(
        pairwise_sq, ds.features, ds.features, lambda sq: nearest(sq, knn_k), exclude_self=True)
    foreign = ds.labels[nb] != ds.labels[:, None]
    flagged = foreign.sum(axis=1) >= int(np.ceil(knn_k / 2))
    or_class = np.bincount(ds.labels[flagged], minlength=n) / ds.class_counts()
    return OverlapReport(or_class=or_class, or_dataset=float(or_class.mean()))
