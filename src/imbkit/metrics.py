"""Classification metrics, ranking AUC and class-overlap ratios."""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .data_model import Dataset, PipelineWarning
from .distances import nearest, pairwise_sq


def confusion_matrix(preds: np.ndarray, truth: np.ndarray, n_classes: int) -> np.ndarray:
    """(n, n) count matrix, rows = true class, columns = predicted class."""
    preds = np.asarray(preds, dtype=np.int64)
    truth = np.asarray(truth, dtype=np.int64)
    if preds.shape != truth.shape:
        raise ValueError(f"length mismatch: {preds.shape} vs {truth.shape}")
    cm = np.zeros((n_classes, n_classes), dtype=np.int64)
    np.add.at(cm, (truth, preds), 1)
    return cm


@dataclass(frozen=True)
class ClassificationMetrics:
    accuracy: float
    precision: np.ndarray   # per class, one-vs-rest
    recall: np.ndarray
    f1: np.ndarray
    macro_precision: float  # unweighted means over classes present in truth
    macro_recall: float
    macro_f1: float
    g_mean: float           # n-th root of the product of present-class recalls
    present: np.ndarray     # bool per class: appears in truth

    def as_dict(self) -> dict:
        return {"accuracy": self.accuracy, "precision": self.macro_precision,
                "recall": self.macro_recall, "f1": self.macro_f1, "g_mean": self.g_mean}


def classification_metrics(preds, truth, n_classes: int) -> ClassificationMetrics:
    """One-vs-rest precision/recall/F1 per class plus macro averages and G-mean.

    Classes absent from ``truth`` are excluded from the macro averages and the
    G-mean with a warning.  A class with no predicted positives gets precision
    0, and F1 is 0 whenever precision + recall is 0.
    """
    cm = confusion_matrix(preds, truth, n_classes)
    tp = np.diag(cm).astype(float)
    pred_pos = cm.sum(axis=0).astype(float)
    true_pos = cm.sum(axis=1).astype(float)
    with np.errstate(divide="ignore", invalid="ignore"):
        precision = np.where(pred_pos > 0, tp / pred_pos, 0.0)
        recall = np.where(true_pos > 0, tp / true_pos, 0.0)
        pr = precision + recall
        f1 = np.where(pr > 0, 2.0 * precision * recall / np.where(pr > 0, pr, 1.0), 0.0)
    present = true_pos > 0
    if not present.all():
        absent = np.flatnonzero(~present).tolist()
        warnings.warn(f"classes absent from truth excluded from macro averages: {absent}",
                      PipelineWarning, stacklevel=2)
    n_present = int(present.sum())
    rec_p = recall[present]
    g_mean = float(np.prod(rec_p) ** (1.0 / n_present)) if n_present else 0.0
    return ClassificationMetrics(
        accuracy=float(tp.sum() / max(cm.sum(), 1)),
        precision=precision, recall=recall, f1=f1,
        macro_precision=float(precision[present].mean()),
        macro_recall=float(recall[present].mean()),
        macro_f1=float(f1[present].mean()),
        g_mean=g_mean, present=present)


def _average_ranks(x: np.ndarray) -> np.ndarray:
    """1-based ranks with ties sharing their average rank."""
    order = np.argsort(x, kind="mergesort")
    ranks = np.empty(x.size, dtype=np.float64)
    sx = x[order]
    i = 0
    while i < x.size:
        j = i
        while j + 1 < x.size and sx[j + 1] == sx[i]:
            j += 1
        ranks[order[i:j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


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
    or_pair: np.ndarray     # symmetric pairwise overlap matrix
    or_dataset: float       # mean of the per-class ratios
    knn_k: int


def overlap_ratios(ds: Dataset, knn_k: int = 5) -> OverlapReport:
    """Neighborhood-based overlap ratios.

    A sample is flagged overlapping when at least ceil(knn_k / 2) of its
    knn_k nearest neighbors (self excluded, ties by index) carry a different
    label.  The pair entry (i, j) averages the rate of class-i samples whose
    foreign-neighbor majority is j with the converse rate.
    """
    if knn_k < 1:
        raise ValueError("knn_k must be >= 1")
    m = ds.n_samples
    if m < knn_k + 1:
        raise ValueError(f"need at least knn_k+1={knn_k + 1} samples, have {m}")
    n = ds.n_classes
    sq = pairwise_sq(ds.features, ds.features)
    np.fill_diagonal(sq, np.inf)
    nb_labels = ds.labels[nearest(sq, knn_k)]
    foreign = nb_labels != ds.labels[:, None]
    flagged = np.flatnonzero(foreign.sum(axis=1) >= int(np.ceil(knn_k / 2)))

    # per flagged sample, its most frequent foreign neighbour label (ties to the smallest)
    row, col = np.nonzero(foreign[flagged])
    votes = np.bincount(row * n + nb_labels[flagged][row, col], minlength=flagged.size * n)
    into = votes.reshape(flagged.size, n).argmax(axis=1)
    # [i, j]: class-i samples overlapping into j
    n_ov = np.bincount(ds.labels[flagged] * n + into, minlength=n * n).reshape(n, n)
    counts = ds.class_counts()
    or_class = n_ov.sum(axis=1) / counts
    rate = n_ov / counts[:, None]
    or_pair = 0.5 * (rate + rate.T)
    np.fill_diagonal(or_pair, 0.0)
    return OverlapReport(or_class=or_class, or_pair=or_pair,
                         or_dataset=float(or_class.mean()), knn_k=knn_k)
