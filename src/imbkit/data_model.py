"""Dataset container, CSV ingestion, fold planning and min-max scaling."""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np


class PipelineWarning(UserWarning):
    """Raised for recoverable degradations (tiny classes, oversampling shortfalls, ...)."""


class DataFormatError(ValueError):
    """Raised when an input file violates the expected CSV contract."""


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class Dataset:
    """Numeric feature matrix with dense integer class labels.

    Labels are indices into ``class_names``; they are re-encoded at load time
    so all downstream bucketing is O(1) array work.
    """

    features: np.ndarray
    labels: np.ndarray
    class_names: tuple[str, ...]

    def __post_init__(self):
        feats = np.ascontiguousarray(np.asarray(self.features, dtype=np.float64))
        labs = np.ascontiguousarray(np.asarray(self.labels, dtype=np.int64))
        if feats.ndim != 2:
            raise ValueError("features must be a 2-D matrix")
        if labs.ndim != 1 or labs.shape[0] != feats.shape[0]:
            raise ValueError("labels must be one entry per feature row")
        if not np.all(np.isfinite(feats)):
            raise ValueError("features contain NaN or infinite values")
        n = len(self.class_names)
        if n < 1:
            raise ValueError("at least one class name required")
        if labs.size and (labs.min() < 0 or labs.max() >= n):
            raise ValueError("label index out of range for class_names")
        counts = np.bincount(labs, minlength=n)
        if np.any(counts == 0):
            missing = [self.class_names[i] for i in np.flatnonzero(counts == 0)]
            raise ValueError(f"classes with no samples: {missing}")
        object.__setattr__(self, "features", _freeze(feats))
        object.__setattr__(self, "labels", _freeze(labs))
        object.__setattr__(self, "class_names", tuple(str(c) for c in self.class_names))

    @property
    def n_samples(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    @property
    def n_classes(self) -> int:
        return len(self.class_names)

    def class_counts(self) -> np.ndarray:
        return np.bincount(self.labels, minlength=self.n_classes)

    def subset(self, indices) -> "Dataset":
        """New Dataset restricted to ``indices``; every class must survive.

        ``indices`` is integer row indices or a boolean row mask of length
        ``n_samples``; any other dtype is a ``ValueError``.
        """
        idx = np.asarray(indices)
        if idx.dtype == bool:
            if idx.shape != (self.n_samples,):
                raise ValueError(f"boolean row mask has shape {idx.shape}, expected ({self.n_samples},)")
        elif not np.issubdtype(idx.dtype, np.integer):
            raise ValueError(f"row indices must be integers or a boolean mask, got dtype {idx.dtype}")
        return Dataset(self.features[idx], self.labels[idx], self.class_names)


def load_csv(path, label_column) -> Dataset:
    """Read a comma-separated, UTF-8, headered file into a Dataset; a leading byte-order mark is dropped.

    ``label_column`` selects the class column by header name or zero-based
    index.  Every other cell must parse as a real number; missing values are
    a hard error.  Class labels are densely re-encoded in order of first
    appearance and the original strings kept as ``class_names``.
    """
    p = Path(path)
    if not p.exists():
        raise FileNotFoundError(f"no such file: {p}")
    with open(p, newline="", encoding="utf-8-sig") as f:
        reader = csv.reader(f)
        try:
            header = next(reader)
        except StopIteration:
            raise DataFormatError(f"{p}: empty file, expected a header row")
        header = [h.strip() for h in header]
        if isinstance(label_column, int) or (isinstance(label_column, str) and label_column.lstrip("-").isdigit()
                                             and label_column not in header):
            li = int(label_column)
            if not 0 <= li < len(header):
                raise DataFormatError(f"{p}: label column index {li} out of range (0..{len(header) - 1})")
        else:
            if label_column not in header:
                raise DataFormatError(f"{p}: label column {label_column!r} not in header {header}")
            li = header.index(label_column)

        feat_cols = [i for i in range(len(header)) if i != li]
        if not feat_cols:
            raise DataFormatError(f"{p}: no feature column, only the label column {header[li]!r}")
        rows, labels_raw = [], []
        for rownum, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != len(header):
                raise DataFormatError(f"{p}: row {rownum} has {len(row)} cells, expected {len(header)}")
            vals = []
            for i in feat_cols:
                cell = row[i].strip()
                try:
                    v = float(cell)
                except ValueError:
                    raise DataFormatError(
                        f"{p}: row {rownum}, column {header[i]!r}: cannot parse {cell!r} as a number")
                if not math.isfinite(v):
                    raise DataFormatError(f"{p}: row {rownum}, column {header[i]!r}: non-finite value {cell!r}")
                vals.append(v)
            rows.append(vals)
            labels_raw.append(row[li].strip())

    if not rows:
        raise DataFormatError(f"{p}: no data rows")
    codes: dict[str, int] = {}  # label -> code, in order of first appearance
    labels = np.array([codes.setdefault(lab, len(codes)) for lab in labels_raw], dtype=np.int64)
    if len(codes) < 2:
        raise DataFormatError(f"{p}: found {len(codes)} class(es), need at least 2")
    return Dataset(np.asarray(rows, dtype=np.float64), labels, tuple(codes))


@dataclass(frozen=True)
class FoldPlan:
    """Repeated stratified CV as one test-fold id per sample and repeat.

    Fold ``f`` of a repeat tests the samples whose id is ``f`` and trains on
    the rest; both index lists come back sorted.
    """

    k: int
    repeats: int
    fold_ids: np.ndarray  # (repeats, samples) int32, read-only

    def test_indices(self, repeat: int, fold: int) -> np.ndarray:
        return np.flatnonzero(self.fold_ids[repeat] == fold)

    def train_indices(self, repeat: int, fold: int) -> np.ndarray:
        return np.flatnonzero(self.fold_ids[repeat] != fold)


def rng_for(*path) -> np.random.Generator:
    """Deterministic random stream derived from a seed path.

    Strings in the path are hashed into 32-bit words so independent stages
    (folds, oversampling per class, pruning, ...) get independent streams.
    """
    words = []
    for part in path:
        if isinstance(part, str):
            h = 2166136261
            for ch in part.encode():
                h = ((h ^ ch) * 16777619) & 0xFFFFFFFF
            words.append(h)
        else:
            words.append(int(part) & 0xFFFFFFFFFFFFFFFF)
    return np.random.default_rng(np.random.SeedSequence(words))


def stratified_folds(ds: Dataset, k: int, repeats: int, seed: int) -> FoldPlan:
    """Plan ``repeats`` independent stratified k-fold splits.

    Within each repeat the test folds partition all samples exactly and every
    class is spread across folds to within one sample.  Classes smaller than
    k cannot appear in every test fold; they stay entirely in training for
    the folds they cannot fill and a PipelineWarning is emitted.
    """
    if k < 2:
        raise ValueError(f"fold count must be >= 2, got {k}")
    counts = ds.class_counts()
    small = np.flatnonzero(counts < k)
    for c in small:
        warnings.warn(
            f"class {ds.class_names[c]!r} has {counts[c]} samples (< {k} folds); "
            "it is kept entirely in training for folds it cannot fill",
            PipelineWarning, stacklevel=2)

    fold_ids = np.empty((repeats, ds.n_samples), dtype=np.int32)
    for r in range(repeats):
        rng = rng_for(seed, "folds", r)
        for c in range(ds.n_classes):
            idx = np.flatnonzero(ds.labels == c)
            rng.shuffle(idx)
            offset = int(rng.integers(k))  # rotate so early folds are not systematically larger
            fold_ids[r, idx] = (np.arange(idx.size) + offset) % k
    return FoldPlan(k=k, repeats=repeats, fold_ids=_freeze(fold_ids))


def minmax_scale(ds: Dataset, *others: np.ndarray) -> tuple:
    """Min-max scale ``ds`` on its own per-feature range and map each of ``others`` the same way.

    Returns the scaled Dataset followed by the mapped arrays.  Constant
    features get range 1, so they map to zero.
    """
    lo = ds.features.min(axis=0)
    span = ds.features.max(axis=0) - lo
    span = np.where(span > 0, span, 1.0)
    return (Dataset((ds.features - lo) / span, ds.labels, ds.class_names),
            *((x - lo) / span for x in others))
