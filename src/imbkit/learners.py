"""From-scratch weak classifier pool and hard majority voting.

All members implement fit(features, labels, n_classes) / predict(features)
and break prediction ties toward the smallest label index, so ensemble runs
are reproducible bit-for-bit.  Only weak learners live here on purpose; the
pool accepts any object with the same surface if stronger models are wanted.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distances import nearest, pairwise_sq
from .posterior import fit_nb, log_joint


class KNNClassifier:
    """k-nearest-neighbor vote over the training set (Euclidean, k=3 default)."""

    def __init__(self, k: int = 3):
        self.k = int(k)

    def fit(self, features, labels, n_classes):
        self._x = np.asarray(features, dtype=np.float64)
        self._y = np.asarray(labels, dtype=np.int64)
        self.n_classes = int(n_classes)
        return self

    def predict(self, features):
        sq = pairwise_sq(np.asarray(features, dtype=np.float64), self._x)
        nb = nearest(sq, self.k)  # distance ties fall to lower index
        return _count_votes(self._y[nb].T, self.n_classes).argmax(axis=0)


class GaussianNBClassifier:
    """Maximum-posterior Gaussian naive Bayes, sharing the posterior module's math."""

    def fit(self, features, labels, n_classes):
        self._model = fit_nb(np.asarray(features, dtype=np.float64),
                             np.asarray(labels, dtype=np.int64), int(n_classes))
        self.n_classes = int(n_classes)
        return self

    def predict(self, features):
        return np.argmax(log_joint(self._model, np.asarray(features, dtype=np.float64)), axis=1)


def _gini_best_threshold(col: np.ndarray, y: np.ndarray, n_classes: int):
    """Best midpoint threshold for one feature by Gini gain; None if unsplittable."""
    order = np.argsort(col, kind="stable")
    sv, sy = col[order], y[order]
    change = np.flatnonzero(sv[:-1] != sv[1:])
    if change.size == 0:
        return None, -np.inf
    onehot = np.zeros((sv.size, n_classes))
    onehot[np.arange(sv.size), sy] = 1.0
    cum = np.cumsum(onehot, axis=0)
    left = cum[change]
    total = cum[-1]
    right = total - left
    nl = (change + 1).astype(float)[:, None]
    nr = sv.size - nl
    gini_l = 1.0 - ((left / nl) ** 2).sum(axis=1)
    gini_r = 1.0 - ((right / nr) ** 2).sum(axis=1)
    child = (nl.ravel() * gini_l + nr.ravel() * gini_r) / sv.size
    best = int(np.argmin(child))  # first minimum: deterministic tie-break
    parent = 1.0 - ((total / sv.size) ** 2).sum()
    thr = 0.5 * (sv[change[best]] + sv[change[best] + 1])
    return float(thr), float(parent - child[best])


class _TreeNode:
    __slots__ = ("feature", "threshold", "left", "right", "label")

    def __init__(self, label=None, feature=None, threshold=None, left=None, right=None):
        self.label, self.feature, self.threshold = label, feature, threshold
        self.left, self.right = left, right


class GiniTreeClassifier:
    """Depth-limited CART with exhaustive Gini splits; depth 1 is a decision stump."""

    def __init__(self, max_depth: int = 1):
        self.max_depth = int(max_depth)

    def _leaf(self, y):
        return _TreeNode(label=int(np.argmax(np.bincount(y, minlength=self.n_classes))))

    def _split_candidates(self, x, y, rng):
        # exhaustive midpoints; subclass hook for randomized thresholds.
        # zero-gain splits are allowed (children may still separate deeper down)
        best_f, best_t, best_gain = None, None, -np.inf
        for f in range(x.shape[1]):
            thr, gain = _gini_best_threshold(x[:, f], y, self.n_classes)
            if thr is not None and gain > best_gain + 1e-15:
                best_f, best_t, best_gain = f, thr, gain
        return best_f, best_t

    def _build(self, x, y, depth, rng):
        if depth >= self.max_depth or np.unique(y).size == 1:
            return self._leaf(y)
        f, thr = self._split_candidates(x, y, rng)
        if f is None:
            return self._leaf(y)
        mask = x[:, f] <= thr
        return _TreeNode(feature=f, threshold=thr,
                         left=self._build(x[mask], y[mask], depth + 1, rng),
                         right=self._build(x[~mask], y[~mask], depth + 1, rng))

    def fit(self, features, labels, n_classes, rng=None):
        x = np.asarray(features, dtype=np.float64)
        y = np.asarray(labels, dtype=np.int64)
        self.n_classes = int(n_classes)
        self._root = self._build(x, y, 0, rng)
        return self

    def predict(self, features):
        x = np.asarray(features, dtype=np.float64)
        out = np.empty(x.shape[0], dtype=np.int64)
        for i in range(x.shape[0]):
            node = self._root
            while node.label is None:
                node = node.left if x[i, node.feature] <= node.threshold else node.right
            out[i] = node.label
        return out


class ExtraTreeClassifier(GiniTreeClassifier):
    """Like GiniTreeClassifier but each feature's threshold is one uniform draw
    between its min and max at the node; the best-scoring feature wins."""

    def __init__(self, max_depth: int = 1, seed: int = 0):
        super().__init__(max_depth=max_depth)
        self.seed = int(seed)

    def _split_candidates(self, x, y, rng):
        best_f, best_t, best_gain = None, None, -np.inf
        parent = 1.0 - ((np.bincount(y, minlength=self.n_classes) / y.size) ** 2).sum()
        for f in range(x.shape[1]):
            lo, hi = x[:, f].min(), x[:, f].max()
            thr = rng.uniform(lo, hi)
            if hi <= lo:
                continue
            mask = x[:, f] <= thr
            nl = int(mask.sum())
            if nl == 0 or nl == y.size:
                continue
            gl = 1.0 - ((np.bincount(y[mask], minlength=self.n_classes) / nl) ** 2).sum()
            gr = 1.0 - ((np.bincount(y[~mask], minlength=self.n_classes) / (y.size - nl)) ** 2).sum()
            gain = parent - (nl * gl + (y.size - nl) * gr) / y.size
            if gain > best_gain + 1e-15:
                best_f, best_t, best_gain = f, float(thr), gain
        return best_f, best_t

    def fit(self, features, labels, n_classes, rng=None):
        return super().fit(features, labels, n_classes, rng=np.random.default_rng(self.seed))


DEFAULT_POOL_SPEC = (
    ("knn", {"k": 3}),
    ("gaussian_nb", {}),
    ("tree", {"max_depth": 1}),
    ("extra_tree", {"max_depth": 1}),
)


# The classifier each pool kind names; the randomized extra tree also takes its slot's seed.
POOL_KINDS = {"knn": KNNClassifier, "gaussian_nb": GaussianNBClassifier,
              "tree": GiniTreeClassifier, "extra_tree": ExtraTreeClassifier}


def _make_classifier(kind: str, params: dict, seed: int):
    if kind not in POOL_KINDS:
        raise ValueError(f"unknown classifier kind {kind!r}")
    seeded = {"seed": seed} if kind == "extra_tree" else {}
    return POOL_KINDS[kind](**seeded, **params)


@dataclass(frozen=True)
class ClassifierPool:
    """Fixed-order list of trained classifiers; position is the pruning genome slot."""

    classifiers: tuple
    n_classes: int

    @property
    def size(self) -> int:
        return len(self.classifiers)


def train_pool(features, labels, n_classes: int, pool_spec=None, seed: int = 0) -> ClassifierPool:
    """Train the weak-classifier pool on one training set.

    ``pool_spec`` is a sequence of (kind, params) pairs; the default is
    [knn(k=3), gaussian_nb, gini stump, extra-tree stump].  Randomized members
    derive their stream from (seed, slot index).
    """
    x = np.asarray(features, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    if np.unique(y).size < 2:
        raise ValueError("pool training needs at least 2 classes present")
    spec = tuple(pool_spec) if pool_spec is not None else DEFAULT_POOL_SPEC
    members = []
    for slot, (kind, params) in enumerate(spec):
        clf = _make_classifier(kind, dict(params), seed=(int(seed) * 1000003 + slot) & 0x7FFFFFFF)
        clf.fit(x, y, n_classes)
        members.append(clf)
    return ClassifierPool(classifiers=tuple(members), n_classes=int(n_classes))


def member_predictions(pool: ClassifierPool, features) -> np.ndarray:
    """(pool size, m) label matrix; computed once and reused by mask evaluations."""
    x = np.asarray(features, dtype=np.float64)
    return np.vstack([clf.predict(x) for clf in pool.classifiers])


def _count_votes(labels: np.ndarray, n_classes: int) -> np.ndarray:
    """(n_classes, columns) count of each label down each column of a (voters, columns) array.

    ``argmax(axis=0)`` of the counts is the column's majority label, ties going
    to the smallest label.
    """
    labels = np.asarray(labels, dtype=np.int64)
    cols = labels.shape[1]
    flat = np.bincount((labels * cols + np.arange(cols)).ravel(), minlength=n_classes * cols)
    return flat.reshape(n_classes, cols)


def vote_from_predictions(preds: np.ndarray, mask, n_classes: int) -> np.ndarray:
    """Hard majority vote over the mask-selected rows; ties go to the smallest label."""
    mask = np.asarray(mask, dtype=bool)
    if mask.shape[0] != preds.shape[0]:
        raise ValueError("mask length must equal pool size")
    if not mask.any():
        raise ValueError("mask selects no classifiers")
    return _count_votes(preds[mask], n_classes).argmax(axis=0)


def vote_shares(preds: np.ndarray, mask, n_classes: int) -> np.ndarray:
    """(m, n) fraction of selected classifiers voting each class; posterior-like scores."""
    mask = np.asarray(mask, dtype=bool)
    sel = preds[mask]
    return (_count_votes(sel, n_classes) / sel.shape[0]).T

