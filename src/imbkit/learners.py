"""From-scratch weak classifier pool and hard majority voting.

All members implement fit(features, labels, n_classes) / predict(features)
and break prediction ties toward the smallest label index, so ensemble runs
are reproducible bit-for-bit.  Only weak learners live here on purpose: a
pool holds only the ``POOL_KINDS`` that ``make_classifier`` builds, and
``RunConfig`` rejects any other kind.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distances import nearest, pairwise_sq, reduce_rows
from .posterior import fit_nb, log_joint


def _positive_int(name: str, value) -> int:
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 1:
        raise ValueError(f"{name} must be an integer >= 1, got {value!r}")
    return int(value)


class KNNClassifier:
    """k-nearest-neighbor vote over the training set (Euclidean, k=3 default)."""

    def __init__(self, k: int = 3):
        self.k = _positive_int("k", k)

    def fit(self, features, labels, n_classes):
        self._x = np.asarray(features, dtype=np.float64)
        self._y = np.asarray(labels, dtype=np.int64)
        self.n_classes = int(n_classes)
        return self

    def predict(self, features):
        x = np.asarray(features, dtype=np.float64)
        nb = reduce_rows(pairwise_sq, x, self._x, lambda sq: nearest(sq, self.k))  # ties fall to lower index
        return count_votes(self._y[nb].T, self.n_classes).argmax(axis=0)


class GaussianNBClassifier:
    """Maximum-posterior Gaussian naive Bayes, sharing the posterior module's math."""

    def fit(self, features, labels, n_classes):
        self._model = fit_nb(np.asarray(features, dtype=np.float64),
                             np.asarray(labels, dtype=np.int64), int(n_classes))
        self.n_classes = int(n_classes)
        return self

    def predict(self, features):
        return np.argmax(log_joint(self._model, np.asarray(features, dtype=np.float64)), axis=1)


def _gini(counts: np.ndarray, n) -> np.ndarray:
    """Gini impurity of class counts over ``n`` samples, along the last axis."""
    return 1.0 - ((counts / n) ** 2).sum(axis=-1)


class GiniTreeClassifier:
    """Depth-limited CART with exhaustive Gini splits; depth 1 is a decision stump.

    A node is a leaf label or a (feature, threshold, left, right) tuple; ``<=`` goes left.
    """

    def __init__(self, max_depth: int = 1):
        self.max_depth = _positive_int("max_depth", max_depth)

    def _threshold(self, col, y):
        """(threshold, weighted child impurity) of one feature's best split; (None, inf) if none.

        Only the class counts at boundaries between distinct values enter an
        impurity, whatever the order of equal values, so the sort need not be
        stable.  The threshold lies in the boundary's ``[lo, hi)``: the midpoint
        can round onto ``hi`` for adjacent floats, or overflow.
        """
        order = np.argsort(col)
        sv, sy = col[order], y[order]
        change = np.flatnonzero(sv[:-1] != sv[1:])
        if change.size == 0:
            return None, np.inf
        cum = np.cumsum(np.eye(self.n_classes)[sy], axis=0)  # class counts of each prefix
        left = cum[change]
        nl = (change + 1).astype(float)[:, None]
        nr = sv.size - nl
        child = (nl.ravel() * _gini(left, nl) + nr.ravel() * _gini(cum[-1] - left, nr)) / sv.size
        best = int(np.argmin(child))  # first minimum: deterministic tie-break
        lo, hi = float(sv[change[best]]), float(sv[change[best] + 1])  # Python floats overflow without a warning
        thr = 0.5 * (lo + hi)
        if not lo <= thr < hi:
            thr = 0.5 * lo + 0.5 * hi
            if not lo <= thr < hi:
                thr = lo
        return thr, child[best]

    def _split(self, x, y):
        """(feature, threshold) of the highest-gain split, the first feature on ties; None if none.

        Zero-gain splits count: their children may still separate deeper down."""
        parent = _gini(np.bincount(y, minlength=self.n_classes), y.size)
        best, best_gain = None, -np.inf
        for f in range(x.shape[1]):
            thr, child = self._threshold(x[:, f], y)
            if parent - child > best_gain + 1e-15:
                best, best_gain = (f, thr), parent - child
        return best

    def _build(self, x, y, depth):
        split = self._split(x, y) if depth < self.max_depth and np.unique(y).size > 1 else None
        if split is None:
            return int(np.argmax(np.bincount(y, minlength=self.n_classes)))
        f, thr = split
        go_left = x[:, f] <= thr
        return (f, thr, self._build(x[go_left], y[go_left], depth + 1),
                self._build(x[~go_left], y[~go_left], depth + 1))

    def fit(self, features, labels, n_classes):
        x = np.asarray(features, dtype=np.float64)
        y = np.asarray(labels, dtype=np.int64)
        self.n_classes = int(n_classes)
        self._root = self._build(x, y, 0)
        return self

    def predict(self, features):
        x = np.asarray(features, dtype=np.float64)
        out = np.empty(x.shape[0], dtype=np.int64)
        pending = [(self._root, np.arange(x.shape[0]))]  # (node, rows that reach it)
        while pending:
            node, rows = pending.pop()
            if isinstance(node, tuple):
                f, thr, left, right = node
                go_left = x[rows, f] <= thr
                pending += [(left, rows[go_left]), (right, rows[~go_left])]
            else:
                out[rows] = node
        return out


class ExtraTreeClassifier(GiniTreeClassifier):
    """Like GiniTreeClassifier but each feature's threshold is one uniform draw
    between its min and max at the node; the best-scoring feature wins."""

    def __init__(self, max_depth: int = 1, seed: int = 0):
        super().__init__(max_depth=max_depth)
        self.seed = int(seed)

    def _threshold(self, col, y):
        thr = self._rng.uniform(col.min(), col.max())  # drawn even for a constant feature
        go_left = col <= thr
        nl = int(go_left.sum())
        if nl == y.size:  # nothing above the draw, e.g. a constant feature
            return None, np.inf
        gini_l = _gini(np.bincount(y[go_left], minlength=self.n_classes), nl)
        gini_r = _gini(np.bincount(y[~go_left], minlength=self.n_classes), y.size - nl)
        return float(thr), (nl * gini_l + (y.size - nl) * gini_r) / y.size

    def fit(self, features, labels, n_classes):
        self._rng = np.random.default_rng(self.seed)
        return super().fit(features, labels, n_classes)


DEFAULT_POOL_SPEC = (
    ("knn", {"k": 3}),
    ("gaussian_nb", {}),
    ("tree", {"max_depth": 1}),
    ("extra_tree", {"max_depth": 1}),
)


# The classifier each pool kind names; the randomized extra tree also takes its slot's seed.
POOL_KINDS = {"knn": KNNClassifier, "gaussian_nb": GaussianNBClassifier,
              "tree": GiniTreeClassifier, "extra_tree": ExtraTreeClassifier}


def make_classifier(kind: str, params: dict, seed: int):
    """The untrained classifier of one pool entry; a bad kind or parameter raises here."""
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

    ``pool_spec`` is a non-empty sequence of (kind, params) pairs; the default is
    [knn(k=3), gaussian_nb, gini stump, extra-tree stump].  Randomized members
    derive their stream from (seed, slot index).
    """
    x = np.asarray(features, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    if np.unique(y).size < 2:
        raise ValueError("pool training needs at least 2 classes present")
    spec = tuple(pool_spec) if pool_spec is not None else DEFAULT_POOL_SPEC
    if not spec:
        raise ValueError("pool_spec must name at least one classifier")
    members = []
    for slot, (kind, params) in enumerate(spec):
        clf = make_classifier(kind, dict(params), seed=(int(seed) * 1000003 + slot) & 0x7FFFFFFF)
        clf.fit(x, y, n_classes)
        members.append(clf)
    return ClassifierPool(classifiers=tuple(members), n_classes=int(n_classes))


def member_predictions(pool: ClassifierPool, features) -> np.ndarray:
    """(pool size, m) label matrix; computed once and reused by mask evaluations.

    A member predicting a label outside [0, n_classes) raises ``ValueError``
    naming its slot, so the votes counted from the matrix need no check.  The
    labels then fit the narrowest integer type that holds ``n_classes - 1``,
    and the matrix is returned in it: a run keeps every fold's matrices until
    its one search is done.
    """
    x = np.asarray(features, dtype=np.float64)
    preds = np.vstack([clf.predict(x) for clf in pool.classifiers])
    bad = ((preds < 0) | (preds >= pool.n_classes)).any(axis=1)
    if bad.any():
        raise ValueError(f"pool member in slot {int(np.flatnonzero(bad)[0])} predicted a label "
                         f"outside [0, n_classes) = [0, {pool.n_classes})")
    return preds.astype(np.min_scalar_type(pool.n_classes - 1))


def count_votes(labels: np.ndarray, n_classes: int) -> np.ndarray:
    """(n_classes, columns) count of each label down each column of a (voters, columns) array.

    ``argmax(axis=0)`` of the counts is the column's majority label, ties going
    to the smallest label.
    """
    labels = np.asarray(labels, dtype=np.int64)
    cols = labels.shape[1]
    flat = np.bincount((labels * cols + np.arange(cols)).ravel(), minlength=n_classes * cols)
    return flat.reshape(n_classes, cols)


def _selected(preds: np.ndarray, mask) -> np.ndarray:
    """The rows of a (pool size, m) prediction matrix that a non-empty pool-length mask selects."""
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != preds.shape[:1]:
        raise ValueError("mask length must equal pool size")
    if not mask.any():
        raise ValueError("mask selects no classifiers")
    return preds[mask]


def vote_from_predictions(preds: np.ndarray, mask, n_classes: int) -> np.ndarray:
    """Hard majority vote over the mask-selected rows; ties go to the smallest label."""
    return count_votes(_selected(preds, mask), n_classes).argmax(axis=0)


def vote_shares(preds: np.ndarray, mask, n_classes: int) -> np.ndarray:
    """(m, n) fraction of selected classifiers voting each class; posterior-like scores."""
    sel = _selected(preds, mask)
    return (count_votes(sel, n_classes) / sel.shape[0]).T
