import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from imbkit.learners import (DEFAULT_POOL_SPEC, ExtraTreeClassifier, GaussianNBClassifier,
                             GiniTreeClassifier, KNNClassifier, _count_votes, member_predictions,
                             train_pool, vote_from_predictions, vote_shares)
from tests.conftest import make_blobs


def exhaustive_stump_oracle(x, y):
    """Try every midpoint split on the single feature; best training accuracy."""
    best = 0.0
    vals = np.sort(np.unique(x[:, 0]))
    for thr in (vals[:-1] + vals[1:]) / 2:
        left, right = y[x[:, 0] <= thr], y[x[:, 0] > thr]
        for ll in np.unique(y):
            for rl in np.unique(y):
                acc = (np.sum(left == ll) + np.sum(right == rl)) / y.size
                best = max(best, acc)
    return best


class TestKNN:
    def test_memorizes_training_points(self):
        x = np.array([[0.0], [1.0], [10.0], [11.0]])
        y = np.array([0, 0, 1, 1])
        clf = KNNClassifier(k=3).fit(x, y, 2)
        assert clf.predict(np.array([[0.5], [10.5]])).tolist() == [0, 1]

    def test_vote_tie_goes_to_smallest_label(self):
        # query equidistant to one sample of each class with k=2
        x = np.array([[0.0], [2.0]])
        y = np.array([1, 0])
        clf = KNNClassifier(k=2).fit(x, y, 2)
        assert clf.predict(np.array([[1.0]])).tolist() == [0]


class TestGiniTree:
    def test_stump_perfect_on_separable(self):
        rng = np.random.default_rng(0)
        x = np.concatenate([rng.uniform(0, 1, 30), rng.uniform(5, 6, 30)])[:, None]
        y = np.repeat([0, 1], 30)
        clf = GiniTreeClassifier(max_depth=1).fit(x, y, 2)
        acc = np.mean(clf.predict(x) == y)
        assert acc == 1.0
        assert acc == exhaustive_stump_oracle(x, y)

    def test_stump_matches_exhaustive_oracle_on_noisy_data(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(40, 1))
        y = (x[:, 0] + rng.normal(scale=0.8, size=40) > 0).astype(int)
        if len(np.unique(y)) < 2:
            pytest.skip("degenerate draw")
        clf = GiniTreeClassifier(max_depth=1).fit(x, y, 2)
        acc = np.mean(clf.predict(x) == y)
        # Gini-optimal stump attains the accuracy-optimal stump here
        assert acc == pytest.approx(exhaustive_stump_oracle(x, y), abs=1e-12)

    def test_deeper_tree_fits_xor(self):
        x = np.array([[0, 0], [0, 1], [1, 0], [1, 1]], dtype=float)
        y = np.array([0, 1, 1, 0])
        stump = GiniTreeClassifier(max_depth=1).fit(x, y, 2)
        deep = GiniTreeClassifier(max_depth=2).fit(x, y, 2)
        assert np.mean(deep.predict(x) == y) == 1.0
        assert np.mean(stump.predict(x) == y) < 1.0


class TestExtraTree:
    def test_same_seed_same_thresholds(self):
        ds = make_blobs([(0, 0), (4, 4)], [20, 20], seed=2)
        a = ExtraTreeClassifier(max_depth=1, seed=9).fit(ds.features, ds.labels, 2)
        b = ExtraTreeClassifier(max_depth=1, seed=9).fit(ds.features, ds.labels, 2)
        assert a._root.feature == b._root.feature
        assert a._root.threshold == b._root.threshold

    def test_different_seed_usually_differs(self):
        ds = make_blobs([(0, 0), (4, 4)], [20, 20], seed=2)
        thresholds = {ExtraTreeClassifier(max_depth=1, seed=s)
                      .fit(ds.features, ds.labels, 2)._root.threshold for s in range(6)}
        assert len(thresholds) > 1


class TestTrainPool:
    def test_default_pool_order(self):
        ds = make_blobs([(0, 0), (5, 5)], [15, 15], seed=0)
        pool = train_pool(ds.features, ds.labels, 2, seed=0)
        assert pool.kinds == ("knn", "gaussian_nb", "tree", "extra_tree")
        assert pool.size == 4

    def test_custom_pool_spec(self):
        ds = make_blobs([(0, 0), (5, 5)], [15, 15], seed=0)
        pool = train_pool(ds.features, ds.labels, 2,
                          pool_spec=[("knn", {"k": 1}), ("tree", {"max_depth": 2})], seed=0)
        assert pool.kinds == ("knn", "tree")

    def test_single_class_rejected(self):
        with pytest.raises(ValueError, match="2 classes"):
            train_pool(np.zeros((5, 1)), np.zeros(5, dtype=int), 2, seed=0)

    def test_each_member_beats_majority_baseline_on_separable(self, separable_ds):
        ds = separable_ds
        pool = train_pool(ds.features, ds.labels, 2, seed=1)
        baseline = ds.class_counts().max() / ds.n_samples
        preds = member_predictions(pool, ds.features)
        for row in preds:
            assert np.mean(row == ds.labels) > baseline

    def test_same_seed_same_pool(self, separable_ds):
        ds = separable_ds
        a = train_pool(ds.features, ds.labels, 2, seed=5)
        b = train_pool(ds.features, ds.labels, 2, seed=5)
        pa = member_predictions(a, ds.features)
        pb = member_predictions(b, ds.features)
        assert np.array_equal(pa, pb)


def majority_vote(pool, mask, x) -> int:
    """Voted label for a single feature vector."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    return int(vote_from_predictions(member_predictions(pool, x), mask, pool.n_classes)[0])


class TestMajorityVote:
    def _pool_with_fixed_votes(self, votes):
        class Fixed:
            def __init__(self, label):
                self.label = label
            def predict(self, x):
                return np.full(np.atleast_2d(x).shape[0], self.label, dtype=np.int64)
        from imbkit.learners import ClassifierPool
        return ClassifierPool(classifiers=tuple(Fixed(v) for v in votes),
                              kinds=tuple("fixed" for _ in votes),
                              n_classes=int(max(votes)) + 1, n_features=1)

    def test_single_selected_member(self):
        pool = self._pool_with_fixed_votes([2, 0, 1])
        assert majority_vote(pool, [1, 0, 0], np.zeros(1)) == 2

    def test_tie_breaks_to_smallest_label(self):
        pool = self._pool_with_fixed_votes([1, 1, 0, 0])
        assert majority_vote(pool, [1, 1, 1, 1], np.zeros(1)) == 0

    def test_simple_majority(self):
        pool = self._pool_with_fixed_votes([1, 1, 1, 0])
        assert majority_vote(pool, [1, 1, 1, 1], np.zeros(1)) == 1

    def test_all_zero_mask_rejected(self):
        pool = self._pool_with_fixed_votes([0, 1])
        with pytest.raises(ValueError, match="no classifiers"):
            majority_vote(pool, [0, 0], np.zeros(1))

    def test_identical_voters_permutation_invariant(self):
        pool_a = self._pool_with_fixed_votes([1, 1, 1])
        pool_b = self._pool_with_fixed_votes([1, 1, 1])
        x = np.zeros(1)
        assert majority_vote(pool_a, [1, 1, 1], x) == majority_vote(pool_b, [1, 1, 1], x)

    def test_vote_shares_sum_to_one(self):
        pool = self._pool_with_fixed_votes([0, 1, 1])
        preds = member_predictions(pool, np.zeros((4, 1)))
        shares = vote_shares(preds, [1, 1, 1], 2)
        assert shares.shape == (4, 2)
        assert np.allclose(shares.sum(axis=1), 1.0)
        assert np.allclose(shares[:, 1], 2 / 3)


def add_at_counts(labels, n_classes):
    """Row-by-row np.add.at vote counts: the reference for the bincount counter."""
    counts = np.zeros((n_classes, labels.shape[1]), dtype=np.int64)
    for row in labels:
        np.add.at(counts, (row, np.arange(row.size)), 1)
    return counts


@st.composite
def vote_matrices(draw):
    n_classes = draw(st.integers(1, 5))
    voters = draw(st.integers(1, 7))
    cols = draw(st.integers(0, 12))
    flat = draw(st.lists(st.integers(0, n_classes - 1), min_size=voters * cols,
                         max_size=voters * cols))
    return np.array(flat, dtype=np.int64).reshape(voters, cols), n_classes


class TestVoteCounter:
    @settings(max_examples=200, deadline=None)
    @given(case=vote_matrices())
    def test_matches_add_at_reference(self, case):
        labels, n_classes = case
        ref = add_at_counts(labels, n_classes)
        assert np.array_equal(_count_votes(labels, n_classes), ref)
        mask = np.ones(labels.shape[0], dtype=bool)
        winners = vote_from_predictions(labels, mask, n_classes)
        for j in range(labels.shape[1]):  # ties go to the smallest label
            assert winners[j] == min(c for c in range(n_classes) if ref[c, j] == ref[:, j].max())
        assert np.array_equal(vote_shares(labels, mask, n_classes),
                              (ref.astype(np.float64) / labels.shape[0]).T)

    def test_ties_go_to_smallest_label(self):
        labels = np.array([[2, 1, 0], [1, 2, 2], [0, 0, 1], [2, 1, 1]])
        assert _count_votes(labels, 3).tolist() == [[1, 1, 1], [1, 2, 2], [2, 1, 1]]
        assert vote_from_predictions(labels, [1, 1, 1, 1], 3).tolist() == [2, 1, 1]
        assert vote_from_predictions(labels, [1, 1, 0, 0], 3).tolist() == [1, 1, 0]

    def test_knn_predict_matches_per_row_bincount(self):
        rng = np.random.default_rng(4)
        x, y = rng.normal(size=(40, 3)), rng.integers(0, 3, 40)
        q = rng.normal(size=(25, 3))
        clf = KNNClassifier(k=4).fit(x, y, 3)
        nb = np.argsort(((q[:, None, :] - x[None, :, :]) ** 2).sum(axis=2), axis=1,
                        kind="stable")[:, :4]
        ref = [int(np.argmax(np.bincount(y[row], minlength=3))) for row in nb]
        assert clf.predict(q).tolist() == ref
