import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from imbkit.data_model import load_csv
from imbkit.distances import NEAREST_BLOCK, nearest, pairwise_sq
from imbkit.learners import KNNClassifier
from imbkit.metrics import overlap_ratios
from imbkit.resample import _neighbor_table
from tests.conftest import make_blobs


def argsort_oracle(sq, k):
    """The selection ``nearest`` must reproduce: a stable full-row sort, first k columns."""
    return np.argsort(sq, axis=1, kind="stable")[:, :max(0, k)]


@st.composite
def tie_heavy_matrices(draw):
    """Small-integer matrices (many equal entries), some cells inf, and a k around the width."""
    m = draw(st.integers(1, 3 * NEAREST_BLOCK + 5))
    n = draw(st.integers(1, 30))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    sq = rng.integers(0, draw(st.integers(1, 5)), size=(m, n)).astype(np.float64)
    sq[rng.random((m, n)) < draw(st.sampled_from([0.0, 0.1, 0.5]))] = np.inf
    k = draw(st.integers(0, n + 2))
    return sq, k


class TestNearest:
    @settings(max_examples=300, deadline=None)
    @given(tie_heavy_matrices())
    def test_equals_stable_argsort(self, case):
        sq, k = case
        got = nearest(sq, k)
        assert got.shape == (sq.shape[0], min(k, sq.shape[1]))
        assert np.array_equal(got, argsort_oracle(sq, k))

    @settings(max_examples=50, deadline=None)
    @given(m=st.integers(1, 2 * NEAREST_BLOCK + 3), k=st.integers(1, 8),
           seed=st.integers(0, 2**32 - 1))
    def test_grid_points_with_filled_diagonal(self, m, k, seed):
        # points on a coarse integer grid: many exactly equal distances
        pts = np.random.default_rng(seed).integers(0, 3, size=(m, 2)).astype(np.float64)
        sq = pairwise_sq(pts, pts)
        np.fill_diagonal(sq, np.inf)
        assert np.array_equal(nearest(sq, k), argsort_oracle(sq, k))

    def test_k_zero_and_k_at_least_row_length(self):
        sq = np.array([[3.0, 1.0, 1.0], [np.inf, 0.0, 2.0]])
        assert nearest(sq, 0).shape == (2, 0)
        for k in (3, 4, 100):
            assert nearest(sq, k).tolist() == [[1, 2, 0], [1, 2, 0]]

    def test_single_row(self):
        assert nearest(np.array([[2.0, 0.0, 2.0, 1.0]]), 2).tolist() == [[1, 3]]

    def test_rows_not_a_multiple_of_the_block(self):
        sq = np.random.default_rng(3).integers(0, 4, size=(2 * NEAREST_BLOCK + 7, 20)) * 1.0
        assert np.array_equal(nearest(sq, 5), argsort_oracle(sq, 5))

    def test_kth_value_tied_outside_the_shortlist(self):
        # 2 entries below the 3rd value 1.0 and five entries equal to it: the
        # shortlist holds one of them, the kept one must be the lowest index
        row = np.array([1.0, 1.0, 0.0, 1.0, 1.0, 0.5, 1.0, 3.0])
        sq = np.vstack([row, row[::-1]])
        assert np.count_nonzero(sq <= 1.0, axis=1).tolist() == [7, 7]
        assert nearest(sq, 3).tolist() == [[2, 5, 0], [5, 2, 1]]
        assert np.array_equal(nearest(sq, 3), argsort_oracle(sq, 3))


def overlap_ratios_reference(ds, knn_k):
    """The overlap ratios computed by a full stable sort and a per-sample loop."""
    n = ds.n_classes
    sq = pairwise_sq(ds.features, ds.features)
    np.fill_diagonal(sq, np.inf)
    nb_labels = ds.labels[argsort_oracle(sq, knn_k)]
    foreign = nb_labels != ds.labels[:, None]
    flagged = foreign.sum(axis=1) >= int(np.ceil(knn_k / 2))
    counts = ds.class_counts()
    n_ov = np.zeros((n, n), dtype=np.int64)
    for i in np.flatnonzero(flagged):
        labs = nb_labels[i][foreign[i]]
        n_ov[ds.labels[i], np.argmax(np.bincount(labs, minlength=n))] += 1
    or_class = n_ov.sum(axis=1) / counts
    or_pair = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if i != j:
                or_pair[i, j] = 0.5 * (n_ov[i, j] / counts[i] + n_ov[j, i] / counts[j])
    return or_class, or_pair, float(or_class.mean())


@pytest.fixture(params=["balance", "blobs"])
def oracle_ds(request, data_dir):
    if request.param == "balance":  # integer features in 1..5: heavy distance ties
        return load_csv(data_dir / "balance.csv", "class")
    return make_blobs([(0.0, 0.0), (1.5, 0.0), (3.0, 3.0)], [150, 40, 25], std=1.0, seed=5)


class TestCallersMatchArgsortOracle:
    @pytest.mark.parametrize("knn_k", [1, 3, 5, 8])
    def test_overlap_ratios(self, oracle_ds, knn_k):
        rep = overlap_ratios(oracle_ds, knn_k=knn_k)
        or_class, or_pair, or_dataset = overlap_ratios_reference(oracle_ds, knn_k)
        assert np.array_equal(rep.or_class, or_class)
        assert np.array_equal(rep.or_pair, or_pair)
        assert rep.or_dataset == or_dataset

    @pytest.mark.parametrize("knn_k", [1, 5, 10_000])
    def test_neighbor_table(self, oracle_ds, knn_k):
        for c in range(oracle_ds.n_classes):
            data = oracle_ds.features[oracle_ds.labels == c]
            sq = pairwise_sq(data, data)
            np.fill_diagonal(sq, np.inf)
            ref = argsort_oracle(sq, min(knn_k, data.shape[0] - 1))
            assert np.array_equal(_neighbor_table(data, knn_k), ref)

    @pytest.mark.parametrize("k", [1, 3, 4, 10_000])
    def test_knn_predict(self, oracle_ds, k):
        x, y, n = oracle_ds.features, oracle_ds.labels, oracle_ds.n_classes
        train, query = np.arange(0, x.shape[0], 2), np.arange(1, x.shape[0], 2)
        clf = KNNClassifier(k=k).fit(x[train], y[train], n)
        nb = argsort_oracle(pairwise_sq(x[query], x[train]), k)
        ref = [int(np.argmax(np.bincount(y[train][row], minlength=n))) for row in nb]
        assert clf.predict(x[query]).tolist() == ref
