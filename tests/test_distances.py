import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from imbkit import distances
from imbkit.data_model import load_csv, minmax_scale
from imbkit.distances import (CHUNK_CELLS, NEAREST_BLOCK, _right_operand, _row_chunks, min_dist, nearest, pairwise,
                              pairwise_sq, reduce_rows, restrict_nearest)
from imbkit.learners import KNNClassifier, count_votes
from imbkit.metrics import overlap_ratios
from imbkit.overlap import gap_profile
from imbkit.region import CORE, OVERLAPPING, RegionAssignment
from imbkit.resample import _neighbor_table
from tests.conftest import make_blobs


def argsort_oracle(sq, k):
    """The selection ``nearest`` must reproduce: a stable full-row sort of the clipped matrix, first k columns."""
    return np.argsort(np.maximum(sq, 0.0), axis=1, kind="stable")[:, :max(0, k)]


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

    @settings(max_examples=200, deadline=None)
    @given(tie_heavy_matrices(), st.integers(0, 2**32 - 1))
    def test_tiny_negative_entries_equal_argsort_of_the_clipped_matrix(self, case, seed):
        # the identity leaves equal rows a tiny negative apart; nearest ranks them as the clipped 0 they stand for
        sq, k = case
        rng = np.random.default_rng(seed)
        negative = rng.random(sq.shape) < 0.3
        sq[negative] = -rng.random(np.count_nonzero(negative)) * 1e-15
        assert np.array_equal(nearest(sq, k), argsort_oracle(sq, k))

    def test_negatives_tie_with_zero_by_index(self):
        sq = np.array([[0.5, -1e-16, 0.0, -2e-16, 1.0]])
        assert np.argsort(sq, axis=1, kind="stable")[0, :3].tolist() == [3, 1, 2]  # the unclipped order
        assert nearest(sq, 3).tolist() == [[1, 2, 3]]

    def test_kth_value_tied_outside_the_shortlist(self):
        # 2 entries below the 3rd value 1.0 and five entries equal to it: the
        # shortlist holds one of them, the kept one must be the lowest index
        row = np.array([1.0, 1.0, 0.0, 1.0, 1.0, 0.5, 1.0, 3.0])
        sq = np.vstack([row, row[::-1]])
        assert np.count_nonzero(sq <= 1.0, axis=1).tolist() == [7, 7]
        assert nearest(sq, 3).tolist() == [[2, 5, 0], [5, 2, 1]]
        assert np.array_equal(nearest(sq, 3), argsort_oracle(sq, 3))


@st.composite
def wide_matrices(draw):
    """Rows wide enough that the column groups are wider than 1 and the last one takes a remainder."""
    m = draw(st.integers(1, NEAREST_BLOCK + 5))
    n = draw(st.integers(1, 400))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    sq = rng.integers(0, draw(st.integers(1, 50)), size=(m, n)).astype(np.float64)
    sq[rng.random((m, n)) < draw(st.sampled_from([0.0, 0.1, 0.9]))] = np.inf
    k = draw(st.integers(0, 12) | st.integers(0, n + 2))
    return sq, k


class TestCandidateBound:
    """``nearest`` keeps only entries at or below a bound taken from column-group minima."""

    @settings(max_examples=200, deadline=None)
    @given(wide_matrices())
    def test_wide_rows_equal_stable_argsort(self, case):
        sq, k = case
        assert np.array_equal(nearest(sq, k), argsort_oracle(sq, k))

    @pytest.mark.parametrize("k", [1, 3, 5, 7])
    def test_k_nearest_in_one_column_group(self, k):
        # class-sorted points on a line: each row's neighbours are adjacent columns
        x = np.sort(np.random.default_rng(2).normal(size=(400, 1)), axis=0)
        sq = pairwise_sq(x, x)
        np.fill_diagonal(sq, np.inf)
        ref = argsort_oracle(sq, k)
        groups = np.minimum(ref // (400 // (4 * k)), 4 * k - 1)  # the last group takes the remainder
        assert np.mean(np.all(groups == groups[:, :1], axis=1)) > 0.5
        assert np.array_equal(nearest(sq, k), ref)

    @pytest.mark.parametrize("k", [1, 4, 37, 100])
    def test_all_inf_and_all_equal_rows(self, k):
        rng = np.random.default_rng(k)
        sq = rng.integers(0, 3, size=(NEAREST_BLOCK + 9, 100)).astype(np.float64)
        sq[::3] = np.inf
        sq[1::3] = 2.0
        assert np.array_equal(nearest(sq, k), argsort_oracle(sq, k))
        for fill in (np.inf, 0.0):
            assert nearest(np.full((5, 100), fill), k).tolist() == [list(range(k))] * 5

    @pytest.mark.parametrize("n", [1, 2, 7, 64, 129])
    def test_k_equal_to_row_length(self, n):
        sq = np.random.default_rng(n).integers(0, 4, size=(NEAREST_BLOCK + 3, n)).astype(np.float64)
        sq[:, n // 2] = np.inf
        assert np.array_equal(nearest(sq, n), np.argsort(sq, axis=1, kind="stable"))

    @pytest.mark.parametrize("scaled", [False, True], ids=["raw", "scaled"])
    @pytest.mark.parametrize("k", [1, 3, 5, 7])
    def test_whole_contraceptive_matrix(self, data_dir, scaled, k):
        # duplicate rows tie: 69 % of raw rows and 14 % of min-max scaled rows
        # have more than 3 entries at or below their 3rd-nearest distance
        ds = load_csv(data_dir / "contraceptive.csv", "class")
        x = (minmax_scale(ds)[0] if scaled else ds).features
        sq = pairwise_sq(x, x)
        np.fill_diagonal(sq, np.inf)
        kth = np.sort(sq, axis=1)[:, k - 1:k]
        assert np.count_nonzero(np.count_nonzero(sq <= kth, axis=1) > k) > 100
        assert np.array_equal(nearest(sq, k), argsort_oracle(sq, k))


def overlap_ratios_reference(ds, knn_k):
    """The overlap ratios computed by a full stable sort and a per-sample loop."""
    sq = pairwise_sq(ds.features, ds.features)
    np.fill_diagonal(sq, np.inf)
    nb_labels = ds.labels[argsort_oracle(sq, knn_k)]
    n_flagged = np.zeros(ds.n_classes, dtype=np.int64)
    for i in range(ds.n_samples):
        if np.count_nonzero(nb_labels[i] != ds.labels[i]) >= int(np.ceil(knn_k / 2)):
            n_flagged[ds.labels[i]] += 1
    or_class = n_flagged / ds.class_counts()
    return or_class, float(or_class.mean())


@pytest.fixture(params=["balance", "blobs"])
def oracle_ds(request, data_dir):
    if request.param == "balance":  # integer features in 1..5: heavy distance ties
        return load_csv(data_dir / "balance.csv", "class")
    return make_blobs([(0.0, 0.0), (1.5, 0.0), (3.0, 3.0)], [150, 40, 25], std=1.0, seed=5)


class TestCallersMatchArgsortOracle:
    @pytest.mark.parametrize("knn_k", [1, 3, 5, 8])
    def test_overlap_ratios(self, oracle_ds, knn_k):
        rep = overlap_ratios(oracle_ds, knn_k=knn_k)
        or_class, or_dataset = overlap_ratios_reference(oracle_ds, knn_k)
        assert np.array_equal(rep.or_class, or_class)
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


def restrict_oracle(x, rows, k):
    """Positions in ``rows`` of each row's k nearest other rows: a stable sort of the whole matrix's cells
    with the self cell and every column outside ``rows`` at ``inf``."""
    sq = pairwise_sq(x, x)
    np.fill_diagonal(sq, np.inf)
    outside = np.ones(len(x), dtype=bool)
    outside[rows] = False
    sq[:, outside] = np.inf
    return np.searchsorted(rows, argsort_oracle(sq[rows], k))


@pytest.fixture
def module_calls(monkeypatch):
    """The shape of each call of ``distances.pairwise_sq`` by its module's name, as ``restrict_nearest`` makes.

    This test module's own ``pairwise_sq`` stays the unpatched function, so the
    tables and oracles built here add no entry.
    """
    shapes = []

    def counting(a, b, norms=None):
        shapes.append((len(a), len(b)))
        return pairwise_sq(a, b, norms)

    monkeypatch.setattr(distances, "pairwise_sq", counting)
    return shapes


def dataset_table(x, big_k):
    return reduce_rows(pairwise_sq, x, x, lambda sq: nearest(sq, big_k), exclude_self=True)


class TestRestrictNearest:
    """A subset's k nearest, read from the whole dataset's K-nearest table, equal the oracle's."""

    @pytest.mark.parametrize("share", [0.5, 0.8, 0.95])
    @pytest.mark.parametrize("k", [1, 3, 5, 8])
    def test_random_sorted_subsets(self, oracle_ds, share, k):
        x = oracle_ds.features
        table = dataset_table(x, 3 * k)
        rng = np.random.default_rng(int(100 * share) + k)
        for _ in range(3):
            rows = np.flatnonzero(rng.random(len(x)) < share)
            assert np.array_equal(restrict_nearest(x, table, rows, k), restrict_oracle(x, rows, k))

    @pytest.mark.parametrize("k", [1, 3, 5, 8])
    def test_rows_left_short_recompute_their_block(self, oracle_ds, module_calls, k):
        # drop every 8th row's nearest neighbour from the subset: with K = k those
        # rows keep fewer than k of their K and fall back to their own block
        x = oracle_ds.features
        table = dataset_table(x, k)
        targets = np.arange(0, len(x), 8)
        dropped = np.setdiff1d(table[targets, 0], targets)
        rows = np.setdiff1d(np.arange(len(x)), dropped)
        position = np.full(len(x), -1)
        position[rows] = np.arange(len(rows))
        short = np.count_nonzero(position[table[rows]] >= 0, axis=1) < k
        assert short.any() and not short.all()
        got = restrict_nearest(x, table, rows, k)
        assert np.array_equal(got, restrict_oracle(x, rows, k))
        blocks = np.unique(rows[short] // NEAREST_BLOCK)
        assert module_calls == [(min(NEAREST_BLOCK, len(x) - b * NEAREST_BLOCK), len(x)) for b in blocks]

    @pytest.mark.parametrize("k", [1, 3, 5, 8])
    def test_table_of_every_other_row(self, oracle_ds, module_calls, k):
        # K >= n - 1: the table holds every other row (and, past n - 1, the self cell last),
        # so no row falls back
        x = oracle_ds.features
        rows = np.flatnonzero(np.random.default_rng(k).random(len(x)) < 0.8)
        for big_k in (len(x) - 1, len(x) + 3):
            got = restrict_nearest(x, dataset_table(x, big_k), rows, k)
            assert np.array_equal(got, restrict_oracle(x, rows, k))
            assert module_calls == []

    def test_whole_dataset_equals_the_table(self, oracle_ds):
        x = oracle_ds.features
        table = dataset_table(x, 15)
        rows = np.arange(len(x))
        assert np.array_equal(restrict_nearest(x, table, rows, 5), table[:, :5])


def identity_oracle(a, b):
    """The unclipped cells ``pairwise_sq`` must match bit for bit: on each
    ``NEAREST_BLOCK``-row block of ``a``, the product ``[a, 1, aa] @ [-2·bᵀ; bb; 1]``.

    A whole-matrix product would not do: GEMM cells depend on the product's
    row count, and it differs on the 65- and 197-row cases.  Nor would a
    column-major ``right``: a one-row block's product (a matrix-vector call)
    sums in another order on it.
    """
    left = np.hstack([a, np.ones((len(a), 1)), (a * a).sum(axis=1)[:, None]])
    right = np.ascontiguousarray(np.vstack([-2.0 * b.T, (b * b).sum(axis=1), np.ones(len(b))]))
    return np.vstack([left[s:s + NEAREST_BLOCK] @ right for s in range(0, a.shape[0], NEAREST_BLOCK)])


ROW_COUNTS = (1, NEAREST_BLOCK - 1, NEAREST_BLOCK, NEAREST_BLOCK + 1, 3 * NEAREST_BLOCK + 5)


@pytest.fixture(scope="module", params=["raw", "scaled"])
def vehicle_features(request, data_dir):
    ds = load_csv(data_dir / "vehicle.csv", "class")
    return (minmax_scale(ds)[0] if request.param == "scaled" else ds).features


class TestPairwiseCells:
    @pytest.mark.parametrize("rows", ROW_COUNTS)
    def test_self_distances_equal_the_identity(self, vehicle_features, rows):
        a = vehicle_features[:rows]
        got = pairwise_sq(a, a)
        assert got.shape == (rows, rows)
        assert np.array_equal(got, identity_oracle(a, a))
        assert np.array_equal(pairwise(a, a), np.sqrt(np.maximum(identity_oracle(a, a), 0.0)))

    @pytest.mark.parametrize("rows", ROW_COUNTS)
    def test_query_against_train_equals_the_identity(self, vehicle_features, rows):
        query, train = vehicle_features[-rows:], vehicle_features[:500]
        got = pairwise_sq(query, train)
        assert got.shape == (rows, 500)
        assert np.array_equal(got, identity_oracle(query, train))
        assert np.array_equal(pairwise(query, train), np.sqrt(np.maximum(identity_oracle(query, train), 0.0)))

    # wide operands: a 3,210-column block is 1.6 MB, and 513 columns once split an elementwise tail into pieces
    @pytest.mark.parametrize("width", [513, 3210])
    @pytest.mark.parametrize("rows", [NEAREST_BLOCK, 3 * NEAREST_BLOCK + 5])
    def test_tail_split_into_pieces_equals_the_identity(self, vehicle_features, rows, width):
        train = np.resize(vehicle_features, (width, vehicle_features.shape[1]))  # repeats the rows
        query = vehicle_features[-rows:]
        assert np.array_equal(pairwise_sq(query, train), identity_oracle(query, train))

    def test_error_within_the_documented_bound(self, vehicle_features):
        # |cell - exact| <= (3z + 4)·u·(aa + bb) to first order, z features, u = 2**-53; also 1e6 from the origin
        rng = np.random.default_rng(5)
        for a in (vehicle_features[rng.choice(len(vehicle_features), 24, replace=False)],
                  1e6 + rng.random((24, 5))):
            z = a.shape[1]
            exact = np.array([[float(sum((Fraction(p) - Fraction(q)) ** 2 for p, q in zip(r, c))) for c in a]
                              for r in a])
            norms = (a * a).sum(axis=1)
            bound = (3 * z + 4) * 2.0 ** -53 * (norms[:, None] + norms[None, :]) * (1 + 1e-6)
            assert np.all(np.abs(pairwise_sq(a, a) - exact) <= bound)

    def test_small_integer_features_give_exact_cells(self, data_dir):
        # balance's features are integers 1-5: every cell is the exact integer, so equal distances tie exactly
        x = load_csv(data_dir / "balance.csv", "class").features
        assert np.array_equal(x, np.round(x))
        exact = ((x[:, None, :] - x[None, :, :]) ** 2).sum(axis=-1)
        assert np.array_equal(pairwise_sq(x, x), exact)
        assert np.array_equal(pairwise_sq(x[:70], x[300:]), exact[:70, 300:])

    def test_duplicate_rows_are_exactly_zero_apart(self, data_dir):
        # scaled vehicle rows stacked twice: some duplicate pairs have a negative identity cell
        a = minmax_scale(load_csv(data_dir / "vehicle.csv", "class"))[0].features[:40]
        x = np.vstack([a, a])
        own = (np.arange(80), np.arange(80) % 40)  # each row against the first copy of itself
        sq = pairwise_sq(x, x)
        negative = sq[own] < 0.0
        assert np.any(negative)
        got = pairwise(x, x)
        assert not np.isnan(got).any()
        assert np.all(got[own][negative] == 0.0)
        closest = min_dist(x, x)
        assert not np.isnan(closest).any()
        assert np.all(closest[sq.min(axis=1) < 0.0] == 0.0)


class TestOverflowingNorms:
    """Features whose squared norms overflow float64 raise a named error, not NaN cells."""

    @pytest.fixture
    def huge(self):
        rng = np.random.default_rng(0)
        return 1e154 + rng.random((60, 3)) * 1e150 * np.arange(1, 61)[:, None]

    def test_direct_calls_raise(self, huge):
        for fn in (pairwise_sq, pairwise, min_dist):
            with pytest.raises(ValueError, match="squared row norms overflow"):
                fn(huge, huge)
        with pytest.raises(ValueError, match="squared row norms overflow"):
            pairwise_sq(np.ones((2, 3)), huge)  # the bound takes each side's largest norm

    def test_only_the_error_speaks(self, huge):
        # norms that overflow in the row sum, and finite norms whose largest pair overflows in the sum
        near_limit = np.full((4, 3), 1e308 / 3.0) ** 0.5
        assert np.isfinite((near_limit * near_limit).sum(axis=1)).all()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for a in (huge, near_limit):
                for fn in (pairwise_sq, min_dist):
                    with pytest.raises(ValueError, match="squared row norms overflow"):
                        fn(a, a)
                with pytest.raises(ValueError, match="squared row norms overflow"):
                    reduce_rows(pairwise_sq, a, a, lambda sq: nearest(sq, 1), exclude_self=True)

    def test_largest_finite_scale_does_not_raise(self, huge):
        x = huge / 10.0
        assert np.isfinite(pairwise(x, x)).all()

    def test_near_limit_rows_of_opposite_sign(self):
        # -2 a·b is as large as aa + bb; rows at 1e153 stay finite, and just past the bound the error speaks
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            a = np.full((3, 2), 1e153) * np.array([[1.0], [-1.0], [0.5]])
            got = pairwise_sq(a, a)
            assert not np.isnan(got).any()
            exact = ((a[:, None, :] - a[None, :, :]) ** 2).sum(axis=-1)
            assert np.allclose(got, exact, rtol=1e-14, atol=0.0)
        # max(aa) + max(bb) just finite, but the cell of two opposite rows, 2·(aa + bb), is not: the error speaks
        edge = np.array([[1.0], [-1.0]]) * np.sqrt(np.finfo(float).max / 2.0) * (1 - 1e-15)
        assert np.isfinite((edge * edge).sum(axis=1).max() * 2.0)
        past = edge * 1.000001
        with np.errstate(over="ignore"):
            assert not np.isfinite((past * past).sum(axis=1).max() * 2.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for rows in (edge, past):
                for fn in (pairwise_sq, min_dist):
                    with pytest.raises(ValueError, match="squared row norms overflow"):
                        fn(rows, rows)

    def test_rows_that_pass_the_check_give_finite_cells(self):
        # row pairs scaled to the largest size the check lets through: their cells stay finite
        # without a warning (without the margin, the product's rounding overflows 1-2 % of them)
        rng = np.random.default_rng(0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for _ in range(300):
                z = int(rng.integers(1, 12))
                a = rng.normal(size=(1, z)) * 10 ** rng.uniform(-3, 0, size=z)
                b = -a * rng.uniform(0.5, 1.0) if rng.random() < 0.5 else rng.normal(size=(1, z))
                lo = np.sqrt(np.finfo(float).max) / (np.linalg.norm(a) + np.linalg.norm(b))
                lo, hi = 0.99 * lo, 1.01 * lo
                for _ in range(60):  # bisect to the largest scale that does not raise
                    mid = (lo + hi) / 2
                    try:
                        pairwise_sq(a * mid, b * mid)
                        lo = mid
                    except ValueError:
                        hi = mid
                assert np.isfinite(pairwise_sq(a * lo, b * lo)).all()


class TestNormsOncePerCall:
    """``reduce_rows`` builds ``b``'s right operand, norms included, once per call."""

    def test_one_norm_vector_for_every_chunk(self, multi_chunk_ds):
        x = multi_chunk_ds.features
        seen = []

        def recording(a, b, operand):
            seen.append(operand)
            return pairwise_sq(a, b, operand)

        got = reduce_rows(recording, x, x, lambda sq: sq.min(axis=1))
        assert len(seen) == len(_row_chunks(len(x), len(x))) > 2
        assert all(operand is seen[0] for operand in seen)
        assert np.array_equal(seen[0], np.vstack([-2.0 * x.T, (x * x).sum(axis=1), np.ones(len(x))]))
        assert np.array_equal(got, pairwise_sq(x, x).min(axis=1))

    def test_given_norms_equal_computed_ones(self, vehicle_features):
        a, b = vehicle_features[:70], vehicle_features[100:400]
        operand = _right_operand(b)
        assert np.array_equal(pairwise_sq(a, b, operand), pairwise_sq(a, b))
        assert np.array_equal(pairwise(a, b, operand), pairwise(a, b))


@st.composite
def aligned_row_slices(draw):
    """A matrix, a start at a multiple of ``NEAREST_BLOCK`` and an end at one or at the last row."""
    m = draw(st.integers(1, 4 * NEAREST_BLOCK + 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = rng.random((m, draw(st.integers(1, 20))))
    if draw(st.booleans()):  # coarse values: many equal rows and distances
        a = np.round(a * 3.0)
    start = NEAREST_BLOCK * draw(st.integers(0, (m - 1) // NEAREST_BLOCK))
    stop = draw(st.sampled_from([*range(start + NEAREST_BLOCK, m, NEAREST_BLOCK), m]))
    return a, start, stop


class TestRowSlicing:
    """A cell depends only on its own row block, so aligned row slices keep every cell."""

    @settings(max_examples=200, deadline=None)
    @given(aligned_row_slices(), st.booleans())
    def test_slice_equals_rows_of_the_whole(self, case, self_product):
        a, start, stop = case
        b = a if self_product else np.random.default_rng(a.shape[0]).random((37, a.shape[1]))
        assert np.array_equal(pairwise_sq(a[start:stop], b), pairwise_sq(a, b)[start:stop])


@pytest.fixture(scope="module", params=["blobs", "contraceptive-scaled"])
def multi_chunk_ds(request, data_dir):
    if request.param == "blobs":
        return make_blobs([(0.0,) * 4, (1.0,) * 4, (2.5,) * 4], [1000, 350, 150], seed=11)
    return minmax_scale(load_csv(data_dir / "contraceptive.csv", "class"))[0]


def several_ragged_chunks(m, n):
    chunks = _row_chunks(m, n)
    sizes = [c.stop - c.start for c in chunks]
    return len(chunks) > 2 and sizes[-1] < sizes[0]


def own_class_overlapping(ds, class_id=0):
    """Class ``class_id`` all in the overlap region, every other sample core."""
    tags = np.where(ds.labels == class_id, OVERLAPPING, CORE)
    return RegionAssignment(tags=tags, max_own_posterior=np.ones(ds.n_samples), labels=ds.labels)


class TestChunkedReducersMatchWholeMatrix:
    """Each row-reducing caller sees one row chunk at a time, yet equals the whole matrix's result."""

    @pytest.mark.parametrize("knn_k", [1, 5])
    def test_overlap_ratios(self, multi_chunk_ds, knn_k):
        assert several_ragged_chunks(multi_chunk_ds.n_samples, multi_chunk_ds.n_samples)
        rep = overlap_ratios(multi_chunk_ds, knn_k=knn_k)
        or_class, or_dataset = overlap_ratios_reference(multi_chunk_ds, knn_k)
        assert np.array_equal(rep.or_class, or_class)
        assert rep.or_dataset == or_dataset

    @pytest.mark.parametrize("step", [1, 3])
    def test_min_dist(self, multi_chunk_ds, step):
        points, reference = multi_chunk_ds.features, multi_chunk_ds.features[::step]
        assert several_ragged_chunks(len(points), len(reference))
        ref = np.sqrt(np.maximum(pairwise_sq(points, reference).min(axis=1), 0.0))
        assert np.array_equal(min_dist(points, reference), ref)

    @pytest.mark.parametrize("k", [1, 3])
    def test_knn_predict(self, multi_chunk_ds, k):
        x, y, n = multi_chunk_ds.features, multi_chunk_ds.labels, multi_chunk_ds.n_classes
        assert several_ragged_chunks(len(x), len(x[::2]))
        clf = KNNClassifier(k=k).fit(x[::2], y[::2], n)
        ref = count_votes(y[::2][nearest(pairwise_sq(x, x[::2]), k)].T, n).argmax(axis=0)
        assert np.array_equal(clf.predict(x), ref)

    @pytest.mark.parametrize("knn_k", [1, 5])
    def test_neighbor_table(self, multi_chunk_ds, knn_k):
        x = multi_chunk_ds.features
        assert several_ragged_chunks(len(x), len(x))
        sq = pairwise_sq(x, x)
        np.fill_diagonal(sq, np.inf)
        assert np.array_equal(_neighbor_table(x, knn_k), nearest(sq, knn_k))

    def test_gap_profile(self, multi_chunk_ds):
        assignment = own_class_overlapping(multi_chunk_ds)
        own, ref = multi_chunk_ds.labels == 0, multi_chunk_ds.labels != 0
        chunks = _row_chunks(np.count_nonzero(own), np.count_nonzero(ref))
        assert len(chunks) >= 2 and chunks[-1].stop - chunks[-1].start < chunks[0].stop - chunks[0].start
        med = np.median(pairwise(multi_chunk_ds.features[own], multi_chunk_ds.features[ref]), axis=1,
                        overwrite_input=True)
        profile = gap_profile(multi_chunk_ds, assignment, 0)
        order = np.lexsort((np.flatnonzero(own), med))
        assert np.array_equal(profile.ordered_samples, np.flatnonzero(own)[order])
        assert np.array_equal(profile.distances, med[order])


class TestZeroRowQueries:
    """A query of no rows computes no distance and returns the reducer's empty output."""

    def test_knn_predict(self):
        x = np.random.default_rng(0).random((10, 3))
        clf = KNNClassifier(k=3).fit(x, np.arange(10) % 2, 2)
        assert clf.predict(np.empty((0, 3))).shape == (0,)

    def test_min_dist(self):
        got = min_dist(np.empty((0, 3)), np.ones((4, 3)))
        assert got.shape == (0,) and got.dtype == np.float64

    def test_reduce_rows_calls_no_distance(self):
        def no_call(a, b):
            raise AssertionError("distance computed for a query of no rows")
        assert reduce_rows(no_call, np.empty((0, 3)), np.ones((4, 3)), lambda sq: nearest(sq, 2)).shape == (0, 2)


def traced_peak(fn, *args):
    """Bytes allocated by ``fn(*args)`` at its peak, above what was live before the call.

    One untraced call comes first, so lazy imports (``np.median`` imports
    ``numpy.ma`` on first use) do not count.
    """
    fn(*args)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        fn(*args)
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def mixture():
    """1,500 rows in 10 dimensions: a 1,500 x 1,500 float64 matrix is 18 MB."""
    return make_blobs([(0.0,) * 10, (1.0,) * 10, (2.0,) * 10], [1000, 350, 150], seed=4)


class TestOneDistanceMatrixPerCall:
    """Every distance caller holds at most one (m, n) float64 array at a time."""

    BOUND = 1.25  # in units of one (m, n) float64 matrix

    @pytest.mark.parametrize("fn", [pairwise_sq, pairwise, min_dist])
    def test_kernels(self, mixture, fn):
        x = mixture.features
        assert traced_peak(fn, x, x) <= self.BOUND * x.shape[0] ** 2 * 8

    def test_overlap_ratios(self, mixture):
        assert traced_peak(overlap_ratios, mixture, 5) <= self.BOUND * mixture.n_samples ** 2 * 8

    def test_knn_predict(self, mixture):
        x, y = mixture.features, mixture.labels
        clf = KNNClassifier(k=3).fit(x[::2], y[::2], mixture.n_classes)
        assert traced_peak(clf.predict, x) <= self.BOUND * x.shape[0] * x[::2].shape[0] * 8

    def test_neighbor_table(self, mixture):
        x = mixture.features
        assert traced_peak(_neighbor_table, x, 5) <= self.BOUND * x.shape[0] ** 2 * 8

    def test_gap_profile(self, mixture):
        # class 0 all overlapping, the rest core: a 1000 x 500 median-distance matrix
        labels = mixture.labels
        tags = np.where(labels == 0, OVERLAPPING, CORE)
        assignment = RegionAssignment(tags=tags, max_own_posterior=np.ones(labels.size), labels=labels)
        own = np.count_nonzero(labels == 0)
        peak = traced_peak(gap_profile, mixture, assignment, 0)
        assert peak <= self.BOUND * own * (labels.size - own) * 8

    def test_block_wider_than_its_tail(self, mixture):
        # one 64-row block against 3,210 rows: the product writes into the result, with no block-sized temporary
        b = np.resize(mixture.features, (3210, mixture.features.shape[1]))
        a = mixture.features[:NEAREST_BLOCK]
        assert traced_peak(pairwise_sq, a, b) <= self.BOUND * a.shape[0] * b.shape[0] * 8


class TestChunkedReducersMemory:
    """No row-reducing caller holds an m x n matrix, only ``reduce_rows`` chunks of it."""

    BOUND = 0.25  # in units of one (m, m) float64 matrix
    CHUNK_BOUND = 2 * CHUNK_CELLS * 8  # bytes: two chunks' worth of float64 cells

    def test_overlap_ratios(self, mixture):
        assert traced_peak(overlap_ratios, mixture, 5) <= self.BOUND * mixture.n_samples ** 2 * 8

    def test_min_dist(self, mixture):
        x = mixture.features
        assert traced_peak(min_dist, x, x) <= self.BOUND * x.shape[0] ** 2 * 8

    def test_knn_predict(self, mixture):
        x, y = mixture.features, mixture.labels
        clf = KNNClassifier(k=3).fit(x[::2], y[::2], mixture.n_classes)
        assert traced_peak(clf.predict, x) <= self.CHUNK_BOUND

    def test_neighbor_table(self, mixture):
        assert traced_peak(_neighbor_table, mixture.features, 5) <= self.CHUNK_BOUND

    def test_gap_profile(self, mixture):
        assert traced_peak(gap_profile, mixture, own_class_overlapping(mixture), 0) <= self.CHUNK_BOUND
