import warnings

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from imbkit.config import RunConfig
from imbkit.data_model import Dataset, PipelineWarning, rng_for
from imbkit.distances import min_dist
from imbkit.harness import balance, clean, partition_regions
from imbkit import resample
from imbkit.resample import balance_plan, build_balanced, omrp
from tests.conftest import make_blobs


def penalty_accept(x_prime, own_class, other_classes) -> bool:
    """True when x' is at least as close to its own class as to any other class."""
    own = np.atleast_2d(own_class)
    other = np.atleast_2d(other_classes)
    if own.size == 0 or other.size == 0:
        raise ValueError("reference sets must be non-empty")
    x = np.atleast_2d(x_prime)
    return bool(min_dist(x, own)[0] <= min_dist(x, other)[0])


def omrp_reference(class_data, others, needed, knn_k, rng, max_attempts_factor):
    """``omrp`` for a class of two or more samples, one attempt at a time in Python lists.

    The reference for the array version: same draws, same acceptance order,
    shortfall filled by (-margin, rejection order).
    Returns (samples, attempts, accepted, shortfall).
    """
    n = class_data.shape[0]
    nb_table = resample._neighbor_table(class_data, knn_k)
    cap = max(needed * max_attempts_factor, resample.MIN_ATTEMPT_CAP)
    kept_x, rej_x, rej_margin = [], [], []
    attempts = 0
    chunk = max(needed, 64)
    while len(kept_x) < needed and attempts < cap:
        size = min(chunk, cap - attempts)
        parents = (attempts + np.arange(size)) % n
        nb_pick = rng.integers(0, nb_table.shape[1], size=size)
        neighbors = nb_table[parents, nb_pick]
        alphas = rng.random(size)
        px = class_data[parents]
        cands = px + alphas[:, None] * (class_data[neighbors] - px)
        margins = min_dist(cands, others) - min_dist(cands, class_data)
        for i in range(size):
            attempts += 1
            if margins[i] >= 0.0:
                kept_x.append(cands[i])
                if len(kept_x) == needed:
                    break
            else:
                rej_x.append(cands[i])
                rej_margin.append(margins[i])
    accepted = len(kept_x)
    shortfall = needed - accepted
    if shortfall > 0:
        order = np.lexsort((np.arange(len(rej_margin)), -np.asarray(rej_margin)))[:shortfall]
        kept_x += [rej_x[i] for i in order]
    return np.asarray(kept_x), attempts, accepted, shortfall


def assert_on_neighbor_segments(samples, class_data, knn_k):
    """Each sample is p + alpha (q - p), alpha in [0, 1), for a class row p and one of
    p's ``_neighbor_table`` neighbours q."""
    nb_table = resample._neighbor_table(class_data, knn_k)
    segments = [(p, class_data[q] - p) for p, row in zip(class_data, nb_table) for q in row]

    def on_segment(x, p, d):
        a = (x - p) @ d / (d @ d) if d.any() else 0.0
        return -1e-12 <= a < 1.0 and np.allclose(p + a * d, x, atol=1e-12)

    for x in samples:
        assert any(on_segment(x, p, d) for p, d in segments), x


class TestBalancePlan:
    def test_subtraction(self):
        assert balance_plan([50, 30, 20]).tolist() == [0, 20, 30]

    def test_all_equal(self):
        assert balance_plan([10, 10, 10]).tolist() == [0, 0, 0]

    def test_extreme_ratio(self):
        assert balance_plan([1, 100]).tolist() == [99, 0]

    def test_empty_class_named(self):
        with pytest.raises(ValueError, match="'tiny'"):
            balance_plan([5, 0], class_names=("big", "tiny"))


class TestPenaltyAccept:
    def test_hand_distances(self):
        own = np.array([[0.0, 0.0], [2.0, 0.0]])
        other = np.array([[1.0, 5.0]])
        assert penalty_accept(np.array([1.0, 0.0]), own, other)  # 1.0 <= 5.0

    def test_coincident_with_other_class(self):
        own = np.array([[50.0, 50.0]])
        other = np.array([[1.0, 1.0]])
        assert not penalty_accept(np.array([1.0, 1.0]), own, other)  # 0 on the wrong side

    def test_equidistant_is_accepted(self):
        own = np.array([[0.0]])
        other = np.array([[2.0]])
        assert penalty_accept(np.array([1.0]), own, other)  # inclusive boundary

    def test_empty_reference_rejected(self):
        with pytest.raises(ValueError):
            penalty_accept(np.array([1.0]), np.empty((0, 1)), np.array([[2.0]]))


class TestOmrp:
    def test_needed_zero(self):
        for n_own in (3, 1):  # a single base sample needs no replicating either
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # an empty batch warns of nothing
                batch = omrp(np.zeros((n_own, 2)), np.ones((3, 2)), needed=0,
                             rng=np.random.default_rng(0))
            assert batch.samples.shape == (0, 2)
            assert batch.attempts_used == batch.accepted_count == batch.shortfall == 0

    def test_two_tight_clusters(self):
        rng = np.random.default_rng(1)
        own = rng.normal(0.0, 0.05, size=(10, 2))
        other = rng.normal(10.0, 0.05, size=(40, 2))
        batch = omrp(own, other, needed=20, knn_k=5, rng=np.random.default_rng(2))
        assert batch.accepted_count == 20
        assert batch.shortfall == 0
        # every synthetic point passes an independent penalty recheck
        for x in batch.samples:
            assert penalty_accept(x, own, other)
        # and lies on the segment between a class sample and one of its neighbors
        assert_on_neighbor_segments(batch.samples, own, knn_k=5)

    def test_hopeless_geometry_falls_back_with_warning(self):
        # the other class densely covers the whole segment between the two own
        # points, so interpolated candidates are (all but surely) nearer to it
        own = np.array([[-0.5, 0.0], [0.5, 0.0]])
        grid = np.arange(-0.6, 0.6, 1e-5)
        other = np.column_stack([grid, np.zeros_like(grid)])
        with pytest.warns(PipelineWarning, match="penalty"):
            batch = omrp(own, other, needed=5, knn_k=1, rng=np.random.default_rng(3))
        assert batch.shortfall == 5
        assert batch.samples.shape[0] == 5  # filled by best margin anyway

    def test_single_sample_class_replicates(self):
        own = np.array([[3.0, 4.0]])
        other = np.zeros((4, 2))
        with pytest.warns(PipelineWarning, match="single"):
            batch = omrp(own, other, needed=3, rng=np.random.default_rng(0))
        assert np.all(batch.samples == [3.0, 4.0])
        assert batch.accepted_count == 3

    def test_determinism(self):
        rng_a = np.random.default_rng(42)
        rng_b = np.random.default_rng(42)
        own = np.random.default_rng(5).normal(size=(8, 3))
        other = np.random.default_rng(6).normal(8.0, 1.0, size=(12, 3))
        a = omrp(own, other, needed=10, rng=rng_a)
        b = omrp(own, other, needed=10, rng=rng_b)
        assert np.array_equal(a.samples, b.samples)
        assert (a.attempts_used, a.accepted_count) == (b.attempts_used, b.accepted_count)

    def test_bad_args(self):
        with pytest.raises(ValueError):
            omrp(np.zeros((3, 1)), np.ones((3, 1)), needed=-1, rng=np.random.default_rng(0))
        with pytest.raises(ValueError):
            omrp(np.zeros((3, 1)), np.ones((3, 1)), needed=1, knn_k=0, rng=np.random.default_rng(0))

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10 ** 6), n_own=st.integers(2, 12),
           n_other=st.integers(1, 12), z=st.integers(1, 3), needed=st.integers(1, 15))
    def test_segment_and_penalty_properties(self, seed, n_own, n_other, z, needed):
        rng = np.random.default_rng(seed)
        own = rng.normal(size=(n_own, z))
        other = rng.normal(loc=rng.uniform(-4, 4, size=z), size=(n_other, z))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", PipelineWarning)
            batch = omrp(own, other, needed, knn_k=5, rng=np.random.default_rng(seed + 1))
        assert batch.samples.shape[0] == needed
        assert_on_neighbor_segments(batch.samples, own, knn_k=5)
        # the first accepted_count samples passed the penalty; recheck independently
        for x in batch.samples[:batch.accepted_count]:
            assert penalty_accept(x, own, other)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10 ** 6), n_own=st.integers(2, 8), n_other=st.integers(1, 60),
           z=st.integers(1, 3), needed=st.integers(1, 400), knn_k=st.integers(1, 5),
           factor=st.integers(0, 2))
    @example(seed=0, n_own=4, n_other=40, z=2, needed=300, knn_k=3, factor=1)  # 46 short
    def test_matches_list_reference(self, seed, n_own, n_other, z, needed, knn_k, factor):
        # one decimal makes duplicate points and zero margins common
        rng = np.random.default_rng(seed)
        own = rng.normal(size=(n_own, z)).round(1)
        other = rng.normal(size=(n_other, z)).round(1)
        with warnings.catch_warnings(), pytest.MonkeyPatch.context() as mp:
            warnings.simplefilter("ignore", PipelineWarning)
            mp.setattr(resample, "MAX_ATTEMPTS_FACTOR", factor)  # small caps make shortfalls common
            batch = omrp(own, other, needed, knn_k=knn_k, rng=np.random.default_rng(seed + 1))
        want = omrp_reference(own, other, needed, knn_k, np.random.default_rng(seed + 1), factor)
        event(f"shortfall={batch.shortfall > 0}")
        assert batch.samples.shape == want[0].shape and batch.samples.tobytes() == want[0].tobytes()
        assert (batch.attempts_used, batch.accepted_count, batch.shortfall) == want[1:]


def cleaned_pipeline(ds, **overrides):
    """The cleaning's row mask under ``RunConfig(**overrides)``, and each class's kept indices."""
    cfg = RunConfig(**overrides)
    keep = clean(ds, partition_regions(ds, cfg), cfg)
    return keep, [np.flatnonzero(keep & (ds.labels == c)) for c in range(ds.n_classes)]


class TestBalancedDataset:
    def test_counts_equal_max_base(self, overlapping_imbalanced_ds):
        ds = overlapping_imbalanced_ds
        keep, base = cleaned_pipeline(ds)
        result = build_balanced(ds, keep, rng_factory=lambda c: rng_for(0, "omrp", c))
        counts = result.dataset.class_counts()
        assert len(set(counts.tolist())) == 1
        assert counts[0] == max(len(base[c]) for c in range(ds.n_classes))

    def test_synthetics_pass_independent_recheck(self, overlapping_imbalanced_ds):
        ds = overlapping_imbalanced_ds
        keep, base = cleaned_pipeline(ds)
        result = build_balanced(ds, keep, rng_factory=lambda c: rng_for(0, "omrp", c))
        for c, batch in result.batches.items():
            if batch.shortfall:
                continue
            own = ds.features[base[c]]
            other = ds.features[np.concatenate([base[k] for k in range(len(base)) if k != c])]
            for x in batch.samples:
                assert penalty_accept(x, own, other)

    def test_already_balanced_separable_is_identity(self, separable_ds):
        ds = separable_ds
        keep, _ = cleaned_pipeline(ds)
        out = build_balanced(ds, keep, rng_factory=np.random.default_rng).dataset
        # separable and balanced: base sets are the full classes, no synthetics
        assert out.n_samples == ds.n_samples
        assert np.array_equal(np.sort(out.class_counts()), np.sort(ds.class_counts()))

    def test_provenance_column(self, overlapping_imbalanced_ds):
        ds = overlapping_imbalanced_ds
        keep, base = cleaned_pipeline(ds)
        result = build_balanced(ds, keep, rng_factory=lambda c: rng_for(0, "omrp", c))
        src = result.source_indices
        n_orig = sum(len(v) for v in base)
        assert np.sum(src >= 0) == n_orig
        assert np.sum(src == -1) == result.dataset.n_samples - n_orig
        assert np.array_equal(np.sort(src[src >= 0]), np.flatnonzero(keep))

    def test_noise_fraction_keeps_samples(self, overlapping_imbalanced_ds):
        ds = overlapping_imbalanced_ds
        keep_all, _ = cleaned_pipeline(ds, noise_remove_fraction=0.0)
        drop_all, _ = cleaned_pipeline(ds, noise_remove_fraction=1.0)
        n_keep = int(keep_all.sum())
        n_drop = int(drop_all.sum())
        n_noisy = int(np.sum(partition_regions(ds, RunConfig()).tags == 2))
        assert n_keep - n_drop == n_noisy

    def test_determinism_bytes(self, overlapping_imbalanced_ds):
        ds = overlapping_imbalanced_ds
        keep, _ = cleaned_pipeline(ds)
        a = build_balanced(ds, keep, rng_factory=lambda c: rng_for(7, "omrp", c)).dataset
        b = build_balanced(ds, keep, rng_factory=lambda c: rng_for(7, "omrp", c)).dataset
        assert a.features.tobytes() == b.features.tobytes()
        assert np.array_equal(a.labels, b.labels)

    def test_contraceptive_balances_to_185_per_class(self, data_dir):
        # known reference figure for this dataset under default cleaning
        path = data_dir / "contraceptive.csv"
        if not path.exists():
            import pytest
            pytest.skip("contraceptive.csv not fetched")
        from imbkit.data_model import load_csv
        ds = load_csv(path, "class")
        cfg = RunConfig()
        base = clean(ds, partition_regions(ds, cfg), cfg)
        out = balance(ds, base, cfg, lambda c: rng_for(0, "omrp", c)).dataset
        assert out.class_counts().tolist() == [185, 185, 185]
