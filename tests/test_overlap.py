import math

import numpy as np
import pytest

from imbkit.config import RunConfig
from imbkit.data_model import Dataset
from imbkit.harness import partition_regions
from imbkit.overlap import gap_profile, gap_statistics, select_non_overlapping, sor_all
from imbkit.region import CORE, NOISY, OVERLAPPING, ClassThresholds, RegionAssignment
from tests.conftest import make_blobs

WORKED_DISTANCES = [1.0, 1.1, 1.2, 1.3, 1.4, 1.5, 1.6, 1.7, 1.8, 6.8]


def population_stats_oracle(distances):
    """Hand-rolled gap/mean/std/z computation in plain Python."""
    gaps = [b - a for a, b in zip(distances, distances[1:])]
    mu = sum(gaps) / len(gaps)
    sigma = math.sqrt(sum((g - mu) ** 2 for g in gaps) / len(gaps))
    z = [(g - mu) / sigma for g in gaps]
    return gaps, mu, sigma, z


def make_assignment(tags, labels):
    tags = np.asarray(tags, dtype=np.int8)
    labels = np.asarray(labels, dtype=np.int64)
    n = int(labels.max()) + 1
    T = ClassThresholds(mean_own=np.ones(n), max_own=np.ones(n),
                        threshold=np.ones(n), mode="midpoint")
    return RegionAssignment(tags=tags, max_own_posterior=np.ones(labels.size),
                            thresholds=T, labels=labels)


def worked_fixture():
    """1-D geometry whose median distances are exactly WORKED_DISTANCES.

    One class-0 core sample at the origin is the only reference, so each
    class-1 overlap sample's median distance equals its coordinate.
    """
    feats = np.array([[0.0]] + [[d] for d in WORKED_DISTANCES])
    labels = np.array([0] + [1] * 10)
    tags = [CORE] + [OVERLAPPING] * 10
    ds = Dataset(feats, labels, ("ref", "probe"))
    return ds, make_assignment(tags, labels)


class TestGapStatistics:
    def test_worked_fixture_matches_population_oracle(self):
        gaps_o, mu_o, sigma_o, z_o = population_stats_oracle(WORKED_DISTANCES)
        gaps, mu, sigma, z, jump = gap_statistics(np.array(WORKED_DISTANCES), z_threshold=2.0)
        assert np.allclose(gaps, gaps_o, atol=1e-12)
        assert mu == pytest.approx(mu_o, abs=1e-9)
        assert sigma == pytest.approx(sigma_o, abs=1e-9)
        assert np.allclose(z, z_o, atol=1e-9)
        # the 5.0 gap: mu ~= 0.6444, sigma ~= 1.5400 (population), z ~= 2.83 >= 2
        assert mu == pytest.approx(0.64444444, abs=1e-6)
        assert sigma == pytest.approx(1.53998, abs=1e-4)
        assert z[-1] == pytest.approx(2.8284, abs=1e-3)
        assert jump == len(WORKED_DISTANCES) - 2  # the final gap

    def test_no_jump_when_gaps_identical(self):
        gaps, mu, sigma, z, jump = gap_statistics(np.array([1.0, 2.0, 3.0, 4.0]))
        assert sigma == 0.0
        assert jump is None

    def test_single_distance_degenerate(self):
        gaps, mu, sigma, z, jump = gap_statistics(np.array([3.0]))
        assert gaps.size == 0 and jump is None


class TestGapProfile:
    def test_worked_fixture_profile(self):
        ds, assign = worked_fixture()
        profile = gap_profile(ds, assign, class_id=1)
        assert np.allclose(profile.distances, WORKED_DISTANCES)
        assert profile.jump_index == 8
        assert profile.z_scores[8] >= 2.0
        # ordered by ascending distance: dataset indices 1..10 in order
        assert profile.ordered_samples.tolist() == list(range(1, 11))

    def test_single_overlap_sample(self):
        feats = np.array([[0.0], [1.0]])
        ds = Dataset(feats, np.array([0, 1]), ("a", "b"))
        assign = make_assignment([CORE, OVERLAPPING], [0, 1])
        profile = gap_profile(ds, assign, 1)
        assert profile.distances.tolist() == [1.0]
        assert profile.gaps.size == 0
        assert profile.jump_index is None

    def test_median_is_mean_of_central_pair(self):
        # two references at 0 and 10: median distance of a probe at x is mean of |x|, |x-10|
        feats = np.array([[0.0], [10.0], [2.0]])
        ds = Dataset(feats, np.array([0, 0, 1]), ("a", "b"))
        assign = make_assignment([CORE, CORE, OVERLAPPING], [0, 0, 1])
        profile = gap_profile(ds, assign, 1)
        assert profile.distances[0] == pytest.approx((2.0 + 8.0) / 2)

    def test_noisy_references_excluded(self):
        feats = np.array([[0.0], [100.0], [3.0]])
        ds = Dataset(feats, np.array([0, 0, 1]), ("a", "b"))
        assign = make_assignment([CORE, NOISY, OVERLAPPING], [0, 0, 1])
        profile = gap_profile(ds, assign, 1)
        assert profile.distances[0] == pytest.approx(3.0)  # the noisy 100 never contributes

    def test_empty_overlap_region_rejected(self):
        ds, assign = worked_fixture()
        with pytest.raises(ValueError, match="no overlap-region samples"):
            gap_profile(ds, assign, class_id=0)


class TestSelectNonOverlapping:
    def test_keep_after_returns_post_jump_tail(self):
        ds, assign = worked_fixture()
        profile = gap_profile(ds, assign, 1)
        kept = select_non_overlapping(profile, keep_mode="after")
        assert kept.tolist() == [10]  # the sample at distance 6.8

    def test_keep_before_returns_pre_jump_head(self):
        ds, assign = worked_fixture()
        profile = gap_profile(ds, assign, 1)
        kept = select_non_overlapping(profile, keep_mode="before")
        assert kept.tolist() == list(range(1, 10))

    def test_fallback_fraction(self):
        # 7 samples, no jump, fraction 0.3: keep last max(1, floor(2.1)) = 2
        feats = np.array([[0.0]] + [[1.0 + i] for i in range(7)])
        ds = Dataset(feats, np.array([0] + [1] * 7), ("a", "b"))
        assign = make_assignment([CORE] + [OVERLAPPING] * 7, [0] + [1] * 7)
        profile = gap_profile(ds, assign, 1)
        assert profile.jump_index is None  # equal gaps
        kept = select_non_overlapping(profile, fallback_fraction=0.3)
        assert kept.tolist() == [6, 7]  # the two farthest of dataset indices 1..7

    def test_fallback_keeps_at_least_one(self):
        feats = np.array([[0.0], [1.0], [2.0]])
        ds = Dataset(feats, np.array([0, 1, 1]), ("a", "b"))
        assign = make_assignment([CORE, OVERLAPPING, OVERLAPPING], [0, 1, 1])
        profile = gap_profile(ds, assign, 1)
        kept = select_non_overlapping(profile, fallback_fraction=0.1)
        assert kept.tolist() == [2]

    def test_selected_distances_dominate_unselected_in_after_mode(self):
        rng = np.random.default_rng(2)
        feats = np.vstack([np.zeros((3, 2)), rng.normal(size=(12, 2)) * 3])
        labels = np.array([0] * 3 + [1] * 12)
        ds = Dataset(feats, labels, ("a", "b"))
        assign = make_assignment([CORE] * 3 + [OVERLAPPING] * 12, labels)
        profile = gap_profile(ds, assign, 1)
        kept = set(select_non_overlapping(profile, keep_mode="after").tolist())
        dist_of = dict(zip(profile.ordered_samples.tolist(), profile.distances.tolist()))
        unkept = set(profile.ordered_samples.tolist()) - kept
        if kept and unkept:
            assert min(dist_of[i] for i in kept) >= max(dist_of[i] for i in unkept)

    def test_bad_fraction_rejected(self):
        ds, assign = worked_fixture()
        profile = gap_profile(ds, assign, 1)
        with pytest.raises(ValueError):
            select_non_overlapping(profile, fallback_fraction=0.0)


class TestSorAll:
    def test_all_core_yields_empty_sets(self, separable_ds):
        assign = make_assignment([CORE] * separable_ds.n_samples, separable_ds.labels)
        out = sor_all(separable_ds, assign)
        assert out.size == 0 and out.dtype == np.int64

    def test_engineered_outliers_survive(self):
        # each class: 9 crowded overlap samples near the border plus 1 far outlier
        border = [[1.0 + 0.01 * i] for i in range(9)]
        feats = np.array(
            [[0.0]] * 3 + border + [[30.0]]          # class 0: core at 0, overlap right
            + [[2.0]] * 3 + [[v[0] + 0.005] for v in border] + [[-28.0]])  # class 1
        labels = np.array([0] * 13 + [1] * 13)
        tags = [CORE] * 3 + [OVERLAPPING] * 10 + [CORE] * 3 + [OVERLAPPING] * 10
        ds = Dataset(feats, labels, ("a", "b"))
        assign = make_assignment(tags, labels)
        out = sor_all(ds, assign, keep_mode="after")
        assert out.tolist() == [12, 25]   # the samples at 30 (class 0) and -28 (class 1)

    def test_deterministic(self, overlapping_imbalanced_ds):
        ds = overlapping_imbalanced_ds
        assign = partition_regions(ds, RunConfig())
        a = sor_all(ds, assign)
        b = sor_all(ds, assign)
        assert a.dtype == np.int64 and np.array_equal(a, b)

    def test_selection_subset_of_overlap_region(self, overlapping_imbalanced_ds):
        ds = overlapping_imbalanced_ds
        assign = partition_regions(ds, RunConfig())
        out = sor_all(ds, assign)
        assert out.size and np.array_equal(out, np.unique(out))  # sorted, no repeats
        assert set(out.tolist()) <= set(assign.indices(OVERLAPPING).tolist())
