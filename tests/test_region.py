import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from imbkit.data_model import Dataset
from imbkit.posterior import PosteriorMatrix, fit_nb, posteriors
from imbkit.region import (CORE, NOISY, OVERLAPPING, ClassThresholds, RegionAssignment,
                           class_thresholds, noise_subset, partition)
from tests.conftest import make_blobs


def stochastic(rows):
    return PosteriorMatrix(values=np.asarray(rows, dtype=float))


class TestClassThresholds:
    def test_midpoint_arithmetic(self):
        # own-class posteriors {0.9, 0.7, 0.5}: mean 0.7, max 0.9, midpoint 0.8
        P = stochastic([[0.9, 0.1], [0.7, 0.3], [0.5, 0.5], [0.2, 0.8]])
        T = class_thresholds(P, np.array([0, 0, 0, 1]))
        assert T.mean_own[0] == pytest.approx(0.7)
        assert T.max_own[0] == pytest.approx(0.9)
        assert T.threshold[0] == pytest.approx(0.8)

    def test_degenerate_all_ones(self):
        P = stochastic([[1.0, 0.0], [0.0, 1.0]])
        T = class_thresholds(P, np.array([0, 1]))
        assert T.threshold.tolist() == [1.0, 1.0]

    def test_single_sample_mean_equals_max(self):
        P = stochastic([[0.65, 0.35], [0.2, 0.8]])
        T = class_thresholds(P, np.array([0, 1]))
        assert T.threshold[0] == pytest.approx(0.65)

    def test_mean_mode(self):
        P = stochastic([[0.9, 0.1], [0.7, 0.3], [0.5, 0.5], [0.2, 0.8]])
        T = class_thresholds(P, np.array([0, 0, 0, 1]), mode="mean")
        assert T.threshold[0] == pytest.approx(0.7)

    def test_threshold_between_mean_and_max(self):
        rng = np.random.default_rng(3)
        raw = rng.random((30, 3))
        P = stochastic(raw / raw.sum(axis=1, keepdims=True))
        labels = rng.integers(0, 3, size=30)
        labels[:3] = [0, 1, 2]
        T = class_thresholds(P, labels)
        assert np.all(T.mean_own <= T.max_own + 1e-15)
        assert np.all(T.threshold >= T.mean_own - 1e-15)
        assert np.all(T.threshold <= T.max_own + 1e-15)


class TestPartition:
    def test_separated_gaussians_all_core(self, separable_ds):
        post = posteriors(fit_nb(separable_ds), separable_ds)
        # oracle check: separation is real, every own posterior saturates
        assert np.all(post.values[np.arange(60), separable_ds.labels] > 0.999)
        T = class_thresholds(post, separable_ds.labels)
        assign = partition(post, T, separable_ds.labels)
        assert np.all(assign.tags == CORE)
        assert assign.counts()["noisy"] == 0

    def test_boundary_inclusive_core(self):
        # own posterior 1.0 with threshold 1.0 stays core under the >= rule
        P = stochastic([[1.0, 0.0], [0.0, 1.0]])
        T = class_thresholds(P, np.array([0, 1]))
        assign = partition(P, T, np.array([0, 1]))
        assert np.all(assign.tags == CORE)

    def test_overlapping_definition_case(self):
        # sample 2 fails its own threshold but exceeds the other class's threshold
        P = stochastic([[0.9, 0.1], [0.5, 0.5], [0.4, 0.6], [0.05, 0.95]])
        labels = np.array([0, 0, 0, 1])
        T = ClassThresholds(mean_own=np.array([0.6, 0.95]), max_own=np.array([0.9, 0.95]),
                            threshold=np.array([0.75, 0.5]), mode="midpoint")
        assign = partition(P, T, labels)
        assert assign.tags[0] == CORE          # 0.9 >= 0.75
        assert assign.tags[2] == OVERLAPPING   # 0.4 < 0.75 but 0.6 > 0.5
        assert assign.max_own_posterior[2] == pytest.approx(0.4)

    def test_noisy_fails_both(self):
        P = stochastic([[0.55, 0.45], [0.45, 0.55]])
        T = ClassThresholds(mean_own=np.array([0.9, 0.9]), max_own=np.array([0.9, 0.9]),
                            threshold=np.array([0.9, 0.9]), mode="midpoint")
        assign = partition(P, T, np.array([0, 1]))
        assert np.all(assign.tags == NOISY)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10 ** 6), m=st.integers(4, 25), n=st.integers(2, 4))
    def test_exhaustive_disjoint_and_consistent(self, seed, m, n):
        rng = np.random.default_rng(seed)
        raw = rng.random((m, n)) + 1e-9
        P = stochastic(raw / raw.sum(axis=1, keepdims=True))
        labels = np.concatenate([np.arange(n), rng.integers(0, n, size=m - n)]) if m >= n \
            else rng.integers(0, n, size=m)
        labels = labels[:m]
        for c in range(n):
            if not np.any(labels == c):
                labels[c % m] = c
        T = class_thresholds(P, labels)
        assign = partition(P, T, labels)
        own = P.values[np.arange(m), labels]
        for i in range(m):
            others_exceed = any(P.values[i, k] > T.threshold[k] for k in range(n) if k != labels[i])
            if own[i] >= T.threshold[labels[i]]:
                assert assign.tags[i] == CORE
            elif others_exceed:
                assert assign.tags[i] == OVERLAPPING
            else:
                assert assign.tags[i] == NOISY

    def test_raising_thresholds_never_promotes_to_core(self):
        rng = np.random.default_rng(17)
        raw = rng.random((40, 3))
        P = stochastic(raw / raw.sum(axis=1, keepdims=True))
        labels = rng.integers(0, 3, size=40)
        labels[:3] = [0, 1, 2]
        T = class_thresholds(P, labels)
        assign_lo = partition(P, T, labels)
        T_hi = ClassThresholds(mean_own=T.mean_own, max_own=T.max_own,
                               threshold=T.threshold + 0.05, mode=T.mode)
        assign_hi = partition(P, T_hi, labels)
        moved = (assign_lo.tags == NOISY) & (assign_hi.tags == CORE)
        assert not moved.any()


class TestNoiseSubset:
    def _assignment(self, confidences, tags=None):
        m = len(confidences)
        tags = np.full(m, NOISY, dtype=np.int8) if tags is None else np.asarray(tags, dtype=np.int8)
        T = ClassThresholds(mean_own=np.array([1.0]), max_own=np.array([1.0]),
                            threshold=np.array([1.0]), mode="midpoint")
        return RegionAssignment(tags=tags, max_own_posterior=np.asarray(confidences, float),
                                thresholds=T, labels=np.zeros(m, dtype=np.int64))

    def test_fraction_zero(self):
        assert noise_subset(self._assignment([0.1, 0.2]), 0.0).size == 0

    def test_fraction_one(self):
        out = noise_subset(self._assignment([0.1, 0.2, 0.3]), 1.0)
        assert sorted(out.tolist()) == [0, 1, 2]

    def test_sort_and_take_oracle(self):
        # confidences {0.1, 0.4, 0.2, 0.3}, half removed: the 0.1 and 0.2 samples
        out = noise_subset(self._assignment([0.1, 0.4, 0.2, 0.3]), 0.5)
        assert sorted(out.tolist()) == [0, 2]

    def test_tie_breaks_by_index(self):
        out = noise_subset(self._assignment([0.5, 0.5, 0.5, 0.5]), 0.5)
        assert sorted(out.tolist()) == [0, 1]

    def test_only_noisy_samples_selected(self):
        tags = [CORE, NOISY, OVERLAPPING, NOISY]
        out = noise_subset(self._assignment([0.9, 0.1, 0.5, 0.2], tags), 1.0)
        assert sorted(out.tolist()) == [1, 3]

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10 ** 6),
           f1=st.floats(0, 1), f2=st.floats(0, 1))
    def test_nested_subsets(self, seed, f1, f2):
        rng = np.random.default_rng(seed)
        assign = self._assignment(rng.random(12))
        lo, hi = min(f1, f2), max(f1, f2)
        assert set(noise_subset(assign, lo).tolist()) <= set(noise_subset(assign, hi).tolist())

    def test_fraction_out_of_range(self):
        with pytest.raises(ValueError):
            noise_subset(self._assignment([0.1]), 1.5)
