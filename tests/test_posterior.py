import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from imbkit.posterior import NBModel, PosteriorMatrix, fit_nb, log_joint, posteriors


def direct_posterior_oracle(model: NBModel, features: np.ndarray) -> np.ndarray:
    """Plain density-product evaluation, no log-space tricks: the independent oracle."""
    m = features.shape[0]
    out = np.zeros((m, model.n_classes))
    for i in range(m):
        for c in range(model.n_classes):
            dens = model.priors[c]
            for d in range(features.shape[1]):
                var = model.variances[c, d]
                dens *= math.exp(-((features[i, d] - model.means[c, d]) ** 2) / (2 * var)) \
                    / math.sqrt(2 * math.pi * var)
            out[i, c] = dens
        out[i] /= out[i].sum()
    return out


def two_class_1d_model():
    # class a ~ {0, 2}: mean 1, var 1; class b ~ {4, 6}: mean 5, var 1; equal priors
    return fit_nb(np.array([[0.0], [2.0], [4.0], [6.0]]), np.array([0, 0, 1, 1]), 2)


class TestFitNB:
    def test_two_point_variance(self):
        x = np.array([[0.0], [2.0]])
        model = fit_nb(x, np.array([0, 0]), 1)
        assert model.priors[0] == 1.0
        assert model.means[0, 0] == pytest.approx(1.0)
        expected_eps = max(1e-9 * x.var(axis=0).max(), 1e-12)
        assert model.variances[0, 0] == 1.0 + expected_eps

    def test_priors_are_frequencies(self):
        y = np.concatenate([np.zeros(30, int), np.ones(70, int)])
        model = fit_nb(np.random.default_rng(0).normal(size=(100, 2)), y, 2)
        assert model.priors.tolist() == pytest.approx([0.3, 0.7])

    def test_single_sample_class_stays_finite(self):
        x = np.array([[0.0], [1.0], [2.0], [50.0]])
        y = np.array([0, 0, 0, 1])
        model = fit_nb(x, y, 2)
        # population variance of the singleton class is 0; smoothing must keep it positive
        expected_eps = max(1e-9 * x.var(axis=0).max(), 1e-12)
        assert model.variances[1, 0] == pytest.approx(expected_eps)
        post = posteriors(model, x)
        assert np.all(np.isfinite(post.values))

    def test_empty_class_rejected(self):
        with pytest.raises(ValueError, match="empty class"):
            fit_nb(np.zeros((3, 1)), np.zeros(3, int), 2)


class TestPosteriors:
    def test_symmetric_query(self):
        model = two_class_1d_model()
        post = posteriors(model, np.array([[3.0], [3.0]]))
        assert post.values[0] == pytest.approx([0.5, 0.5], abs=1e-12)

    def test_closed_form_density_ratio(self):
        # N(1;1,1) / (N(1;1,1) + N(1;5,1)) = 1 / (1 + e^-8) ~= 0.99966
        model = two_class_1d_model()
        post = posteriors(model, np.array([[1.0], [1.0]]))
        eps = 1e-9 * np.var([0.0, 2.0, 4.0, 6.0])  # the whole training set's variance, 5
        expected = 1.0 / (1.0 + math.exp(-8.0 * 1.0 / (1.0 + eps)))
        assert post.values[0, 0] == pytest.approx(expected, abs=1e-9)
        assert post.values[0, 0] == pytest.approx(0.99966, abs=5e-5)

    def test_single_class_column_of_ones(self):
        model = fit_nb(np.array([[0.0], [2.0]]), np.array([0, 0]), 1)
        post = posteriors(model, np.array([[5.0], [0.0]]))
        assert np.all(post.values == 1.0)

    def test_dimension_mismatch(self):
        model = two_class_1d_model()
        with pytest.raises(ValueError, match="mismatch"):
            posteriors(model, np.zeros((2, 3)))

    def test_no_underflow_on_many_features(self):
        # 42 features far from both class means: raw density products underflow,
        # log-space evaluation must still yield a valid stochastic row
        rng = np.random.default_rng(5)
        x = rng.normal(size=(20, 42))
        y = np.repeat([0, 1], 10)
        model = fit_nb(x, y, 2)
        query = np.full((1, 42), 80.0)
        post = posteriors(model, query)
        assert post.values.sum() == pytest.approx(1.0, abs=1e-9)
        assert np.all(post.values >= 0)


    def test_far_row_has_zero_density_without_overflow_warning(self):
        # (1.2e154 - mean)**2 fits a float but its quotient by a variance of 0.01 does not
        model = fit_nb(np.array([[0.0], [0.2], [0.4], [0.6]]), np.array([0, 0, 1, 1]), 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            lj = log_joint(model, np.array([[1.2e154]]))
        assert lj.tolist() == [[-math.inf, -math.inf]]

class TestOracleEquivalence:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10 ** 6),
           m=st.integers(4, 10), z=st.integers(1, 3), n=st.integers(2, 3))
    def test_matches_direct_product_oracle(self, seed, m, z, n):
        rng = np.random.default_rng(seed)
        labels = np.concatenate([np.arange(n), rng.integers(0, n, size=m - n)])
        feats = rng.normal(scale=3.0, size=(m, z))
        model = fit_nb(feats, labels, n)
        post = posteriors(model, feats)
        assert np.allclose(post.values, direct_posterior_oracle(model, feats), atol=1e-9)
        assert np.allclose(post.values.sum(axis=1), 1.0, atol=1e-9)

    def test_duplication_leaves_posteriors_unchanged(self):
        rng = np.random.default_rng(9)
        feats = rng.normal(size=(12, 2))
        labels = np.repeat([0, 1, 2], 4)
        doubled = np.vstack([feats, feats])
        p1 = posteriors(fit_nb(feats, labels, 3), feats)
        p2 = posteriors(fit_nb(doubled, np.concatenate([labels, labels]), 3), doubled)
        assert np.allclose(p1.values, p2.values[:12], atol=1e-9)


class TestPosteriorMatrixInvariants:
    def test_rejects_non_stochastic_rows(self):
        with pytest.raises(ValueError, match="sum to 1"):
            PosteriorMatrix(values=np.array([[0.6, 0.6]]))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            PosteriorMatrix(values=np.array([[1.2, -0.2]]))

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="NaN"):
            PosteriorMatrix(values=np.array([[np.nan, np.nan], [0.5, 0.5]]))
