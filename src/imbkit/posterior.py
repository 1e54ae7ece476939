"""Gaussian naive-Bayes class model and per-sample class membership probabilities.

Each sample gets a row-stochastic vector of posterior probabilities
P(class | x) computed from class priors and per-class, per-attribute
Gaussian likelihoods under the attribute-independence assumption.  Densities
are evaluated in log space so products over many attributes cannot underflow
to an all-zero row.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

VARIANCE_SMOOTHING_REL = 1e-9
VARIANCE_SMOOTHING_FLOOR = 1e-12


@dataclass(frozen=True)
class NBModel:
    priors: np.ndarray      # (n,) class frequencies, sums to 1
    means: np.ndarray       # (n, z)
    variances: np.ndarray   # (n, z) population variances + smoothing, all > 0

    def __post_init__(self):
        if abs(self.priors.sum() - 1.0) > 1e-12:
            raise ValueError("priors must sum to 1")
        if np.any(self.variances <= 0):
            raise ValueError("smoothed variances must be positive")

    @property
    def n_classes(self) -> int:
        return self.priors.shape[0]

    @property
    def n_features(self) -> int:
        return self.means.shape[1]


@dataclass(frozen=True)
class PosteriorMatrix:
    """Row-stochastic (m, n) matrix of class membership probabilities."""

    values: np.ndarray

    def __post_init__(self):
        v = self.values
        # written so that NaN fails: every comparison with NaN is False
        if not np.all((v >= 0) & (v <= 1)):
            raise ValueError("posterior entries must lie in [0, 1] and not be NaN")
        if not np.all(np.abs(v.sum(axis=1) - 1.0) <= 1e-9):
            raise ValueError("posterior rows must sum to 1 within 1e-9")


def fit_nb(features: np.ndarray, labels: np.ndarray, n_classes: int) -> NBModel:
    """Fit priors and per-class Gaussians to the training rows ``features`` with class ``labels``.

    Variances use the population convention (divide by class count) and get a
    smoothing term of 1e-9 times the largest per-attribute variance of the
    whole training set, floored at 1e-12, so constant attributes and
    single-sample classes stay finite.
    """
    m = features.shape[0]
    counts = np.bincount(labels, minlength=n_classes)
    if np.any(counts == 0):
        raise ValueError(f"empty class at index {int(np.flatnonzero(counts == 0)[0])}")
    priors = counts / m
    n_feat = features.shape[1]
    means = np.empty((n_classes, n_feat))
    variances = np.empty((n_classes, n_feat))
    for c in range(n_classes):
        block = features[labels == c]
        means[c] = block.mean(axis=0)
        variances[c] = block.var(axis=0)
    eps = max(VARIANCE_SMOOTHING_REL * float(features.var(axis=0).max()), VARIANCE_SMOOTHING_FLOOR)
    return NBModel(priors=priors, means=means, variances=variances + eps)


def log_joint(model: NBModel, features: np.ndarray) -> np.ndarray:
    """(m, n) matrix of log prior + sum of per-attribute log Gaussian densities."""
    if features.shape[1] != model.n_features:
        raise ValueError(
            f"feature count mismatch: data has {features.shape[1]}, model expects {model.n_features}")
    # (m, n, z) broadcast kept implicit: loop classes to bound memory
    out = np.empty((features.shape[0], model.n_classes))
    log_priors = np.log(model.priors)
    # A row too far from a class for diff**2 / var to fit a float has density
    # 0 there: the overflow's inf gives the log-density -inf it should.
    with np.errstate(over="ignore"):
        for c in range(model.n_classes):
            var = model.variances[c]
            diff = features - model.means[c]
            out[:, c] = log_priors[c] - 0.5 * np.sum(np.log(2.0 * np.pi * var) + diff * diff / var, axis=1)
    return out


def posteriors(model: NBModel, features: np.ndarray) -> PosteriorMatrix:
    """Membership probability matrix for every row of ``features``."""
    lj = log_joint(model, features)
    lj -= lj.max(axis=1, keepdims=True)
    dens = np.exp(lj)
    return PosteriorMatrix(values=dens / dens.sum(axis=1, keepdims=True))
