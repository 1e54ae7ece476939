"""Core / overlapping / noisy partition driven by per-class posterior thresholds.

A class threshold combines the mean and the maximum of the posteriors that the
class's own samples assign to it.  Samples at or above their own threshold are
core; samples below it that still exceed some other class's threshold sit in
the overlap between classes; everything else carries too little membership
evidence and is tagged noisy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .posterior import PosteriorMatrix

CORE, OVERLAPPING, NOISY = 0, 1, 2
TAG_NAMES = ("core", "overlapping", "noisy")

THRESHOLD_MODES = ("midpoint", "mean")


@dataclass(frozen=True)
class RegionAssignment:
    """Per-sample region tag plus the membership confidence used for noise ranking."""

    tags: np.ndarray               # (m,) values in {CORE, OVERLAPPING, NOISY}
    max_own_posterior: np.ndarray  # (m,) posterior mass for the sample's own class
    labels: np.ndarray             # (m,) class of each sample

    def indices(self, tag: int, class_id: int | None = None) -> np.ndarray:
        mask = self.tags == tag
        if class_id is not None:
            mask &= self.labels == class_id
        return np.flatnonzero(mask)

    def counts(self) -> dict:
        return {TAG_NAMES[t]: int(np.sum(self.tags == t)) for t in (CORE, OVERLAPPING, NOISY)}


def class_thresholds(P: PosteriorMatrix, labels: np.ndarray, mode: str = "midpoint") -> np.ndarray:
    """(n,) per-class acceptance thresholds from own-class posterior statistics.

    mode="midpoint" (default) averages the mean and the maximum own-class
    posterior; mode="mean" uses the mean alone.
    """
    if mode not in THRESHOLD_MODES:
        raise ValueError(f"threshold mode must be one of {THRESHOLD_MODES}, got {mode!r}")
    vals = P.values
    labels = np.asarray(labels)
    n = vals.shape[1]
    mean_own = np.empty(n)
    max_own = np.empty(n)
    for c in range(n):
        own = vals[labels == c, c]
        if own.size == 0:
            raise ValueError(f"class {c} has no samples")
        mean_own[c] = own.mean()
        max_own[c] = own.max()
    return (mean_own + max_own) / 2.0 if mode == "midpoint" else mean_own


def partition(P: PosteriorMatrix, thresholds: np.ndarray, labels: np.ndarray) -> RegionAssignment:
    """Tag every sample core, overlapping or noisy against the (n,) class ``thresholds``.

    Core membership is inclusive (own posterior >= own threshold) so perfectly
    separable data where every own posterior saturates at 1.0 stays core; the
    overlap test against other classes' thresholds is strict.  Noisy samples
    are tagged, not dropped, so callers can remove a controlled fraction.
    """
    vals = P.values
    labels = np.asarray(labels)
    m, n = vals.shape
    own = vals[np.arange(m), labels]
    core = own >= thresholds[labels]
    exceeds = vals > thresholds[None, :]
    exceeds[np.arange(m), labels] = False
    overlapping = ~core & exceeds.any(axis=1)
    tags = np.full(m, NOISY, dtype=np.int8)
    tags[core] = CORE
    tags[overlapping] = OVERLAPPING
    return RegionAssignment(tags=tags, max_own_posterior=own, labels=labels)


def noise_subset(assignment: RegionAssignment, remove_fraction: float) -> np.ndarray:
    """Indices of the least-confident noisy samples to delete.

    Takes floor(fraction * |noisy|) samples ranked by ascending own-class
    posterior, ties broken by ascending sample index.
    """
    if not 0.0 <= remove_fraction <= 1.0:
        raise ValueError(f"remove_fraction must be in [0, 1], got {remove_fraction}")
    noisy = assignment.indices(NOISY)
    take = int(np.floor(remove_fraction * noisy.size))
    if take == 0:
        return np.empty(0, dtype=np.int64)
    conf = assignment.max_own_posterior[noisy]
    order = np.lexsort((noisy, conf))
    return np.sort(noisy[order[:take]])
