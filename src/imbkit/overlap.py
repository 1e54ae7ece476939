"""Overlap-region cleaning by median-distance gaps.

For each class, every overlap-region sample is scored by the median of its
Euclidean distances to all core and overlap samples of the other classes.
Sorting those medians and standardizing the consecutive gaps exposes a "big
jump": a gap whose Z-score clears a threshold.  Samples on the far side of
the jump sit away from the crowded inter-class area and are kept as
non-overlapping; the rest of the overlap region is discarded.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data_model import Dataset
from .distances import pairwise
from .region import CORE, OVERLAPPING, RegionAssignment

KEEP_MODES = ("after", "before")


@dataclass(frozen=True)
class GapProfile:
    class_id: int
    ordered_samples: np.ndarray  # dataset indices, ascending median distance
    distances: np.ndarray        # the corresponding medians
    gaps: np.ndarray             # consecutive differences, len = len(distances) - 1
    gap_mean: float
    gap_std: float               # population convention
    z_scores: np.ndarray
    jump_index: int | None       # first gap with z >= z_threshold, if any
    z_threshold: float


def gap_statistics(sorted_distances: np.ndarray, z_threshold: float = 2.0):
    """Gaps, population mean/std, Z-scores and first jump for an ascending vector."""
    d = np.asarray(sorted_distances, dtype=np.float64)
    gaps = np.diff(d)
    if gaps.size == 0:
        return gaps, 0.0, 0.0, np.empty(0), None
    mu = float(gaps.mean())
    sigma = float(gaps.std())
    if sigma == 0.0:
        return gaps, mu, sigma, np.zeros_like(gaps), None
    z = (gaps - mu) / sigma
    hits = np.flatnonzero(z >= z_threshold)
    jump = int(hits[0]) if hits.size else None
    return gaps, mu, sigma, z, jump


def gap_profile(ds: Dataset, assignment: RegionAssignment, class_id: int,
                z_threshold: float = 2.0) -> GapProfile:
    """Median-distance profile of one class's overlap region.

    Distances go from each overlap sample of ``class_id`` to every core and
    overlap sample of all other classes; noisy samples never serve as
    references.  Ordering ties break by ascending sample index.
    """
    own = assignment.indices(OVERLAPPING, class_id)
    if own.size == 0:
        raise ValueError(f"class {class_id} has no overlap-region samples")
    ref_mask = ((assignment.tags == CORE) | (assignment.tags == OVERLAPPING)) & (assignment.labels != class_id)
    ref = np.flatnonzero(ref_mask)
    if ref.size == 0:
        raise ValueError(f"no other-class core/overlap samples to reference for class {class_id}")

    med = np.median(pairwise(ds.features[own], ds.features[ref]), axis=1)
    order = np.lexsort((own, med))
    ordered, dists = own[order], med[order]
    gaps, mu, sigma, z, jump = gap_statistics(dists, z_threshold)
    return GapProfile(class_id=int(class_id), ordered_samples=ordered, distances=dists,
                      gaps=gaps, gap_mean=mu, gap_std=sigma, z_scores=z,
                      jump_index=jump, z_threshold=float(z_threshold))


def select_non_overlapping(profile: GapProfile, fallback_fraction: float = 0.30,
                           keep_mode: str = "after") -> np.ndarray:
    """Dataset indices of the samples kept as non-overlapping.

    With a jump, keep_mode="after" keeps the tail beyond the jump (farther from
    the other classes); "before" keeps everything up to and including the
    jump's left side.  Without a jump the farthest
    max(1, floor(fallback_fraction * n)) samples are kept, so at least one
    sample always survives.
    """
    if not 0.0 < fallback_fraction <= 1.0:
        raise ValueError(f"fallback_fraction must be in (0, 1], got {fallback_fraction}")
    if keep_mode not in KEEP_MODES:
        raise ValueError(f"keep_mode must be one of {KEEP_MODES}, got {keep_mode!r}")
    if profile.jump_index is not None:
        j = profile.jump_index
        kept = profile.ordered_samples[j + 1:] if keep_mode == "after" else profile.ordered_samples[:j + 1]
        return kept.copy()
    q = max(1, int(np.floor(fallback_fraction * profile.ordered_samples.size)))
    return profile.ordered_samples[-q:].copy()


def sor_all(ds: Dataset, assignment: RegionAssignment, z_threshold: float = 2.0,
            fallback_fraction: float = 0.30, keep_mode: str = "after") -> np.ndarray:
    """Sorted indices of the overlap samples kept as non-overlapping, over all classes.

    A class with an empty overlap region contributes nothing.
    """
    kept = [select_non_overlapping(gap_profile(ds, assignment, c, z_threshold=z_threshold),
                                   fallback_fraction=fallback_fraction, keep_mode=keep_mode)
            for c in range(ds.n_classes) if assignment.indices(OVERLAPPING, c).size]
    return np.sort(np.concatenate(kept)) if kept else np.empty(0, dtype=np.int64)
