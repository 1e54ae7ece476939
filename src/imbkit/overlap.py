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
from .distances import pairwise, reduce_rows
from .region import CORE, OVERLAPPING, RegionAssignment

FALLBACK_FRACTION = 0.30  # share of a jumpless overlap region kept, farthest first


@dataclass(frozen=True)
class GapProfile:
    ordered_samples: np.ndarray  # dataset indices, ascending median distance
    distances: np.ndarray        # the corresponding medians
    jump_index: int | None       # first gap with z >= z_threshold, if any (see gap_statistics)


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

    med = reduce_rows(pairwise, ds.features[own], ds.features[ref],
                      lambda d: np.median(d, axis=1, overwrite_input=True))
    order = np.lexsort((own, med))
    ordered, dists = own[order], med[order]
    jump = gap_statistics(dists, z_threshold)[-1]
    return GapProfile(ordered_samples=ordered, distances=dists, jump_index=jump)


def select_non_overlapping(profile: GapProfile) -> np.ndarray:
    """Dataset indices of the samples kept as non-overlapping.

    With a jump, the tail beyond the jump (farther from the other classes) is
    kept.  Without one the farthest max(1, floor(FALLBACK_FRACTION * n))
    samples are kept, so at least one sample always survives.
    """
    if profile.jump_index is not None:
        return profile.ordered_samples[profile.jump_index + 1:].copy()
    q = max(1, int(np.floor(FALLBACK_FRACTION * profile.ordered_samples.size)))
    return profile.ordered_samples[-q:].copy()


def sor_all(ds: Dataset, assignment: RegionAssignment, z_threshold: float = 2.0) -> np.ndarray:
    """Sorted indices of the overlap samples kept as non-overlapping, over all classes.

    A class with an empty overlap region contributes nothing.
    """
    kept = [select_non_overlapping(gap_profile(ds, assignment, c, z_threshold=z_threshold))
            for c in range(ds.n_classes) if assignment.indices(OVERLAPPING, c).size]
    return np.sort(np.concatenate(kept)) if kept else np.empty(0, dtype=np.int64)
