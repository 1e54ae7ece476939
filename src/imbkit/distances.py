"""Exact Euclidean distance helpers shared by the distance-based stages."""

from __future__ import annotations

import numpy as np


def pairwise_sq(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(len(a), len(b)) squared Euclidean distances via the inner-product identity."""
    a = np.atleast_2d(np.asarray(a, dtype=np.float64))
    b = np.atleast_2d(np.asarray(b, dtype=np.float64))
    # same operations, in the same order, as aa + bb - 2.0 * (a @ b.T), but with
    # two (len(a), len(b)) temporaries alive at once instead of three
    sq = (a * a).sum(axis=1)[:, None] + (b * b).sum(axis=1)[None, :]
    cross = a @ b.T
    cross *= 2.0
    sq -= cross
    del cross
    np.maximum(sq, 0.0, out=sq)  # clip the tiny negatives the identity can produce
    return sq


def pairwise(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.sqrt(pairwise_sq(a, b))


def min_dist(points: np.ndarray, reference: np.ndarray) -> np.ndarray:
    """Per-point distance to the nearest reference sample."""
    return np.sqrt(pairwise_sq(points, reference).min(axis=1))
