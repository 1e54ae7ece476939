"""Exact Euclidean distance helpers shared by the distance-based stages."""

from __future__ import annotations

import numpy as np

NEAREST_BLOCK = 64  # rows per block in ``pairwise_sq`` and ``nearest``; bounds their temporaries to 64 x n


def pairwise_sq(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(len(a), len(b)) squared Euclidean distances via the inner-product identity.

    ``a @ b.T`` is the only (len(a), len(b)) array: the rest of
    ``aa + bb - 2.0 * (a @ b.T)``, clipped at 0, runs in place on it per row
    block, with the same operations in the same order, so every cell equals
    the whole-matrix formula's.  The product is one call on the caller's own
    operands, since for ``a is b`` numpy takes a symmetric (SYRK) path whose
    cells differ from the general product's.
    """
    a = np.atleast_2d(np.asarray(a, dtype=np.float64))
    b = np.atleast_2d(np.asarray(b, dtype=np.float64))
    aa = (a * a).sum(axis=1)
    bb = (b * b).sum(axis=1)
    sq = a @ b.T
    for start in range(0, sq.shape[0], NEAREST_BLOCK):
        block = sq[start:start + NEAREST_BLOCK]
        block *= 2.0
        np.subtract(aa[start:start + NEAREST_BLOCK, None] + bb, block, out=block)
        np.maximum(block, 0.0, out=block)  # clip the tiny negatives the identity can produce
    return sq


def pairwise(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(len(a), len(b)) Euclidean distances, square-rooted in ``pairwise_sq``'s own array."""
    sq = pairwise_sq(a, b)
    return np.sqrt(sq, out=sq)


def min_dist(points: np.ndarray, reference: np.ndarray) -> np.ndarray:
    """Per-point distance to the nearest reference sample."""
    return np.sqrt(pairwise_sq(points, reference).min(axis=1))


def nearest(sq: np.ndarray, k: int) -> np.ndarray:
    """(m, k) column indices of each row's k smallest entries, ordered by (value, index).

    Equal to ``np.argsort(sq, axis=1, kind="stable")[:, :k]`` with ``k`` clamped
    to the row length, so ties fall to the lower index, for any NaN-free ``sq``
    (``inf`` allowed).  Rows are taken in blocks of ``NEAREST_BLOCK``: in each
    block ``argpartition`` shortlists k columns whose largest value is the k-th
    smallest; rows holding more than k entries ``<=`` that value keep every
    entry below it and then the equal entries in index order.
    """
    sq = np.asarray(sq)
    m, n = sq.shape
    k = max(0, min(int(k), n))
    out = np.empty((m, k), dtype=np.intp)
    if k == 0:
        return out
    for start in range(0, m, NEAREST_BLOCK):
        block = sq[start:start + NEAREST_BLOCK]
        cols = np.argpartition(block, k - 1, axis=1)[:, :k]
        kth = np.take_along_axis(block, cols, axis=1).max(axis=1)[:, None]
        tied = np.flatnonzero(np.count_nonzero(block <= kth, axis=1) > k)
        if tied.size:
            rows, row_kth = block[tied], kth[tied]
            below = rows < row_kth
            equal = rows == row_kth
            room = k - np.count_nonzero(below, axis=1)[:, None]
            keep = below | (equal & (np.cumsum(equal, axis=1) <= room))
            cols[tied] = np.nonzero(keep)[1].reshape(tied.size, k)
        vals = np.take_along_axis(block, cols, axis=1)
        order = np.lexsort((cols, vals), axis=1)
        out[start:start + NEAREST_BLOCK] = np.take_along_axis(cols, order, axis=1)
    return out
