"""Exact Euclidean distance helpers shared by the distance-based stages."""

from __future__ import annotations

import numpy as np

NEAREST_BLOCK = 64  # rows per block in ``nearest``; bounds its temporaries to 64 x n


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
