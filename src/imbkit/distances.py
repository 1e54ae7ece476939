"""Euclidean distances by the inner-product identity, and exact k-nearest selection on them.

The identity's cells carry its rounding (a tiny non-zero for two equal rows),
so they are not exact differences; ``nearest`` is exact on the cells it gets.
"""

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
    (``inf`` allowed).  Per ``NEAREST_BLOCK`` rows, the columns form ``min(n, 4k)``
    contiguous groups (the last one takes the remainder), and a row's k-th
    smallest group minimum bounds it: those k minima are k distinct entries at
    or below it, so the row's first k in (value, index) order all lie ``<=`` it.
    These candidates are sorted by (row, value, index); each row keeps its first k.
    """
    sq = np.asarray(sq)
    m, n = sq.shape
    k = max(0, min(int(k), n))
    out = np.empty((m, k), dtype=np.intp)
    if k == 0:
        return out
    g = min(n, 4 * k)  # 4k, not k, groups: with k the bound admits far more candidates on class-sorted rows
    edges = np.arange(g) * (n // g)
    for start in range(0, m, NEAREST_BLOCK):
        block = sq[start:start + NEAREST_BLOCK]
        bound = np.partition(np.minimum.reduceat(block, edges, axis=1), k - 1, axis=1)[:, k - 1, None]
        flat = np.flatnonzero(block <= bound)  # row-major, so already in (row, index) order
        row = flat // n
        flat = flat[np.lexsort((block.ravel()[flat], row))]  # stable: equal values keep index order
        first = np.searchsorted(row, np.arange(block.shape[0]))
        out[start:start + NEAREST_BLOCK] = flat[first[:, None] + np.arange(k)] % n
    return out
