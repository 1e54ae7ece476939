"""Euclidean distances by the inner-product identity, and exact k-nearest selection on them.

The identity's cells carry its rounding (a tiny non-zero for two equal rows),
so they are not exact differences; ``nearest`` is exact on the cells it gets.
Each cell is the identity on its own ``NEAREST_BLOCK``-row block of ``a``, so
slicing ``a`` at a multiple of that block leaves every cell unchanged.  Every
caller in the pipeline reduces its matrix row by row (k nearest, minimum or
median) through ``reduce_rows``, which computes it in row chunks of at most
``CHUNK_CELLS`` cells: none holds an m x n matrix.
"""

from __future__ import annotations

import numpy as np

NEAREST_BLOCK = 64  # rows per block in ``pairwise_sq`` and per step of ``_row_chunks``
CHUNK_CELLS = 2**18  # cells (2 MB) per distance call of ``reduce_rows``
TAIL_CELLS = 2**15  # cells (256 KB) per pass of the identity's elementwise tail in ``pairwise_sq``


def pairwise_sq(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(len(a), len(b)) squared Euclidean distances via the inner-product identity.

    Per ``NEAREST_BLOCK`` row block of ``a``, the product ``a[block] @ b.T`` is
    its own general matrix product (GEMM), written straight into the result,
    and ``aa + bb - 2.0 * product``, clipped at 0, runs in place on it while it
    is still in cache.  So ``a @ a.T`` never takes numpy's symmetric (SYRK)
    path, except for a self-product of at most one block, where the block's
    product is the whole ``a @ a.T``.  The tail runs on pieces of the block of
    at most ``TAIL_CELLS`` cells (the whole block when it fits), with the same
    float operations per cell, so its ``aa + bb`` temporary stays cache-sized:
    a block-wide one, allocated and freed on every call of a chunked caller,
    pushed malloc's heap past its trim threshold, and each call faulted its
    pages in again.  A cell depends only on its own block, so
    ``pairwise_sq(a[s:e], b)`` equals ``pairwise_sq(a, b)[s:e]`` bit for bit
    when ``s`` is a multiple of ``NEAREST_BLOCK`` and ``e`` is too or is ``len(a)``.
    """
    a = np.atleast_2d(np.asarray(a, dtype=np.float64))
    b = np.atleast_2d(np.asarray(b, dtype=np.float64))
    aa = (a * a).sum(axis=1)
    bb = (b * b).sum(axis=1)
    sq = np.empty((a.shape[0], b.shape[0]))
    piece = max(1, TAIL_CELLS // max(b.shape[0], 1))  # rows per pass of the tail
    for start in range(0, sq.shape[0], NEAREST_BLOCK):
        rows = slice(start, start + NEAREST_BLOCK)
        block = np.matmul(a[rows], b.T, out=sq[rows])
        for lo in range(0, block.shape[0], piece):
            part = block[lo:lo + piece]
            part *= 2.0
            np.subtract(aa[rows][lo:lo + piece, None] + bb, part, out=part)
            np.maximum(part, 0.0, out=part)  # clip the tiny negatives the identity can produce
    return sq


def _row_chunks(m: int, n: int) -> list:
    """Row slices of an (m, n) distance matrix, for ``reduce_rows``.

    Each starts at a multiple of ``NEAREST_BLOCK`` (so its cells equal the whole
    matrix's) and holds at most ``CHUNK_CELLS`` cells, or one block if a block is wider.
    """
    step = NEAREST_BLOCK * max(1, CHUNK_CELLS // (NEAREST_BLOCK * max(n, 1)))
    return [slice(start, min(start + step, m)) for start in range(0, m, step)]


def reduce_rows(distance, a: np.ndarray, b: np.ndarray, reduce, *, exclude_self: bool = False) -> np.ndarray:
    """Row-wise ``reduce(distance(a, b))``, computed on ``_row_chunks`` of ``a``.

    Callers pass ``pairwise_sq`` or ``pairwise`` by their own module's name for
    it, so a patched binding is the one called.  ``reduce`` maps a chunk to one
    result row per chunk row and may overwrite the chunk; by the slicing
    property the joined result equals the whole matrix's.  ``exclude_self``
    (``b`` is ``a``) sets each row's own cell to ``inf``.  Each chunk is freed
    before the next is allocated: with two alive, malloc trims the heap and
    faults it in again (about 870 page faults per 3,200-row overlap-ratio
    call).  With no rows in ``a``, ``reduce`` gets an empty (0, len(b)) matrix.
    """
    parts = []
    for rows in _row_chunks(len(a), len(b)):
        chunk = distance(a[rows], b)
        if exclude_self:
            np.fill_diagonal(chunk[:, rows], np.inf)
        parts.append(reduce(chunk))
        del chunk
    return np.concatenate(parts) if parts else reduce(np.empty((0, len(b))))


def pairwise(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(len(a), len(b)) Euclidean distances, square-rooted in ``pairwise_sq``'s own array."""
    sq = pairwise_sq(a, b)
    return np.sqrt(sq, out=sq)


def min_dist(points: np.ndarray, reference: np.ndarray) -> np.ndarray:
    """Per-point distance to the nearest reference sample."""
    return np.sqrt(reduce_rows(pairwise_sq, points, reference, lambda sq: sq.min(axis=1)))


def nearest(sq: np.ndarray, k: int) -> np.ndarray:
    """(m, k) column indices of each row's k smallest entries, ordered by (value, index).

    Equal to ``np.argsort(sq, axis=1, kind="stable")[:, :k]`` with ``k`` clamped
    to the row length, so ties fall to the lower index, for any NaN-free ``sq``
    (``inf`` allowed).  It selects over the whole of ``sq``, which in the
    pipeline is one ``reduce_rows`` chunk.  The columns form ``min(n, 4k)``
    contiguous groups (the last one takes the remainder), and a row's k-th
    smallest group minimum bounds it: those k minima are k distinct entries at
    or below it, so the row's first k in (value, index) order all lie ``<=`` it.
    These candidates are sorted by (row, value, index); each row keeps its first k.
    """
    sq = np.asarray(sq)
    m, n = sq.shape
    k = max(0, min(int(k), n))
    if k == 0:
        return np.empty((m, 0), dtype=np.intp)
    g = min(n, 4 * k)  # 4k, not k, groups: with k the bound admits far more candidates on class-sorted rows
    bound = np.partition(np.minimum.reduceat(sq, np.arange(g) * (n // g), axis=1), k - 1, axis=1)[:, k - 1, None]
    flat = np.flatnonzero(sq <= bound)  # row-major, so already in (row, index) order
    row = flat // n
    flat = flat[np.lexsort((sq.ravel()[flat], row))]  # stable: equal values keep index order
    first = np.searchsorted(row, np.arange(m))
    return flat[first[:, None] + np.arange(k)] % n
