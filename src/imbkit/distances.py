"""Euclidean distances by the inner-product identity, and exact k-nearest selection on them.

The identity's cells carry its rounding (a tiny non-zero, possibly negative,
for two equal rows), so they are not exact differences; ``nearest`` is exact
on the cells it gets.  ``pairwise_sq`` returns them unclipped.  The clip at 0
happens only where a value leaves this module: ``nearest`` clips its row bound
and its candidates, ``min_dist`` each row's minimum and ``pairwise`` every cell
before its square root.  Clipping is monotone, so each of them returns what it
would on clipped cells, and the callers that only select neighbours skip a
pass over every cell.  Each cell is the identity on its own
``NEAREST_BLOCK``-row block of ``a``, so slicing ``a`` at a multiple of that
block leaves every cell unchanged.  Every caller in the pipeline reduces its
matrix row by row (k nearest, minimum or median) through ``reduce_rows``, which
computes it in row chunks of at most ``CHUNK_CELLS`` cells, none holding an
m x n matrix, with ``b``'s squared norms computed once per call.
``restrict_nearest`` reads a subset's k nearest from a whole set's K nearest.
"""

from __future__ import annotations

import numpy as np

NEAREST_BLOCK = 64  # rows per block in ``pairwise_sq`` and per step of ``_row_chunks``
CHUNK_CELLS = 2**18  # cells (2 MB) per distance call of ``reduce_rows``
TAIL_CELLS = 2**15  # cells (256 KB) per pass of the identity's elementwise tail in ``pairwise_sq``


def _sq_norms(x: np.ndarray) -> np.ndarray:
    """Squared row norms; an overflow gives ``inf`` without a warning, and ``pairwise_sq`` raises for it."""
    with np.errstate(over="ignore"):
        return (x * x).sum(axis=1)


def pairwise_sq(a: np.ndarray, b: np.ndarray, norms: np.ndarray | None = None) -> np.ndarray:
    """(len(a), len(b)) squared Euclidean distances via the inner-product identity, unclipped.

    ``norms`` is ``b``'s squared row norms ``(b * b).sum(axis=1)``, computed
    here when not given; ``reduce_rows`` computes them once per call and passes
    them to every chunk.  Per ``NEAREST_BLOCK`` row block of ``a``, the product
    ``a[block] @ b.T`` is its own general matrix product (GEMM), written
    straight into the result, and ``aa + bb - 2.0 * product`` runs in place on
    it while it is still in cache.  So ``a @ a.T`` never takes numpy's
    symmetric (SYRK) path, except for a self-product of at most one block,
    where the block's product is the whole ``a @ a.T``.  The tail runs on
    pieces of the block of at most ``TAIL_CELLS`` cells (the whole block when
    it fits) in three passes: ``*= 2.0``, ``aa + bb`` into one piece-sized
    buffer kept for the call, and the subtraction in place.  A block-wide
    ``aa + bb`` temporary, allocated and freed on every call of a chunked
    caller, pushed malloc's heap past its trim threshold, and each call faulted
    its pages in again.  A cell depends only on its own block, so
    ``pairwise_sq(a[s:e], b)`` equals ``pairwise_sq(a, b)[s:e]`` bit for bit
    when ``s`` is a multiple of ``NEAREST_BLOCK`` and ``e`` is too or is ``len(a)``.

    Cells are not clipped at 0: two equal rows may sit a tiny negative apart.
    Raises ``ValueError`` when the identity's largest term, ``max(aa) + max(bb)``,
    is not finite: squared norms that overflow would turn cells into NaN.
    """
    a = np.atleast_2d(np.asarray(a, dtype=np.float64))
    b = np.atleast_2d(np.asarray(b, dtype=np.float64))
    aa = _sq_norms(a)
    bb = _sq_norms(b) if norms is None else norms
    with np.errstate(over="ignore"):
        largest = aa.max(initial=0.0) + bb.max(initial=0.0)
    if not np.isfinite(largest):
        raise ValueError("squared row norms overflow float64 in the distance identity; rescale the features")
    piece = max(1, TAIL_CELLS // max(b.shape[0], 1))  # rows per pass of the tail
    # aa + bb, one piece at a time; allocated before the result, since in the other
    # order the heap's layout added about 0.8 MB to a 3,200-row fold's peak RSS
    tmp = np.empty((min(piece, NEAREST_BLOCK, a.shape[0]), b.shape[0]))
    sq = np.empty((a.shape[0], b.shape[0]))
    for start in range(0, sq.shape[0], NEAREST_BLOCK):
        rows = slice(start, start + NEAREST_BLOCK)
        block = np.matmul(a[rows], b.T, out=sq[rows])
        for lo in range(0, block.shape[0], piece):
            part = block[lo:lo + piece]
            part *= 2.0
            terms = np.add(aa[rows][lo:lo + piece, None], bb, out=tmp[:len(part)])
            np.subtract(terms, part, out=part)
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
    it, so a patched binding is the one called.  ``b``'s squared row norms are
    computed once here and each chunk is ``distance(a[rows], b, norms)``: a
    3,200-row call has 50 chunks, and recomputing the norms in each cost about
    a fifth of the chunk's tail.  ``reduce`` maps a chunk to one result row per
    chunk row and may overwrite the chunk; by the slicing property the joined
    result equals the whole matrix's.  ``exclude_self`` (``b`` is ``a``) sets
    each row's own cell to ``inf``.  Each chunk is freed before the next is
    allocated: with two alive, malloc trims the heap and faults it in again
    (about 870 page faults per 3,200-row overlap-ratio call).  With no rows in
    ``a``, ``reduce`` gets an empty (0, len(b)) matrix and no distance is computed.
    """
    b = np.atleast_2d(np.asarray(b, dtype=np.float64))
    norms = _sq_norms(b)
    parts = []
    for rows in _row_chunks(len(a), len(b)):
        chunk = distance(a[rows], b, norms)
        if exclude_self:
            np.fill_diagonal(chunk[:, rows], np.inf)
        parts.append(reduce(chunk))
        del chunk
    return np.concatenate(parts) if parts else reduce(np.empty((0, len(b))))


def restrict_nearest(x: np.ndarray, table: np.ndarray, rows: np.ndarray, k: int) -> np.ndarray:
    """(len(rows), k) positions in ``rows`` of each row's k nearest other rows of ``x[rows]``.

    ``table`` is ``reduce_rows(pairwise_sq, x, x, lambda sq: nearest(sq, K), exclude_self=True)``
    for some K >= k, and ``rows`` is sorted, unique and at least k + 1 long.  The
    result is then ``nearest`` on the rows of ``x``'s own matrix, with the self
    cell and every column outside ``rows`` at ``inf``: ties fall to the lower
    index, whichever rows ``rows`` holds.  A row's k nearest in ``rows`` are the
    first k entries of its table row that lie in ``rows``, since any other row
    of ``rows`` comes after all of them.  A row left with fewer than k
    recomputes its ``NEAREST_BLOCK``-row block of that matrix, bit-identical
    by the slicing property, and selects on it.
    """
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    position = np.full(len(x), -1)
    position[rows] = np.arange(len(rows))
    found = position[table[rows]]  # (m, K): -1 where the neighbour is outside rows
    inside = found >= 0
    first = np.argsort(~inside, axis=1, kind="stable")[:, :k]  # rows' entries first, in table order
    out = np.take_along_axis(found, first, axis=1)
    short = np.flatnonzero(np.count_nonzero(inside, axis=1) < k)
    if short.size:
        norms, outside = _sq_norms(x), position < 0
        for start in np.unique(rows[short] // NEAREST_BLOCK) * NEAREST_BLOCK:
            here = short[(rows[short] >= start) & (rows[short] < start + NEAREST_BLOCK)]
            sq = pairwise_sq(x[start:start + NEAREST_BLOCK], x, norms)[rows[here] - start]
            sq[:, outside] = np.inf
            sq[np.arange(here.size), rows[here]] = np.inf
            out[here] = position[nearest(sq, k)]
    return out


def pairwise(a: np.ndarray, b: np.ndarray, norms: np.ndarray | None = None) -> np.ndarray:
    """(len(a), len(b)) Euclidean distances: ``pairwise_sq``'s cells clipped at 0, square-rooted in its own array."""
    sq = pairwise_sq(a, b, norms)
    np.maximum(sq, 0.0, out=sq)
    return np.sqrt(sq, out=sq)


def min_dist(points: np.ndarray, reference: np.ndarray) -> np.ndarray:
    """Per-point distance to the nearest reference sample: each row's minimum, clipped at 0, square-rooted."""
    closest = reduce_rows(pairwise_sq, points, reference, lambda sq: sq.min(axis=1))
    np.maximum(closest, 0.0, out=closest)
    return np.sqrt(closest, out=closest)


def nearest(sq: np.ndarray, k: int) -> np.ndarray:
    """(m, k) column indices of each row's k smallest clipped entries, ordered by (value, index).

    Equal to ``np.argsort(np.maximum(sq, 0), axis=1, kind="stable")[:, :k]``
    with ``k`` clamped to the row length, so ties fall to the lower index, for
    any NaN-free ``sq`` (``inf`` allowed): the identity's tiny negatives tie at
    0 as the clipped cells did.  It selects over the whole of ``sq``, which in
    the pipeline is one ``reduce_rows`` chunk.  The columns form ``min(n, 4k)``
    contiguous groups (the last one takes the remainder), and a row's k-th
    smallest group minimum bounds it: those k minima are k distinct entries at
    or below it, so the row's first k in (value, index) order all lie ``<=`` it.
    Clipping is monotone, so ``max(bound, 0)`` is the clipped matrix's bound
    and admits the same entries; only these candidates are clipped, then
    sorted by (row, value, index), and each row keeps its first k.
    """
    sq = np.asarray(sq)
    m, n = sq.shape
    k = max(0, min(int(k), n))
    if k == 0:
        return np.empty((m, 0), dtype=np.intp)
    g = min(n, 4 * k)  # 4k, not k, groups: with k the bound admits far more candidates on class-sorted rows
    bound = np.partition(np.minimum.reduceat(sq, np.arange(g) * (n // g), axis=1), k - 1, axis=1)[:, k - 1, None]
    flat = np.flatnonzero(sq <= np.maximum(bound, 0.0))  # row-major, so already in (row, index) order
    row = flat // n
    flat = flat[np.lexsort((np.maximum(sq.ravel()[flat], 0.0), row))]  # stable: equal values keep index order
    first = np.searchsorted(row, np.arange(m))
    return flat[first[:, None] + np.arange(k)] % n
