"""Euclidean distances as one matrix product per row block, and exact k-nearest selection on them.

Each squared distance is one cell of a product of augmented operands,
``[a, 1, aa] @ [-2·bᵀ; bb; 1]`` with ``aa`` and ``bb`` the squared row norms:
the sum ``-2 a·b + bb + aa`` with the norm terms last (a one-row block's
matrix-vector product may sum in another order).  Its rounding error is of
order ``(z + 2)·u·(aa + bb)`` for z features and unit roundoff u, in any
order: to first order at most ``(3z + 4)·u·(aa + bb)``, the norms' own
rounding included, since the z + 2 terms' magnitudes sum to at most
``2·(aa + bb)``.  So the cells are not exact differences: two equal rows
may sit a tiny non-zero, possibly negative, distance apart.  ``nearest`` is
exact on the cells it gets.  ``pairwise_sq`` returns them unclipped.  The
clip at 0 happens only where a value leaves this module: ``nearest`` clips
its row bound and its candidates, ``min_dist`` each row's minimum and
``pairwise`` every cell before its square root.  Clipping is monotone, so
each of them returns what it would on clipped cells, and the callers that
only select neighbours skip a pass over every cell.  Each cell is the product
on its own ``NEAREST_BLOCK``-row block of ``a``, so slicing ``a`` at a
multiple of that block leaves every cell unchanged.  Every caller in the
pipeline reduces its matrix row by row (k nearest, minimum or median) through
``reduce_rows``, which computes it in row chunks of at most ``CHUNK_CELLS``
cells, none holding an m x n matrix, with ``b``'s operand built once per
call.  ``restrict_nearest`` reads a subset's k nearest from a whole set's K
nearest.
"""

from __future__ import annotations

import numpy as np

NEAREST_BLOCK = 64  # rows per block in ``pairwise_sq`` and per step of ``_row_chunks``
CHUNK_CELLS = 2**18  # cells (2 MB) per distance call of ``reduce_rows``
UNIT_ROUNDOFF = np.finfo(np.float64).eps / 2  # u, in ``pairwise_sq``'s overflow margin


def _sq_norms(x: np.ndarray) -> np.ndarray:
    """Squared row norms; an overflow gives ``inf`` without a warning, and ``pairwise_sq`` raises for it."""
    with np.errstate(over="ignore"):
        return (x * x).sum(axis=1)


def _right_operand(b: np.ndarray) -> np.ndarray:
    """``[-2·bᵀ; bb; 1]``, the (z + 2, len(b)) right operand of ``pairwise_sq``'s product.

    ``-2·b`` overflows only where ``bb`` does, and ``pairwise_sq`` raises for
    that.  It is row-major: on a column-major operand, a one-row block's
    product (a matrix-vector call) sums its terms in another order.
    """
    operand = np.empty((b.shape[1] + 2, b.shape[0]))
    with np.errstate(over="ignore"):
        np.multiply(b.T, -2.0, out=operand[:-2])
    operand[-2] = _sq_norms(b)
    operand[-1] = 1.0
    return operand


def pairwise_sq(a: np.ndarray, b: np.ndarray, operand: np.ndarray | None = None) -> np.ndarray:
    """(len(a), len(b)) squared Euclidean distances, one matrix product per row block, unclipped.

    ``operand`` is ``_right_operand(b)``, built here when not given;
    ``reduce_rows`` builds it once per call and passes it to every chunk.  Per
    ``NEAREST_BLOCK`` row block of ``a``, the block's rows of ``[a, 1, aa]``
    times ``operand`` is one general matrix product (GEMM), written straight
    into the result: each cell is the sum ``-2 a·b + bb + aa`` over the z + 2
    terms, the norm terms last, with an error of order ``(z + 2)·u·(aa + bb)``
    (u the unit roundoff).  Features that are small integers give exact
    integer cells.  A cell depends only on its own block, so
    ``pairwise_sq(a[s:e], b)`` equals ``pairwise_sq(a, b)[s:e]`` bit for bit
    when ``s`` is a multiple of ``NEAREST_BLOCK`` and ``e`` is too or is ``len(a)``.

    Cells are not clipped at 0: two equal rows may sit a tiny negative apart.
    Raises ``ValueError`` when ``(sqrt(max aa) + sqrt(max bb))**2`` is not
    finite: the magnitudes of a cell's terms sum to at most ``(|a| + |b|)**2``,
    so every partial sum stays below it, while squared norms that overflow
    would turn cells into NaN and finite ones of opposite rows into ``inf``.
    Near the float limit the bound is taken ``1 + (3z + 8)·u`` times larger,
    which covers the rounding of the norms, of the bound itself and of the
    product's sums: a call that does not raise gives finite cells.
    """
    a = np.atleast_2d(np.asarray(a, dtype=np.float64))
    if operand is None:
        operand = _right_operand(np.atleast_2d(np.asarray(b, dtype=np.float64)))
    aa = _sq_norms(a)
    with np.errstate(over="ignore"):
        largest = ((np.sqrt(aa.max(initial=0.0)) + np.sqrt(operand[-2].max(initial=0.0))) ** 2
                   * (1.0 + (3 * a.shape[1] + 8) * UNIT_ROUNDOFF))
    if not np.isfinite(largest):
        raise ValueError("squared row norms overflow float64 in the distance identity; rescale the features")
    left = np.column_stack((a, np.ones(len(a)), aa))  # [a, 1, aa], row-major
    sq = np.empty((a.shape[0], operand.shape[1]))
    for start in range(0, sq.shape[0], NEAREST_BLOCK):
        rows = slice(start, start + NEAREST_BLOCK)
        np.matmul(left[rows], operand, out=sq[rows])
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
    it, so a patched binding is the one called.  ``b``'s ``_right_operand`` is
    built once here and each chunk is ``distance(a[rows], b, operand)``: a
    3,200-row call has 50 chunks.  ``reduce`` maps a chunk to one result row
    per chunk row and may overwrite the chunk; by the slicing property the
    joined result equals the whole matrix's.  ``exclude_self`` (``b`` is ``a``) sets
    each row's own cell to ``inf``.  Each chunk is freed before the next is
    allocated: with two alive, malloc trims the heap and faults it in again
    (about 870 page faults per 3,200-row overlap-ratio call).  With no rows in
    ``a``, ``reduce`` gets an empty (0, len(b)) matrix and no distance is computed.
    """
    b = np.atleast_2d(np.asarray(b, dtype=np.float64))
    operand = _right_operand(b)
    parts = []
    for rows in _row_chunks(len(a), len(b)):
        chunk = distance(a[rows], b, operand)
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
        operand, outside = _right_operand(x), position < 0
        for start in np.unique(rows[short] // NEAREST_BLOCK) * NEAREST_BLOCK:
            here = short[(rows[short] >= start) & (rows[short] < start + NEAREST_BLOCK)]
            sq = pairwise_sq(x[start:start + NEAREST_BLOCK], x, operand)[rows[here] - start]
            sq[:, outside] = np.inf
            sq[np.arange(here.size), rows[here]] = np.inf
            out[here] = position[nearest(sq, k)]
    return out


def pairwise(a: np.ndarray, b: np.ndarray, operand: np.ndarray | None = None) -> np.ndarray:
    """(len(a), len(b)) Euclidean distances: ``pairwise_sq``'s cells clipped at 0, square-rooted in its own array."""
    sq = pairwise_sq(a, b, operand)
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
    any NaN-free ``sq`` (``inf`` allowed): the product's tiny negatives tie at
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
