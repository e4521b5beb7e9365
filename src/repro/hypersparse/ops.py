"""Extended GraphBLAS-style operations on hypersparse matrices.

The core :class:`~repro.hypersparse.coo.HyperSparseMatrix` carries the
kernels the paper's pipeline needs every day; this module adds the rest of
the GraphBLAS working set used by network-analysis code built on these
matrices (cf. Kepner & Gilbert, *Graph Algorithms in the Language of
Linear Algebra*):

* ``mxv`` / ``vxm`` — matrix-vector products over a semiring;
* ``select`` — entry filtering by value or position (GrB_select);
* ``mask`` / ``complement_mask`` — restrict a result to a pattern;
* ``kron`` — Kronecker product (graph scaling / generator primitive);
* ``diag`` / ``diag_extract`` — diagonal construction and extraction;
* ``tril`` / ``triu`` — triangular selectors;
* ``concat_blocks`` / ``split_blocks`` — 2x2 tiling, the storage layout of
  hierarchically archived traffic matrices.

All functions are pure: they never mutate their operands.
"""

from __future__ import annotations

from typing import Callable, List, Sequence

import numpy as np

from ..analysis.contracts import checked
from ..obs.spans import traced
from .coo import HyperSparseMatrix, SparseVec, checked_shape
from .merge import in_sorted
from .semiring import PLUS_TIMES, Semiring

__all__ = [
    "mxv",
    "vxm",
    "select",
    "mask",
    "complement_mask",
    "kron",
    "diag",
    "diag_extract",
    "tril",
    "triu",
    "concat_blocks",
    "split_blocks",
]


@traced
@checked("vector")
def mxv(
    matrix: HyperSparseMatrix, vec: SparseVec, semiring: Semiring = PLUS_TIMES
) -> SparseVec:
    """Matrix-vector product ``A v`` over a semiring.

    ``v`` is keyed by column coordinates; the result is keyed by row
    coordinates.  With the default semiring and a vector of ones this is
    the Table II ``A 1`` reduction restricted to the vector's support —
    e.g. "packets sent by each source *to the monitored subnet only*".
    """
    if vec.nnz == 0 or matrix.nnz == 0:
        return SparseVec([], [])
    # Join matrix columns against vector keys.
    idx = np.searchsorted(vec.keys, matrix.cols)
    idx_clipped = np.minimum(idx, vec.keys.size - 1)
    hit = vec.keys[idx_clipped] == matrix.cols
    if not np.any(hit):
        return SparseVec([], [])
    # Canonical order sorts by row first, so the hit rows arrive already
    # non-decreasing: run detection needs no re-sort.
    rows = matrix.rows[hit]
    prods = np.asarray(
        semiring.mult(matrix.vals[hit], vec.vals[idx_clipped[hit]]), dtype=np.float64
    )
    first = np.ones(rows.size, dtype=bool)
    first[1:] = rows[1:] != rows[:-1]
    starts = np.flatnonzero(first)
    out = SparseVec.__new__(SparseVec)
    out.keys = rows[starts]
    out.vals = semiring.reduce_runs(prods, starts)
    return out


def vxm(
    vec: SparseVec, matrix: HyperSparseMatrix, semiring: Semiring = PLUS_TIMES
) -> SparseVec:
    """Vector-matrix product ``v' A`` (keyed by column coordinates)."""
    return mxv(matrix.transpose(), vec, semiring)


@traced
def select(
    matrix: HyperSparseMatrix,
    predicate: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray],
) -> HyperSparseMatrix:
    """Keep entries where ``predicate(rows, cols, vals)`` is True.

    The GraphBLAS ``GrB_select``: positional and value filters in one
    vectorized callable, e.g. ``select(A, lambda r, c, v: v >= 8)`` keeps
    bright links only.
    """
    keep = np.asarray(predicate(matrix.rows, matrix.cols, matrix.vals), dtype=bool)
    if keep.shape != matrix.vals.shape:
        raise ValueError("predicate must return one boolean per stored entry")
    return matrix._masked(keep)


def mask(matrix: HyperSparseMatrix, pattern: HyperSparseMatrix) -> HyperSparseMatrix:
    """Restrict ``matrix`` to the stored pattern of ``pattern`` (GrB mask).

    Values come from ``matrix``; ``pattern`` contributes structure only.
    """
    if matrix.shape != pattern.shape:
        raise ValueError("mask shape mismatch")
    return matrix.ewise_mult(pattern.zero_norm(), lambda a, b: a * b)


def complement_mask(
    matrix: HyperSparseMatrix, pattern: HyperSparseMatrix
) -> HyperSparseMatrix:
    """Entries of ``matrix`` *outside* the stored pattern of ``pattern``."""
    if matrix.shape != pattern.shape:
        raise ValueError("mask shape mismatch")
    keep = ~in_sorted(pattern.keys, matrix.keys)
    return matrix._masked(keep)


@traced
def kron(a: HyperSparseMatrix, b: HyperSparseMatrix) -> HyperSparseMatrix:
    """Kronecker product ``A (x) B``.

    The classic sparse-graph generator primitive (Kronecker/R-MAT graphs
    are built by iterated kron).  Output shape is
    ``(a.nrows * b.nrows, a.ncols * b.ncols)`` and must fit the 2^64 key
    space.
    """
    out_shape = checked_shape((a.shape[0] * b.shape[0], a.shape[1] * b.shape[1]))
    if a.nnz == 0 or b.nnz == 0:
        return HyperSparseMatrix.empty(out_shape)
    rows = (a.rows[:, None] * np.uint64(b.shape[0]) + b.rows[None, :]).ravel()
    cols = (a.cols[:, None] * np.uint64(b.shape[1]) + b.cols[None, :]).ravel()
    vals = (a.vals[:, None] * b.vals[None, :]).ravel()
    return HyperSparseMatrix(rows, cols, vals, shape=out_shape)


def diag(vec: SparseVec, n: int) -> HyperSparseMatrix:
    """Diagonal matrix with ``vec``'s entries at ``(k, k)``."""
    shape = checked_shape((n, n))
    if vec.nnz and int(vec.keys.max()) >= n:
        raise ValueError("vector key outside diagonal extent")
    return HyperSparseMatrix._from_canonical(vec.keys, vec.keys, vec.vals, shape)


@checked("vector")
def diag_extract(matrix: HyperSparseMatrix) -> SparseVec:
    """The stored diagonal entries of a matrix as a sparse vector."""
    on_diag = matrix.rows == matrix.cols
    out = SparseVec.__new__(SparseVec)
    out.keys = matrix.rows[on_diag]
    out.vals = matrix.vals[on_diag]
    return out


def tril(matrix: HyperSparseMatrix, k: int = 0) -> HyperSparseMatrix:
    """Entries on or below the k-th diagonal (``col - row <= k``)."""
    return select(
        matrix,
        lambda r, c, v: c.astype(np.int64) - r.astype(np.int64) <= k,
    )


def triu(matrix: HyperSparseMatrix, k: int = 0) -> HyperSparseMatrix:
    """Entries on or above the k-th diagonal (``col - row >= k``)."""
    return select(
        matrix,
        lambda r, c, v: c.astype(np.int64) - r.astype(np.int64) >= k,
    )


def split_blocks(
    matrix: HyperSparseMatrix, row_split: int, col_split: int
) -> List[List[HyperSparseMatrix]]:
    """Split into a 2x2 block grid at the given row/column boundaries.

    Returns ``[[top-left, top-right], [bottom-left, bottom-right]]`` with
    *local* coordinates per block — the tiling used when traffic matrices
    are archived block-partitioned (and the generalization of the Fig-1
    quadrant cut to arbitrary boundaries).
    """
    if not (0 <= row_split <= matrix.shape[0] and 0 <= col_split <= matrix.shape[1]):
        raise ValueError("split point outside matrix shape")
    r, c, v = matrix.find()
    top = r < np.uint64(row_split)
    left = c < np.uint64(col_split)
    out: List[List[HyperSparseMatrix]] = []
    # lint: allow-loop — iterates the fixed 2x2 block grid, not entries
    for row_side, row_mask, row_off in (
        ("top", top, 0),
        ("bottom", ~top, row_split),
    ):
        row_blocks = []
        # lint: allow-loop — fixed two-column block pass, not per-entry
        for col_side, col_mask, col_off in (
            ("left", left, 0),
            ("right", ~left, col_split),
        ):
            m = row_mask & col_mask
            shape = (
                row_split if row_side == "top" else matrix.shape[0] - row_split,
                col_split if col_side == "left" else matrix.shape[1] - col_split,
            )
            shape = (max(shape[0], 1), max(shape[1], 1))
            row_blocks.append(
                HyperSparseMatrix(
                    r[m] - np.uint64(row_off),
                    c[m] - np.uint64(col_off),
                    v[m],
                    shape=shape,
                )
            )
        out.append(row_blocks)
    return out


def concat_blocks(blocks: Sequence[Sequence[HyperSparseMatrix]]) -> HyperSparseMatrix:
    """Inverse of :func:`split_blocks`: reassemble a 2x2 block grid."""
    (tl, tr), (bl, br) = blocks
    if tl.shape[0] != tr.shape[0] or bl.shape[0] != br.shape[0]:
        raise ValueError("row extents of adjacent blocks differ")
    if tl.shape[1] != bl.shape[1] or tr.shape[1] != br.shape[1]:
        raise ValueError("column extents of adjacent blocks differ")
    row_split, col_split = tl.shape
    shape = (row_split + bl.shape[0], col_split + tr.shape[1])
    rows, cols, vals = [], [], []
    # lint: allow-loop — iterates the four blocks, not entries
    for block, (ro, co) in (
        (tl, (0, 0)),
        (tr, (0, col_split)),
        (bl, (row_split, 0)),
        (br, (row_split, col_split)),
    ):
        r, c, v = block.find()
        rows.append(r + np.uint64(ro))
        cols.append(c + np.uint64(co))
        vals.append(v)
    return HyperSparseMatrix(
        np.concatenate(rows), np.concatenate(cols), np.concatenate(vals), shape=shape
    )
