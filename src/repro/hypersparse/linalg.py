"""Graph algorithms in the language of linear algebra.

The point of storing traffic as matrices (Kepner & Gilbert, ref [29]) is
that graph analytics become semiring linear algebra over the same
structures the statistics run on.  This module implements the classic
kernels on hypersparse matrices, used by the honeyfarm's enrichment
analytics and cross-validated against networkx in the test suite:

* :func:`bfs_levels` — breadth-first search via repeated masked vxm;
* :func:`connected_components` — label propagation with min-semiring hops;
* :func:`pagerank` — power iteration on the column-stochastic matrix;
* :func:`triangle_count` — ``trace(L @ U ∘ A)`` masked Burkhardt method;
* :func:`degree_centrality` — straight reductions.

Graphs here are matrices whose stored entries are edges; direction is
row→col.  Undirected algorithms symmetrize internally.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from .coo import HyperSparseMatrix, SparseVec
from .merge import in_sorted
from .ops import mask, mxv, tril, triu
from .semiring import LOR_LAND, PLUS_PAIR, Semiring

__all__ = [
    "bfs_levels",
    "connected_components",
    "pagerank",
    "triangle_count",
    "degree_centrality",
]


def _symmetrize(graph: HyperSparseMatrix) -> HyperSparseMatrix:
    """Union of the graph with its transpose (values irrelevant, kept 1)."""
    return graph.zero_norm().ewise_add(graph.transpose().zero_norm(), np.maximum)


def bfs_levels(graph: HyperSparseMatrix, source: int, *, max_depth: int = 64) -> SparseVec:
    """Hop distance from ``source`` to every reachable node.

    Classic GraphBLAS BFS: the frontier vector is pushed through the
    transposed adjacency with the boolean semiring, masking out nodes
    already visited.  Returns a sparse vector of levels (source = 0).
    """
    at = graph.transpose()  # mxv pulls along columns; we want row->col edges
    levels = SparseVec([source], [0.0])
    frontier = SparseVec([source], [1.0])
    for depth in range(1, max_depth + 1):
        nxt = mxv(at, frontier, LOR_LAND)
        if nxt.nnz == 0:
            break
        # Mask out already-visited nodes; both key runs are canonical,
        # so membership is binary search, not np.isin's sort.
        fresh_mask = ~in_sorted(levels.keys, nxt.keys)
        if not fresh_mask.any():
            break
        frontier = SparseVec(
            nxt.keys[fresh_mask], np.ones(int(fresh_mask.sum()), dtype=np.float64)
        )
        levels = levels.ewise_add(
            SparseVec(frontier.keys, np.full(frontier.nnz, float(depth), dtype=np.float64))
        )
    return levels


def connected_components(graph: HyperSparseMatrix) -> Dict[int, int]:
    """Weakly connected components of the stored nodes.

    Label propagation in the min semiring: every node starts labelled by
    its own id; repeated min-plus-style propagation converges to the
    minimum id in each component.  Returns ``{node: component_label}``.
    """
    sym = _symmetrize(graph)
    nodes = np.union1d(sym.unique_rows(), sym.unique_cols())
    if nodes.size == 0:
        return {}
    labels = SparseVec(nodes, nodes.astype(np.float64))
    at = sym.transpose()
    for _ in range(int(np.ceil(np.log2(nodes.size + 1))) * 2 + 2):
        # Each node takes the min of its own and neighbours' labels.
        neighbour_min = mxv(at, labels, _MIN_FIRST)
        merged = labels.ewise_add(neighbour_min, np.minimum)
        if np.array_equal(merged.vals, labels.vals):
            break
        labels = merged
    return {int(k): int(v) for k, v in labels}


#: min.first semiring: combine neighbour labels by minimum, propagating the
#: vector operand (the label) unchanged through the matrix entries.
_MIN_FIRST = Semiring("min.first", np.minimum, lambda a, b: b, np.inf)


def pagerank(
    graph: HyperSparseMatrix,
    *,
    damping: float = 0.85,
    tol: float = 1e-8,
    max_iter: int = 100,
) -> SparseVec:
    """PageRank of the stored nodes by power iteration.

    Dangling nodes (no out-edges) redistribute uniformly, matching
    networkx's convention, which the tests compare against.
    """
    if not 0 < damping < 1:
        raise ValueError("damping must be in (0, 1)")
    nodes = np.union1d(graph.unique_rows(), graph.unique_cols())
    n = nodes.size
    if n == 0:
        return SparseVec([], [])
    # Compact the graph onto 0..n-1 for dense vector iteration (the node
    # *set* is small even when the address space is 2^32).
    r = np.searchsorted(nodes, graph.rows)
    c = np.searchsorted(nodes, graph.cols)
    out_weight = np.zeros(n, dtype=np.float64)
    np.add.at(out_weight, r, graph.vals)
    rank = np.full(n, 1.0 / n, dtype=np.float64)
    for _ in range(max_iter):
        contrib = np.zeros(n, dtype=np.float64)
        scaled = graph.vals * rank[r] / out_weight[r]
        np.add.at(contrib, c, scaled)
        dangling = rank[out_weight == 0].sum()
        new_rank = (1 - damping) / n + damping * (contrib + dangling / n)
        if np.abs(new_rank - rank).sum() < tol:
            rank = new_rank
            break
        rank = new_rank
    return SparseVec(nodes, rank)


def triangle_count(graph: HyperSparseMatrix) -> int:
    """Triangles in the undirected version of the graph.

    Burkhardt/Cohen masked formulation: ``sum(L @ U ∘ L)`` over the
    strictly-lower/upper triangular splits of the symmetrized adjacency
    counts each triangle exactly once.
    """
    sym = _symmetrize(graph)
    # Drop self loops.
    from .ops import select

    sym = select(sym, lambda r, c, v: r != c)
    low = tril(sym, k=-1)
    up = triu(sym, k=1)
    wedges = low.mxm(up, PLUS_PAIR)
    closed = mask(wedges, low)
    return int(round(closed.total()))


def degree_centrality(graph: HyperSparseMatrix) -> Tuple[SparseVec, SparseVec]:
    """(out-degree, in-degree) centrality of the stored nodes."""
    return graph.row_degree(), graph.col_degree()
