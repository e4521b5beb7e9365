"""Table II — network quantities from traffic matrices.

Every aggregate in the paper's Table II, computed with the *matrix*
formulas (right column of the table), which are invariant under row/column
permutation and therefore work identically on anonymized matrices:

=============================  ==========================
Property                       Matrix notation
=============================  ==========================
Valid packets ``N_V``          ``1' A 1``
Unique links                   ``1' |A|_0 1``
Max link packets               ``max(A)``
Unique sources                 ``1' |A 1|_0``
Packets from each source       ``A 1``
Max source packets             ``max(A 1)``
Source fan-out                 ``|A|_0 1``
Max source fan-out             ``max(|A|_0 1)``
Unique destinations            ``|1' A|_0 1``
Packets to each destination    ``1' A``
Max destination packets        ``max(1' A)``
Destination fan-in             ``1' |A|_0``
Max destination fan-in         ``max(1' |A|_0)``
=============================  ==========================

Scalar aggregates come back in a :class:`NetworkQuantities` record; the
per-source / per-destination vectors are exposed as standalone functions
returning :class:`~repro.hypersparse.coo.SparseVec` keyed by address.
"""

from __future__ import annotations

from dataclasses import dataclass, asdict
from typing import Dict

import numpy as np

from ..hypersparse import HyperSparseMatrix
from ..hypersparse.coo import SparseVec

__all__ = [
    "NetworkQuantities",
    "network_quantities",
    "source_packets",
    "source_fanout",
    "destination_packets",
    "destination_fanin",
    "link_packets",
]


@dataclass(frozen=True)
class NetworkQuantities:
    """Scalar aggregates of one traffic matrix (Table II)."""

    valid_packets: float
    unique_links: int
    max_link_packets: float
    unique_sources: int
    max_source_packets: float
    max_source_fanout: float
    unique_destinations: int
    max_destination_packets: float
    max_destination_fanin: float

    def as_dict(self) -> Dict[str, float]:
        """Plain-dict view (stable key order, suited to table printing)."""
        return asdict(self)


def network_quantities(matrix: HyperSparseMatrix) -> NetworkQuantities:
    """Compute every scalar Table II aggregate of ``matrix``.

    One pass builds the source/destination reductions; maxima and counts
    derive from those vectors, mirroring how the matrix formulas share
    subexpressions (``A 1`` feeds three rows of the table).
    """
    src_pkts = matrix.row_reduce()  # A 1
    dst_pkts = matrix.col_reduce()  # 1' A
    src_fan = matrix.row_degree()  # |A|_0 1
    dst_fan = matrix.col_degree()  # 1' |A|_0
    return NetworkQuantities(
        valid_packets=matrix.total(),
        unique_links=matrix.nnz,
        max_link_packets=matrix.max_value(),
        unique_sources=src_pkts.nnz,
        max_source_packets=src_pkts.max(),
        max_source_fanout=src_fan.max(),
        unique_destinations=dst_pkts.nnz,
        max_destination_packets=dst_pkts.max(),
        max_destination_fanin=dst_fan.max(),
    )


def source_packets(matrix: HyperSparseMatrix) -> SparseVec:
    """``A 1`` — packets sent by each source (Fig 3's degree ``d``)."""
    return matrix.row_reduce()


def source_fanout(matrix: HyperSparseMatrix) -> SparseVec:
    """``|A|_0 1`` — unique destinations contacted by each source."""
    return matrix.row_degree()


def destination_packets(matrix: HyperSparseMatrix) -> SparseVec:
    """``1' A`` — packets received by each destination."""
    return matrix.col_reduce()


def destination_fanin(matrix: HyperSparseMatrix) -> SparseVec:
    """``1' |A|_0`` — unique sources contacting each destination."""
    return matrix.col_degree()


def link_packets(matrix: HyperSparseMatrix) -> SparseVec:
    """Packets per unique link, keyed by the linearized (src, dst) pair."""
    keys = matrix.rows * np.uint64(matrix.shape[1]) + matrix.cols
    vec = SparseVec.__new__(SparseVec)
    vec.keys = keys
    vec.vals = matrix.vals
    return vec
