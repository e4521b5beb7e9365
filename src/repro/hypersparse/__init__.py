"""Hypersparse GraphBLAS-style matrices.

This package provides the sparse linear-algebra substrate the paper's
pipeline runs on: hypersparse matrices over an index space as large as
``2^32 x 2^32`` (the full IPv4 x IPv4 plane) where the number of stored
entries is vastly smaller than either dimension.  It mirrors the subset of
the GraphBLAS used by the paper:

* construction from (row, col, value) triples with duplicate accumulation,
* element-wise algebra with add/multiply operators,
* plus-times matrix multiply (``mxm``),
* the zero-norm ``|A|_0`` that maps every stored value to 1,
* row/column reductions (the Table II network quantities),
* permutation (anonymization) invariance,
* hierarchical accumulation of streaming updates (the ``2^17`` -> ``2^30``
  packet-window summation described in Section II of the paper).

Everything is implemented with vectorized NumPy kernels over canonically
sorted COO triples; no scipy.sparse matrix is ever materialized over the
``2^32`` index space.
"""

from .coo import HyperSparseMatrix, SparseVec
from .hierarchical import HierarchicalMatrix
from .spill import (
    ColumnarWriter,
    SpilledRun,
    SpillStore,
    configured_mem_budget,
    fold_runs_to_disk,
    load_run,
    parse_mem_budget,
    write_run,
)

__all__ = [
    "HyperSparseMatrix",
    "SparseVec",
    "HierarchicalMatrix",
    "ColumnarWriter",
    "SpilledRun",
    "SpillStore",
    "configured_mem_budget",
    "fold_runs_to_disk",
    "load_run",
    "parse_mem_budget",
    "write_run",
]
