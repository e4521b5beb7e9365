"""Hierarchical hypersparse accumulation of streaming updates.

Section II of the paper: the telescope archives packets as ``2^17``-packet
GraphBLAS matrices and builds each ``2^30``-packet analysis matrix by
*hierarchically* summing ``2^13`` of them.  Naively re-canonicalizing the
growing total after every insert batch is quadratic in the number of
batches; the hierarchical scheme of Kepner et al. (refs [34], [35]) keeps a
ladder of matrices of geometrically increasing capacity and only merges a
level when it overflows, giving amortized ``O(n log n)`` total work — this
is what let the authors sustain tens of billions of streaming inserts per
second on a supercomputer, and it is equally the right shape at laptop
scale (see ``benchmarks/bench_hypersparse.py`` for the ablation against
flat accumulation).

At paper scale (``N_V = 2^30``) even the ladder outgrows RAM, so the
accumulator takes an optional **memory budget**: when the in-memory
levels exceed it, the largest level is spilled to a columnar run file
(:mod:`repro.hypersparse.spill`) and keeps participating in the ladder
from disk — merges against a spilled level stream segment-by-segment
through the same :func:`~repro.hypersparse.merge.merge_combine` kernel,
so the budgeted result stays **bit-identical** to the all-in-RAM one
(the merge tree is unchanged; only the residence of the operands moves).
"""

from __future__ import annotations

from typing import List, Optional, Tuple, Union

import numpy as np

from ..obs.metrics import HIER_SUM_REDUCTIONS, MATRIX_NNZ, inc
from ..obs.spans import span
from .coo import IPV4_SPACE, HyperSparseMatrix, checked_shape
from .merge import kway_merge
from .spill import (
    ENTRY_BYTES,
    SpilledRun,
    SpillStore,
    configured_mem_budget,
    fold_runs_to_disk,
    load_run,
    merge_runs_streamed,
)

__all__ = ["HierarchicalMatrix"]

#: A ladder slot: empty, an in-memory matrix, or a run spilled to disk.
_Level = Union[None, HyperSparseMatrix, SpilledRun]


def _nnz_of(item: Union[HyperSparseMatrix, SpilledRun]) -> int:
    return item.nnz


def _arrays_of(item: Union[HyperSparseMatrix, SpilledRun]):
    """(keys, vals) of a ladder occupant — mapped, not copied, for runs."""
    if isinstance(item, SpilledRun):
        keys, vals, _ = load_run(item.path, mapped=True)
        return keys, vals
    return item.keys, item.vals


class HierarchicalMatrix:
    """A ladder of hypersparse matrices absorbing streaming triple batches.

    Level ``k`` holds at most ``cutoff * 2^k`` stored entries.  A new batch
    enters level 0; whenever level ``k`` exceeds its capacity it is merged
    (ewise-added) into level ``k+1``, cascading as needed.  ``total()``
    collapses the ladder into a single canonical matrix.

    Parameters
    ----------
    shape:
        Matrix extent (defaults to the IPv4 plane).
    cutoff:
        Capacity of level 0 in stored entries.  The paper's implementations
        use power-of-two cutoffs; any positive integer works.
    budget:
        Optional in-memory ceiling in bytes (16 bytes per stored entry).
        While the resident levels exceed it, the largest one is spilled
        to disk and the ladder continues out-of-core.  Defaults to the
        ``REPRO_MEM_BUDGET`` knob; ``None`` (knob unset) never spills.
    spill:
        The :class:`~repro.hypersparse.spill.SpillStore` receiving
        spilled levels.  When omitted and a budget is set, the
        accumulator creates a private store in a temporary directory and
        removes it on :meth:`close`.
    """

    def __init__(
        self,
        shape: Tuple[int, int] = (IPV4_SPACE, IPV4_SPACE),
        cutoff: int = 1 << 16,
        *,
        budget: Optional[int] = None,
        spill: Optional[SpillStore] = None,
    ):
        if cutoff <= 0:
            raise ValueError("cutoff must be positive")
        self.shape = checked_shape(shape)
        self.cutoff = int(cutoff)
        self.budget = configured_mem_budget() if budget is None else int(budget)
        if self.budget is not None and self.budget <= 0:
            raise ValueError("memory budget must be positive")
        self._spill = spill
        self._owns_spill = False
        self._levels: List[_Level] = []
        self._inserted = 0  # total triples ever inserted (for diagnostics)
        self._merges = 0  # number of level merges performed
        self._moved = 0  # entries read by those merges
        self._spilled_levels = 0  # number of level spills performed

    @classmethod
    def of_run(
        cls,
        run: SpilledRun,
        spill: SpillStore,
        *,
        owns_spill: bool = False,
        inserted: int = 0,
        merges: int = 0,
        moved: int = 0,
    ) -> "HierarchicalMatrix":
        """A ladder whose only level is ``run``, a sum folded elsewhere.

        The out-of-core accumulation (:func:`repro.parallel.sharded_accumulate`)
        folds its tree in pool workers and hands the root run over this
        way; ``inserted``, ``merges`` and ``moved`` report that fold.
        With ``owns_spill`` the ladder removes ``spill`` on :meth:`close`.
        """
        acc = cls(shape=run.shape, spill=spill)
        acc._owns_spill = owns_spill
        acc._levels = [run]
        acc._inserted = int(inserted)
        acc._merges = int(merges)
        acc._moved = int(moved)
        return acc

    def _store(self) -> SpillStore:
        if self._spill is None:
            self._spill = SpillStore()
            self._owns_spill = True
        return self._spill

    # -- streaming interface ---------------------------------------------------

    def insert(self, rows, cols, vals=None) -> None:
        """Absorb a batch of triples (duplicates accumulate with ``+``)."""
        batch = HyperSparseMatrix(rows, cols, vals, shape=self.shape)
        self._inserted += np.asarray(rows).size
        self._push(batch, level=0)
        self._maybe_spill()

    def insert_matrix(self, matrix: HyperSparseMatrix) -> None:
        """Absorb an already-built matrix as one update."""
        if matrix.shape != self.shape:
            raise ValueError(f"shape mismatch: {matrix.shape} vs {self.shape}")
        self._inserted += matrix.nnz
        self._push(matrix, level=0)
        self._maybe_spill()

    def _push(self, item: Union[HyperSparseMatrix, SpilledRun], level: int) -> None:
        while True:
            if level == len(self._levels):
                self._levels.append(None)
            slot = self._levels[level]
            if slot is None:
                self._levels[level] = item
            else:
                self._merges += 1
                self._moved += _nnz_of(slot) + _nnz_of(item)
                inc(HIER_SUM_REDUCTIONS)
                if isinstance(slot, HyperSparseMatrix) and isinstance(
                    item, HyperSparseMatrix
                ):
                    with span("hier_sum", level=level):
                        self._levels[level] = slot.ewise_add(item)
                else:
                    # At least one operand lives on disk: stream the merge
                    # through the same segment-partitioned merge_combine, so
                    # the result is bit-identical to the in-memory ewise_add.
                    with span("hier_sum", level=level, spilled=1):
                        self._levels[level] = self._disk_merge(slot, item)
            occupant = self._levels[level]
            assert occupant is not None
            if _nnz_of(occupant) <= self.cutoff << level:
                return
            # Overflow: evict this level upward.
            item = occupant
            self._levels[level] = None
            level += 1

    def _disk_merge(
        self,
        slot: Union[HyperSparseMatrix, SpilledRun],
        item: Union[HyperSparseMatrix, SpilledRun],
    ) -> SpilledRun:
        store = self._store()
        with store.writer(self.shape, tag="level") as w:
            merge_runs_streamed(_arrays_of(slot), _arrays_of(item), w)
            merged = store.book(w.close())
        for used in (slot, item):
            if isinstance(used, SpilledRun):
                store.remove(used)
        return merged

    def _maybe_spill(self) -> None:
        """Spill largest in-memory levels while over the byte budget."""
        if self.budget is None:
            return
        while self.mem_nbytes > self.budget:
            best = None
            for idx, occupant in enumerate(self._levels):
                if isinstance(occupant, HyperSparseMatrix) and occupant.nnz:
                    if best is None or occupant.nnz > self._levels[best].nnz:
                        best = idx
            if best is None:
                return  # nothing left to spill; the budget is infeasible
            matrix = self._levels[best]
            with span("hier_spill", level=best, nnz=matrix.nnz):
                self._levels[best] = self._store().spill(
                    matrix.keys, matrix.vals, self.shape, tag=f"lvl{best}"
                )
            self._spilled_levels += 1

    # -- inspection ----------------------------------------------------------

    @property
    def num_levels(self) -> int:
        """Current ladder height."""
        return len(self._levels)

    @property
    def level_nnz(self) -> List[int]:
        """Stored entries per level (0 for empty slots)."""
        return [0 if m is None else _nnz_of(m) for m in self._levels]

    @property
    def inserted(self) -> int:
        """Total triples inserted over the lifetime of the accumulator."""
        return self._inserted

    @property
    def merges(self) -> int:
        """Number of pairwise level merges performed so far."""
        return self._merges

    @property
    def moved_entries(self) -> int:
        """Entries read by those merges: the work the ladder has done.

        Each merge reads both operands once, so this is the sum of their
        stored-entry counts — an exact, host-independent work measure
        (the hierarchical sum keeps each merge near its level's size).
        """
        return self._moved

    @property
    def spilled_levels(self) -> int:
        """Number of level spills performed over the accumulator lifetime."""
        return self._spilled_levels

    @property
    def mem_nbytes(self) -> int:
        """Bytes held by in-memory levels (16 per stored entry)."""
        return ENTRY_BYTES * sum(
            m.nnz for m in self._levels if isinstance(m, HyperSparseMatrix)
        )

    @property
    def disk_nbytes(self) -> int:
        """Bytes of ladder levels currently residing on disk."""
        return sum(
            m.nbytes for m in self._levels if isinstance(m, SpilledRun)
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"HierarchicalMatrix(shape={self.shape}, cutoff={self.cutoff}, "
            f"levels={self.level_nnz})"
        )

    # -- finalization -----------------------------------------------------------

    def total(self) -> HyperSparseMatrix:
        """Collapse the ladder into one canonical matrix (non-destructive).

        Levels are folded smallest-nnz-first (:func:`~repro.hypersparse.
        merge.kway_merge`), so small upper levels combine with each other
        before touching the big base level, instead of a left fold that
        re-merges the largest level once per occupied slot.  The fold
        order is part of the contract — with floating-point values,
        reordering can change low-order bits of the sums.  Spilled levels
        join the fold as memory-mapped views; the *result* must fit in
        RAM — use :meth:`collapse_to_disk` when it may not.
        """
        with span("hier_total", levels=len(self._levels)):
            occupied = [m for m in self._levels if m is not None]
            if not occupied:
                return HyperSparseMatrix.empty(self.shape)
            if len(occupied) == 1 and isinstance(occupied[0], HyperSparseMatrix):
                inc(MATRIX_NNZ, occupied[0].nnz)
                return occupied[0]
            if len(occupied) == 1:
                # A lone disk run loads eagerly: the result owns its
                # memory and outlives the run file.
                keys, vals, _ = load_run(occupied[0].path, mapped=False)
            else:
                keys, vals = kway_merge([_arrays_of(m) for m in occupied])
            result = HyperSparseMatrix._from_keys(
                np.ascontiguousarray(keys, dtype=np.uint64),
                np.ascontiguousarray(vals, dtype=np.float64),
                self.shape,
            )
            inc(MATRIX_NNZ, result.nnz)
            return result

    def collapse_to_disk(self) -> SpilledRun:
        """Collapse the ladder into one on-disk run (non-destructive).

        The fold replicates :meth:`total`'s smallest-first order through
        :func:`~repro.hypersparse.spill.fold_runs_to_disk`, so the run's
        keys and values are bit-identical to ``total()`` — without ever
        materializing the result in RAM.
        """
        store = self._store()
        with span("hier_collapse", levels=len(self._levels)):
            items = [
                m if isinstance(m, SpilledRun) else (m.keys, m.vals)
                for m in self._levels
                if m is not None
            ]
            # keep_inputs: the ladder keeps owning its spilled levels.
            run = fold_runs_to_disk(items, store, self.shape, keep_inputs=True)
            inc(MATRIX_NNZ, run.nnz)
            return run

    def clear(self) -> None:
        """Reset to empty, keeping configuration (spill files removed)."""
        store = self._spill
        for occupant in self._levels:
            if isinstance(occupant, SpilledRun) and store is not None:
                store.remove(occupant)
        self._levels = []
        self._inserted = 0
        self._merges = 0
        self._moved = 0
        self._spilled_levels = 0

    def close(self) -> None:
        """Clear the ladder and remove a privately created spill store."""
        self.clear()
        if self._owns_spill and self._spill is not None:
            self._spill.close()
            self._spill = None
            self._owns_spill = False
