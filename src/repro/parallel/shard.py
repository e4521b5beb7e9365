"""Sharded out-of-core accumulation across the persistent worker pool.

The scaling blueprint of the companion "40 trillion packets" paper
(PAPERS.md): hierarchical summation is embarrassingly parallel at the
sub-matrix level.  This module is the driver that exploits it under a
memory ceiling — sub-matrix construction fans out over the persistent
pool (:mod:`repro.parallel.pool`; worker results come back pickled),
results fold in deterministic item order into a **budgeted**
:class:`~repro.hypersparse.hierarchical.HierarchicalMatrix`, and levels
beyond the ``REPRO_MEM_BUDGET`` ceiling spill to columnar run files
(:mod:`repro.hypersparse.spill`).

Work is dispatched through one bounded, in-order stream
(:func:`~repro.parallel.pool.stream_map`): at most ``wave`` items are
handed to workers ahead of the fold, so at most ``wave`` un-folded
worker results are resident at any time — without the bound, a
2^13-item map would materialize every sub-matrix before the first fold.
While the parent folds one result, the workers are already computing
the next ones.  The fold order depends only on the item order (never on
worker count or completion order), so results are reproducible across
pool widths, and bit-identical between the budgeted and unbudgeted
paths (the ladder's merge tree is residence-independent; see
``docs/PERFORMANCE.md``).
"""

from __future__ import annotations

import resource
import sys
from typing import Callable, Iterable, List, Optional, Sequence, Tuple

from ..hypersparse import HierarchicalMatrix, HyperSparseMatrix
from ..hypersparse.spill import SpillStore
from ..obs.metrics import PEAK_RSS_BYTES, set_gauge
from ..obs.spans import annotate, span
from .pool import stream_map

__all__ = ["sharded_accumulate", "sum_archive", "update_peak_rss"]


def update_peak_rss() -> int:
    """Record the process's peak RSS on the ``peak_rss_bytes`` gauge."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform != "darwin":
        peak *= 1024  # Linux reports KiB; macOS reports bytes
    set_gauge(PEAK_RSS_BYTES, peak)
    return peak


def sharded_accumulate(
    worker: Callable,
    items: Iterable,
    *,
    shape: Tuple[int, int] = (2**32, 2**32),
    cutoff: int = 1 << 16,
    processes: Optional[int] = None,
    mem_budget: Optional[int] = None,
    spill: Optional[SpillStore] = None,
    wave: Optional[int] = None,
) -> HierarchicalMatrix:
    """Fan ``worker`` over ``items`` and fold the matrices under a budget.

    ``worker`` is a picklable callable returning one
    :class:`~repro.hypersparse.coo.HyperSparseMatrix` per item.  Items
    are pulled lazily and streamed through
    :func:`~repro.parallel.pool.stream_map` with at most ``wave``
    (default: two pool widths; ``ValueError`` unless positive)
    dispatched ahead of the fold.  Results are folded *in item order*
    into the returned accumulator, so the merge tree — and therefore the
    float bit pattern — is independent of the worker count, of ``wave``
    and of completion order.  The peak-RSS gauge is sampled after every
    folded result.

    Returns the :class:`HierarchicalMatrix` so the caller chooses the
    finalization: :meth:`~repro.hypersparse.hierarchical
    .HierarchicalMatrix.total` when the result fits in RAM,
    :meth:`~repro.hypersparse.hierarchical.HierarchicalMatrix
    .collapse_to_disk` when it may not.
    """
    acc = HierarchicalMatrix(
        shape=shape, cutoff=cutoff, budget=mem_budget, spill=spill
    )
    with span("sharded_accumulate"):
        folded = 0
        stream = stream_map(worker, items, processes=processes, wave=wave)
        # lint: allow-loop — one fold per worker result, not per entry
        for matrix in stream:
            acc.insert_matrix(matrix)
            update_peak_rss()
            folded += 1
        annotate(items=folded)
    return acc


def _archive_group_sum(
    indices: Sequence[int], root: str, n_valid: int
) -> HyperSparseMatrix:
    """Worker: sum one group of consecutive archived windows.

    Opens its own archive handle — workers share nothing writable, and
    the ``fork`` sanitizer (RS003) checks that no input is written — and
    memory-maps the windows it folds.
    """
    from ..traffic.archive import WindowArchive

    archive = WindowArchive(root, n_valid=n_valid)
    return archive.sum_windows(list(indices), strict=True)


def sum_archive(
    root,
    *,
    n_valid: int = 1 << 17,
    indices: Optional[List[int]] = None,
    group: int = 64,
    cutoff: int = 1 << 16,
    processes: Optional[int] = None,
    mem_budget: Optional[int] = None,
    spill: Optional[SpillStore] = None,
) -> HyperSparseMatrix:
    """Sum an on-disk window archive in parallel groups under a budget.

    The paper's ``2^17 -> 2^30`` construction at full width: window
    indices are cut into ``group``-sized runs, each summed by a pool
    worker from memory-mapped columnar windows, and the group sums fold
    through a budgeted accumulator.  Traffic matrices hold integral
    packet counts, for which float64 addition is exact, so the grouped
    fold equals :meth:`~repro.traffic.archive.WindowArchive.sum_windows`
    exactly despite the different association.
    """
    from functools import partial

    from ..traffic.archive import WindowArchive

    if group <= 0:
        raise ValueError("group must be positive")
    archive = WindowArchive(root, n_valid=n_valid)
    if indices is None:
        indices = list(range(len(archive)))
    groups = [indices[i : i + group] for i in range(0, len(indices), group)]
    if not groups:
        return HyperSparseMatrix.empty((2**32, 2**32))
    worker = partial(_archive_group_sum, root=str(root), n_valid=n_valid)
    acc = sharded_accumulate(
        worker,
        groups,
        shape=(2**32, 2**32),
        cutoff=cutoff,
        processes=processes,
        mem_budget=mem_budget,
        spill=spill,
    )
    return acc.total()
