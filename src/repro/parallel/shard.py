"""Sharded out-of-core accumulation: the whole combine tree runs in the pool.

The scaling blueprint of the companion "40 trillion packets" paper
(PAPERS.md): every processor sums its own share and writes it out before
one combine, and :func:`sharded_accumulate` does the same.  Each pool task
builds one item's matrix (a worker group sum) and writes it as a scratch
run into the call's :class:`~repro.hypersparse.spill.SpillStore`; only
the small :class:`~repro.hypersparse.spill.SpilledRun` descriptor comes
back.  Further pool tasks merge adjacent runs pairwise with
:func:`~repro.hypersparse.spill.merge_runs_streamed` (``O(chunk)``
memory) and delete their inputs, level by level, until one root run is
left.  The parent only schedules: it names every run file, books the
runs on the spill counters, and never holds or merges a sum.

The tree is fixed by item order alone.  Level ``k`` pairs runs
``(0, 1), (2, 3), ...`` of level ``k - 1`` and carries an odd last run up
unchanged, so every merge pairs equal-size subtrees apart from at most
one carried run per level.  Neither the pool width, nor ``wave``, nor
completion order changes the tree, so float sums are bit-identical for
every ``processes`` (``docs/PERFORMANCE.md``).

Every level is one bounded, in-order :func:`~repro.parallel.pool
.stream_map`, each pulling its pairs lazily from the level below, so
merges are dispatched while later groups are still being built.  At
most ``wave`` items are dispatched ahead of the parent receiving their
runs.  Peak disk is about twice the window: a merge's inputs are
deleted only once its output is complete.
"""

from __future__ import annotations

import os
import resource
import sys
from contextlib import closing
from itertools import chain, islice
from pathlib import Path
from typing import Callable, Iterable, Iterator, List, Optional, Sequence, Tuple

from ..hypersparse import HierarchicalMatrix, HyperSparseMatrix
from ..hypersparse.coo import checked_shape
from ..hypersparse.spill import (
    ColumnarWriter,
    SpilledRun,
    SpillStore,
    load_run,
    merge_runs_streamed,
    write_run,
)
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


class _LeafTask:
    """Pool task: build one item's matrix and write it as a scratch run."""

    def __init__(self, worker: Callable, shape: Tuple[int, int]):
        self.worker = worker
        self.shape = shape
        self.__name__ = getattr(worker, "__name__", type(worker).__name__)

    def __call__(self, task: Tuple[Path, object]) -> SpilledRun:
        path, item = task
        matrix = self.worker(item)
        if matrix.shape != self.shape:
            raise ValueError(f"shape mismatch: {matrix.shape} vs {self.shape}")
        return write_run(path, matrix.keys, matrix.vals, self.shape, durable=False)


def _merge_task(task: Tuple[SpilledRun, SpilledRun, Path]) -> SpilledRun:
    """Pool task: merge two adjacent runs into ``path``, then drop them."""
    a, b, path = task
    keys_a, vals_a, _ = load_run(a.path, mapped=True)
    keys_b, vals_b, _ = load_run(b.path, mapped=True)
    with ColumnarWriter(path, a.shape, durable=False) as w:
        merge_runs_streamed((keys_a, vals_a), (keys_b, vals_b), w)
        merged = w.close()
    del keys_a, vals_a, keys_b, vals_b  # unmap before the files go
    a.path.unlink()
    b.path.unlink()
    return merged


class _Tree:
    """Parent-side bookkeeping of one combine tree.

    Names every run file before its task is dispatched (so a failed call
    can remove them all), books each finished run on the spill counters,
    and counts the tree's merges and the entries they read.
    """

    def __init__(self, store: SpillStore):
        self.store = store
        self.paths: List[Path] = []
        self.items = 0
        self.inserted = 0
        self.merges = 0
        self.moved = 0

    def _path(self, tag: str) -> Path:
        path = self.store.next_path(tag)
        self.paths.append(path)
        return path

    def tasks(self, items: Iterable) -> Iterator[Tuple[Path, object]]:
        """Leaf tasks: one fresh run path per item, in item order."""
        # lint: allow-loop — one task per work item, not per entry
        for item in items:
            self.items += 1
            yield self._path("group"), item

    def leaf(self, run: SpilledRun) -> SpilledRun:
        """The fold point: one item's run reaches the parent, in item order."""
        self.inserted += run.nnz
        update_peak_rss()
        return self.store.book(run)

    def level(self, runs: Iterator[SpilledRun], **dispatch) -> Iterator[SpilledRun]:
        """The next tree level: adjacent pairs merged in the pool, in order.

        An odd last run is carried up unchanged after the merged ones.
        """
        carry: List[SpilledRun] = []

        def pairs() -> Iterator[Tuple[SpilledRun, SpilledRun, Path]]:
            # lint: allow-loop — one merge task per pair of runs
            for a in runs:
                b = next(runs, None)
                if b is None:
                    carry.append(a)
                    return
                self.merges += 1
                self.moved += a.nnz + b.nnz
                yield a, b, self._path("merge")

        # Closing this level closes its stream, which waits for the
        # merges in flight.
        with closing(stream_map(_merge_task, pairs(), **dispatch)) as merged:
            # lint: allow-loop — one booking per merged run, not per entry
            for run in merged:
                yield self.store.book(run)
        yield from carry

    def discard(self) -> None:
        """Remove every run file (and write droppings) this tree named."""
        # lint: allow-loop — one unlink per run file
        for path in self.paths:
            for suffix in ("", ".tmp", ".vals.tmp"):
                leftover = path.with_name(path.name + suffix)
                try:
                    os.remove(leftover)
                except OSError:
                    pass


def sharded_accumulate(
    worker: Callable,
    items: Iterable,
    *,
    shape: Tuple[int, int] = (2**32, 2**32),
    processes: Optional[int] = None,
    spill: Optional[SpillStore] = None,
    wave: Optional[int] = None,
) -> HierarchicalMatrix:
    """Fan ``worker`` over ``items`` and combine the sums in the pool.

    ``worker`` is a picklable callable returning one
    :class:`~repro.hypersparse.coo.HyperSparseMatrix` per item.  Each
    result is written as a scratch run into ``spill`` (default: a
    private store the returned ladder removes on ``close()``), and pool
    tasks merge the runs along the fixed pairwise tree described in the
    module docs, so the float bit pattern depends only on item order —
    never on the worker count, on ``wave`` or on completion order.
    Items are pulled lazily with at most ``wave`` (default: two pool
    widths; ``ValueError`` unless positive) dispatched ahead of the
    parent receiving their runs.  The peak-RSS gauge is sampled after
    every run received.

    Returns a :class:`HierarchicalMatrix` whose only level is the root
    run; the caller chooses the finalization (:meth:`~repro.hypersparse
    .hierarchical.HierarchicalMatrix.total` when the result fits in RAM,
    :meth:`~repro.hypersparse.hierarchical.HierarchicalMatrix
    .collapse_to_disk` when it may not) and must ``close()`` it.  If a
    worker or a merge raises, the error propagates once every task in
    flight has finished, and every run file of the call is removed.
    """
    shape = checked_shape(shape)
    store = spill if spill is not None else SpillStore()
    tree = _Tree(store)
    dispatch = dict(processes=processes, wave=wave, min_parallel=1)
    levels: List[Iterator[SpilledRun]] = []
    try:
        with span("sharded_accumulate"):
            leaves = stream_map(_LeafTask(worker, shape), tree.tasks(items), **dispatch)
            levels.append(leaves)
            runs: Iterator[SpilledRun] = map(tree.leaf, leaves)
            head = list(islice(runs, 2))
            # lint: allow-loop — one iteration per tree level
            while len(head) == 2:
                runs = tree.level(chain(head, runs), **dispatch)
                levels.append(runs)
                head = list(islice(runs, 2))
            annotate(items=tree.items, merges=tree.merges)
    except BaseException:
        # Closing a level waits for its tasks in flight, so no worker
        # writes into the store after the files are removed.
        for level in reversed(levels):
            level.close()
        tree.discard()
        if spill is None:
            store.close()
        raise
    if not head:
        if spill is None:
            store.close()
        return HierarchicalMatrix(shape=shape)
    return HierarchicalMatrix.of_run(
        head[0],
        store,
        owns_spill=spill is None,
        inserted=tree.inserted,
        merges=tree.merges,
        moved=tree.moved,
    )


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
    processes: Optional[int] = None,
    spill: Optional[SpillStore] = None,
) -> HyperSparseMatrix:
    """Sum an on-disk window archive in parallel groups.

    The paper's ``2^17 -> 2^30`` construction at full width: window
    indices are cut into ``group``-sized runs, each summed by a pool
    worker from memory-mapped columnar windows, and the group sums
    combine through :func:`sharded_accumulate`'s pool-side tree of
    scratch runs in ``spill``.  The sum is returned in RAM.  Traffic
    matrices hold integral
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
        worker, groups, shape=(2**32, 2**32), processes=processes, spill=spill
    )
    try:
        return acc.total()
    finally:
        acc.close()
