"""Process-pool mapping utilities.

``parallel_map`` is the workhorse: map a picklable function over items
with a process pool, preserving order, degrading gracefully to serial
execution for small inputs (pool startup dwarfs the work) or when
``processes=1``.  Serial fallback keeps tests deterministic and makes the
parallel path an optimization, never a semantic change — asserted by the
test suite, which runs every consumer both ways.  Serial and pool paths
alike run through ``stream_map``, the one dispatch path: a generator
yielding results in item order with a bounded number of items in
flight, so a caller that folds as it goes
(:func:`repro.parallel.sharded_accumulate`) never holds more than one
wave of un-folded results.

Pools are **persistent**: the first parallel call pays the worker
startup cost, every later call of the same width reuses the warm pool
(:func:`get_pool`).  Pools are created lazily, keyed by worker count,
closed at interpreter exit, and forgotten after a fork — a child process
never touches workers it inherited from its parent.  ``REPRO_PROCESSES``
sets the default worker count; :func:`shutdown_pools` tears everything
down explicitly (test isolation, or to release workers early).
"""

from __future__ import annotations

import atexit
import multiprocessing as mp
import os
from collections import deque
from itertools import chain, islice
from multiprocessing.pool import AsyncResult, Pool
from typing import (
    Callable,
    Deque,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    TypeVar,
    cast,
)

from ..analysis.knobs import env_int
from ..obs.spans import TimedCall, record_span, span, trace_epoch, tracing_enabled

T = TypeVar("T")
R = TypeVar("R")

__all__ = [
    "parallel_map",
    "stream_map",
    "cpu_count",
    "configured_processes",
    "get_pool",
    "shutdown_pools",
]

#: Environment knob naming the default worker count (declared in
#: :mod:`repro.analysis.knobs`).
_ENV_PROCESSES = "REPRO_PROCESSES"

_pools: Dict[int, Pool] = {}
_pools_pid: Optional[int] = None
_atexit_armed = False


def cpu_count() -> int:
    """Usable CPU count (respects affinity masks where available)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def configured_processes() -> Optional[int]:
    """Worker count requested via ``REPRO_PROCESSES``; ``None`` when unset.

    ``0`` is a valid request meaning "force serial execution" — the same
    escape hatch as ``processes=1`` but settable from the environment.
    Read per call, not at import, so the environment can be changed (or
    monkeypatched) at runtime.  Malformed values raise ``ValueError``
    rather than silently running with a surprise width.
    """
    n = env_int(_ENV_PROCESSES)
    if n is not None and n < 0:
        raise ValueError(f"{_ENV_PROCESSES} must be >= 0, got {n}")
    return n


def _context() -> mp.context.BaseContext:
    return mp.get_context("fork" if "fork" in mp.get_all_start_methods() else "spawn")


def _reap_stale_pools() -> None:
    """Forget pools inherited across a fork — they belong to the parent.

    A forked child sees the parent's ``_pools`` dict but must not use
    (or shut down) those workers: the pipes are shared with the parent.
    Comparing the recorded owner pid detects the fork and simply drops
    the references; the parent keeps managing the real pools.
    """
    global _pools_pid
    pid = os.getpid()
    if _pools_pid != pid:
        _pools.clear()
        _pools_pid = pid


def get_pool(processes: Optional[int] = None) -> Pool:
    """The persistent worker pool of the given width (lazily created).

    ``processes`` defaults to ``REPRO_PROCESSES`` or :func:`cpu_count`
    (``REPRO_PROCESSES=0`` means "serial" — callers that honour it never
    request a pool, so here it falls back to :func:`cpu_count` like
    unset).  The first request of a given width starts the workers;
    later requests reuse them, so steady-state parallel calls pay no
    startup.  All pools are closed at interpreter exit (or via
    :func:`shutdown_pools`).
    """
    global _atexit_armed
    _reap_stale_pools()
    n_proc = processes if processes is not None else (configured_processes() or cpu_count())
    if n_proc < 1:
        raise ValueError(f"pool width must be >= 1, got {n_proc}")
    pool = _pools.get(n_proc)
    if pool is None:
        if not _atexit_armed:
            atexit.register(shutdown_pools)
            _atexit_armed = True
        pool = _pools[n_proc] = _context().Pool(n_proc)
    return pool


def shutdown_pools() -> None:
    """Terminate and forget every persistent pool (idempotent).

    Safe to call repeatedly and from ``atexit`` after an explicit
    shutdown: a pool whose workers already died (or that some caller
    terminated behind our back) raises on double-close — the error is
    swallowed so the remaining pools still get torn down.
    """
    _reap_stale_pools()
    while _pools:
        _, pool = _pools.popitem()
        try:
            pool.terminate()
            pool.join()
        except (OSError, ValueError):
            pass


def _width(processes: Optional[int]) -> int:
    """Resolved worker count: explicit, else ``REPRO_PROCESSES``, else CPUs."""
    if processes is not None:
        return processes
    env_n = configured_processes()
    return cpu_count() if env_n is None else env_n


class _Batch:
    """Picklable wrapper mapping ``fn`` over one dispatched batch of items."""

    def __init__(self, fn: Callable[[T], R]):
        self.fn = fn

    def __call__(self, batch: List[T]) -> List[R]:
        return [self.fn(x) for x in batch]


def stream_map(
    fn: Callable[[T], R],
    items: Iterable[T],
    *,
    processes: Optional[int] = None,
    wave: Optional[int] = None,
    min_parallel: int = 4,
    chunksize: int = 1,
) -> Iterator[R]:
    """Yield ``fn(x)`` for every item, in item order, from a bounded stream.

    The one dispatch path of this module (:func:`parallel_map` is
    ``list()`` over it).  ``items`` is consumed lazily: at most ``wave``
    items (default two pool widths) are handed to workers ahead of the
    consumer, so no more than ``wave`` un-consumed results are ever
    resident, however long the input.  Results are yielded in item order
    regardless of completion order, so a consumer folding them sees the
    same sequence for every pool width.

    Runs serially (in this process, one item at a time) when the width
    is 1 (``processes=1`` or ``REPRO_PROCESSES=0``) or the input holds
    fewer than ``min(min_parallel, wave)`` items.  ``chunksize`` items
    travel per inter-process message.  When the stream ends early (a
    task raised, or the consumer closed it) it waits for the items
    still in flight before it lets go, so no task outlives it.
    """
    n_proc = _width(processes)
    if wave is None:
        wave = 2 * max(n_proc, 1)
    if wave <= 0:
        raise ValueError(f"wave must be positive, got {wave}")
    if chunksize <= 0:
        raise ValueError(f"chunksize must be positive, got {chunksize}")
    source = iter(items)
    enough = min(min_parallel, wave)
    head = list(islice(source, enough))
    if n_proc <= 1 or len(head) < enough:
        with span("parallel_map", mode="serial") as s:
            n = 0
            # lint: allow-loop — one call per work item, not per entry
            for x in chain(head, source):
                yield fn(x)
                n += 1
            s.set(items=n)
        return
    pool = get_pool(n_proc)
    fork = _context().get_start_method() == "fork"
    timed = tracing_enabled()
    # Workers time each item (TimedCall); the parent re-ingests the
    # measurements as child spans of this parallel_map span.  On fork
    # pools the worker's perf_counter shares the parent clock, so the
    # re-anchored start times place items on the real timeline; on
    # spawn pools only durations are trustworthy.
    task = _Batch(TimedCall(fn) if timed else fn)
    source = chain(head, source)
    pending: Deque[AsyncResult] = deque()
    in_flight = n = 0
    with span("parallel_map", mode="pool") as s:
        try:
            # lint: allow-loop — one iteration per dispatched batch
            while True:
                while in_flight < wave:
                    batch = list(islice(source, min(chunksize, wave - in_flight)))
                    if not batch:
                        break
                    pending.append(pool.apply_async(task, (batch,)))
                    in_flight += len(batch)
                if not pending:
                    break
                results = pending.popleft().get()
                in_flight -= len(results)
                # lint: allow-loop — one iteration per work item
                for result in results:
                    if timed:
                        result, (t0_abs, wall_s, cpu_s) = result
                        record_span(
                            "pool_task",
                            wall_s,
                            cpu_s,
                            t_start=(t0_abs - trace_epoch()) if fork else None,
                        )
                    yield cast("R", result)
                    n += 1
        finally:
            # On an error or an early close, let the batches in flight
            # finish first: their side effects (files a task writes)
            # never outlive the stream.
            # lint: allow-loop — one wait per batch in flight
            for left in pending:
                left.wait()
        s.set(items=n, processes=n_proc, chunksize=chunksize, wave=wave)


def parallel_map(
    fn: Callable[[T], R],
    items: Sequence[T],
    *,
    processes: Optional[int] = None,
    min_parallel: int = 4,
    chunksize: Optional[int] = None,
) -> List[R]:
    """Map ``fn`` over ``items``, in processes when it pays off.

    ``list()`` over :func:`stream_map` with every item in flight at once
    (the whole result list is resident anyway).

    Parameters
    ----------
    fn:
        Picklable callable (a module-level function or functools.partial).
    items:
        Work items; results come back in the same order.
    processes:
        Worker count; default ``REPRO_PROCESSES`` or :func:`cpu_count`.
        1 (or ``REPRO_PROCESSES=0``) forces serial execution.  The width
        is deliberately independent
        of ``len(items)`` so repeated calls share one persistent pool
        instead of spawning a differently-sized pool per batch.
    min_parallel:
        Below this many items the map runs serially — even dispatching to
        a warm pool costs more than tiny batches are worth.
    chunksize:
        Items per inter-process message; default balances the pool 4 ways.
    """
    items = list(items)
    if not items:
        return []
    if chunksize is None:
        chunksize = max(1, len(items) // (max(_width(processes), 1) * 4))
    return list(
        stream_map(
            fn,
            items,
            processes=processes,
            wave=len(items),
            min_parallel=min_parallel,
            chunksize=chunksize,
        )
    )
