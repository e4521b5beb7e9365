"""Process-pool mapping utilities.

``parallel_map`` is the workhorse: map a picklable function over items
with a process pool, preserving order, degrading gracefully to serial
execution for small inputs (pool startup dwarfs the work) or when
``processes=1``.  Serial fallback keeps tests deterministic and makes the
parallel path an optimization, never a semantic change — asserted by the
test suite, which runs every consumer both ways.

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
from multiprocessing.pool import Pool
from typing import Callable, Dict, List, Optional, Sequence, TypeVar, cast

from ..analysis.knobs import env_int
from ..obs.spans import TimedCall, annotate, record_span, span, trace_epoch, tracing_enabled

T = TypeVar("T")
R = TypeVar("R")

__all__ = [
    "parallel_map",
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


def parallel_map(
    fn: Callable[[T], R],
    items: Sequence[T],
    *,
    processes: Optional[int] = None,
    min_parallel: int = 4,
    chunksize: Optional[int] = None,
) -> List[R]:
    """Map ``fn`` over ``items``, in processes when it pays off.

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
    if processes is not None:
        n_proc = processes
    else:
        env_n = configured_processes()
        n_proc = cpu_count() if env_n is None else env_n
    if n_proc <= 1 or len(items) < min_parallel:
        with span("parallel_map", mode="serial"):
            annotate(items=len(items))
            return [fn(x) for x in items]
    if chunksize is None:
        chunksize = max(1, len(items) // (n_proc * 4))
    pool = get_pool(n_proc)
    fork = _context().get_start_method() == "fork"
    with span("parallel_map", mode="pool"):
        annotate(items=len(items), processes=n_proc, chunksize=chunksize)
        if not tracing_enabled():
            return pool.map(fn, items, chunksize=chunksize)
        # Workers time each item (TimedCall); the parent re-ingests the
        # measurements as child spans of this parallel_map span.  On fork
        # pools the worker's perf_counter shares the parent clock, so the
        # re-anchored start times place items on the real timeline; on
        # spawn pools only durations are trustworthy.
        timed = pool.map(TimedCall(fn), items, chunksize=chunksize)
        results: List[R] = []
        for result, (t0_abs, wall_s, cpu_s) in timed:
            record_span(
                "pool_task",
                wall_s,
                cpu_s,
                t_start=(t0_abs - trace_epoch()) if fork else None,
            )
            results.append(cast("R", result))
        return results
