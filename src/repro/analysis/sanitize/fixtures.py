"""Seeded sanitizer violations (``repro san selftest``).

Each probe commits one deliberate fault of the kind its sanitizer
exists to catch, so the end-to-end harness can assert the runtime
actually traps — the dynamic analogue of the rule fixtures under
``tests/analysis/fixtures/``.  Probes are safe to run with sanitizers
disarmed (the faults are self-contained and small); they simply go
unreported, which is itself what the selftest asserts against.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "probe_overflow",
    "probe_fork_mutation",
    "probe_nan_fit",
    "probe_snapshot",
    "PROBES",
]


def probe_overflow() -> None:
    """Pack coordinates whose key provably leaves uint64 (RS001).

    Calls the packing function through its module binding so the armed
    sanitizer's checked wrapper is the one that runs: a row of ``2^33``
    against the full IPv4 column extent packs to ``2^65``-ish, which the
    uint64 shift wraps silently.
    """
    from ...hypersparse import coo

    rows = np.array([2**33], dtype=np.uint64)
    cols = np.array([7], dtype=np.uint64)
    coo._pack_keys(rows, cols, 2**32)


def _mutating_worker(vec) -> float:
    """A worker that writes into its input — the RL009/RS003 cardinal sin."""
    vals = vec.vals
    try:
        vals.flags.writeable = True  # defeat the mutate sanitizer's freeze
    except ValueError:  # pragma: no cover - non-owning view
        pass
    vals[0] += 1.0
    return float(vals.sum())


def probe_fork_mutation() -> None:
    """Submit a mutating worker through the pool (RS002/RS003).

    Under fork the write happens in a copy and vanishes; the fork
    sanitizer's two-sided fingerprint catches it anyway, and the mutate
    sanitizer's :func:`~repro.analysis.sanitize.mutate.verify_frozen`
    catches the serial-path write that really lands, checked here while
    the vectors are still alive.
    """
    from ...hypersparse.coo import SparseVec
    from ...parallel import pool
    from .mutate import verify_frozen

    vecs = [
        SparseVec(np.array([1, 2, 3], dtype=np.uint64), np.ones(3)) for _ in range(4)
    ]
    pool.parallel_map(_mutating_worker, vecs, processes=1)
    verify_frozen()


def probe_nan_fit() -> None:
    """Fit a curve through NaN observations (RS004).

    Every grid candidate's loss is NaN, so the fit returns its
    initial incumbent with an infinite loss — a non-finite value
    escaping the kernel exactly as the float sanitizer defines it.
    """
    from ...fits import fitting

    times = np.array([1.0, 2.0, 3.0, 4.0])
    values = np.array([np.nan, 0.5, 0.2, 0.1])
    fitting.fit_temporal(times, values, t0=1.0)


def probe_snapshot() -> None:
    """Write through a published snapshot's buffer (RS002).

    The scribble models a reader (or a buggy writer) writing through a
    published buffer while holding its lease — the writeable flag is
    flipped back first, exactly the defeat the mutate sanitizer's
    fingerprints exist to catch at :func:`~repro.analysis.sanitize.mutate.verify_frozen`,
    checked here while the snapshot is still alive.  Disarmed, the write
    is silent and the engine closes cleanly — the probe leaks no lease
    either way.
    """
    from ...serve.cli import synthetic_batch
    from ...serve.engine import CorrelationEngine
    from .mutate import verify_frozen

    with CorrelationEngine(64, cutoff=1 << 8) as engine:
        engine.fold_batch(synthetic_batch(2024, 0, 128, 300))
        snap = engine.acquire()
        start = snap.window_start
        start.flags.writeable = True  # defeat the publish-time freeze
        start[0] += 1.0
        verify_frozen()
        engine.release(snap)


#: Probe registry, keyed by the sanitizer each one seeds a fault for.
PROBES = {
    "overflow": probe_overflow,
    "mutate": probe_snapshot,
    "fork": probe_fork_mutation,
    "float": probe_nan_fit,
}
