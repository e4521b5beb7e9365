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


def _mutating_worker(arr: np.ndarray) -> float:
    """A worker that writes into its input — the RS003 cardinal sin."""
    arr[0] += 1.0
    return float(arr.sum())


def probe_fork_mutation() -> None:
    """Submit a mutating worker through the pool (RS003).

    Under fork the write happens in a copy and vanishes; the fork
    sanitizer's two-sided fingerprint catches it anyway.  The items are
    plain arrays: canonical containers are read-only, so a worker could
    not write into one in the first place.
    """
    from ...parallel import pool

    items = [np.ones(3) for _ in range(4)]
    pool.parallel_map(_mutating_worker, items, processes=1)


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


#: Probe registry, keyed by the sanitizer each one seeds a fault for.
PROBES = {
    "overflow": probe_overflow,
    "fork": probe_fork_mutation,
    "float": probe_nan_fit,
}
