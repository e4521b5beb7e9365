"""Sanitizer overhead: a disarmed harness must cost <5%.

The contract (docs/SANITIZERS.md) is structural: arming patches kernel
bindings and disarming restores the originals, so with ``REPRO_SAN``
unset — or after any arm/disarm cycle — the kernels run the pristine
code objects and the harness costs nothing.  Two checks enforce it:

1. **Disabled overhead** — time a pack/sort/construct workload (the
   exact kernels the overflow sanitizer wraps) before any
   arming, again after a full arm/disarm cycle, and once more as a
   closing baseline (A-B-A: a machine that slows down over the run
   slows both baselines, so drift cannot masquerade as residue).  The
   post-cycle time must stay within 5% of the better surrounding
   baseline.
2. **Throughput** — report disarmed constructions/sec via
   pytest-benchmark so a residue left by a future sanitizer shows up in
   the ops/sec column.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.sanitize import SANITIZER_NAMES, arm, armed, disarm, take_traps
from repro.hypersparse import HyperSparseMatrix
from repro.hypersparse.coo import SparseVec
from repro.obs import stopwatch

N = 1 << 15
REPEATS = 9


def _triples(seed: int):
    rng = np.random.default_rng(seed)
    rows = rng.integers(0, 2**32, N, dtype=np.uint64)
    cols = rng.integers(0, 2**32, N, dtype=np.uint64)
    vals = rng.random(N)
    return rows, cols, vals


def _workload(rows, cols, vals) -> float:
    """One construct-heavy pass through the sanitizer-wrapped kernels."""
    m = HyperSparseMatrix(rows, cols, vals, shape=(2**32, 2**32))
    v = m.row_reduce()
    SparseVec(v.keys, v.vals)
    return float(m.total())


def _best_time(rows, cols, vals) -> float:
    best = float("inf")
    for _ in range(REPEATS):
        with stopwatch() as w:
            _workload(rows, cols, vals)
        best = min(best, w.seconds)
    return best


def test_disarmed_overhead_under_five_percent():
    """The acceptance bound: an arm/disarm cycle leaves no residue."""
    assert armed() == (), "bench must start from a disarmed process"
    rows, cols, vals = _triples(20220101)
    _workload(rows, cols, vals)  # warm caches before the baseline
    before = _best_time(rows, cols, vals)

    arm(SANITIZER_NAMES)
    _workload(rows, cols, vals)  # the armed path must actually run
    disarm()
    take_traps()

    after = min(_best_time(rows, cols, vals), _best_time(rows, cols, vals))
    closing = _best_time(rows, cols, vals)  # second A of the A-B-A design
    ratio = after / max(before, closing)
    assert ratio < 1.05, (
        f"disarmed workload is {ratio:.3f}x the never-armed baseline "
        f"({after * 1e3:.2f} ms vs {before * 1e3:.2f}/{closing * 1e3:.2f} ms):"
        " a sanitizer left a wrapper or errstate behind"
    )


def test_disarmed_construction_throughput(benchmark):
    """Constructions/sec with the harness fully disarmed."""
    assert armed() == ()
    rows, cols, vals = _triples(7)
    benchmark(_workload, rows, cols, vals)
