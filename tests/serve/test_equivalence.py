"""Live snapshots are bit-identical to the batch pipeline.

The streaming engine folds the same packets the batch pipeline windows,
so every derived quantity in a published snapshot must match
``constant_packet_windows`` → ``build_traffic_matrix`` →
``network_quantities`` exactly — no float drift, no reordering — and its
overlap curve and Fig 4 correlation must be the batch
``temporal_correlation`` / ``peak_correlation`` of the last window.  Streams
are seeded through :mod:`repro.rand` so each Hypothesis case is
reconstructible from its integers alone, and the whole property is
re-run with debug invariants and every sanitizer armed (any trap fails
the test).  Published snapshots are read-only without any sanitizer.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.contracts import debug_invariants
from repro.analysis.sanitize.runtime import SANITIZER_NAMES, sanitizers, take_traps
from repro.core import peak_correlation, temporal_correlation
from repro.rand import hash_u64, hash_uniform
from repro.serve import CorrelationEngine
from repro.serve.cli import synthetic_month
from repro.stats import differential_cumulative
from repro.traffic import (
    Packets,
    build_traffic_matrix,
    constant_packet_windows,
    network_quantities,
)


def seeded_stream(seed: int, n: int, n_sources: int = 2000) -> Packets:
    """Deterministic packet stream from counter-mode randomness."""
    i = np.arange(n, dtype=np.uint64)
    times = np.sort(hash_uniform(seed, i) * 100.0)
    src = hash_u64(seed, i, 1) % np.uint64(n_sources)
    dst = hash_u64(seed, i, 2) % np.uint64(n_sources)
    return Packets(times, src, dst)


def fold_in_batches(engine, packets, batch_sizes):
    pos = 0
    n = len(packets.time)
    sizes = list(batch_sizes)
    while pos < n:
        size = sizes.pop(0) if sizes else n - pos
        engine.fold_batch(packets[pos : pos + size])
        pos += size


def assert_snapshot_matches_batch(snap, packets, n_valid):
    windows = constant_packet_windows(packets, n_valid)
    assert snap.window_count == len(windows)
    for k, window in enumerate(windows):
        matrix = build_traffic_matrix(window.packets)
        assert snap.quantities[k] == network_quantities(matrix)
        want_dist = differential_cumulative(matrix.row_reduce().vals)
        got_dist = snap.degree_distributions[k]
        np.testing.assert_array_equal(got_dist.edges, want_dist.edges)
        np.testing.assert_array_equal(got_dist.counts, want_dist.counts)
        assert got_dist.n_total == want_dist.n_total
        assert snap.window_start[k] == window.start_time
        assert snap.window_end[k] == window.end_time


def assert_overlap_matches_batch(snap, packets, n_valid, months):
    """Published overlap state == the batch core on the last window."""
    last = constant_packet_windows(packets, n_valid)[-1]
    sources = build_traffic_matrix(last.packets).row_reduce()
    times = [t for t, _ in months]
    sets = [hf for _, hf in months]
    want = temporal_correlation(sources, sets, times, t0=0.0)
    assert snap.month_times.tobytes() == want.times.tobytes()
    assert snap.overlap_fractions.tobytes() == want.fractions.tobytes()
    if not months:
        assert snap.correlation is None
        return
    t_win = snap.window_end[-1]
    nearest = min(months, key=lambda m: abs(m[0] - t_win))[1]
    want_peak = peak_correlation(sources, nearest, n_valid)
    assert snap.correlation == want_peak
    assert snap.correlation.fractions().tobytes() == want_peak.fractions().tobytes()


class TestStreamingEqualsBatch:
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_valid=st.integers(32, 200),
        batch_sizes=st.lists(st.integers(1, 400), min_size=1, max_size=6),
        n_months=st.integers(0, 4),
    )
    @settings(max_examples=15, deadline=None)
    def test_snapshot_matches_batch_pipeline(self, seed, n_valid, batch_sizes, n_months):
        packets = seeded_stream(seed, 600)
        months = [(25.0 * m + 12.5, synthetic_month(seed, m, 2000)) for m in range(n_months)]
        with CorrelationEngine(n_valid, cutoff=1 << 8) as engine:
            fold_in_batches(engine, packets, batch_sizes)
            for t, hf in reversed(months):
                engine.fold_month(t, hf)
            snap = engine.acquire()
            try:
                assert_snapshot_matches_batch(snap, packets, n_valid)
                assert_overlap_matches_batch(snap, packets, n_valid, months)
            finally:
                engine.release(snap)

    def test_identical_under_invariants_and_sanitizers(self):
        packets = seeded_stream(99, 600)
        with debug_invariants():
            with sanitizers(SANITIZER_NAMES):
                with CorrelationEngine(128, cutoff=1 << 8) as engine:
                    fold_in_batches(engine, packets, [250, 99, 251])
                    snap = engine.acquire()
                    try:
                        assert_snapshot_matches_batch(snap, packets, 128)
                    finally:
                        engine.release(snap)
            assert take_traps() == []

    def test_queries_stable_across_epochs(self):
        packets = seeded_stream(5, 512)
        with CorrelationEngine(128, cutoff=1 << 8) as engine:
            engine.fold_batch(packets[:200])
            early = engine.acquire()
            engine.fold_batch(packets[200:])
            engine.publish()
            late = engine.acquire()
            try:
                # The early snapshot is immutable: folding more batches
                # and publishing new epochs never rewrites it.
                assert late.epoch > early.epoch
                assert early.window_count <= late.window_count
                for k in range(early.window_count):
                    assert early.quantities[k] == late.quantities[k]
            finally:
                engine.release(early)
                engine.release(late)
