"""Streaming window analyzer equals the batch pipeline."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.stream import StreamingWindowAnalyzer
from repro.traffic import (
    Packets,
    build_traffic_matrix,
    constant_packet_windows,
    network_quantities,
)


def stream(n, rng):
    return Packets(
        np.sort(rng.uniform(0, 100, n)),
        rng.integers(0, 5000, n),
        rng.integers(0, 5000, n),
    )


class TestEquivalence:
    def test_windows_match_batch_pipeline(self, rng):
        p = stream(4000, rng)
        analyzer = StreamingWindowAnalyzer(512)
        emitted = []
        # Feed in awkward batch sizes.
        pos = 0
        for size in (100, 700, 1, 1500, 1699):
            emitted += analyzer.process(p[pos : pos + size])
            pos += size
        batch_windows = constant_packet_windows(p, 512)
        assert len(emitted) == len(batch_windows) == 7
        for got, want in zip(emitted, batch_windows):
            assert got.matrix == build_traffic_matrix(want.packets)
            assert got.quantities == network_quantities(
                build_traffic_matrix(want.packets)
            )
            assert got.start_time == want.start_time
            assert got.end_time == want.end_time

    @given(st.integers(1, 200), st.lists(st.integers(1, 300), min_size=1, max_size=8))
    @settings(max_examples=30, deadline=None)
    def test_any_batching(self, n_valid, batch_sizes):
        rng = np.random.default_rng(n_valid)
        total = sum(batch_sizes)
        p = stream(total, rng)
        analyzer = StreamingWindowAnalyzer(n_valid)
        emitted = []
        pos = 0
        for size in batch_sizes:
            emitted += analyzer.process(p[pos : pos + size])
            pos += size
        assert len(emitted) == total // n_valid
        assert analyzer.pending_packets == total % n_valid


class TestLifecycle:
    def test_flush_partial(self, rng):
        analyzer = StreamingWindowAnalyzer(100)
        analyzer.process(stream(42, rng))
        last = analyzer.flush()
        assert last is not None
        assert last.quantities.valid_packets == 42
        assert analyzer.flush() is None

    def test_indices_sequential(self, rng):
        analyzer = StreamingWindowAnalyzer(50)
        emitted = analyzer.process(stream(175, rng))
        assert [w.index for w in emitted] == [0, 1, 2]
        assert analyzer.windows_emitted == 3

    def test_durations_positive(self, rng):
        analyzer = StreamingWindowAnalyzer(100)
        for w in analyzer.process(stream(500, rng)):
            assert w.duration >= 0
            assert w.unique_sources > 0

    def test_degree_distribution_normalized(self, rng):
        analyzer = StreamingWindowAnalyzer(200)
        (w,) = analyzer.process(stream(200, rng))
        assert np.isclose(w.degree_distribution.prob.sum(), 1.0)

    def test_invalid_nv(self):
        with pytest.raises(ValueError):
            StreamingWindowAnalyzer(0)


def retained_after_100_windows(keep):
    """Bytes the fold still holds after 100 windows (tracemalloc)."""
    import tracemalloc

    rng = np.random.default_rng(7)
    batches = [stream(500, rng) for _ in range(20)]  # 100 windows
    tracemalloc.start(16)
    analyzer = StreamingWindowAnalyzer(100, keep_matrices=keep)
    windows = []
    for batch in batches:
        windows += analyzer.process(batch)
    assert len(windows) == 100
    snapshot = tracemalloc.take_snapshot()
    tracemalloc.stop()
    return sum(t.size for t in snapshot.traces)


class TestKeepMatrices:
    """``keep_matrices=False``: long-running folds stay memory-flat."""

    def test_matrices_dropped_but_stats_kept(self, rng):
        analyzer = StreamingWindowAnalyzer(100, keep_matrices=False)
        windows = analyzer.process(stream(350, rng))
        assert len(windows) == 3
        for w in windows:
            assert w.matrix is None
            assert w.quantities.valid_packets == 100
            assert w.degree_distribution.n_total > 0

    def test_flush_also_drops_the_matrix(self, rng):
        analyzer = StreamingWindowAnalyzer(100, keep_matrices=False)
        analyzer.process(stream(42, rng))
        last = analyzer.flush()
        assert last is not None and last.matrix is None

    def test_hundred_window_run_memory_flat(self):
        # Retained memory after 100 windows must not scale with the
        # window count once matrices are dropped; compare against the
        # keep_matrices=True run, which retains one matrix per window.
        kept = retained_after_100_windows(True)
        dropped = retained_after_100_windows(False)
        assert dropped < kept / 4, (dropped, kept)

    def test_memory_flat_with_sanitizers_armed(self):
        # Armed sanitizers keep no reference to dropped matrices, so the
        # measurement holds with every one of them armed too.
        from repro.analysis.sanitize.runtime import SANITIZER_NAMES, sanitizers

        with sanitizers(SANITIZER_NAMES):
            kept = retained_after_100_windows(True)
            dropped = retained_after_100_windows(False)
        assert dropped < kept / 4, (dropped, kept)
