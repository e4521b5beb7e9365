"""Change-point detector, percentile stats, and per-layer attribution."""

import numpy as np
import pytest

from repro.bench import (
    analyze_history,
    attribute_counters,
    detect_change_points,
    load_history,
    percentile_stats,
    record_run,
)
from repro.rand import hash_uniform

from .records import OBSERVE, TEMPORAL, e2e_record


def noise(seed, n, scale):
    """Seeded, reproducible jitter in [0, scale) via the shared PRF."""
    return hash_uniform(seed, np.arange(n)) * scale


class TestDetectChangePoints:
    def test_flat_series_has_no_change_points(self):
        assert detect_change_points([1.0] * 12) == []

    def test_flat_with_float_jitter_stays_quiet(self):
        values = 1.0 + noise(3, 12, 1e-9)
        assert detect_change_points(values) == []

    def test_single_clean_step_found_at_the_right_run(self):
        values = [1.0] * 6 + [1.4] * 6
        assert detect_change_points(values) == [6]

    def test_downward_step_found_too(self):
        values = [1.4] * 5 + [1.0] * 5
        assert detect_change_points(values) == [5]

    def test_noisy_step_found_at_the_right_run(self):
        base = np.where(np.arange(14) < 8, 1.0, 1.45)
        values = base + noise(7, 14, 0.04)
        assert detect_change_points(values) == [8]

    def test_slow_drift_is_surfaced(self):
        # A 50% drift over 10 runs never trips a pairwise gate; the
        # trajectory detector must flag at least one level shift.
        values = np.linspace(1.0, 1.5, 10)
        assert detect_change_points(values) != []

    def test_small_shift_below_min_rel_pct_ignored(self):
        values = [1.0] * 6 + [1.01] * 6
        assert detect_change_points(values, min_rel_pct=3.0) == []
        assert detect_change_points(values, min_rel_pct=0.1) == [6]

    def test_short_or_nonfinite_series_returns_empty(self):
        assert detect_change_points([1.0, 2.0]) == []
        assert detect_change_points([1.0, float("nan"), 2.0, 2.0, 2.0]) == []

    def test_deterministic(self):
        values = list(np.where(np.arange(12) < 5, 2.0, 2.8) + noise(11, 12, 0.1))
        assert detect_change_points(values) == detect_change_points(values)


class TestPercentileStats:
    def test_percentiles_of_known_series(self):
        stats = percentile_stats(np.arange(1, 101, dtype=float))
        assert stats["n"] == 100
        assert stats["p50"] == pytest.approx(50.5)
        assert stats["p90"] == pytest.approx(90.1)
        assert stats["p99"] == pytest.approx(99.01)
        assert stats["min"] == 1.0 and stats["max"] == 100.0
        assert stats["latest"] == 100.0

    def test_empty_and_nonfinite(self):
        assert percentile_stats([])["n"] == 0
        stats = percentile_stats([1.0, float("nan"), 3.0])
        assert stats["n"] == 2 and stats["p50"] == pytest.approx(2.0)


def make_history(tmp_path, medians, layers_per_run):
    """One ``report`` run per median; its ledger values from ``layers_per_run``."""
    hist = tmp_path / "history"
    for i, (m, layers) in enumerate(zip(medians, layers_per_run)):
        record_run(
            hist,
            e2e_record({"report": {"wall_s": m}}, layers={"report": layers}, sha=f"sha{i}"),
        )
    return load_history(hist)


class TestAttributeCounters:
    def test_moved_counter_named_and_sorted(self, tmp_path):
        h = make_history(
            tmp_path,
            [2.4, 2.4],
            [
                {OBSERVE: 1.0, TEMPORAL: 0.10, "fits.fit_temporal.self_s": 5.0,
                 "synth.HoneyfarmSimulator.observe_month.calls": 15.0},
                {OBSERVE: 0.6, TEMPORAL: 0.11, "fits.fit_temporal.self_s": 5.0,
                 "synth.HoneyfarmSimulator.observe_month.calls": 30.0},
            ],
        )
        moves = attribute_counters(h, "report", 2, 1)
        # Only self_s values are attributed, the largest move in seconds first.
        assert [m.name for m in moves] == [OBSERVE, TEMPORAL]
        assert moves[0].delta_pct == pytest.approx(-40.0)
        assert attribute_counters(h, "window-ooc", 2, 1) == []

    def test_threshold_filters_small_moves(self, tmp_path):
        h = make_history(
            tmp_path,
            [2.4, 2.4],
            [{OBSERVE: 1.00}, {OBSERVE: 1.02}],
        )
        assert attribute_counters(h, "report", 2, 1, threshold_pct=5.0) == []

    def test_unknown_runs_return_empty(self, tmp_path):
        h = make_history(tmp_path, [2.4], [{OBSERVE: 1.0}])
        assert attribute_counters(h, "report", 9, 8) == []


class TestAnalyzeHistory:
    def test_step_change_with_counter_attribution(self, tmp_path):
        medians = [2.0] * 6 + [3.0] * 4
        layers = [{OBSERVE: 1.0, TEMPORAL: 0.15}] * 6 + [{OBSERVE: 2.0, TEMPORAL: 0.15}] * 4
        h = make_history(tmp_path, medians, layers)
        trends = analyze_history(h)
        assert [t.name for t in trends] == ["report/wall_s"]
        t = trends[0]
        assert len(t.change_points) == 1
        cp = t.change_points[0]
        assert cp.index == 7  # run sequence numbers start at 1
        assert cp.delta_pct == pytest.approx(50.0)
        assert [m.name for m in cp.counters] == [OBSERVE]
        assert cp.counters[0].delta_pct == pytest.approx(100.0)

    def test_min_runs_skips_short_trajectories(self, tmp_path):
        h = make_history(tmp_path, [2.4, 2.4], [{}, {}])
        assert analyze_history(h, min_runs=4) == []

    def test_pattern_filters_benchmarks(self, tmp_path):
        # One trend per <workload>/<metric> series; a series measured in
        # too few runs is filtered out on its own.
        hist = tmp_path / "history"
        for i in range(5):
            metrics = {"report": {"wall_s": 2.4, "peak_rss_mb": 221.0}}
            if i >= 3:
                metrics["window-ooc"] = {"wall_s": 5.0}
            record_run(hist, e2e_record(metrics, sha=f"sha{i}"))
        trends = analyze_history(load_history(hist))
        assert [t.name for t in trends] == ["report/peak_rss_mb", "report/wall_s"]
        assert all(t.change_points == [] for t in trends)
