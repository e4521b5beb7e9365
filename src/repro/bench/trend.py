"""Trajectory analysis over the benchmark history: percentiles, change
points, and per-layer attribution.

Three layers, all pure numpy and fully deterministic:

* :func:`percentile_stats` — p50/p90/p99 (and friends) of one
  ``<workload>/<metric>`` series across recorded runs.
* :func:`detect_change_points` — offline step detection on a trajectory
  by recursive binary segmentation of a piecewise-constant mean model
  (the classic PELT/BinSeg cost: within-segment sum of squared
  deviations, BIC-style penalty from a robust first-difference noise
  estimate).  A split must both beat the penalty *and* move the segment
  mean by ``min_rel_pct`` — so a flat series with float jitter never
  alarms, while a slow drift that a pairwise gate cannot see is
  surfaced as one or more steps.
* :func:`attribute_counters` — for a detected shift, which per-layer
  ``self_s`` values of the same workload's ledger moved at the same
  run: the layer that explains the step.

:func:`analyze_history` joins the three into per-series
:class:`BenchmarkTrend` summaries, and :func:`format_trends` renders
them as the ``repro bench trend`` terminal view.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

import numpy as np

from ..report.ascii_plot import render_sparkline
from .history import History

__all__ = [
    "CounterMove",
    "ChangePoint",
    "BenchmarkTrend",
    "percentile_stats",
    "detect_change_points",
    "attribute_counters",
    "analyze_history",
    "format_trends",
]


@dataclass(frozen=True)
class CounterMove:
    """One layer value's shift across a detected change point."""

    name: str
    before: float
    after: float
    delta_pct: float


@dataclass(frozen=True)
class ChangePoint:
    """A detected step in one series' trajectory.

    ``position`` indexes the trajectory array (first point of the new
    regime); ``index`` is the corresponding run sequence number — the
    "first seen at run N" in reports.  ``delta_pct`` compares the mean
    after the step to the mean before it (positive = larger).
    """

    position: int
    index: int
    before_mean: float
    after_mean: float
    delta_pct: float
    counters: List[CounterMove] = field(default_factory=list)


@dataclass
class BenchmarkTrend:
    """One series' trajectory summary: values, stats, change points."""

    name: str
    seqs: np.ndarray
    values: np.ndarray
    stats: Dict[str, float]
    change_points: List[ChangePoint] = field(default_factory=list)


def percentile_stats(values: Sequence[float]) -> Dict[str, float]:
    """p50/p90/p99 plus mean/min/max/latest of a series.

    Percentiles use linear interpolation (numpy default); non-finite
    values are dropped.
    """
    arr = np.asarray(values, dtype=np.float64)
    arr = arr[np.isfinite(arr)]
    if arr.size == 0:
        return {"n": 0, "p50": 0.0, "p90": 0.0, "p99": 0.0,
                "mean": 0.0, "min": 0.0, "max": 0.0, "latest": 0.0}
    p50, p90, p99 = (float(p) for p in np.percentile(arr, [50, 90, 99]))
    return {
        "n": int(arr.size),
        "p50": p50,
        "p90": p90,
        "p99": p99,
        "mean": float(arr.mean()),
        "min": float(arr.min()),
        "max": float(arr.max()),
        "latest": float(arr[-1]),
    }


def _sse(prefix: np.ndarray, prefix2: np.ndarray, i: int, j: int) -> float:
    """Sum of squared deviations from the mean over ``values[i:j]``."""
    n = j - i
    s = prefix[j] - prefix[i]
    s2 = prefix2[j] - prefix2[i]
    return float(max(s2 - s * s / n, 0.0))


def detect_change_points(
    values: Sequence[float],
    *,
    min_segment: int = 2,
    penalty_scale: float = 2.0,
    min_rel_pct: float = 3.0,
) -> List[int]:
    """Positions where the trajectory's mean level steps (sorted).

    Recursive binary segmentation: within a segment, the best split is
    the one minimizing the summed within-part squared deviations; it is
    kept when the cost reduction exceeds a BIC-style penalty
    ``penalty_scale * sigma^2 * log(n)`` — ``sigma`` estimated robustly
    from the median absolute first difference, so a single step does not
    inflate its own noise floor — *and* the mean level moves by at least
    ``min_rel_pct`` percent.  Each returned position is the first point
    of the new regime.  Deterministic; no randomness involved.
    """
    arr = np.asarray(values, dtype=np.float64)
    if arr.size < 2 * min_segment or not np.all(np.isfinite(arr)):
        return []
    prefix = np.concatenate([[0.0], np.cumsum(arr)])
    prefix2 = np.concatenate([[0.0], np.cumsum(arr * arr)])
    diffs = np.abs(np.diff(arr))
    # 1.4826 * MAD estimates sigma of the diffs; a step inflates only a
    # single diff, which the median ignores.  /sqrt(2): diff of two iid.
    sigma = 1.4826 * float(np.median(diffs)) / np.sqrt(2.0)
    penalty = penalty_scale * sigma * sigma * np.log(max(arr.size, 2))

    found: List[int] = []

    def _split(lo: int, hi: int) -> None:
        if hi - lo < 2 * min_segment:
            return
        total = _sse(prefix, prefix2, lo, hi)
        best_k, best_cost = -1, np.inf
        for k in range(lo + min_segment, hi - min_segment + 1):
            cost = _sse(prefix, prefix2, lo, k) + _sse(prefix, prefix2, k, hi)
            if cost < best_cost:
                best_k, best_cost = k, cost
        if best_k < 0 or total - best_cost <= penalty:
            return
        before = float(arr[lo:best_k].mean())
        after = float(arr[best_k:hi].mean())
        if before > 0 and abs(after / before - 1.0) * 100.0 < min_rel_pct:
            return
        _split(lo, best_k)
        found.append(best_k)
        _split(best_k, hi)

    _split(0, arr.size)
    return sorted(found)


def attribute_counters(
    history: History,
    workload: str,
    seq_after: int,
    seq_before: int,
    *,
    threshold_pct: float = 5.0,
    top: int = 5,
) -> List[CounterMove]:
    """Per-layer ``self_s`` values of ``workload`` that moved between two runs.

    ``seq_after`` is the run where a change point first appears and
    ``seq_before`` the preceding measured run; an untraced run has no
    layers, so nothing is attributed to it.  Only moves beyond ``threshold_pct`` percent are reported,
    at most ``top`` of them, largest move in seconds first (ties by name
    for determinism).
    """
    by_seq = {r.seq: r for r in history.runs}
    before = by_seq[seq_before].layers.get(workload, {}) if seq_before in by_seq else {}
    after = by_seq[seq_after].layers.get(workload, {}) if seq_after in by_seq else {}
    moves: List[CounterMove] = []
    for name in sorted(set(before) & set(after)):
        b, a = before[name], after[name]
        if not name.endswith(".self_s") or b <= 0:
            continue
        delta = (a / b - 1.0) * 100.0
        if abs(delta) >= threshold_pct:
            moves.append(CounterMove(name, b, a, delta))
    moves.sort(key=lambda m: (-abs(m.after - m.before), m.name))
    return moves[:top]


def analyze_history(history: History, *, min_runs: int = 4) -> List[BenchmarkTrend]:
    """Trend summaries of every ``<workload>/<metric>`` series in a history.

    Series with fewer than ``min_runs`` measured runs are skipped, since
    two points are a comparison, not a trajectory.  Each detected
    change point names the workload's layers that moved at the same run
    (:func:`attribute_counters`).
    """
    trends: List[BenchmarkTrend] = []
    for name in history.names():
        seqs, values = history.series(name)
        if seqs.size < min_runs:
            continue
        change_points: List[ChangePoint] = []
        for pos in detect_change_points(values):
            before, after = float(values[:pos].mean()), float(values[pos:].mean())
            delta = (after / before - 1.0) * 100.0 if before > 0 else float("nan")
            moves = attribute_counters(
                history, name.split("/", 1)[0], int(seqs[pos]), int(seqs[pos - 1])
            )
            change_points.append(
                ChangePoint(pos, int(seqs[pos]), before, after, delta, moves)
            )
        trends.append(
            BenchmarkTrend(name, seqs, values, percentile_stats(values), change_points)
        )
    return trends


def _fmt(v: float) -> str:
    """A metric value in its own unit (``-`` for non-finite)."""
    return f"{v:.6g}" if v == v and v not in (float("inf"), float("-inf")) else "-"


def _layer_summary(cp: ChangePoint, limit: int = 3) -> str:
    if not cp.counters:
        return "(no layer moved)"
    return ", ".join(f"{m.name} {m.delta_pct:+.1f}%" for m in cp.counters[:limit])


def format_trends(
    trends: List[BenchmarkTrend], history: History, *, width: int = 32
) -> str:
    """The ``repro bench trend`` terminal view.

    A header (run count, history directory, sequence span, machine
    count), one row per series — run count, across-run p50/p90/p99, the
    latest value, and a sparkline with change points marked ``|`` — then
    the change-point table.
    """
    machines = {r.machine for r in history.runs if r.machine}
    span = f" (runs {history.runs[0].seq}..{history.runs[-1].seq})" if history.runs else ""
    lines = [
        f"benchmark trend: {len(history.runs)} run(s) in "
        f"{history.directory or 'history'}{span}, {len(machines)} machine(s)",
        "",
    ]
    if not trends:
        lines.append("(no series has enough recorded runs to trend)")
        return "\n".join(lines)
    name_w = max(len(t.name) for t in trends)
    lines.append(
        f"{'series':<{name_w}}  {'runs':>4}  {'p50':>11}  {'p90':>11}  "
        f"{'p99':>11}  {'latest':>11}  trend"
    )
    for t in trends:
        spark = render_sparkline(
            t.values, width=width, marks=[cp.position for cp in t.change_points]
        )
        lines.append(
            f"{t.name:<{name_w}}  {t.stats['n']:>4d}  {_fmt(t.stats['p50']):>11}  "
            f"{_fmt(t.stats['p90']):>11}  {_fmt(t.stats['p99']):>11}  "
            f"{_fmt(t.stats['latest']):>11}  {spark}"
        )
    lines += ["", "change points:"]
    cps = [(t, cp) for t in trends for cp in t.change_points]
    for t, cp in cps:
        lines.append(
            f"  {t.name}: first seen at run {cp.index} "
            f"({_fmt(cp.before_mean)} -> {_fmt(cp.after_mean)}, "
            f"{cp.delta_pct:+.1f}%) — {_layer_summary(cp)}"
        )
    if not cps:
        lines.append("  (none detected)")
    return "\n".join(lines)
