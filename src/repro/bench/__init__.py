"""Bench history over the end-to-end benchmark.

``benchmarks/e2e/run.py`` measures the paper's pipeline end to end and
``run.py --compare`` gates a change against its parent with the bounds
in ``BENCHMARK.json``.  This package keeps the trajectory of those runs:

* :mod:`repro.bench.results` — validation of a ``run.py --out`` record,
  and the machine fingerprint the e2e child stamps into it.
* :mod:`repro.bench.history` — the append-only ``benchmarks/history/``
  store: one JSON record per run, keyed by git SHA and machine id.
* :mod:`repro.bench.trend` — percentile stats, change-point detection
  on each ``<workload>/<metric>`` series, and attribution of each step
  to the per-layer ``self_s`` values that moved with it, and the
  terminal trend view.

The CLI surface is ``repro bench record FILE | trend`` (see
``docs/PERFORMANCE.md``, "Benchmarks").
"""

from .history import (
    DEFAULT_HISTORY_DIR,
    HISTORY_SCHEMA,
    History,
    RunRecord,
    load_history,
    record_run,
)
from .results import RECORD_SCHEMA, load_record, machine_fingerprint, machine_id
from .trend import (
    BenchmarkTrend,
    ChangePoint,
    CounterMove,
    analyze_history,
    attribute_counters,
    detect_change_points,
    format_trends,
    percentile_stats,
)

__all__ = [
    "DEFAULT_HISTORY_DIR",
    "HISTORY_SCHEMA",
    "RECORD_SCHEMA",
    "BenchmarkTrend",
    "ChangePoint",
    "CounterMove",
    "History",
    "RunRecord",
    "analyze_history",
    "attribute_counters",
    "detect_change_points",
    "format_trends",
    "load_history",
    "load_record",
    "machine_fingerprint",
    "machine_id",
    "percentile_stats",
    "record_run",
]
