"""Observability: zero-overhead tracing and metrics.

The pipeline's cost structure — hierarchical GraphBLAS summation, D4M
joins, 15-month temporal sweeps — is invisible without per-stage
accounting.  This package provides it in three layers, all **no-ops
unless enabled** (the :mod:`repro.analysis.contracts` pattern):

* :mod:`repro.obs.spans` — ``span()`` / ``@traced`` wall+CPU timing
  into a thread-local span tree (``REPRO_TRACE=1``);
* :mod:`repro.obs.metrics` — process-wide counters/gauges/histograms
  (``packets_ingested``, ``matrix_nnz``, ``hier_sum_reductions``, ...;
  :func:`enable_metrics` for counters without span recording);
* :mod:`repro.obs.sinks` — JSON-lines traces, Chrome ``trace_event``
  files, ASCII flame/summary tables.

Environment flag: ``REPRO_TRACE``.  CLI: ``repro <experiment> --trace
[--trace-out FILE]`` and ``repro trace summarize FILE``.  For a
function-level profile, run the CLI under ``python -m cProfile``.  See
``docs/OBSERVABILITY.md`` for the span/counter catalogue and the
overhead contract.
"""

from .metrics import (
    ASSOC_JOIN_ROWS,
    HIER_SUM_REDUCTIONS,
    INVARIANT_CHECKS,
    MATRIX_NNZ,
    MERGE_FASTPATH_HITS,
    MERGE_FASTPATH_MISSES,
    PACKETS_INGESTED,
    STUDY_CACHE_HITS,
    STUDY_CACHE_MISSES,
    counter_value,
    enable_metrics,
    export_snapshot,
    inc,
    metrics_enabled,
    observe,
    reset_metrics,
    set_gauge,
    snapshot,
)
from .sinks import (
    TraceData,
    chrome_trace,
    format_flame,
    format_summary,
    read_trace,
    wall_timestamp,
    write_chrome_trace,
    write_trace,
)
from .spans import (
    Span,
    Stopwatch,
    TimedCall,
    annotate,
    current_span,
    enable_tracing,
    record_span,
    reset_tracing,
    span,
    spans_recorded,
    stopwatch,
    take_spans,
    traced,
    tracing,
    tracing_enabled,
)

__all__ = [
    # spans
    "Span",
    "Stopwatch",
    "TimedCall",
    "tracing_enabled",
    "enable_tracing",
    "tracing",
    "span",
    "traced",
    "annotate",
    "current_span",
    "record_span",
    "take_spans",
    "spans_recorded",
    "reset_tracing",
    "stopwatch",
    # metrics
    "metrics_enabled",
    "enable_metrics",
    "inc",
    "set_gauge",
    "observe",
    "counter_value",
    "snapshot",
    "export_snapshot",
    "reset_metrics",
    "PACKETS_INGESTED",
    "MATRIX_NNZ",
    "HIER_SUM_REDUCTIONS",
    "ASSOC_JOIN_ROWS",
    "STUDY_CACHE_HITS",
    "STUDY_CACHE_MISSES",
    "INVARIANT_CHECKS",
    "MERGE_FASTPATH_HITS",
    "MERGE_FASTPATH_MISSES",
    # sinks
    "TraceData",
    "wall_timestamp",
    "write_trace",
    "read_trace",
    "chrome_trace",
    "write_chrome_trace",
    "format_summary",
    "format_flame",
]
