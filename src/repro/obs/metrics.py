"""Process-wide counters, gauges and histograms for the pipeline.

The throughput accounting the paper's companion studies lean on
(packets/sec per hierarchy level, join rows, cache hit rates) needs
process-wide totals, not just per-span durations.  This module keeps a
small registry of named metrics:

* **counters** — monotonically increasing totals
  (``packets_ingested``, ``hier_sum_reductions``...);
* **gauges** — last-written values (current ladder height);
* **histograms** — count/total/min/max summaries of observed values.

Like :mod:`repro.obs.spans`, recording is a no-op unless observability is
on: the module-level helpers (:func:`inc`, :func:`set_gauge`,
:func:`observe`) check :func:`metrics_enabled` first and return
immediately when off.  Metrics can be enabled *without* span recording
(:func:`enable_metrics`) — the benchmark harness uses that mode to total
counters without perturbing timings — and are always enabled while
tracing is on.

Metric names used across the code base are declared here as constants so
instrumentation sites and dashboards cannot drift apart.

This module imports nothing from the package outside :mod:`repro.obs`,
so any layer (including :mod:`repro.analysis.contracts`) can depend on
it without cycles.
"""

from __future__ import annotations

import json
import threading
from typing import Any, Dict, Union

from .spans import tracing_enabled

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "metrics_enabled",
    "enable_metrics",
    "counter",
    "gauge",
    "histogram",
    "inc",
    "set_gauge",
    "observe",
    "counter_value",
    "snapshot",
    "export_snapshot",
    "METRICS_EXPORT_SCHEMA",
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
    "SHARD_SPILLS",
    "SHARD_SPILL_BYTES",
    "SHARD_BYTES_MAPPED",
    "PEAK_RSS_BYTES",
    "SERVE_BATCHES_FOLDED",
    "SERVE_WINDOWS_CLOSED",
    "SNAPSHOTS_PUBLISHED",
    "SNAPSHOT_READERS",
    "SNAPSHOT_EPOCH",
    "SNAPSHOT_LEASES",
    "SERVE_EPOCH_LAG",
    "SERVE_FOLD_SECONDS",
    "SERVE_PUBLISH_SECONDS",
]

_metrics_only: bool = False

# -- the counter catalogue ---------------------------------------------------

#: Packets entering matrix construction (telescope windows, streaming).
PACKETS_INGESTED = "packets_ingested"
#: Stored entries of finalized traffic matrices.
MATRIX_NNZ = "matrix_nnz"
#: Pairwise level merges performed by hierarchical accumulators.
HIER_SUM_REDUCTIONS = "hier_sum_reductions"
#: Rows joined across associative arrays (D4M joins / overlaps).
ASSOC_JOIN_ROWS = "assoc_join_rows"
#: ``build_study`` memo hits.
STUDY_CACHE_HITS = "study_cache_hits"
#: ``build_study`` memo misses (full study builds).
STUDY_CACHE_MISSES = "study_cache_misses"
#: Runtime invariant validations (``REPRO_DEBUG_INVARIANTS=1``).
INVARIANT_CHECKS = "invariant_checks"
#: Combines served by the canonical two-run sorted-merge kernel
#: (:func:`repro.hypersparse.merge.merge_combine`) — no argsort paid.
MERGE_FASTPATH_HITS = "merge_fastpath_hits"
#: Full argsort canonicalizations (construction from arbitrary triples,
#: ``mxm`` product combining) where the merge fast path cannot apply.
MERGE_FASTPATH_MISSES = "merge_fastpath_misses"
#: Canonical runs spilled to disk by budgeted accumulators
#: (:mod:`repro.hypersparse.spill`).
SHARD_SPILLS = "shard_spills"
#: Bytes written into spill files (keys + values + headers).
SHARD_SPILL_BYTES = "shard_spill_bytes"
#: Bytes memory-mapped back from columnar run files (spills, archives).
SHARD_BYTES_MAPPED = "shard_bytes_mapped"
#: Gauge: peak resident set size observed at the last out-of-core
#: checkpoint (``resource.getrusage``; bytes).
PEAK_RSS_BYTES = "peak_rss_bytes"
#: Packet batches folded into the streaming correlation engine
#: (:mod:`repro.serve`).
SERVE_BATCHES_FOLDED = "serve_batches_folded"
#: Constant-packet windows closed by the streaming engine.
SERVE_WINDOWS_CLOSED = "serve_windows_closed"
#: Immutable engine snapshots published (one per epoch).
SNAPSHOTS_PUBLISHED = "snapshots_published"
#: Reader leases taken on published snapshots (``acquire`` calls).
SNAPSHOT_READERS = "snapshot_readers"
#: Gauge: epoch of the most recently published snapshot.
SNAPSHOT_EPOCH = "snapshot_epoch"
#: Gauge: reader leases acquired but not yet released.
SNAPSHOT_LEASES = "snapshot_leases"
#: Gauge: windows closed minus windows in the published snapshot.
SERVE_EPOCH_LAG = "serve_epoch_lag"
#: Histogram: wall seconds of each ``fold_batch``.
SERVE_FOLD_SECONDS = "serve_fold_seconds"
#: Histogram: wall seconds of each ``publish`` (derive, freeze, swap).
SERVE_PUBLISH_SECONDS = "serve_publish_seconds"


class Counter:
    """A monotonically increasing total."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str):
        self.name = name
        self._value = 0.0
        self._lock = threading.Lock()

    def inc(self, n: Union[int, float] = 1) -> None:
        """Add ``n`` (must be non-negative) to the total."""
        if n < 0:
            raise ValueError(f"counter {self.name!r} increment must be >= 0")
        with self._lock:
            self._value += n

    @property
    def value(self) -> float:
        """The current total."""
        return self._value


class Gauge:
    """A last-written value."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str):
        self.name = name
        self._value = 0.0
        self._lock = threading.Lock()

    def set(self, v: Union[int, float]) -> None:
        """Overwrite the gauge value."""
        with self._lock:
            self._value = float(v)

    @property
    def value(self) -> float:
        """The most recently written value."""
        return self._value


class Histogram:
    """A count/total/min/max summary of observed values."""

    __slots__ = ("name", "count", "total", "min", "max", "_lock")

    def __init__(self, name: str):
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")
        self._lock = threading.Lock()

    def observe(self, v: Union[int, float]) -> None:
        """Record one observation."""
        v = float(v)
        with self._lock:
            self.count += 1
            self.total += v
            if v < self.min:
                self.min = v
            if v > self.max:
                self.max = v

    @property
    def mean(self) -> float:
        """Mean of the observations (0.0 when empty)."""
        return self.total / self.count if self.count else 0.0

    def summary(self) -> Dict[str, float]:
        """The JSON-friendly ``{count, total, mean, min, max}`` view."""
        if not self.count:
            return {"count": 0, "total": 0.0, "mean": 0.0, "min": 0.0, "max": 0.0}
        return {
            "count": self.count,
            "total": self.total,
            "mean": self.mean,
            "min": self.min,
            "max": self.max,
        }


_registry_lock = threading.Lock()
_counters: Dict[str, Counter] = {}
_gauges: Dict[str, Gauge] = {}
_histograms: Dict[str, Histogram] = {}


def metrics_enabled() -> bool:
    """True when metric recording is active (tracing on, or metrics-only)."""
    return _metrics_only or tracing_enabled()


def enable_metrics(on: bool = True) -> None:
    """Switch metrics-only recording on or off (tracing implies metrics)."""
    global _metrics_only
    _metrics_only = bool(on)


def counter(name: str) -> Counter:
    """Get or create the named counter."""
    with _registry_lock:
        c = _counters.get(name)
        if c is None:
            c = _counters[name] = Counter(name)
        return c


def gauge(name: str) -> Gauge:
    """Get or create the named gauge."""
    with _registry_lock:
        g = _gauges.get(name)
        if g is None:
            g = _gauges[name] = Gauge(name)
        return g


def histogram(name: str) -> Histogram:
    """Get or create the named histogram."""
    with _registry_lock:
        h = _histograms.get(name)
        if h is None:
            h = _histograms[name] = Histogram(name)
        return h


def inc(name: str, n: Union[int, float] = 1) -> None:
    """Increment a counter iff metric recording is enabled."""
    if _metrics_only or tracing_enabled():
        counter(name).inc(n)


def set_gauge(name: str, v: Union[int, float]) -> None:
    """Write a gauge iff metric recording is enabled."""
    if _metrics_only or tracing_enabled():
        gauge(name).set(v)


def observe(name: str, v: Union[int, float]) -> None:
    """Record a histogram observation iff metric recording is enabled."""
    if _metrics_only or tracing_enabled():
        histogram(name).observe(v)


def counter_value(name: str) -> float:
    """Current total of a counter (0.0 if it was never incremented)."""
    with _registry_lock:
        c = _counters.get(name)
    return c.value if c is not None else 0.0


def snapshot() -> Dict[str, Any]:
    """All metric values as plain data, for sinks and test assertions."""
    with _registry_lock:
        return {
            "counters": {n: c.value for n, c in sorted(_counters.items())},
            "gauges": {n: g.value for n, g in sorted(_gauges.items())},
            "histograms": {n: h.summary() for n, h in sorted(_histograms.items())},
        }


#: Envelope version of :func:`export_snapshot` files (``metrics.json``).
METRICS_EXPORT_SCHEMA = 1


def export_snapshot(path, *, extra=None) -> Dict[str, Any]:
    """Write the metric snapshot as a JSON file; return the payload.

    The canonical ``metrics.json`` envelope — schema version, ISO
    timestamp, and the :func:`snapshot` counters/gauges/histograms —
    consumed by dashboards and CI artifacts.  The benchmark history
    (:mod:`repro.bench.history`) does not read it: it stores the
    per-layer ledger of a traced e2e run instead.  ``extra`` entries are merged
    last (session durations, RSS, exit status ...), so a caller holding
    an earlier snapshot may also substitute its own metric maps — the
    benchmark session does, because test-isolation fixtures can reset
    the live registry before session finish.
    """
    from pathlib import Path

    from .sinks import wall_timestamp

    payload: Dict[str, Any] = {
        "schema": METRICS_EXPORT_SCHEMA,
        "written": wall_timestamp(),
        **snapshot(),
        **(extra or {}),
    }
    out = Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return payload


def reset_metrics() -> None:
    """Drop every registered metric (test isolation helper)."""
    with _registry_lock:
        _counters.clear()
        _gauges.clear()
        _histograms.clear()
