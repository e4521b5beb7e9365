"""Trace export: JSON-lines events, Chrome ``trace_event`` files, and
ASCII flame/summary tables.

Three complementary views of one run:

* :func:`write_trace` / :func:`read_trace` — the canonical JSON-lines
  format (one event object per line: a ``meta`` header, ``span`` events,
  then ``counter``/``gauge``/``histogram`` totals).  ``repro <exp>
  --trace-out FILE`` writes it; ``repro trace summarize FILE`` reads it.
* :func:`chrome_trace` / :func:`write_chrome_trace` — the Chrome
  ``trace_event`` JSON array (open in ``chrome://tracing`` or
  https://ui.perfetto.dev) with one track per thread.
* :func:`format_summary` — terminal rendering: a per-label span table, a
  wall-time bar profile (via :mod:`repro.report.ascii_plot`), an indented
  flame tree, and the counter totals.

All functions accept either live :class:`~repro.obs.spans.Span` objects
or the dict events round-tripped through a trace file.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from ..report.ascii_plot import render_bars
from .spans import Span

__all__ = [
    "SCHEMA_VERSION",
    "TraceData",
    "wall_timestamp",
    "write_trace",
    "read_trace",
    "chrome_trace",
    "write_chrome_trace",
    "format_summary",
    "format_flame",
]

#: Bumped when the JSON-lines event layout changes incompatibly.
SCHEMA_VERSION = 1

PathLike = Union[str, Path]
SpanLike = Union[Span, Dict[str, Any]]


def wall_timestamp() -> str:
    """Current UTC time as an ISO-8601 string.

    The one sanctioned absolute-clock read in the library: observability
    metadata (trace headers, report stamps) may carry a real timestamp,
    experiment *results* may not (lint rules RL006/RL007).
    """
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def _as_dict(s: SpanLike) -> Dict[str, Any]:
    return s.to_dict() if isinstance(s, Span) else s


# -- JSON-lines --------------------------------------------------------------


@dataclass
class TraceData:
    """A parsed trace file."""

    meta: Dict[str, Any] = field(default_factory=dict)
    spans: List[Dict[str, Any]] = field(default_factory=list)
    counters: Dict[str, float] = field(default_factory=dict)
    gauges: Dict[str, float] = field(default_factory=dict)
    histograms: Dict[str, Dict[str, float]] = field(default_factory=dict)


def write_trace(
    path: PathLike,
    spans: Sequence[SpanLike],
    metrics: Optional[Dict[str, Any]] = None,
    *,
    meta: Optional[Dict[str, Any]] = None,
) -> int:
    """Write a run as JSON-lines trace events; returns the event count.

    ``metrics`` is a :func:`repro.obs.metrics.snapshot` mapping; ``meta``
    extends the header event (config, argv, ...).
    """
    events: List[Dict[str, Any]] = [
        {
            "type": "meta",
            "version": SCHEMA_VERSION,
            "generated": wall_timestamp(),
            **(meta or {}),
        }
    ]
    for s in spans:
        events.append({"type": "span", **_as_dict(s)})
    metrics = metrics or {}
    for name, value in metrics.get("counters", {}).items():
        events.append({"type": "counter", "name": name, "value": value})
    for name, value in metrics.get("gauges", {}).items():
        events.append({"type": "gauge", "name": name, "value": value})
    for name, summary in metrics.get("histograms", {}).items():
        events.append({"type": "histogram", "name": name, **summary})
    text = "\n".join(json.dumps(e, sort_keys=True) for e in events) + "\n"
    Path(path).write_text(text, encoding="utf-8")
    return len(events)


def read_trace(path: PathLike) -> TraceData:
    """Parse a JSON-lines trace file written by :func:`write_trace`.

    Every malformed line — invalid JSON, a non-object event, a metric
    event without its ``name``/``value``, an unknown event type, or a
    header from a newer schema — raises ``ValueError`` naming
    ``path:line``.
    """
    data = TraceData()
    for i, line in enumerate(
        Path(path).read_text(encoding="utf-8").splitlines(), start=1
    ):
        line = line.strip()
        if not line:
            continue
        try:
            event = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}:{i}: invalid trace event: {exc}") from exc
        if not isinstance(event, dict):
            raise ValueError(f"{path}:{i}: trace event is not a JSON object")
        kind = event.get("type")
        try:
            if kind == "meta":
                version = event.get("version")
                if not isinstance(version, int) or version > SCHEMA_VERSION:
                    raise ValueError(
                        f"{path}:{i}: unsupported trace schema version "
                        f"{version!r} (this reader understands up to "
                        f"{SCHEMA_VERSION})"
                    )
                data.meta = event
            elif kind == "span":
                data.spans.append(event)
            elif kind == "counter":
                data.counters[event["name"]] = event["value"]
            elif kind == "gauge":
                data.gauges[event["name"]] = event["value"]
            elif kind == "histogram":
                data.histograms[event["name"]] = {
                    k: v for k, v in event.items() if k not in ("type", "name")
                }
            else:
                raise ValueError(f"{path}:{i}: unknown trace event type {kind!r}")
        except KeyError as exc:
            raise ValueError(f"{path}:{i}: {kind} event lacks {exc.args[0]}") from None
    return data


# -- Chrome trace_event ------------------------------------------------------


def chrome_trace(spans: Sequence[SpanLike]) -> Dict[str, Any]:
    """The Chrome ``trace_event`` document for a span list.

    Spans become complete (``"ph": "X"``) events with microsecond
    timestamps relative to the trace epoch, one track per recording
    thread.
    """
    events: List[Dict[str, Any]] = []
    for s in spans:
        d = _as_dict(s)
        events.append(
            {
                "name": d.get("label", d.get("name", "?")),
                "ph": "X",
                "ts": round(d.get("t_start", 0.0) * 1e6, 3),
                "dur": round(d.get("wall_s", 0.0) * 1e6, 3),
                "pid": 1,
                "tid": d.get("thread_id", 0),
                "args": d.get("attrs", {}),
            }
        )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(path: PathLike, spans: Sequence[SpanLike]) -> int:
    """Write the Chrome trace JSON file; returns the event count."""
    doc = chrome_trace(spans)
    Path(path).write_text(json.dumps(doc), encoding="utf-8")
    return len(doc["traceEvents"])


# -- terminal summary --------------------------------------------------------


def _aggregate(
    spans: Sequence[SpanLike],
) -> List[Tuple[str, int, float, float]]:
    """Per-label ``(label, count, total_wall_s, total_cpu_s)`` rows,
    ordered by descending total wall time."""
    agg: Dict[str, List[float]] = {}
    for s in spans:
        d = _as_dict(s)
        label = d.get("label", d.get("name", "?"))
        row = agg.setdefault(label, [0, 0.0, 0.0])
        row[0] += 1
        row[1] += d.get("wall_s", 0.0)
        row[2] += d.get("cpu_s", 0.0)
    return sorted(
        ((lb, int(c), w, cp) for lb, (c, w, cp) in agg.items()),
        key=lambda r: -r[2],
    )


def _span_table(rows: List[Tuple[str, int, float, float]]) -> str:
    header = ("span", "count", "total_s", "mean_ms", "cpu_s")
    cells = [list(header)]
    for label, count, wall, cpu in rows:
        cells.append(
            [
                label,
                str(count),
                f"{wall:.4f}",
                f"{wall / count * 1e3:.2f}",
                f"{cpu:.4f}",
            ]
        )
    widths = [max(len(r[i]) for r in cells) for i in range(len(header))]
    lines = []
    for i, row in enumerate(cells):
        lines.append(
            row[0].ljust(widths[0])
            + "  "
            + "  ".join(c.rjust(w) for c, w in zip(row[1:], widths[1:]))
        )
        if i == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)


def format_flame(spans: Sequence[SpanLike], *, max_depth: int = 12) -> str:
    """Indented flame view: the span tree aggregated by call path.

    Children aggregate under their parent's label path; each line shows
    the cumulative wall time and call count at that path.
    """
    dicts = [_as_dict(s) for s in spans]
    by_id = {d.get("span_id"): d for d in dicts}

    def path_of(d: Dict[str, Any]) -> Tuple[str, ...]:
        path: List[str] = []
        seen = set()
        node: Optional[Dict[str, Any]] = d
        while node is not None and len(path) < max_depth:
            nid = node.get("span_id")
            if nid in seen:  # pragma: no cover - defensive vs cyclic files
                break
            seen.add(nid)
            path.append(node.get("label", node.get("name", "?")))
            node = by_id.get(node.get("parent_id"))
        return tuple(reversed(path))

    agg: Dict[Tuple[str, ...], List[float]] = {}
    for d in dicts:
        row = agg.setdefault(path_of(d), [0, 0.0])
        row[0] += 1
        row[1] += d.get("wall_s", 0.0)
    if not agg:
        return "(no spans)"
    lines = []
    for path in sorted(agg):
        count, wall = agg[path]
        indent = "  " * (len(path) - 1)
        lines.append(f"{indent}{path[-1]}  [{int(count)}x  {wall:.4f}s]")
    return "\n".join(lines)


def format_summary(
    spans: Sequence[SpanLike],
    counters: Optional[Dict[str, float]] = None,
    *,
    top: int = 12,
    title: str = "trace summary",
) -> str:
    """The full terminal summary: table, bar profile, flame tree, counters."""
    parts: List[str] = [f"=== {title} ==="]
    rows = _aggregate(spans)
    if rows:
        parts.append(_span_table(rows))
        head = rows[:top]
        parts.append("")
        parts.append(
            render_bars(
                [r[0] for r in head],
                [r[2] for r in head],
                title="wall time by span",
                unit="s",
            )
        )
        parts.append("")
        parts.append("span tree:")
        parts.append(format_flame(spans))
    else:
        parts.append("(no spans recorded)")
    if counters:
        parts.append("")
        cells = [["counter", "value"]] + [
            [name, f"{value:g}"] for name, value in sorted(counters.items())
        ]
        widths = [max(len(r[i]) for r in cells) for i in range(2)]
        table = []
        for i, row in enumerate(cells):
            table.append(row[0].ljust(widths[0]) + "  " + row[1].rjust(widths[1]))
            if i == 0:
                table.append("  ".join("-" * w for w in widths))
        parts.extend(table)
    return "\n".join(parts)
