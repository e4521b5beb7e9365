"""Trace sinks: JSON-lines round-trips, Chrome export, terminal views."""

from __future__ import annotations

import json
from datetime import datetime

import pytest

from repro.obs.sinks import (
    SCHEMA_VERSION,
    chrome_trace,
    format_flame,
    format_summary,
    read_trace,
    wall_timestamp,
    write_chrome_trace,
    write_trace,
)
from repro.obs.spans import Span, annotate, reset_tracing, span, take_spans, tracing


def _sample_spans():
    with tracing():
        reset_tracing()
        with span("outer", kind="demo"):
            annotate(rows=4)
            with span("inner"):
                pass
        return take_spans()


class TestJsonLines:
    def test_round_trip(self, tmp_path):
        spans = _sample_spans()
        metrics = {
            "counters": {"packets_ingested": 64.0},
            "gauges": {"ladder": 2.0},
            "histograms": {"batch": {"count": 1, "total": 0.5, "mean": 0.5,
                                     "min": 0.5, "max": 0.5}},
        }
        path = tmp_path / "t.jsonl"
        n = write_trace(path, spans, metrics, meta={"command": "repro fig5"})
        # meta + 2 spans + counter + gauge + histogram
        assert n == 6
        data = read_trace(path)
        assert data.meta["version"] == SCHEMA_VERSION
        assert data.meta["command"] == "repro fig5"
        assert [s["name"] for s in data.spans] == [s.name for s in spans]
        assert data.spans[-1]["label"] == "outer kind=demo"
        assert data.counters == {"packets_ingested": 64.0}
        assert data.gauges == {"ladder": 2.0}
        assert data.histograms["batch"]["count"] == 1

    def test_every_line_is_valid_json(self, tmp_path):
        path = tmp_path / "t.jsonl"
        write_trace(path, _sample_spans(), {"counters": {"x": 1.0}})
        lines = path.read_text().splitlines()
        events = [json.loads(line) for line in lines]
        assert all("type" in e for e in events)
        assert events[0]["type"] == "meta"

    def test_dict_spans_round_trip_again(self, tmp_path):
        """Sinks accept the dict events read back from a file."""
        first = tmp_path / "a.jsonl"
        second = tmp_path / "b.jsonl"
        write_trace(first, _sample_spans())
        data = read_trace(first)
        write_trace(second, data.spans)
        assert [s["label"] for s in read_trace(second).spans] == [
            s["label"] for s in data.spans
        ]

    def test_invalid_json_line_raises_with_location(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"type": "meta", "version": 1}\nnot json\n')
        with pytest.raises(ValueError, match="bad.jsonl:2"):
            read_trace(path)

    def test_unknown_event_type_raises(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"type": "mystery"}\n')
        with pytest.raises(ValueError, match="mystery"):
            read_trace(path)

    @pytest.mark.parametrize(
        "line, reason",
        [
            ("[1, 2]", "not a JSON object"),
            ('{"type": "counter", "value": 3}', "counter event lacks name"),
            ('{"type": "gauge", "name": "ladder"}', "gauge event lacks value"),
            ('{"type": "histogram", "count": 1}', "histogram event lacks name"),
            ('{"type": "meta", "version": 99}', "schema version 99"),
        ],
    )
    def test_malformed_event_raises_with_location(self, tmp_path, line, reason):
        path = tmp_path / "bad.jsonl"
        path.write_text(f'{{"type": "meta", "version": 1}}\n{line}\n')
        with pytest.raises(ValueError, match=f"bad.jsonl:2: .*{reason}"):
            read_trace(path)


class TestChromeTrace:
    def test_complete_events_in_microseconds(self):
        s = Span(span_id=1, parent_id=None, name="stage", t_start=0.5,
                 wall_s=0.25, thread_id=9)
        doc = chrome_trace([s])
        (event,) = doc["traceEvents"]
        assert event["ph"] == "X"
        assert event["ts"] == 500_000.0
        assert event["dur"] == 250_000.0
        assert event["pid"] == 1 and event["tid"] == 9

    def test_write_returns_event_count(self, tmp_path):
        path = tmp_path / "c.json"
        n = write_chrome_trace(path, _sample_spans())
        assert n == 2
        doc = json.loads(path.read_text())
        assert len(doc["traceEvents"]) == 2


class TestTerminalViews:
    def test_summary_has_table_flame_and_counters(self):
        text = format_summary(
            _sample_spans(), {"packets_ingested": 64.0}, title="unit"
        )
        assert "=== unit ===" in text
        assert "outer kind=demo" in text
        assert "span tree:" in text
        assert "packets_ingested" in text

    def test_summary_without_spans(self):
        assert "(no spans recorded)" in format_summary([])

    def test_flame_indents_children(self):
        text = format_flame(_sample_spans())
        lines = text.splitlines()
        assert any(line.startswith("outer") for line in lines)
        assert any(line.startswith("  inner") for line in lines)


def test_wall_timestamp_is_iso_utc():
    stamp = wall_timestamp()
    parsed = datetime.fromisoformat(stamp)
    assert parsed.tzinfo is not None
