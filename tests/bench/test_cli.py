"""End-to-end ``repro bench record FILE | trend`` flows."""

import json

import pytest

from repro.bench import format_trends, load_history
from repro.cli import main

from .records import OBSERVE, TEMPORAL, e2e_record, stepped, write_record


def record_file(tmp_path, hist, record):
    path = tmp_path / "head.json"
    path.write_text(json.dumps(record), encoding="utf-8")
    assert main(["bench", "record", str(path), "--history", str(hist)]) == 0
    return path


def record_stepped_history(tmp_path, hist, n=10, step_at=6):
    """``n`` runs whose ``report`` wall time and observe_month layer step."""
    for i in range(n):
        record_file(tmp_path, hist, stepped(i, step_at))
    return hist


class TestRecord:
    def test_record_appends_and_reports(self, tmp_path, capsys):
        head = write_record(tmp_path / "head.json", {"report": {"wall_s": 2.4}}, sha="abc")
        hist = tmp_path / "history"
        assert main(["bench", "record", str(head), "--history", str(hist)]) == 0
        out = capsys.readouterr().out
        assert "recorded run 1" in out and "1 workload(s)" in out and "sha abc" in out
        assert [r.metrics for r in load_history(hist).runs] == [{"report/wall_s": 2.4}]

    def test_record_joins_metrics_counters(self, tmp_path):
        # A traced record brings its per-layer ledger along.
        hist = tmp_path / "history"
        record_file(tmp_path, hist, stepped(0, 6))
        stored = json.loads(next(iter(hist.glob("run-*.json"))).read_text())
        assert stored["layers"]["report"][OBSERVE] == 0.07
        assert stored["metrics"]["window-ooc/wall_s"] == 5.0

    def test_missing_results_exits_two(self, tmp_path, capsys):
        missing = tmp_path / "no.json"
        assert main(["bench", "record", str(missing), "--history", str(tmp_path / "h")]) == 2
        err = capsys.readouterr().err
        assert "repro bench" in err and str(missing) in err
        assert not (tmp_path / "h").exists()

    @pytest.mark.parametrize(
        "content, reason",
        [
            ("{truncated", "not valid JSON"),
            (
                json.dumps({"schema": 2, "benchmarks": {"a": {"wall_median_s": 0.1}}}),
                "no 'workloads' mapping",
            ),
            (json.dumps(e2e_record({"report": {"wall_s": 2.4}}, correct=False)),
             "workload 'report' failed its correctness check"),
        ],
        ids=["not-json", "legacy-bench-results", "failed-run"],
    )
    def test_invalid_record_exits_two_naming_the_file(self, tmp_path, capsys, content, reason):
        bad = tmp_path / "bad.json"
        bad.write_text(content, encoding="utf-8")
        hist = tmp_path / "history"
        assert main(["bench", "record", str(bad), "--history", str(hist)]) == 2
        err = capsys.readouterr().err
        assert str(bad) in err and reason in err
        assert len(load_history(hist)) == 0


class TestTrend:
    def test_detects_injected_step_and_names_counter(self, tmp_path, capsys):
        hist = record_stepped_history(tmp_path, tmp_path / "history")
        capsys.readouterr()
        assert main(["bench", "trend", "--history", str(hist)]) == 0
        out = capsys.readouterr().out
        # the acceptance bar: right run, the moved layer named
        assert "report/wall_s: first seen at run 7" in out
        assert OBSERVE in out

    def test_change_point_in_report_wall_attributed_to_observe_month(self, tmp_path, capsys):
        # Three runs before a step in both report/wall_s and the
        # observe_month self time, three after; the correlation core and
        # window-ooc stay flat.
        hist = record_stepped_history(tmp_path, tmp_path / "history", n=6, step_at=3)
        capsys.readouterr()
        assert main(["bench", "trend", "--history", str(hist)]) == 0
        out = capsys.readouterr().out
        [line] = [x for x in out.splitlines() if "first seen" in x]
        assert line.startswith("  report/wall_s: first seen at run 4 (2.4 -> 3.4, +41.7%)")
        assert line.endswith(f"— {OBSERVE} +1428.6%")
        assert TEMPORAL not in out

    def test_empty_history_is_not_an_error(self, tmp_path, capsys):
        assert main(["bench", "trend", "--history", str(tmp_path / "none")]) == 0
        assert "0 run(s)" in capsys.readouterr().out


class TestReport:
    def test_no_output_flag_exits_two(self, tmp_path, capsys):
        # The HTML/markdown report is gone: `repro bench` has exactly
        # record and trend.
        with pytest.raises(SystemExit) as exc:
            main(["bench", "report", "--history", str(tmp_path / "h")])
        assert exc.value.code == 2
        assert "choose from 'record', 'trend'" in capsys.readouterr().err


class TestCompareWithHistory:
    def test_no_history_output_byte_identical_to_plain(self, tmp_path, capsys):
        # Too few runs to trend: the view is just the header and placeholder.
        hist = record_stepped_history(tmp_path, tmp_path / "history", n=3)
        capsys.readouterr()
        assert main(["bench", "trend", "--history", str(hist)]) == 0
        history = load_history(hist)
        assert capsys.readouterr().out == format_trends([], history) + "\n"

    def test_history_adds_trend_note_to_regressed_row(self, tmp_path, capsys):
        # Only the series that stepped carries the change-point mark.
        hist = record_stepped_history(tmp_path, tmp_path / "history")
        capsys.readouterr()
        main(["bench", "trend", "--history", str(hist)])
        rows = {
            line.split()[0]: line
            for line in capsys.readouterr().out.splitlines()
            if line.startswith(("report/", "window-ooc/"))
        }
        assert sorted(rows) == ["report/peak_rss_mb", "report/wall_s", "window-ooc/wall_s"]
        assert rows["report/wall_s"].endswith("▁▁▁▁▁▁|███")
        assert "|" not in rows["report/peak_rss_mb"] + rows["window-ooc/wall_s"]


class TestCompareJson:
    def test_json_document_stable_and_parseable(self, tmp_path):
        # The stored record is sorted-key JSON whatever the input order.
        hist = tmp_path / "history"
        record = e2e_record({"window-ooc": {"wall_s": 5.0}, "report": {"wall_s": 2.4}})
        record_file(tmp_path, hist, record)
        text = next(iter(hist.glob("run-*.json"))).read_text()
        stored = json.loads(text)
        assert text == json.dumps(stored, indent=2, sort_keys=True) + "\n"
        assert list(stored["metrics"]) == ["report/wall_s", "window-ooc/wall_s"]

    def test_json_exit_zero_when_clean(self, tmp_path):
        # Recording the same clean file twice appends two runs.
        hist = tmp_path / "history"
        head = write_record(tmp_path / "head.json", {"report": {"wall_s": 2.4}})
        for _ in range(2):
            assert main(["bench", "record", str(head), "--history", str(hist)]) == 0
        assert [r.seq for r in load_history(hist).runs] == [1, 2]

    def test_json_carries_trend_note(self, tmp_path, capsys):
        # Untraced records carry no layers, so a step is reported without
        # a layer to blame.
        hist = tmp_path / "history"
        for i in range(6):
            record_file(tmp_path, hist, e2e_record({"report": {"wall_s": 3.4 if i >= 3 else 2.4}}))
        capsys.readouterr()
        main(["bench", "trend", "--history", str(hist)])
        assert "first seen at run 4 (2.4 -> 3.4, +41.7%) — (no layer moved)" in (
            capsys.readouterr().out
        )
