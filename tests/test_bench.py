"""The bench job's two halves: record validation and the regression gate.

``repro bench record`` accepts only a well-formed ``run.py --out`` record
of a correct run (:func:`repro.bench.load_record`).  The gate is
``benchmarks/e2e/run.py --compare``: it fails when a change is worse than
its parent on any (workload, end-to-end metric) pair by more than that
metric's bound in ``BENCHMARK.json``.
"""

import json
import sys
from pathlib import Path

import pytest

from repro.bench import RECORD_SCHEMA, load_record
from repro.cli import main

from .bench.records import e2e_record, write_record

E2E = Path(__file__).resolve().parents[1] / "benchmarks" / "e2e"


@pytest.fixture(scope="module")
def gate():
    """``benchmarks/e2e/run.py`` as a module, and its BENCHMARK.json bounds."""
    sys.path.insert(0, str(E2E))
    try:
        import run
    finally:
        sys.path.remove(str(E2E))
    return run, json.loads(run.BENCHMARK_JSON.read_text())


class TestLoadResults:
    def test_round_trip(self, tmp_path):
        p = write_record(tmp_path / "r.json", {"report": {"wall_s": 2.4}})
        data = load_record(p)
        assert data["workloads"]["report"]["metrics"]["wall_s"]["value"] == 2.4

    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            load_record(tmp_path / "nope.json")

    def test_invalid_json_raises(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json", encoding="utf-8")
        with pytest.raises(ValueError, match="not valid JSON"):
            load_record(p)

    def test_wrong_schema_raises(self, tmp_path):
        p = write_record(tmp_path / "r.json", {"report": {"wall_s": 2.4}}, schema=0)
        with pytest.raises(ValueError, match="schema"):
            load_record(p)

    def test_schema_1_still_accepted(self, tmp_path):
        # Schema 1 is what benchmarks/e2e/run.py writes.
        assert RECORD_SCHEMA == 1
        p = write_record(tmp_path / "r.json", {"report": {"wall_s": 2.4}}, schema=1)
        assert load_record(p)["schema"] == 1

    def test_future_schema_rejected_with_upgrade_message(self, tmp_path):
        p = write_record(
            tmp_path / "r.json", {"report": {"wall_s": 2.4}}, schema=RECORD_SCHEMA + 1
        )
        with pytest.raises(ValueError, match="newer than this reader"):
            load_record(p)

    def test_non_integer_schema_rejected(self, tmp_path):
        p = write_record(tmp_path / "r.json", {"report": {"wall_s": 2.4}}, schema="1")
        with pytest.raises(ValueError, match="unsupported"):
            load_record(p)

    def test_missing_median_raises(self, tmp_path):
        record = e2e_record({"report": {"wall_s": 2.4}})
        del record["workloads"]["report"]["metrics"]["wall_s"]["value"]
        p = tmp_path / "r.json"
        p.write_text(json.dumps(record), encoding="utf-8")
        with pytest.raises(ValueError, match="report/wall_s lacks a numeric 'value'"):
            load_record(p)


def write(tmp_path, name, metrics):
    return write_record(tmp_path / name, metrics)


class TestCompareResults:
    def test_within_tolerance_is_ok(self, gate, tmp_path, capsys):
        run, bench = gate
        a = write(tmp_path, "a.json", {"report": {"wall_s": 2.0}})
        b = write(tmp_path, "b.json", {"report": {"wall_s": 2.1}})
        assert run.compare(a, b, bench) == 0
        assert "within" in capsys.readouterr().out

    def test_slowdown_beyond_tolerance_regresses(self, gate, tmp_path, capsys):
        run, bench = gate
        a = write(tmp_path, "a.json", {"report": {"wall_s": 2.0}})
        b = write(tmp_path, "b.json", {"report": {"wall_s": 2.6}})
        assert run.compare(a, b, bench) == 1
        [row] = [x for x in capsys.readouterr().out.splitlines() if x.startswith("report")]
        assert "+30.0%" in row and row.endswith("OUTSIDE")

    def test_speedup_beyond_tolerance_is_improved(self, gate, tmp_path):
        # Better by any margin never fails, whichever way "better" points.
        run, bench = gate
        a = write(tmp_path, "a.json", {"report": {"wall_s": 2.0, "packets_per_s": 1.0}})
        b = write(tmp_path, "b.json", {"report": {"wall_s": 1.0, "packets_per_s": 2.0}})
        assert run.compare(a, b, bench) == 0
        assert run.compare(b, a, bench) == 1

    def test_missing_sides_never_fail(self, gate, tmp_path, capsys):
        run, bench = gate
        a = write(tmp_path, "a.json", {"report": {"wall_s": 2.0}, "window-ooc": {"wall_s": 5.0}})
        b = write(tmp_path, "b.json", {"report": {"wall_s": 2.0}, "serve-stream": {"wall_s": 9.0}})
        assert run.compare(a, b, bench) == 0
        rows = [x.split()[0] for x in capsys.readouterr().out.splitlines()[1:-1]]
        assert rows == ["report"]

    def test_new_benchmarks_reported_with_note(self, gate, tmp_path, capsys):
        # A metric only one side measured is not compared; the summary
        # line still reports the verdict.
        run, bench = gate
        a = write(tmp_path, "a.json", {"report": {"wall_s": 2.0}})
        b = write(tmp_path, "b.json", {"report": {"wall_s": 2.0, "setup_s": 1.0}})
        assert run.compare(a, b, bench) == 0
        out = capsys.readouterr().out.splitlines()
        assert [x.split()[1] for x in out[1:-1]] == ["wall_s"]
        assert out[-1] == "0 (workload, metric) pair(s) outside their bound"

    def test_negative_tolerance_rejected(self, gate):
        run, bench = gate
        broken = json.loads(json.dumps(bench))
        broken["end_to_end"][1]["bound"] = -0.1
        assert any("not in (0, 0.25]" in p for p in run.check(broken))

    def test_format_mentions_regressions(self, gate, tmp_path, capsys):
        run, bench = gate
        a = write(tmp_path, "a.json", {"report": {"wall_s": 2.0, "peak_rss_mb": 200.0}})
        b = write(tmp_path, "b.json", {"report": {"wall_s": 4.0, "peak_rss_mb": 400.0}})
        assert run.compare(a, b, bench) == 1
        out = capsys.readouterr().out
        assert out.count("OUTSIDE") == 2
        assert "2 (workload, metric) pair(s) outside their bound" in out
        assert run.compare(a, a, bench) == 0
        assert "0 (workload, metric) pair(s)" in capsys.readouterr().out


class TestBenchCompareCli:
    def test_clean_comparison_exits_zero(self, gate, tmp_path, capsys):
        run, _ = gate
        base = write(tmp_path, "base.json", {"report": {"wall_s": 2.0}})
        head = write(tmp_path, "head.json", {"report": {"wall_s": 2.04}})
        assert run.main(["--compare", str(base), str(head)]) == 0
        assert "0 (workload, metric) pair(s)" in capsys.readouterr().out

    def test_synthetic_regression_exits_nonzero(self, gate, tmp_path, capsys):
        run, _ = gate
        base = write(tmp_path, "base.json", {"report": {"wall_s": 2.0}, "window-ooc": {"wall_s": 4.0}})
        head = write(tmp_path, "head.json", {"report": {"wall_s": 2.0}, "window-ooc": {"wall_s": 6.0}})
        assert run.main(["--compare", str(base), str(head)]) == 1
        assert "OUTSIDE" in capsys.readouterr().out

    def test_tolerance_flag_waives_regression(self, gate, tmp_path):
        # Each metric carries its own bound: +20% is within wall_s's 0.25
        # but outside peak_rss_mb's 0.15.
        run, _ = gate
        base = write(tmp_path, "base.json", {"report": {"wall_s": 2.0, "peak_rss_mb": 200.0}})
        wall = write(tmp_path, "wall.json", {"report": {"wall_s": 2.4, "peak_rss_mb": 200.0}})
        rss = write(tmp_path, "rss.json", {"report": {"wall_s": 2.0, "peak_rss_mb": 240.0}})
        assert run.main(["--compare", str(base), str(wall)]) == 0
        assert run.main(["--compare", str(base), str(rss)]) == 1

    def test_unreadable_file_exits_two(self, tmp_path, capsys):
        # The bench job records head.json after the gate: a missing file
        # stops it with exit 2 and the file named.
        missing = tmp_path / "missing.json"
        assert main(["bench", "record", str(missing), "--history", str(tmp_path / "h")]) == 2
        assert str(missing) in capsys.readouterr().err

    def test_malformed_file_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("[]", encoding="utf-8")
        assert main(["bench", "record", str(bad), "--history", str(tmp_path / "h")]) == 2
        err = capsys.readouterr().err
        assert "repro bench" in err and str(bad) in err and "expected a JSON object" in err
