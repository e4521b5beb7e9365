"""History store: append -> load round trips, crash safety, corruption, pruning."""

import json

import pytest

from repro.bench import HISTORY_SCHEMA, load_history, machine_id, record_run

from .records import OBSERVE, TEMPORAL, e2e_record


def payload(wall=2.4, layers=None, machine=None, sha="abc123"):
    return e2e_record({"report": {"wall_s": wall}}, layers=layers, machine=machine, sha=sha)


class TestRecordRun:
    def test_append_creates_record_and_index(self, tmp_path):
        # The record file is the whole catalogue: one file per run, found
        # again by scanning the directory.
        hist = tmp_path / "history"
        path = record_run(hist, payload(), written="2026-01-01")
        assert path.exists()
        assert path.name.startswith("run-000001-abc123")
        assert [p.name for p in hist.iterdir()] == [path.name]
        record = json.loads(path.read_text())
        assert record["schema"] == HISTORY_SCHEMA
        assert record["written"] == "2026-01-01"
        assert [r.path for r in load_history(hist).runs] == [str(path)]

    def test_sequence_numbers_monotonic(self, tmp_path):
        hist = tmp_path / "history"
        for i in range(3):
            record_run(hist, payload(2.4 + i, sha=f"s{i}"))
        h = load_history(hist)
        assert [r.seq for r in h.runs] == [1, 2, 3]

    def test_metrics_counters_join_and_win(self, tmp_path):
        # Every (workload, metric) median and the traced ledger join into
        # one record; the median is stored, not the samples.
        hist = tmp_path / "history"
        record = e2e_record(
            {"report": {"wall_s": 2.4, "peak_rss_mb": 221.0}, "window-ooc": {"wall_s": 5.0}},
            layers={"report": {OBSERVE: 0.07, TEMPORAL: 0.15}},
        )
        record["workloads"]["report"]["metrics"]["wall_s"]["samples"] = [2.3, 2.4, 2.9]
        stored = json.loads(record_run(hist, record).read_text())
        assert stored["metrics"] == {
            "report/peak_rss_mb": 221.0,
            "report/wall_s": 2.4,
            "window-ooc/wall_s": 5.0,
        }
        assert stored["layers"] == {"report": {TEMPORAL: 0.15, OBSERVE: 0.07}}
        [run] = load_history(hist).runs
        assert run.layers["report"][OBSERVE] == 0.07

    def test_span_histograms_join_as_derived_counters(self, tmp_path):
        # The ledger's per-layer values are derived from the traced run's
        # spans; a layer it reported as null is left out, and an untraced
        # workload stores no layers.
        hist = tmp_path / "history"
        record = e2e_record(
            {"report": {"wall_s": 2.4}, "window-ooc": {"wall_s": 5.0}},
            layers={"report": {OBSERVE: 0.07, "serve.freeze_snapshot.self_s": None}},
        )
        stored = json.loads(record_run(hist, record).read_text())
        assert stored["layers"] == {"report": {OBSERVE: 0.07}}

    def test_failed_write_leaves_no_partial_record(self, tmp_path, monkeypatch):
        # Records go through a temp file, fsync and rename: a write that
        # dies before the rename leaves neither a record nor a temp file.
        hist = tmp_path / "history"
        record_run(hist, payload(sha="s0"))

        def crash(fd):
            raise OSError("disk full")

        monkeypatch.setattr("repro.bench.history.os.fsync", crash)
        with pytest.raises(OSError, match="disk full"):
            record_run(hist, payload(sha="s1"))
        assert [p.name[:10] for p in hist.iterdir()] == ["run-000001"]
        assert [r.sha for r in load_history(hist).runs] == ["s0"]

    def test_record_keyed_by_sha_and_machine(self, tmp_path):
        hist = tmp_path / "history"
        fingerprint = {"python": "3.12", "cpu_count": 4}
        path = record_run(hist, payload(machine=fingerprint, sha="feedface0123456789"))
        mid = machine_id(fingerprint)
        assert path.name == f"run-000001-feedface0123-{mid}.json"
        [run] = load_history(hist).runs
        assert (run.sha, run.machine) == ("feedface0123456789", mid)


class TestLoadHistory:
    def test_missing_directory_is_empty(self, tmp_path):
        h = load_history(tmp_path / "nope")
        assert len(h) == 0 and h.names() == []

    def test_round_trip_series(self, tmp_path):
        hist = tmp_path / "history"
        for i, m in enumerate([2.1, 2.2, 2.3]):
            record_run(hist, payload(m, sha=f"s{i}"))
        h = load_history(hist)
        seqs, vals = h.series("report/wall_s")
        assert list(seqs) == [1, 2, 3]
        assert list(vals) == [2.1, 2.2, 2.3]
        assert h.names() == ["report/wall_s"]

    def test_corrupt_record_skipped_with_warning(self, tmp_path):
        # A record truncated mid-write is skipped with a warning naming
        # the file; the runs around it still load.
        hist = tmp_path / "history"
        for i in range(3):
            record_run(hist, payload(2.4 + i, sha=f"good{i}"))
        torn = next(iter(hist.glob("run-000002-*.json")))
        text = torn.read_text(encoding="utf-8")
        torn.write_text(text[: len(text) // 2], encoding="utf-8")
        with pytest.warns(UserWarning, match=f"corrupt record {torn.name}"):
            h = load_history(hist)
        assert [r.seq for r in h.runs] == [1, 3]

    def test_survives_missing_index(self, tmp_path):
        # No catalogue file exists to lose: the runs load from a scan,
        # ordered by sequence number.
        hist = tmp_path / "history"
        for i in range(2):
            record_run(hist, payload(2.4 + i, sha=f"s{i}"))
        assert sorted(p.name[:10] for p in hist.iterdir()) == ["run-000001", "run-000002"]
        h = load_history(hist)
        assert [r.seq for r in h.runs] == [1, 2]

    def test_unreadable_index_falls_back_to_scan(self, tmp_path):
        # Files that are not run records are never read: an unreadable
        # leftover catalogue, or the temp file of an interrupted write.
        hist = tmp_path / "history"
        path = record_run(hist, payload())
        (hist / "catalogue.json").write_text("[not json", encoding="utf-8")
        (hist / (path.name.replace("000001", "000002") + ".tmp")).write_text("{", encoding="utf-8")
        h = load_history(hist)
        assert len(h) == 1

    def test_newer_history_schema_skipped(self, tmp_path):
        hist = tmp_path / "history"
        record_run(hist, payload())
        record = {
            "schema": HISTORY_SCHEMA + 1,
            "seq": 2,
            "sha": "s1",
            "machine_id": "m",
            "written": "",
            "metrics": {},
            "layers": {},
        }
        (hist / "run-000002-s1-m.json").write_text(json.dumps(record))
        with pytest.warns(UserWarning, match=f"history schema {HISTORY_SCHEMA + 1}"):
            h = load_history(hist)
        assert [r.seq for r in h.runs] == [1]


class TestRebuildIndex:
    def test_compaction_after_pruning(self, tmp_path):
        # Pruning is deleting record files; nothing else needs rebuilding,
        # and the next record continues after the highest sequence number.
        hist = tmp_path / "history"
        paths = [record_run(hist, payload(2.4 + i, sha=f"s{i}")) for i in range(3)]
        paths[1].unlink()
        assert [r.seq for r in load_history(hist).runs] == [1, 3]
        record_run(hist, payload(sha="s3"))
        assert [r.seq for r in load_history(hist).runs] == [1, 3, 4]

    def test_rebuild_warns_on_corrupt_record(self, tmp_path):
        # A record of the old pytest-benchmark layout (schema 1, restored
        # from an old cache) is skipped with a warning, not misread.
        hist = tmp_path / "history"
        record_run(hist, payload())
        legacy = {"schema": 1, "seq": 9, "sha": "old", "machine_id": "x",
                  "benchmarks": {"bench_x::test_a": {"wall_median_s": 0.1}},
                  "counters": {}}
        (hist / "run-000009-old-x.json").write_text(json.dumps(legacy), encoding="utf-8")
        with pytest.warns(UserWarning, match="run-000009-old-x.json"):
            assert len(load_history(hist)) == 1
