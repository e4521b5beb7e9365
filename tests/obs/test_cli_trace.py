"""End-to-end: traced experiment runs and the ``repro trace`` subcommand."""

from __future__ import annotations

import pytest

from repro.cli import main
from repro.obs.sinks import read_trace


@pytest.fixture()
def traced_run(tmp_path, monkeypatch, capsys):
    """One small traced fig4 run; yields (exit code, trace path, stdout)."""
    monkeypatch.chdir(tmp_path)
    # The seed is unique to this module so the first traced run always
    # builds its study cold (the memo is process-wide).
    code = main(
        ["fig4", "--log2-nv", "12", "--sources", "800", "--seed", "91",
         "--no-checks", "--trace"]
    )
    out = capsys.readouterr().out
    return code, tmp_path / "trace.jsonl", out


def test_traced_experiment_exits_zero_and_writes_trace(traced_run):
    code, trace_path, out = traced_run
    assert code == 0
    assert trace_path.is_file()
    assert "trace summary" in out

    data = read_trace(trace_path)
    assert data.meta["command"].startswith("repro fig4")
    names = {s["name"] for s in data.spans}
    assert "experiment" in names
    assert "collect_months" in names
    assert data.counters["packets_ingested"] > 0
    assert data.counters["matrix_nnz"] > 0
    assert data.counters["study_cache_misses"] >= 1


def test_trace_out_names_the_file(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code = main(
        ["fig4", "--log2-nv", "12", "--sources", "800", "--seed", "5",
         "--no-checks", "--trace-out", "custom.jsonl"]
    )
    assert code == 0
    assert (tmp_path / "custom.jsonl").is_file()
    capsys.readouterr()


def test_trace_summarize_round_trip(traced_run, tmp_path, capsys):
    code, trace_path, _ = traced_run
    assert code == 0
    assert main(["trace", "summarize", str(trace_path)]) == 0
    out = capsys.readouterr().out
    assert "experiment fig=fig4" in out
    # Later runs in the same process hit the study memo, so the one
    # counter every traced run carries is the cache hit/miss pair.
    assert "study_cache" in out


def test_trace_summarize_chrome_export(traced_run, tmp_path, capsys):
    code, trace_path, _ = traced_run
    assert code == 0
    chrome = tmp_path / "chrome.json"
    assert main(["trace", "summarize", str(trace_path), "--chrome", str(chrome)]) == 0
    assert chrome.is_file()
    capsys.readouterr()


def test_trace_summarize_unwritable_chrome_path_exits_2(traced_run, tmp_path, capsys):
    code, trace_path, _ = traced_run
    assert code == 0
    chrome = tmp_path / "no-such-dir" / "chrome.json"
    assert main(["trace", "summarize", str(trace_path), "--chrome", str(chrome)]) == 2
    assert "repro trace: cannot write" in capsys.readouterr().err


def test_trace_summarize_malformed_file_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.jsonl"
    path.write_text("[1, 2]\n")
    assert main(["trace", "summarize", str(path)]) == 2
    assert "bad.jsonl:1" in capsys.readouterr().err


def test_trace_summarize_missing_file_fails(capsys):
    assert main(["trace", "summarize", "does-not-exist.jsonl"]) != 0
    capsys.readouterr()
