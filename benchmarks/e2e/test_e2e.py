"""Tests of the end-to-end benchmark harness.

The tiny runs go through the same ``run_workload`` -> child-process path
as real runs, with parameters small enough for the whole module to take
a few seconds.
"""

from __future__ import annotations

import importlib
import json
import sys

import pytest

import run
from e2e_ledger import ENTRY_POINTS, PER_LAYER, EntryPoint, Ledger, SpanRecord, summarize
from e2e_workloads import END_TO_END, WORKLOADS

TINY = {
    "report": {"log2_nv": 12, "experiments": ["fig4", "fig5"]},
    # 2^16 packets in 2^12-packet chunks overflow a 1 MiB budget: it spills.
    "window-ooc": {
        "n_sources": 4000,
        "log2_windows": [16],
        "log2_chunk": 12,
        "mem_budget": 1 << 20,
    },
    "serve-stream": {
        "packets": 1 << 16,
        "batch": 1 << 10,
        "n_valid": 1 << 12,
        "cutoff": 1 << 10,
        "sources": 4096,
    },
}


@pytest.fixture(scope="module")
def tiny_runs():
    """One untraced and one traced repetition of each workload."""
    return {
        name: run.run_workload(name, 7, 0.0, True, params=params, min_reps=1)
        for name, params in TINY.items()
    }


def test_tiny_runs_are_correct(tiny_runs):
    assert set(tiny_runs) == set(WORKLOADS)
    for name, result in tiny_runs.items():
        assert result["correct"], name
        assert result["failed"] == 0 and result["attempted"] >= 1, name
        assert set(result["metrics"]) == set(END_TO_END), name
        for metric, m in result["metrics"].items():
            assert m["value"] > 0, (name, metric)


def test_traced_outputs_bit_identical(tiny_runs):
    # Report markdown (minus timestamp and timed sections), window
    # unique-row counts, serve's final overlap fractions.
    for name, result in tiny_runs.items():
        assert result["traced"]["digest"] == result["reps"][0]["digest"], name


def test_ledger_emits_every_layer_metric(tiny_runs):
    for name, result in tiny_runs.items():
        layers = result["layers"]
        assert list(layers) == list(PER_LAYER), name
        assert all(v is not None for v in layers.values()), name
    assert tiny_runs["window-ooc"]["layers"]["hypersparse.spills"] > 0
    assert tiny_runs["report"]["layers"]["experiments.fig4.wall_s"] > 0
    assert tiny_runs["serve-stream"]["layers"]["serve.CorrelationEngine.publish.calls"] > 0


def test_result_line_has_exactly_the_contract_keys(tiny_runs):
    result = tiny_runs["serve-stream"]
    for trace, names in ((False, END_TO_END), (True, PER_LAYER)):
        line = run.result_line([result], trace)
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert set(line["metrics"]) == set(names)


def test_self_time_over_two_threads():
    a, b = 1, 2
    root = SpanRecord("root", a, 0.0, 10.0)
    a1 = SpanRecord("x", a, 1.0, 4.0, parent=root)
    a2 = SpanRecord("y", a, 2.0, 3.0, parent=a1)
    a3 = SpanRecord("y", a, 5.0, 6.0, parent=root)
    # Thread b runs concurrently with its own stack; its spans never
    # subtract from thread a's.
    b_top = SpanRecord("x", b, 0.5, 8.5)
    b1 = SpanRecord("y", b, 1.0, 7.0, parent=b_top)
    agg = summarize([root, a1, a2, a3, b_top, b1])
    assert agg["root"]["self_s"] == pytest.approx(10 - 3 - 1)
    assert agg["x"]["calls"] == 2
    assert agg["x"]["self_s"] == pytest.approx((3 - 1) + (8 - 6))
    assert agg["x"]["wall_s"] == pytest.approx(3 + 8)
    assert agg["y"]["self_s"] == pytest.approx(1 + 1 + 6)


def _bindings():
    """Identity of every attribute the ledger could touch."""
    seen = {}
    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").startswith("repro"):
            seen.update({(mod.__name__, k): id(v) for k, v in vars(mod).items()})
    for ep in ENTRY_POINTS:
        *path, attr = ep.qualname.split(".")
        if path:
            owner = getattr(sys.modules[ep.module], path[0])
            seen[(ep.module, ep.qualname)] = id(vars(owner).get(attr))
    return seen


def test_wrappers_restore_every_original():
    import repro
    from repro.core import temporal
    from repro.serve import CorrelationEngine

    for ep in ENTRY_POINTS:
        importlib.import_module(ep.module)
    original = temporal.temporal_correlation
    before = _bindings()
    with Ledger().installed() as ledger:
        assert not ledger.missing
        assert temporal.temporal_correlation.__wrapped__ is original
        # ``from .core.temporal import temporal_correlation`` copies too.
        assert repro.temporal_correlation is temporal.temporal_correlation
        assert "publish" in vars(CorrelationEngine)
        assert _bindings() != before
    assert _bindings() == before


def test_missing_entry_point_is_null_with_warning():
    gone = (
        EntryPoint("repro.core.temporal", "no_such_function"),
        EntryPoint("repro.gone.module", "vanished"),
        EntryPoint("repro.core.temporal", "temporal_correlation", key=("t0", "bin")),
    )
    ledger = Ledger(gone)
    with pytest.warns(UserWarning, match="missing"):
        ledger.install()
    ledger.uninstall()
    metrics = ledger.metrics({})
    assert metrics["core.no_such_function.calls"] is None
    assert metrics["core.no_such_function.self_s"] is None
    assert metrics["gone.vanished.calls"] is None
    assert metrics["core.temporal_correlation.calls"] == 0.0


def test_benchmark_json_matches_the_harness():
    bench = json.loads(run.BENCHMARK_JSON.read_text())
    assert run.check(bench) == []
    broken = dict(bench, end_to_end=bench["end_to_end"][1:])
    assert any("setup_s" in p for p in run.check(broken))


def test_compare_gates_on_the_bounds(tmp_path):
    bench = json.loads(run.BENCHMARK_JSON.read_text())

    def result(wall):
        m = {"value": wall, "unit": "s", "n": 3, "samples": [wall] * 3}
        return {"workloads": {"report": {"metrics": {"wall_s": m}}}}

    a, same, slower = (tmp_path / n for n in ("a.json", "b.json", "c.json"))
    a.write_text(json.dumps(result(10.0)))
    same.write_text(json.dumps(result(10.5)))
    slower.write_text(json.dumps(result(13.0)))
    assert run.compare(a, same, bench) == 0
    assert run.compare(a, slower, bench) == 1
    assert run.compare(slower, a, bench) == 0
