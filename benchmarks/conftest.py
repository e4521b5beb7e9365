"""Benchmark-session fixtures.

The study is built once per session at benchmark scale (env
``REPRO_LOG2_NV``, default 2^18 against the paper's 2^30) and shared by
every experiment benchmark.  Experiment outputs are written to
``benchmarks/output/<name>.txt`` so the regenerated tables/series can be
inspected — and diffed against EXPERIMENTS.md — after a run.

Every session additionally runs with metrics-only observability on
(:func:`repro.obs.enable_metrics` — counters without span recording, so
timings are not perturbed) and writes ``benchmarks/output/metrics.json``
at exit: the process-wide counter/gauge/histogram snapshot,
per-benchmark wall durations, and peak RSS (CI uploads it as a run
artifact).  Speed is measured end to end by ``benchmarks/e2e/run.py``,
not here; see ``docs/PERFORMANCE.md``.
"""

from __future__ import annotations

import resource
import sys
from pathlib import Path

import pytest

from repro.bench import machine_fingerprint
from repro.experiments import build_study, format_checks
from repro.obs import enable_metrics, export_snapshot, snapshot

OUTPUT_DIR = Path(__file__).parent / "output"
METRICS_FILE = OUTPUT_DIR / "metrics.json"

_durations: dict = {}
_metrics: dict = {}


def pytest_configure(config):
    """Record counters for the whole benchmark session."""
    enable_metrics(True)


def pytest_runtest_logreport(report):
    """Collect per-benchmark wall durations (call phase only).

    The metric snapshot is refreshed after every benchmark rather than at
    session end: in a combined tests+benchmarks session the test suite's
    isolation fixtures reset the registry after the benchmarks have run.
    """
    if report.when == "call" and report.nodeid.startswith("benchmarks/"):
        _durations[report.nodeid] = round(report.duration, 6)
        _metrics.clear()
        _metrics.update(snapshot())


def pytest_sessionfinish(session, exitstatus):
    """Persist the metrics snapshot for dashboards and CI artifacts."""
    OUTPUT_DIR.mkdir(exist_ok=True)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    live = _metrics or snapshot()
    export_snapshot(
        METRICS_FILE,
        extra={
            "python": sys.version.split()[0],
            "platform": machine_fingerprint()["platform"],
            "exitstatus": int(exitstatus),
            "max_rss_kb": rss_kb,
            "durations_s": dict(sorted(_durations.items())),
            **live,
        },
    )


@pytest.fixture(scope="session")
def study():
    """The shared benchmark-scale correlation study."""
    return build_study()


@pytest.fixture(scope="session")
def report():
    """Writer: persist an experiment's table and checks, assert the checks."""

    def _report(name: str, result) -> None:
        OUTPUT_DIR.mkdir(exist_ok=True)
        checks = result.checks()
        text = result.format() + "\n\n" + format_checks(checks) + "\n"
        (OUTPUT_DIR / f"{name}.txt").write_text(text, encoding="utf-8")
        failing = [c for c in checks if not c.ok]
        assert not failing, f"{name}: " + "; ".join(c.claim for c in failing)

    return _report
