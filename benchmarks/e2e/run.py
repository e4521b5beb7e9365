"""End-to-end benchmark driver with an outside-in per-layer ledger.

Run from the root of the checkout::

    python benchmarks/e2e/run.py [--workload NAME]... [--seed S] [--seconds N]
                                 [--trace [0|1]] [--out FILE]
    python benchmarks/e2e/run.py --compare A.json B.json
    python benchmarks/e2e/run.py --check

Each repetition runs in a fresh child process (``e2e_workloads.py``)
with ``PYTHONPATH=src`` and ``REPRO_PROCESSES=min(2, nproc)``; every
other ``REPRO_*`` variable is removed so ambient settings cannot change
what is measured.  Repetitions repeat until ``--seconds`` is spent (at
least three).  The driver prints ``workload metric value unit n`` for
every metric, writes the full record to ``--out``, and prints one JSON
result line last.  With ``--trace 1`` one more, traced repetition per
workload yields the per-layer ledger instead of the end-to-end metrics.

``--compare`` checks two result files against the bounds in
``BENCHMARK.json``; ``--check`` validates ``BENCHMARK.json`` against
the harness without running a workload.  See ``README.md`` here.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import numpy as np

from e2e_ledger import PER_LAYER
from e2e_workloads import END_TO_END, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BENCHMARK_JSON = ROOT / "BENCHMARK.json"
OUT_DIR = HERE / "out"
CHILD = HERE / "e2e_workloads.py"

#: The seed EXPERIMENTS.md checks.
DEFAULT_SEED = 20220101
#: Fewest untraced repetitions per workload, whatever ``--seconds`` says.
MIN_REPS = 3
#: One workload's run ends within this many seconds; children are killed past it.
RUN_LIMIT_S = 170.0
#: Percentile of the pooled operation latencies behind each ``op_*`` metric.
OP_QUANTILES = {"op_p50_ms": 50, "op_p90_ms": 90}

_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
_UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


class RepetitionError(RuntimeError):
    """A child repetition failed or printed no result."""


# -- running repetitions --------------------------------------------------------


def child_env() -> Dict[str, str]:
    """The child environment: no ambient ``REPRO_*`` knobs, this ``src/``."""
    env = {
        k: v
        for k, v in os.environ.items()
        if not k.startswith("REPRO_") and k != "PYTHONPATH"
    }
    tmp = OUT_DIR / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env.update(
        PYTHONPATH=str(ROOT / "src"),
        REPRO_PROCESSES=str(min(2, os.cpu_count() or 1)),
        TMPDIR=str(tmp),
    )
    return env


def _group_alive(pgid: int) -> bool:
    """True while a process of the group runs (zombies have ended)."""
    try:
        os.killpg(pgid, 0)
    except ProcessLookupError:
        return False
    proc = Path("/proc")
    if not proc.is_dir():
        return True
    for stat in proc.glob("[0-9]*/stat"):
        try:
            state, _, pgrp = stat.read_text().rsplit(")", 1)[1].split()[:3]
        except (OSError, ValueError):
            continue
        if int(pgrp) == pgid and state != "Z":
            return True
    return False


def _reap_group(pgid: int, grace_s: float = 2.0) -> None:
    """Wait for the child's process group (pool workers, trackers) to end."""
    for sig in (None, signal.SIGKILL):
        if sig is not None:
            try:
                os.killpg(pgid, sig)
            except ProcessLookupError:
                return
        deadline = time.monotonic() + grace_s
        while time.monotonic() < deadline:
            if not _group_alive(pgid):
                return
            time.sleep(0.02)


def spawn(
    workload: str,
    seed: int,
    trace: bool,
    *,
    params: Optional[dict] = None,
    timeout: float = RUN_LIMIT_S,
) -> dict:
    """Run one repetition in a fresh process; return its JSON record."""
    cmd = [
        sys.executable,
        str(CHILD),
        workload,
        "--seed",
        str(seed),
        "--trace",
        str(int(trace)),
        "--params",
        json.dumps(params or {}),
    ]
    spawned_at = time.monotonic()
    proc = subprocess.Popen(
        cmd + ["--spawned-at", repr(spawned_at)],
        cwd=ROOT,
        env=child_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RepetitionError(f"{workload}: repetition exceeded {timeout:.0f} s")
    finally:
        _reap_group(proc.pid)
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = "\n".join(err.strip().splitlines()[-15:])
        raise RepetitionError(
            f"{workload}: repetition exited {proc.returncode}\n{tail}"
        )
    return json.loads(lines[-1])


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    *,
    params: Optional[dict] = None,
    min_reps: int = MIN_REPS,
) -> dict:
    """Untraced repetitions for ``seconds`` (then one traced, if asked)."""
    t0 = time.monotonic()
    reps: List[dict] = []
    while True:
        t = time.monotonic()
        limit = RUN_LIMIT_S - (t - t0)
        reps.append(spawn(name, seed, False, params=params, timeout=limit))
        took = time.monotonic() - t
        left = seconds - (time.monotonic() - t0)
        if trace:
            left -= 1.2 * took  # room for the traced repetition
        if len(reps) >= min_reps and took > left:
            break
    traced = None
    if trace:
        limit = RUN_LIMIT_S - (time.monotonic() - t0)
        traced = spawn(name, seed, True, params=params, timeout=limit)
    return summarize_workload(name, reps, traced)


def _percentile(values: Sequence[float], q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def summarize_workload(name: str, reps: List[dict], traced: Optional[dict]) -> dict:
    """Aggregate repetition records into end-to-end and per-layer metrics."""
    per_rep = {
        "setup_s": [r["setup_s"] for r in reps],
        "wall_s": [r["wall_s"] for r in reps],
        "peak_rss_mb": [r["peak_rss_mb"] for r in reps],
        "packets_per_s": [r["packets"] / r["wall_s"] / 1e6 for r in reps],
        **{m: [_percentile(r["ops_ms"], q) for r in reps] for m, q in OP_QUANTILES.items()},
    }
    # Operation latencies pool over repetitions; the rest are medians.
    pooled = [x for r in reps for x in r["ops_ms"]]
    metrics = {}
    for metric, (unit, _) in END_TO_END.items():
        if metric in OP_QUANTILES:
            value, n = _percentile(pooled, OP_QUANTILES[metric]), len(pooled)
        else:
            value, n = statistics.median(per_rep[metric]), len(reps)
        metrics[metric] = {"value": value, "unit": unit, "n": n, "samples": per_rep[metric]}

    everyone = reps + ([traced] if traced else [])
    attempted = sum(r["attempted"] for r in everyone) + 1
    # The extra check: every repetition of one seed, traced or not,
    # produced bit-identical outputs.
    failed = sum(r["failed"] for r in everyone) + int(
        len({r["digest"] for r in everyone}) != 1
    )
    layers = None
    if traced is not None:
        layers = dict(traced["layers"])
        untraced = statistics.median(per_rep["wall_s"])
        layers["trace.overhead_frac"] = traced["wall_s"] / untraced - 1.0
    return {
        "workload": name,
        "metrics": metrics,
        "layers": layers,
        "attempted": attempted,
        "failed": failed,
        "correct": failed == 0,
        "reps": reps,
        "traced": traced,
    }


# -- reporting --------------------------------------------------------------------


def _git_sha() -> Optional[str]:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def print_table(result: dict, trace: bool) -> None:
    """One ``workload metric value unit n`` line per metric."""
    name = result["workload"]
    for metric, m in result["metrics"].items():
        print(f"{name:<13} {metric:<40} {m['value']:>14.6g} {m['unit']:<9} n={m['n']}")
    if trace:
        for metric, value in result["layers"].items():
            shown = "null" if value is None else f"{value:.6g}"
            print(f"{name:<13} {metric:<40} {shown:>14} {PER_LAYER[metric][0]:<9} n=1")
    print(
        f"{name:<13} {'error_rate':<40} {result['failed'] / result['attempted']:>14.6g} "
        f"{'fraction':<9} n={result['attempted']}"
    )
    for note, value in result["reps"][0]["notes"].items():
        print(f"{name:<13} {'note.' + note:<40} {value:>14.6g}")


def result_line(results: List[dict], trace: bool) -> dict:
    """The last stdout line: ``correct``, ``attempted``, ``failed``, ``metrics``."""
    metrics = {}
    for r in results:
        prefix = "" if len(results) == 1 else f"{r['workload']}:"
        if trace:
            for metric, value in r["layers"].items():
                metrics[prefix + metric] = {"value": value, "unit": PER_LAYER[metric][0]}
        else:
            for metric, m in r["metrics"].items():
                metrics[prefix + metric] = {"value": m["value"], "unit": m["unit"]}
    return {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }


# -- --compare ----------------------------------------------------------------------


def _spread(samples: Sequence[float]) -> float:
    """Interquartile distance over the median (0 with fewer than 2 samples)."""
    if len(samples) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(samples, n=4)
    med = statistics.median(samples)
    return (q3 - q1) / med if med else 0.0


def compare(path_a: Path, path_b: Path, bench: dict) -> int:
    """Print both sets' medians per (workload, metric); 1 if B is worse past a bound."""
    a = json.loads(Path(path_a).read_text())
    b = json.loads(Path(path_b).read_text())
    declared = {m["name"]: m for m in bench["end_to_end"]}
    outside = 0
    print(f"{'workload':<13} {'metric':<16} {'A':>12} {'spread':>7} {'B':>12} "
          f"{'spread':>7} {'worse':>8} {'bound':>6}  verdict")
    for name in sorted(set(a["workloads"]) & set(b["workloads"])):
        ma, mb = a["workloads"][name]["metrics"], b["workloads"][name]["metrics"]
        for metric in [m for m in declared if m in ma and m in mb]:
            va, vb = ma[metric]["value"], mb[metric]["value"]
            sign = 1.0 if declared[metric]["better"] == "lower" else -1.0
            worse = sign * (vb - va) / va
            bound = declared[metric]["bound"]
            ok = worse <= bound
            outside += not ok
            print(
                f"{name:<13} {metric:<16} {va:>12.6g} {_spread(ma[metric]['samples']):>6.1%} "
                f"{vb:>12.6g} {_spread(mb[metric]['samples']):>6.1%} {worse:>+8.1%} "
                f"{bound:>6.0%}  {'within' if ok else 'OUTSIDE'}"
            )
    print(f"{outside} (workload, metric) pair(s) outside their bound")
    return 1 if outside else 0


# -- --check ----------------------------------------------------------------------


def check(bench: dict) -> List[str]:
    """Problems with ``BENCHMARK.json`` against this harness (empty = valid)."""
    problems: List[str] = []
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    if set(bench) != keys:
        problems.append(f"top-level keys {sorted(bench)} != {sorted(keys)}")
    run_s = bench.get("run_seconds")
    if not isinstance(run_s, int) or not 1 <= run_s <= 60:
        problems.append(f"run_seconds {run_s!r} is not a whole number in 1..60")

    def entries(section: str, fields: set, lo: int, hi: int) -> List[dict]:
        items = bench.get(section, [])
        if not lo <= len(items) <= hi:
            problems.append(f"{section}: {len(items)} entries, want {lo}..{hi}")
        for item in items:
            if set(item) != fields:
                problems.append(f"{section}: {item.get('name')!r} keys {sorted(item)}")
        return items

    workloads = entries("workloads", {"name", "why"}, 2, 8)
    e2e = entries("end_to_end", {"name", "unit", "better", "bound"}, 1, 16)
    layers = entries("per_layer", {"name", "unit", "better"}, 1, 128)

    names = [x.get("name", "") for x in workloads + e2e + layers]
    problems += [f"bad name {n!r}" for n in names if not _NAME.match(str(n))]
    problems += [f"name {n!r} used twice" for n in sorted(set(names)) if names.count(n) > 1]
    for w in workloads:
        why = str(w.get("why", ""))
        if not why or "\n" in why or len(why) > 200:
            problems.append(f"workload {w.get('name')!r}: why must be one line of 1..200")
    for m in e2e + layers:
        if not _UNIT.match(str(m.get("unit", ""))):
            problems.append(f"metric {m.get('name')!r}: bad or missing unit")
        if m.get("better") not in ("lower", "higher"):
            problems.append(f"metric {m.get('name')!r}: better must be lower|higher")
    for m in e2e:
        bound = m.get("bound")
        if not isinstance(bound, (int, float)) or not 0 < bound <= 0.25:
            problems.append(f"metric {m.get('name')!r}: bound {bound!r} not in (0, 0.25]")

    def same(section: str, declared: Dict[str, str], emitted: Dict[str, str]) -> None:
        for n in sorted(set(emitted) - set(declared)):
            problems.append(f"{section}: harness emits undeclared {n!r}")
        for n in sorted(set(declared) - set(emitted)):
            problems.append(f"{section}: declared {n!r} is never emitted")
        for n in sorted(set(declared) & set(emitted)):
            if declared[n] != emitted[n]:
                problems.append(f"{section}: {n!r} is {declared[n]}, harness says {emitted[n]}")

    same("workloads", {w.get("name"): "" for w in workloads}, {n: "" for n in WORKLOADS})
    same(
        "end_to_end",
        {m.get("name"): f"{m.get('unit')}/{m.get('better')}" for m in e2e},
        {n: f"{u}/{b}" for n, (u, b) in END_TO_END.items()},
    )
    same(
        "per_layer",
        {m.get("name"): f"{m.get('unit')}/{m.get('better')}" for m in layers},
        {n: f"{u}/{b}" for n, (u, b) in PER_LAYER.items()},
    )
    setup = next((m for m in e2e if m.get("name") == "setup_s"), None)
    if setup is None or setup.get("unit") != "s" or setup.get("better") != "lower":
        problems.append("end_to_end must declare setup_s in s, lower is better")
    elif any(m.get("bound", 0) > setup.get("bound", 0) for m in e2e):
        problems.append("setup_s must carry the largest bound")
    for p in bench.get("paths", []):
        if not (ROOT / p).is_dir():
            problems.append(f"path {p!r} is not a directory")
    return problems


# -- main ---------------------------------------------------------------------------


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Command-line entry point."""
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append", choices=sorted(WORKLOADS),
                    help="workload to run (repeatable; default: all)")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED, help="input seed")
    ap.add_argument("--seconds", type=float, default=None,
                    help="measuring time per workload (default: BENCHMARK.json run_seconds)")
    ap.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                    help="add one traced repetition and report the per-layer ledger")
    ap.add_argument("--out", type=Path, default=OUT_DIR / "last.json",
                    help="where to write the full JSON record")
    ap.add_argument("--compare", nargs=2, type=Path, metavar=("A", "B"),
                    help="compare two --out files against the BENCHMARK.json bounds")
    ap.add_argument("--check", action="store_true",
                    help="validate BENCHMARK.json against the harness and exit")
    ns = ap.parse_args(argv)

    if not BENCHMARK_JSON.is_file():
        print(f"no {BENCHMARK_JSON}", file=sys.stderr)
        return 2
    bench = json.loads(BENCHMARK_JSON.read_text())
    if ns.check or ns.compare:
        if ns.compare:
            return compare(ns.compare[0], ns.compare[1], bench)
        problems = check(bench)
        for p in problems:
            print(f"BENCHMARK.json: {p}")
        print("BENCHMARK.json: ok" if not problems else f"{len(problems)} problem(s)")
        return 1 if problems else 0

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no repro source tree under {ROOT / 'src'}", file=sys.stderr)
        return 2
    seconds = ns.seconds if ns.seconds is not None else float(bench["run_seconds"])
    results = []
    try:
        for name in ns.workload or list(WORKLOADS):
            result = run_workload(name, ns.seed, seconds, bool(ns.trace))
            print_table(result, bool(ns.trace))
            results.append(result)
    except RepetitionError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(OUT_DIR / "tmp", ignore_errors=True)

    machine = next((r["reps"][0].get("machine") for r in results), None)
    record = {
        "schema": 1,
        "git_sha": _git_sha(),
        "machine": machine,
        "seed": ns.seed,
        "seconds": seconds,
        "trace": ns.trace,
        "workloads": {r["workload"]: r for r in results},
    }
    ns.out.parent.mkdir(parents=True, exist_ok=True)
    ns.out.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result_line(results, bool(ns.trace))), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
