"""Command-line interface: run any experiment from the shell.

::

    repro list                      # available experiments
    repro fig4                      # run one experiment, print its table
    repro all                       # run everything
    repro fig5 --log2-nv 16 --seed 7
    repro lint                      # static analysis (see repro.analysis)
    repro fig5 --trace-out t.jsonl  # run traced, write JSON-lines trace
    repro trace summarize t.jsonl   # span table / flame view of a trace
    repro serve smoke               # streaming service under concurrent readers
    repro bench record FILE         # append an e2e run record to the history
    repro bench trend               # change points and the layers that moved

Exit status is non-zero when any shape check fails, so the CLI doubles as
a reproduction smoke test in CI.

``--trace`` (or ``--trace-out FILE``, or the ``REPRO_TRACE=1``
environment flag) records spans and counters via :mod:`repro.obs` while
the experiments run, writes the JSON-lines trace file and prints the
span summary at the end of the run.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .experiments import EXPERIMENTS, build_study, default_config, format_checks
from .obs import span

__all__ = ["main"]

#: Where ``--trace`` writes its events unless ``--trace-out`` says otherwise.
DEFAULT_TRACE_FILE = "trace.jsonl"


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduce tables and figures from 'Temporal Correlation of "
            "Internet Observatories and Outposts' (Kepner et al., 2022) "
            "on a synthetic Internet."
        ),
    )
    p.add_argument(
        "experiment",
        help="experiment name (see 'repro list'), 'all', 'report', 'lint', or 'list'",
    )
    p.add_argument(
        "-o",
        "--output",
        default=None,
        help="for 'report': write the markdown report to this file "
        "(default: print to stdout)",
    )
    p.add_argument(
        "--log2-nv",
        type=int,
        default=None,
        help="log2 of the telescope window size N_V (default: env "
        "REPRO_LOG2_NV or 18; the paper used 30)",
    )
    p.add_argument(
        "--nv",
        default=None,
        metavar="N",
        help="window size N_V as a power of two — '2**30' or '1073741824' — "
        "an alternative spelling of --log2-nv for paper-scale runs",
    )
    p.add_argument(
        "--mem-budget",
        default=None,
        metavar="BYTES",
        help="accumulator memory ceiling (e.g. 512M, 4G) for the "
        "out-of-core scaling path; implies --out-of-core "
        "(default: env REPRO_MEM_BUDGET)",
    )
    p.add_argument(
        "--out-of-core",
        action="store_true",
        help="run 'scaling' via sharded out-of-core window assembly "
        "(spill-to-disk accumulation; see docs/PERFORMANCE.md)",
    )
    p.add_argument(
        "--samples",
        type=int,
        default=None,
        metavar="N",
        help="out-of-core scaling: sweep only the largest N window sizes "
        "(the paper's five-sample 2^30 runs)",
    )
    p.add_argument(
        "--sources",
        type=int,
        default=None,
        help="population size (default scales with the window)",
    )
    p.add_argument("--seed", type=int, default=None, help="master seed")
    p.add_argument(
        "--no-checks",
        action="store_true",
        help="skip the paper-claim shape checks",
    )
    p.add_argument(
        "--plot",
        action="store_true",
        help="render the figure as a terminal plot where available",
    )
    p.add_argument(
        "--trace",
        action="store_true",
        help="record spans/counters while running; write "
        f"{DEFAULT_TRACE_FILE} and print the span summary",
    )
    p.add_argument(
        "--trace-out",
        default=None,
        metavar="FILE",
        help="like --trace, writing the JSON-lines trace to FILE",
    )
    return p


def _parse_nv(text: str) -> int:
    """``--nv`` values: ``2**30`` or a plain power-of-two integer -> log2."""
    raw = text.strip().replace(" ", "")
    if raw.startswith("2**"):
        return int(raw[3:])
    nv = int(raw)
    if nv <= 0 or nv & (nv - 1):
        raise ValueError(f"--nv must be a power of two, got {text!r}")
    return nv.bit_length() - 1


def _run_one(name: str, study, show_checks: bool, show_plot: bool, runner=None) -> bool:
    module = EXPERIMENTS[name]
    with span("experiment", fig=name):
        result = module.run(study) if runner is None else runner(study)
    print(f"=== {name} ===")
    print(result.format())
    if show_plot and hasattr(module, "plot"):
        print()
        print(module.plot(result))
    ok = True
    if show_checks:
        checks = result.checks()
        print(format_checks(checks))
        ok = all(c.ok for c in checks)
    print()
    return ok


def _trace_main(argv: List[str]) -> int:
    """The ``repro trace`` subcommand (summarize recorded trace files)."""
    from .obs import format_summary, read_trace, write_chrome_trace

    p = argparse.ArgumentParser(
        prog="repro trace", description="Inspect recorded trace files."
    )
    sub = p.add_subparsers(dest="command", required=True)
    s = sub.add_parser("summarize", help="print span table, flame view, counters")
    s.add_argument("file", help="JSON-lines trace written by --trace[-out]")
    s.add_argument(
        "--top", type=int, default=12, help="bar-profile rows (default 12)"
    )
    s.add_argument(
        "--chrome",
        default=None,
        metavar="FILE",
        help="also convert to a Chrome trace_event file (chrome://tracing)",
    )
    args = p.parse_args(argv)
    try:
        data = read_trace(args.file)
    except (OSError, ValueError) as exc:
        print(f"repro trace: {exc}", file=sys.stderr)
        return 2
    print(
        format_summary(
            data.spans,
            data.counters,
            top=args.top,
            title=f"trace summary: {args.file}",
        )
    )
    if args.chrome:
        try:
            n = write_chrome_trace(args.chrome, data.spans)
        except OSError as exc:
            print(f"repro trace: cannot write {args.chrome}: {exc}", file=sys.stderr)
            return 2
        print(f"\nchrome trace: {n} events -> {args.chrome}")
    return 0


def _bench_parser() -> argparse.ArgumentParser:
    """Argument surface of ``repro bench``: the end-to-end bench history."""
    from .bench import DEFAULT_HISTORY_DIR

    p = argparse.ArgumentParser(
        prog="repro bench",
        description="History and trends of the end-to-end benchmark "
        "(benchmarks/e2e/run.py); 'run.py --compare' is the regression gate.",
    )
    history = argparse.ArgumentParser(add_help=False)
    history.add_argument(
        "--history",
        default=DEFAULT_HISTORY_DIR,
        metavar="DIR",
        help=f"history directory (default {DEFAULT_HISTORY_DIR})",
    )
    sub = p.add_subparsers(dest="command", required=True)
    s = sub.add_parser(
        "record", parents=[history], help="append one run.py --out record to the history"
    )
    s.add_argument("file", metavar="FILE", help="record written by benchmarks/e2e/run.py --out")
    sub.add_parser(
        "trend",
        parents=[history],
        help="change points per <workload>/<metric>, with the layers that moved",
    )
    return p


def _bench_record(args) -> int:
    from .bench import load_history, load_record, record_run

    record = load_record(args.file)
    path = record_run(args.history, record)
    sha = record.get("git_sha") or "unknown"
    print(
        f"recorded run {len(load_history(args.history))} -> {path} "
        f"({len(record['workloads'])} workload(s), sha {sha[:12]})"
    )
    return 0


def _bench_trend(args) -> int:
    from .bench import analyze_history, format_trends, load_history

    history = load_history(args.history)
    print(format_trends(analyze_history(history), history))
    return 0


def _bench_main(argv: List[str]) -> int:
    """The ``repro bench`` subcommand (end-to-end bench history and trends)."""
    args = _bench_parser().parse_args(argv)
    handler = _bench_record if args.command == "record" else _bench_trend
    try:
        return handler(args)
    except (OSError, ValueError) as exc:
        print(f"repro bench: {exc}", file=sys.stderr)
        return 2


def _finish_trace(trace_out: str, argv: List[str]) -> None:
    """Write the recorded spans/metrics and print the terminal summary."""
    from .obs import format_summary, snapshot, take_spans, write_trace

    spans = take_spans()
    metrics = snapshot()
    n = write_trace(
        trace_out, spans, metrics, meta={"command": "repro " + " ".join(argv)}
    )
    print(f"trace: {n} events -> {trace_out}")
    print(format_summary(spans, metrics["counters"]))


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit status."""
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "lint":
        # The linter owns its own argument surface; delegate before parsing.
        from .analysis.cli import main as lint_main

        return lint_main(argv[1:])
    if argv and argv[0] == "san":
        # The sanitizer harness owns its own argument surface too.
        from .analysis.sanitize.cli import main as san_main

        return san_main(argv[1:])
    if argv and argv[0] == "serve":
        # The streaming-service driver owns its own argument surface.
        from .serve.cli import main as serve_main

        return serve_main(argv[1:])
    if argv and argv[0] == "trace":
        return _trace_main(argv[1:])
    if argv and argv[0] == "bench":
        return _bench_main(argv[1:])
    args = _parser().parse_args(argv)

    from .obs import enable_tracing, tracing_enabled

    trace_out: Optional[str] = args.trace_out
    if (args.trace or tracing_enabled()) and trace_out is None:
        trace_out = DEFAULT_TRACE_FILE
    if trace_out is not None:
        enable_tracing(True)

    if args.experiment == "list":
        for name, module in EXPERIMENTS.items():
            doc = (module.__doc__ or "").strip().splitlines()[0]
            print(f"{name:10s} {doc}")
        return 0

    if args.experiment == "report":
        from .experiments.reportgen import generate_report

        config = default_config(
            log2_nv=args.log2_nv, n_sources=args.sources, seed=args.seed
        )
        text = generate_report(build_study(config), include_plots=args.plot)
        if args.output:
            from pathlib import Path

            Path(args.output).write_text(text, encoding="utf-8")
            print(f"report written to {args.output}")
        else:
            print(text)
        if trace_out is not None:
            _finish_trace(trace_out, argv)
        return 0

    names = list(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    unknown = [n for n in names if n not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiment(s): {', '.join(unknown)}", file=sys.stderr)
        print(f"available: {', '.join(EXPERIMENTS)}, all, list", file=sys.stderr)
        return 2

    log2_nv = args.log2_nv
    if args.nv is not None:
        try:
            log2_nv = _parse_nv(args.nv)
        except ValueError as exc:
            print(f"repro: {exc}", file=sys.stderr)
            return 2

    ooc_runner = None
    if args.mem_budget or args.out_of_core or args.samples is not None:
        if names != ["scaling"]:
            print(
                "repro: --mem-budget/--out-of-core/--samples apply only to "
                "the 'scaling' experiment",
                file=sys.stderr,
            )
            return 2
        from functools import partial

        from .experiments import scaling as _scaling
        from .hypersparse.spill import parse_mem_budget

        budget = None
        if args.mem_budget:
            try:
                budget = parse_mem_budget(args.mem_budget)
            except ValueError as exc:
                print(f"repro: {exc}", file=sys.stderr)
                return 2
        ooc_runner = partial(
            _scaling.run_out_of_core, mem_budget=budget, samples=args.samples
        )

    config = default_config(
        log2_nv=log2_nv, n_sources=args.sources, seed=args.seed
    )
    study = build_study(config)
    ok = True
    for name in names:
        ok &= _run_one(
            name,
            study,
            show_checks=not args.no_checks,
            show_plot=args.plot,
            runner=ooc_runner,
        )
    if trace_out is not None:
        _finish_trace(trace_out, argv)
    return 0 if ok else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
