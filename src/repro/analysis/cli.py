"""The repro-lint command line.

Reached two ways::

    python -m repro.analysis [paths ...]
    repro lint [paths ...]

With no paths, lints the ``src/repro`` tree if the working directory
looks like a checkout, else the installed ``repro`` package itself.
Configuration comes from the nearest ``pyproject.toml``'s
``[tool.repro-lint]`` table.  Every run is one cold serial pass: parse
each file, then run every rule on it.  ``--format json`` is the
machine-readable output.  Exit status: 0 clean, 1 findings, 2
usage/IO/config error — so CI can gate on it directly.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from .config import ConfigError, load_config
from .engine import lint_paths
from .knobs import format_knob_table
from .report import (
    format_findings,
    format_rule_table,
    format_rules,
    format_summary,
    to_json,
)
from .rules import ALL_RULES, rule_by_id

__all__ = ["main"]


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro lint",
        description="Static analysis of the repro tree against its domain invariants.",
    )
    p.add_argument(
        "paths",
        nargs="*",
        help="files or directories to lint (default: the repro source tree)",
    )
    p.add_argument(
        "--select",
        default=None,
        metavar="IDS",
        help="comma-separated rule ids to run (default: all), e.g. RL001,RL003",
    )
    p.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="findings output format",
    )
    p.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalogue and exit",
    )
    p.add_argument(
        "--rules-table",
        action="store_true",
        help="print the docs/STATIC_ANALYSIS.md rule table (markdown) and exit",
    )
    p.add_argument(
        "--knobs",
        action="store_true",
        help="print the declared environment-knob registry and exit",
    )
    p.add_argument(
        "-q",
        "--quiet",
        action="store_true",
        help="suppress the per-rule summary (findings only)",
    )
    return p


def _default_paths() -> List[Path]:
    src = Path("src/repro")
    if src.is_dir():
        return [src]
    return [Path(__file__).resolve().parents[1]]


def main(argv: Optional[List[str]] = None) -> int:
    """Run the linter; returns the process exit status."""
    args = _parser().parse_args(argv)
    if args.list_rules:
        print(format_rules(ALL_RULES))
        return 0
    if args.rules_table:
        print(format_rule_table(ALL_RULES))
        return 0
    if args.knobs:
        print(format_knob_table())
        return 0

    rules = list(ALL_RULES)
    if args.select is not None:
        try:
            rules = [rule_by_id(rid.strip()) for rid in args.select.split(",") if rid.strip()]
        except KeyError as exc:
            print(f"repro lint: {exc.args[0]}", file=sys.stderr)
            return 2
        if not rules:
            print(f"repro lint: --select {args.select!r} names no rule", file=sys.stderr)
            return 2

    paths = [Path(p) for p in args.paths] if args.paths else _default_paths()
    missing = [p for p in paths if not p.exists()]
    if missing:
        print(
            f"repro lint: no such path(s): {', '.join(map(str, missing))}",
            file=sys.stderr,
        )
        return 2

    try:
        config = load_config()
    except ConfigError as exc:
        print(f"repro lint: {exc}", file=sys.stderr)
        return 2

    result = lint_paths(paths, rules, config)

    if args.format == "json":
        print(to_json(result))
    else:
        body = format_findings(result)
        if body:
            print(body)
        if not args.quiet:
            if body:
                print()
            print(format_summary(result))
    return 0 if result.ok else 1
