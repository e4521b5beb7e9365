"""The ``repro san`` command: run an experiment under sanitizers.

::

    repro san fig1                        # all sanitizers, report traps
    repro san fig2 --san overflow,fork    # a subset
    repro san selftest                    # seeded faults; must all trap

Exit status: 0 when no trap fired, 1 when any did, 2 on usage errors —
so CI can gate on a sanitized smoke run exactly like it gates on lint.
Each trap prints one line led by its rule id (RS001, RS003 or RS004).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from . import runtime
from .fixtures import PROBES

__all__ = ["main"]


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro san",
        description="Run one experiment (or 'selftest') under runtime sanitizers.",
    )
    p.add_argument(
        "experiment",
        help="experiment name (see 'repro list'), or 'selftest' for the "
        "seeded-violation probes",
    )
    p.add_argument(
        "--san",
        default=",".join(runtime.SANITIZER_NAMES),
        metavar="LIST",
        help="comma-separated sanitizers to arm "
        f"(default: {','.join(runtime.SANITIZER_NAMES)})",
    )
    p.add_argument("--log2-nv", type=int, default=None, help="window size override")
    p.add_argument("--seed", type=int, default=None, help="master seed override")
    p.add_argument("--sources", type=int, default=None, help="population override")
    p.add_argument(
        "-q", "--quiet", action="store_true", help="suppress experiment output"
    )
    return p


def _run_experiment(name: str, args: argparse.Namespace) -> Optional[str]:
    """Run the probes or one experiment; returns an error message or None."""
    if name == "selftest":
        for probe in PROBES.values():
            probe()
        return None
    from ...experiments import EXPERIMENTS, build_study, default_config

    if name not in EXPERIMENTS:
        return (
            f"unknown experiment {name!r}; "
            f"available: {', '.join(EXPERIMENTS)}, selftest"
        )
    config = default_config(
        log2_nv=args.log2_nv, n_sources=args.sources, seed=args.seed
    )
    study = build_study(config)
    result = EXPERIMENTS[name].run(study)
    if not args.quiet:
        print(f"=== {name} (sanitized) ===")
        print(result.format())
    return None


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point for ``repro san``; returns the process exit status."""
    args = _parser().parse_args(argv)
    names = [n.strip() for n in args.san.split(",") if n.strip()]
    if not names:
        print("repro san: --san must name at least one sanitizer", file=sys.stderr)
        return 2

    runtime.take_traps()  # a clean slate: earlier traps are not this run's
    try:
        with runtime.sanitizers(names):
            err = _run_experiment(args.experiment, args)
            if err is not None:
                print(f"repro san: {err}", file=sys.stderr)
                return 2
            traps = runtime.take_traps()
    except ValueError as exc:
        print(f"repro san: {exc}", file=sys.stderr)
        return 2

    if not traps:
        print(f"repro-san: clean under {','.join(names)} ({args.experiment})")
        return 0
    print(
        f"repro-san: {sum(t.count for t in traps)} fault(s) at "
        f"{len(traps)} site(s) under {','.join(names)}:"
    )
    for trap in traps:
        print(f"  {trap.format()}")
    return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
