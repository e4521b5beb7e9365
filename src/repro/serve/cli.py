"""``repro serve`` — drive the streaming correlation service.

Currently one subcommand::

    repro serve smoke [--batches N] [--batch-size B] [--n-valid V]
                      [--readers K] [--sources P] [--seed S] [--save FILE]

which stands up an engine, folds a seeded synthetic packet stream plus
one honeyfarm month per closed window on the calling thread, and
hammers the published snapshots with ``--readers`` reader threads while
the writer keeps publishing.  Published snapshots are read-only, so a
reader that wrote into one would raise and fail the run.  Sanitizers
armed with ``REPRO_SAN`` report their traps on stdout.  The run records :mod:`repro.obs` metrics into a freshly reset
registry and prints them as one ``health:`` line on stderr; stdout
carries the summary and verdict lines.  Counts must be at least 1
(``--batches`` at least 0).  Exit status: 0 clean, 1 sanitizer traps or
leaked leases, 2 usage error.
"""

from __future__ import annotations

import argparse
import sys
import threading
from typing import List, Optional

import numpy as np

from ..analysis.sanitize import runtime as san_runtime
from ..obs.metrics import (
    SERVE_EPOCH_LAG,
    SERVE_FOLD_SECONDS,
    SERVE_PUBLISH_SECONDS,
    SNAPSHOT_LEASES,
    enable_metrics,
    gauge,
    histogram,
    metrics_enabled,
    reset_metrics,
)
from ..rand import hash_u64
from ..traffic.packet import Packets
from .engine import CorrelationEngine

__all__ = ["main", "synthetic_batch", "synthetic_month"]


def synthetic_batch(seed: int, index: int, size: int, n_sources: int) -> Packets:
    """Batch ``index`` of a deterministic synthetic packet stream.

    Counter-mode randomness (:mod:`repro.rand`): any batch is
    reconstructible from ``(seed, index)`` alone, so the smoke run is
    reproducible across hosts and restarts.
    """
    lo = np.uint64(index) * np.uint64(size)
    i = lo + np.arange(size, dtype=np.uint64)
    src = hash_u64(seed, i, 1) % np.uint64(n_sources)
    dst = hash_u64(seed, i, 2) % np.uint64(n_sources)
    return Packets(i.astype(np.float64) * 1e-3, src, dst)


def synthetic_month(seed: int, month: int, n_sources: int) -> np.ndarray:
    """Source set of synthetic honeyfarm month ``month`` (about half the
    address pool, varying by month)."""
    pool = np.arange(n_sources, dtype=np.uint64)
    keep = hash_u64(seed, pool, 3 + month) % np.uint64(2) == 0
    return pool[keep]


def _reader(
    engine: CorrelationEngine, stop: threading.Event, n_valid: int, out: list
) -> None:
    """Lease/verify/release snapshots until the writer finishes.

    Appends the read count to ``out``, or the exception that stopped
    the reader, for :func:`_smoke` to report after the join.  Every
    reader reads at least once, and its last read follows the writer's
    final publish.
    """
    reads = 0
    try:
        while True:
            done = stop.is_set()
            snap = engine.acquire()
            try:
                if snap.window_count:
                    latest = snap.quantities[-1]
                    assert latest.valid_packets == n_valid, latest
                    assert snap.degree_distributions[-1].n_total > 0
            finally:
                engine.release(snap)
            reads += 1
            if done:
                break
    except Exception as exc:  # re-raised on the calling thread after the join
        out.append(exc)
        return
    out.append(reads)


def _write(engine: CorrelationEngine, ns: argparse.Namespace) -> int:
    """Fold the synthetic stream and publish per closing batch; return months."""
    months = 0
    for b in range(ns.batches):
        closed = engine.fold_batch(synthetic_batch(ns.seed, b, ns.batch_size, ns.sources))
        for _ in range(closed):
            engine.fold_month(float(months), synthetic_month(ns.seed, months, ns.sources))
            months += 1
        if closed:
            engine.publish()
    engine.publish()
    return months


def _health_line() -> str:
    """One line of service health from the run's ``repro.obs`` metrics."""

    def timing(name: str) -> str:
        h = histogram(name).summary()
        return f"{h['count']} x mean {h['mean'] * 1e3:.2f} ms, max {h['max'] * 1e3:.2f} ms"

    return (
        f"health: fold {timing(SERVE_FOLD_SECONDS)}; "
        f"publish {timing(SERVE_PUBLISH_SECONDS)}; "
        f"leases {gauge(SNAPSHOT_LEASES).value:.0f}; "
        f"epoch lag {gauge(SERVE_EPOCH_LAG).value:.0f}"
    )


def _smoke(ns: argparse.Namespace) -> int:
    was_recording = metrics_enabled()
    enable_metrics(True)
    reset_metrics()
    try:
        return _smoke_run(ns)
    finally:
        enable_metrics(was_recording)


def _smoke_run(ns: argparse.Namespace) -> int:
    stop = threading.Event()
    results: list = []
    with CorrelationEngine(ns.n_valid, cutoff=1 << 10) as engine:
        readers = [
            threading.Thread(
                target=_reader,
                args=(engine, stop, ns.n_valid, results),
                name=f"serve-smoke-reader-{k}",
            )
            for k in range(ns.readers)
        ]
        for thread in readers:
            thread.start()
        try:
            months = _write(engine, ns)
        finally:
            stop.set()
            for thread in readers:
                thread.join()
        for outcome in results:
            if isinstance(outcome, Exception):
                raise outcome
        if ns.save:
            engine.save(ns.save)
        windows, epoch = engine.window_count, engine.epoch
        leaked = engine.outstanding_leases()
    traps = san_runtime.take_traps()
    print(
        f"serve smoke: {windows} windows, epoch {epoch}, "
        f"{months} months, {sum(results)} reads by "
        f"{ns.readers} readers"
    )
    print(_health_line(), file=sys.stderr)
    for trap in traps:
        print(trap.format())
    if traps or leaked:
        print(f"FAIL: {len(traps)} trap(s), {leaked} leaked lease(s)")
        return 1
    print("clean: zero traps, all snapshot leases released")
    return 0


def _count(minimum: int):
    """argparse ``type=`` for an integer option that must be >= ``minimum``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {value}")
        return value

    return parse


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro serve",
        description="Long-running streaming correlation service driver.",
    )
    sub = p.add_subparsers(dest="command", required=True)
    smoke = sub.add_parser(
        "smoke", help="fold a synthetic stream under concurrent readers"
    )
    smoke.add_argument("--batches", type=_count(0), default=64, help="packet batches to fold")
    smoke.add_argument("--batch-size", type=_count(1), default=512, help="packets per batch")
    smoke.add_argument("--n-valid", type=_count(1), default=2048, help="packets per window")
    smoke.add_argument("--readers", type=_count(1), default=8, help="concurrent readers")
    smoke.add_argument("--sources", type=_count(1), default=4096, help="address-pool size")
    smoke.add_argument("--seed", type=int, default=42, help="stream seed")
    smoke.add_argument("--save", default=None, metavar="FILE", help="save the final snapshot")
    return p


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point for ``repro serve``."""
    try:
        ns = _parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    if ns.command == "smoke":
        return _smoke(ns)
    raise AssertionError(f"unhandled command {ns.command!r}")  # pragma: no cover
