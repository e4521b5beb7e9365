"""Append-only benchmark history store (``benchmarks/history/``).

Every recorded end-to-end run becomes one immutable JSON file,
``run-<seq>-<sha>-<machine>.json``, keyed by the record's own git SHA
and machine id.  It keeps each ``<workload>/<metric>`` median and, for a
traced run, each workload's per-layer ledger values.  The directory is
the catalogue: :func:`load_history` scans ``run-*.json`` and orders the
runs by sequence number, so pruning a record by hand needs no other
bookkeeping.

Records are written through a temp file, fsync and rename, so a crash
mid-write leaves no partial record behind.  Loading is still forgiving:
a corrupt or truncated record is skipped with a warning naming the file
rather than poisoning the whole trajectory.
"""

from __future__ import annotations

import json
import os
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

import numpy as np

from .results import machine_id

__all__ = [
    "HISTORY_SCHEMA",
    "DEFAULT_HISTORY_DIR",
    "RunRecord",
    "History",
    "record_run",
    "load_history",
]

#: Bumped when the record layout changes (1 was the pytest-benchmark layout).
HISTORY_SCHEMA = 2

#: Where the CLI looks for a history unless told otherwise.
DEFAULT_HISTORY_DIR = "benchmarks/history"

PathLike = Union[str, Path]


@dataclass(frozen=True)
class RunRecord:
    """One recorded end-to-end run.

    ``metrics`` maps ``<workload>/<metric>`` to the run's median;
    ``layers`` maps a workload to its per-layer ledger values (traced
    runs only; a layer the ledger reported as null is left out).
    """

    seq: int
    sha: str
    machine: str
    written: str
    metrics: Dict[str, float] = field(default_factory=dict)
    layers: Dict[str, Dict[str, float]] = field(default_factory=dict)
    path: str = ""


@dataclass
class History:
    """A loaded trajectory: run records in sequence order."""

    runs: List[RunRecord] = field(default_factory=list)
    directory: str = ""

    def __len__(self) -> int:
        """Number of loaded runs."""
        return len(self.runs)

    def names(self) -> List[str]:
        """Sorted union of ``<workload>/<metric>`` series across all runs."""
        names: set = set()
        for run in self.runs:
            names.update(run.metrics)
        return sorted(names)

    def series(self, name: str) -> Tuple[np.ndarray, np.ndarray]:
        """(run sequence numbers, medians) for one ``<workload>/<metric>``.

        Only runs that measured the series contribute; the trajectory
        never interpolates across gaps.
        """
        runs = [r for r in self.runs if name in r.metrics]
        return (
            np.asarray([r.seq for r in runs], dtype=np.int64),
            np.asarray([r.metrics[name] for r in runs], dtype=np.float64),
        )


def _record_name(seq: int, sha: str, machine: str) -> str:
    return f"run-{seq:06d}-{sha[:12]}-{machine[:12]}.json"


def _next_seq(directory: Path) -> int:
    seqs = [0]
    for p in directory.glob("run-*.json"):
        head = p.name.split("-")
        if len(head) >= 2 and head[1].isdigit():
            seqs.append(int(head[1]))
    return max(seqs) + 1


def record_run(
    history_dir: PathLike, record: Dict[str, Any], *, written: Optional[str] = None
) -> Path:
    """Append one e2e record (see :func:`repro.bench.load_record`); return its path."""
    directory = Path(history_dir)
    directory.mkdir(parents=True, exist_ok=True)
    fingerprint = record.get("machine") or {}
    workloads = record["workloads"]
    if written is None:
        from ..obs import wall_timestamp

        written = wall_timestamp()
    entry = {
        "schema": HISTORY_SCHEMA,
        "seq": _next_seq(directory),
        "sha": record.get("git_sha") or "unknown",
        "machine_id": machine_id(fingerprint),
        "machine": fingerprint,
        "written": written,
        "metrics": {
            f"{name}/{metric}": float(m["value"])
            for name, w in sorted(workloads.items())
            for metric, m in sorted(w["metrics"].items())
        },
        "layers": {
            name: {k: float(v) for k, v in sorted(w["layers"].items()) if v is not None}
            for name, w in sorted(workloads.items())
            if w.get("layers")
        },
    }
    path = directory / _record_name(entry["seq"], entry["sha"], entry["machine_id"])
    tmp = path.with_name(path.name + ".tmp")
    try:
        with tmp.open("w", encoding="utf-8") as fh:
            fh.write(json.dumps(entry, indent=2, sort_keys=True) + "\n")
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return path


def load_history(history_dir: PathLike) -> History:
    """Load every readable run record in sequence order.

    Corrupt records, and records of another schema, are skipped with a
    warning naming the file: an interrupted CI run must not erase the
    rest of the trajectory.
    """
    directory = Path(history_dir)
    runs: List[RunRecord] = []
    for path in sorted(directory.glob("run-*.json")):
        try:
            record = json.loads(path.read_text(encoding="utf-8"))
            schema = record.get("schema")
            if schema != HISTORY_SCHEMA:
                raise ValueError(
                    f"history schema {schema!r}; this reader reads schema {HISTORY_SCHEMA}"
                )
            runs.append(
                RunRecord(
                    seq=int(record["seq"]),
                    sha=str(record["sha"]),
                    machine=str(record["machine_id"]),
                    written=str(record.get("written", "")),
                    metrics={k: float(v) for k, v in record["metrics"].items()},
                    layers={
                        w: {k: float(v) for k, v in vals.items()}
                        for w, vals in record["layers"].items()
                    },
                    path=str(path),
                )
            )
        except (ValueError, KeyError, TypeError, AttributeError) as exc:
            warnings.warn(
                f"bench history: skipping corrupt record {path.name}: {exc}", stacklevel=2
            )
    runs.sort(key=lambda r: r.seq)
    return History(runs=runs, directory=str(directory))
