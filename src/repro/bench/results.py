"""End-to-end benchmark records: loading, validation, and machine identity.

``benchmarks/e2e/run.py --out FILE`` writes one JSON record per run:
the git SHA and machine fingerprint it ran under, and per workload the
end-to-end metric medians, the per-layer ledger when the run was traced
(``--trace``), and whether every repetition produced the same outputs
(``correct``).  :func:`load_record` is the gate in front of the history
store: only a well-formed record of a correct run enters the trajectory.

:func:`machine_fingerprint` is called by the e2e child process itself,
so every record carries the host facts its numbers are comparable
within; :func:`machine_id` digests them into the history key.
"""

from __future__ import annotations

import hashlib
import json
import platform
import sys
from pathlib import Path
from typing import Any, Dict, Union

__all__ = ["RECORD_SCHEMA", "load_record", "machine_fingerprint", "machine_id"]

#: The ``schema`` field ``benchmarks/e2e/run.py`` writes.
RECORD_SCHEMA = 1

PathLike = Union[str, Path]


def load_record(path: PathLike) -> Dict[str, Any]:
    """Load and validate one ``run.py --out`` record.

    Raises ``OSError`` when the file cannot be read and ``ValueError``
    (naming the file) when it is not JSON, is not an e2e record (a
    legacy pytest-benchmark results file has no ``workloads``), has a
    schema this reader does not know, lacks a metric value, or records a
    workload whose outputs failed the correctness check.
    """
    raw = Path(path).read_text(encoding="utf-8")
    try:
        data = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(data, dict):
        raise ValueError(f"{path}: expected a JSON object, got {type(data).__name__}")
    workloads = data.get("workloads")
    if not isinstance(workloads, dict) or not workloads:
        raise ValueError(
            f"{path}: no 'workloads' mapping; not a benchmarks/e2e/run.py --out record"
        )
    schema = data.get("schema")
    if schema != RECORD_SCHEMA:
        if isinstance(schema, int) and schema > RECORD_SCHEMA:
            raise ValueError(
                f"{path}: record schema {schema} is newer than this reader "
                f"understands (max {RECORD_SCHEMA}); upgrade repro to read it"
            )
        raise ValueError(f"{path}: unsupported record schema {schema!r} (known: 1)")
    for name, entry in workloads.items():
        metrics = entry.get("metrics") if isinstance(entry, dict) else None
        if not isinstance(metrics, dict):
            raise ValueError(f"{path}: workload {name!r} has no 'metrics' mapping")
        for metric, m in metrics.items():
            if not isinstance(m, dict) or not isinstance(m.get("value"), (int, float)):
                raise ValueError(f"{path}: {name}/{metric} lacks a numeric 'value'")
        if entry.get("correct") is not True:
            raise ValueError(
                f"{path}: workload {name!r} failed its correctness check "
                "(correct: false); a failed run is not recorded"
            )
    return data


def machine_fingerprint() -> Dict[str, Any]:
    """Host facts a benchmark number is only comparable within."""
    import numpy

    from ..parallel import cpu_count

    return {
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": cpu_count(),
        "numpy": numpy.__version__,
    }


def machine_id(fingerprint: Dict[str, Any]) -> str:
    """Stable 12-hex digest of a machine fingerprint.

    History records are keyed by (git SHA, machine id) so a trajectory
    can tell runs from different hosts apart.
    """
    canon = json.dumps(fingerprint or {}, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:12]
