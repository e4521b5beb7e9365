"""Epoch-numbered immutable snapshots of the streaming engine.

A snapshot is the unit readers share: one frozen, self-contained view of
everything the engine has derived so far — per-window Table II
aggregates, per-window degree distributions, the coeval-correlation
curve over folded honeyfarm months, and the modified-Cauchy fit of that
curve.  A snapshot freezes itself: constructing an
:class:`EngineSnapshot` runs :func:`freeze_snapshot`, which marks every
ndarray the snapshot reaches read-only, so no writable snapshot can
exist.
"""

from __future__ import annotations

import json
import os
import zipfile
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Optional, Tuple, Union

import numpy as np

from ..core.correlation import DegreeBin, PeakBinResult, PeakCorrelation
from ..fits.fitting import FitResult
from ..stats.binning import BinnedDistribution
from ..traffic.quantities import NetworkQuantities

__all__ = [
    "EngineSnapshot",
    "freeze_snapshot",
    "snapshot_buffers",
    "save_snapshot",
    "load_snapshot",
]

#: On-disk format version of :func:`save_snapshot` archives.
SNAPSHOT_FORMAT_VERSION = 1


@dataclass(frozen=True)
class EngineSnapshot:
    """One immutable, epoch-numbered view of the engine's derived state.

    Attributes
    ----------
    epoch:
        Monotone publication counter; strictly increases per publish.
    n_valid:
        Packets per constant-packet window (the paper's ``N_V``).
    window_index, window_start, window_end:
        Parallel per-window arrays: window number and time extent.
    quantities:
        Per-window Table II scalar aggregates.
    degree_distributions:
        Per-window log2-binned source-degree distributions (Fig 3).
    month_times, overlap_fractions:
        The coeval-correlation curve: for each folded honeyfarm month,
        the fraction of the latest window's telescope sources it saw.
    correlation:
        Per-brightness-bin overlap of the latest window against the
        coeval (nearest-in-time) month, when both exist (Fig 4).
    fit:
        Modified-Cauchy fit of the overlap curve, when it is fittable
        (Figs 5-8); ``None`` with fewer than three months.

    Construction freezes the snapshot (:func:`freeze_snapshot`): every
    canonical buffer is read-only from the moment the object exists.
    """

    epoch: int
    n_valid: int
    window_index: np.ndarray
    window_start: np.ndarray
    window_end: np.ndarray
    quantities: Tuple[NetworkQuantities, ...]
    degree_distributions: Tuple[BinnedDistribution, ...]
    month_times: np.ndarray
    overlap_fractions: np.ndarray
    correlation: Optional[PeakCorrelation]
    fit: Optional[FitResult]

    def __post_init__(self) -> None:
        freeze_snapshot(self)

    @property
    def window_count(self) -> int:
        """Closed windows summarized by this snapshot."""
        return len(self.quantities)

    @property
    def latest(self) -> Optional[NetworkQuantities]:
        """Aggregates of the most recently closed window, if any."""
        return self.quantities[-1] if self.quantities else None

    def describe(self) -> str:
        """One-line human-readable summary (CLI / log output)."""
        fit = f" fit={self.fit.describe()}" if self.fit is not None else ""
        return (
            f"snapshot epoch={self.epoch} windows={self.window_count} "
            f"months={int(self.month_times.size)}{fit}"
        )


def snapshot_buffers(snap: EngineSnapshot) -> Iterator[np.ndarray]:
    """Yield every canonical ndarray reachable from ``snap``.

    This is the buffer set :func:`freeze_snapshot` marks read-only.
    """
    yield snap.window_index
    yield snap.window_start
    yield snap.window_end
    yield snap.month_times
    yield snap.overlap_fractions
    for dist in snap.degree_distributions:
        yield dist.edges
        yield dist.counts
        yield dist.prob


def freeze_snapshot(snap: EngineSnapshot) -> EngineSnapshot:
    """Freeze ``snap``: every canonical buffer is made read-only in place.

    Later writes raise ``ValueError``.  :class:`EngineSnapshot` calls
    this on construction; returns the same object.
    """
    for arr in snapshot_buffers(snap):
        arr.flags.writeable = False
    return snap


def _quantities_payload(snap: EngineSnapshot) -> list:
    return [q.as_dict() for q in snap.quantities]


def _dists_payload(snap: EngineSnapshot) -> list:
    return [
        {"n_total": dist.n_total, "d_max": dist.d_max}
        for dist in snap.degree_distributions
    ]


def _correlation_payload(corr: Optional[PeakCorrelation]) -> Optional[dict]:
    if corr is None:
        return None
    return {
        "n_valid": corr.n_valid,
        "bins": [
            {
                "lo": b.bin.lo,
                "hi": b.bin.hi,
                "n_telescope": b.n_telescope,
                "n_common": b.n_common,
            }
            for b in corr.bins
        ],
    }


def _fit_payload(fit: Optional[FitResult]) -> Optional[dict]:
    if fit is None:
        return None
    return {
        "family": fit.family,
        "params": list(fit.params),
        "param_names": list(fit.param_names),
        "t0": fit.t0,
        "scale": fit.scale,
        "loss": fit.loss,
    }


def save_snapshot(snap: EngineSnapshot, path: Union[str, Path]) -> Path:
    """Serialize ``snap`` to one ``.npz`` archive at ``path``.

    Arrays go in as-is; scalar and dataclass state rides in a JSON
    header.  JSON float round-trips are exact (shortest-repr), so
    :func:`load_snapshot` reproduces the snapshot bit-identically.

    The archive is written to ``<path>.tmp``, fsynced and atomically
    renamed into place, so a save that fails part-way leaves the
    previous archive at ``path`` intact.
    """
    path = Path(path)
    header = {
        "format": SNAPSHOT_FORMAT_VERSION,
        "epoch": snap.epoch,
        "n_valid": snap.n_valid,
        "quantities": _quantities_payload(snap),
        "degree_distributions": _dists_payload(snap),
        "correlation": _correlation_payload(snap.correlation),
        "fit": _fit_payload(snap.fit),
    }
    arrays = {
        "window_index": snap.window_index,
        "window_start": snap.window_start,
        "window_end": snap.window_end,
        "month_times": snap.month_times,
        "overlap_fractions": snap.overlap_fractions,
    }
    for i, dist in enumerate(snap.degree_distributions):
        arrays[f"dd{i}_edges"] = dist.edges
        arrays[f"dd{i}_counts"] = dist.counts
        arrays[f"dd{i}_prob"] = dist.prob
    tmp = path.with_name(path.name + ".tmp")
    try:
        with tmp.open("wb") as fh:
            np.savez(fh, header=np.frombuffer(json.dumps(header).encode(), np.uint8), **arrays)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return path


def _read_archive(data) -> EngineSnapshot:
    """Rebuild the frozen snapshot from an open ``.npz`` archive."""
    header = json.loads(bytes(data["header"]))
    if header.get("format") != SNAPSHOT_FORMAT_VERSION:
        raise ValueError(f"unsupported snapshot format: {header.get('format')!r}")
    quantities = tuple(NetworkQuantities(**q) for q in header["quantities"])
    dists = tuple(
        BinnedDistribution(
            edges=data[f"dd{i}_edges"],
            counts=data[f"dd{i}_counts"],
            prob=data[f"dd{i}_prob"],
            n_total=meta["n_total"],
            d_max=meta["d_max"],
        )
        for i, meta in enumerate(header["degree_distributions"])
    )
    corr_meta = header["correlation"]
    correlation = (
        PeakCorrelation(
            bins=tuple(
                PeakBinResult(
                    bin=DegreeBin(b["lo"], b["hi"]),
                    n_telescope=b["n_telescope"],
                    n_common=b["n_common"],
                )
                for b in corr_meta["bins"]
            ),
            n_valid=corr_meta["n_valid"],
        )
        if corr_meta is not None
        else None
    )
    fit_meta = header["fit"]
    fit = (
        FitResult(
            family=fit_meta["family"],
            params=tuple(fit_meta["params"]),
            param_names=tuple(fit_meta["param_names"]),
            t0=fit_meta["t0"],
            scale=fit_meta["scale"],
            loss=fit_meta["loss"],
        )
        if fit_meta is not None
        else None
    )
    return EngineSnapshot(
        epoch=int(header["epoch"]),
        n_valid=int(header["n_valid"]),
        window_index=data["window_index"],
        window_start=data["window_start"],
        window_end=data["window_end"],
        quantities=quantities,
        degree_distributions=dists,
        month_times=data["month_times"],
        overlap_fractions=data["overlap_fractions"],
        correlation=correlation,
        fit=fit,
    )


def load_snapshot(path: Union[str, Path]) -> EngineSnapshot:
    """Load a :func:`save_snapshot` archive back into a frozen snapshot.

    A truncated, non-archive or incomplete file raises ``ValueError``
    naming ``path``.
    """
    path = Path(path)
    try:
        with np.load(path) as data:
            return _read_archive(data)
    except (EOFError, KeyError, TypeError, ValueError, zipfile.BadZipFile) as exc:
        raise ValueError(f"{path}: unreadable snapshot archive: {exc}") from exc
