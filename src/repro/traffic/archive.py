"""On-disk archives of traffic-matrix windows.

Section II: "The CAIDA Telescope archives its trillions of collected
packets at [LBNL] where the packets are aggregated into CryptoPAN
anonymized GraphBLAS traffic matrices of ``N_V = 2^17`` valid contiguous
packets.  The ``N_V = 2^30`` traffic matrices used in this study are
constructed by hierarchically summing ``2^13`` of these smaller matrices."

:class:`WindowArchive` is that storage layer at laptop scale: a directory
holding one matrix file per constant-packet window plus a JSON manifest
(window times, durations, packet counts, anonymization flag, storage
format).  Windows can be appended as packets arrive, loaded lazily by
index or time range, and hierarchically summed into larger analysis
matrices.

Two window storage formats coexist:

* ``"npz"`` — the original compressed-triple files
  (:mod:`repro.hypersparse.io`); loading decompresses and re-sorts.
* ``"columnar"`` — the v2 default: one columnar run file per window
  (:mod:`repro.hypersparse.spill`), the window's canonical packed
  keys/values written verbatim.  Loads can **memory-map** the columns
  (``load(i, mapped=True)``), so summing thousands of windows streams
  pages off disk instead of materializing every window in RAM — the
  substrate of the paper-scale out-of-core path
  (:mod:`repro.parallel.shard`).

The v2 manifest still loads v1 archives (their records default to
``"npz"`` storage), and formats may mix inside one archive — each record
carries its own storage tag.
"""

from __future__ import annotations

import json
import os
import warnings
import zipfile
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, List, Optional, Tuple, Union

from ..anonymize import CryptoPan
from ..hypersparse import HyperSparseMatrix
from ..hypersparse.io import load_triples_npz, save_triples_npz
from ..hypersparse.merge import kway_merge
from ..hypersparse.spill import load_run, write_run
from ..obs.metrics import MATRIX_NNZ, inc
from ..obs.spans import span
from .matrix import build_traffic_matrix
from .packet import Packets
from .window import Window, constant_packet_windows

__all__ = ["WindowArchive", "WindowRecord"]

PathLike = Union[str, Path]

_MANIFEST = "manifest.json"

#: Manifest format strings this reader understands, oldest first.
_FORMATS = ("repro-window-archive-v1", "repro-window-archive-v2")

#: Exceptions marking one window file as unreadable (missing, truncated,
#: not the promised format) — `sum_windows` skips such windows with a
#: warning; `load` raises them.
_WINDOW_ERRORS = (OSError, ValueError, KeyError, zipfile.BadZipFile)


@dataclass(frozen=True)
class WindowRecord:
    """Manifest entry for one archived window."""

    index: int
    filename: str
    start_time: float
    end_time: float
    n_packets: int
    anonymized: bool
    storage: str = "npz"  # v1 manifests predate the field

    @property
    def duration(self) -> float:
        """Window duration in seconds."""
        return self.end_time - self.start_time


class WindowArchive:
    """A directory of archived constant-packet traffic-matrix windows.

    Parameters
    ----------
    root:
        Archive directory (created if missing).
    n_valid:
        Packets per archived window (the paper's ``2^17``; any positive
        value here).
    anonymizer:
        Optional :class:`~repro.anonymize.CryptoPan` applied to both axes
        of every matrix before it is written — archives never hold real
        addresses, matching the paper's data handling.
    storage:
        Format for windows written by this handle: ``"columnar"``
        (default; memory-mappable) or ``"npz"``.  Existing windows keep
        whatever format they were written with.
    """

    def __init__(
        self,
        root: PathLike,
        *,
        n_valid: int = 1 << 17,
        anonymizer: Optional[CryptoPan] = None,
        storage: str = "columnar",
    ):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.n_valid = int(n_valid)
        if self.n_valid <= 0:
            raise ValueError("n_valid must be positive")
        if storage not in ("columnar", "npz"):
            raise ValueError(f"unknown window storage format {storage!r}")
        self.anonymizer = anonymizer
        self.storage = storage
        self._records: List[WindowRecord] = []
        self._residual = Packets.empty()
        manifest = self.root / _MANIFEST
        if manifest.exists():
            self._load_manifest()

    # -- manifest ----------------------------------------------------------

    def _load_manifest(self) -> None:
        """Read the manifest; every malformed one raises naming its path."""
        path = self.root / _MANIFEST
        try:
            data = json.loads(path.read_text(encoding="utf-8"))
        except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
            raise ValueError(f"archive manifest {path} is not valid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise ValueError(f"archive manifest {path} is not a JSON object")
        fmt = data.get("format", _FORMATS[0])
        if fmt not in _FORMATS:
            raise ValueError(
                f"archive manifest format {fmt!r} is newer than this reader "
                f"(understands {', '.join(_FORMATS)}); upgrade the package"
            )
        if data.get("n_valid") != self.n_valid:
            raise ValueError(
                f"archive window size {data.get('n_valid')} differs from "
                f"requested {self.n_valid}"
            )
        if "windows" not in data:
            raise ValueError(f"archive manifest {path} has no 'windows' list")
        try:
            self._records = [WindowRecord(**rec) for rec in data["windows"]]
        except TypeError as exc:
            raise ValueError(
                f"archive manifest {path} has a bad window record: {exc}"
            ) from exc

    def _save_manifest(self) -> None:
        """Publish the manifest atomically: temp file, fsync, replace.

        A crash mid-write leaves the previous manifest, and with it every
        window it lists, loadable.
        """
        data = {
            "format": _FORMATS[-1],
            "n_valid": self.n_valid,
            "anonymized": self.anonymizer is not None,
            "windows": [vars(r) for r in self._records],
        }
        path = self.root / _MANIFEST
        tmp = path.with_name(path.name + ".tmp")
        try:
            with tmp.open("w", encoding="utf-8") as fh:
                fh.write(json.dumps(data, indent=1))
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise

    # -- writing -----------------------------------------------------------

    def append_packets(self, packets: Packets) -> int:
        """Absorb a packet stream; archive every completed window.

        Packets beyond the last full window are buffered and complete when
        more packets arrive.  Returns the number of windows written.
        """
        combined = Packets.concat([self._residual, packets]).sort_by_time()
        windows = constant_packet_windows(combined, self.n_valid)
        written = 0
        for w in windows:
            self._write_window(w)
            written += 1
        consumed = len(windows) * self.n_valid
        self._residual = combined[consumed:]
        if written:
            self._save_manifest()
        return written

    def flush_partial(self) -> int:
        """Archive the buffered residual as a final (short) window."""
        if len(self._residual) == 0:
            return 0
        lo, hi = self._residual.span()
        self._write_window(
            Window(len(self._records), self._residual, lo, hi)
        )
        self._residual = Packets.empty()
        self._save_manifest()
        return 1

    def _write_window(self, window: Window) -> None:
        index = len(self._records)
        matrix = build_traffic_matrix(window.packets)
        if self.anonymizer is not None:
            matrix = matrix.permute(self.anonymizer.anonymize)
        if self.storage == "columnar":
            filename = f"window_{index:06d}.col"
            # write_run appends chunked and renames into place atomically,
            # so a crash mid-write cannot leave a loadable half window.
            write_run(self.root / filename, matrix.keys, matrix.vals, matrix.shape)
        else:
            filename = f"window_{index:06d}.npz"
            save_triples_npz(matrix, self.root / filename)
        self._records.append(
            WindowRecord(
                index=index,
                filename=filename,
                start_time=window.start_time,
                end_time=window.end_time,
                n_packets=window.n_packets,
                anonymized=self.anonymizer is not None,
                storage=self.storage,
            )
        )

    # -- reading -------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._records)

    @property
    def records(self) -> List[WindowRecord]:
        """Manifest entries in archive order."""
        return list(self._records)

    def load(self, index: int, *, mapped: bool = False) -> HyperSparseMatrix:
        """Load one archived window's matrix.

        For columnar windows ``mapped=True`` backs the matrix with
        read-only memory maps of the on-disk columns — bit-identical to
        an eager load (the file holds the canonical arrays verbatim) but
        paged in on demand.  ``npz`` windows always load eagerly.
        """
        rec = self._records[index]
        if rec.storage == "columnar":
            keys, vals, shape = load_run(self.root / rec.filename, mapped=mapped)
            return HyperSparseMatrix._from_keys(keys, vals, shape)
        return load_triples_npz(self.root / rec.filename)

    def iter_matrices(self) -> Iterator[Tuple[WindowRecord, HyperSparseMatrix]]:
        """Lazily iterate (record, matrix) pairs in time order."""
        for rec in self._records:
            yield rec, self.load(rec.index)

    def select_time_range(self, t0: float, t1: float) -> List[WindowRecord]:
        """Records of windows overlapping ``[t0, t1)``."""
        return [
            r for r in self._records if r.end_time >= t0 and r.start_time < t1
        ]

    def sum_windows(
        self,
        indices: Optional[List[int]] = None,
        *,
        cutoff: int = 1 << 16,  # kept for API compatibility; unused
        strict: bool = False,
    ) -> HyperSparseMatrix:
        """Sum archived windows into one analysis matrix, smallest first.

        The paper's ``2^17 -> 2^30`` construction: pass 2^13 window indices
        (or ``None`` for all) and get the combined constant-packet matrix.

        Windows are memory-mapped where possible and folded directly with
        :func:`~repro.hypersparse.merge.kway_merge` — the smallest-first
        Huffman order, one sorted-merge kernel per pair (counted on
        ``merge_fastpath_hits``), instead of pushing every window through
        a ladder whose level merges re-touch large partial sums.

        Unreadable windows (missing or truncated files) are skipped with
        a warning so one bad file cannot sink a 2^13-window sum; pass
        ``strict=True`` to raise instead.
        """
        if indices is None:
            indices = list(range(len(self._records)))
        with span("sum_windows", windows=len(indices)):
            runs = []
            for i in indices:
                try:
                    m = self.load(i, mapped=True)
                except _WINDOW_ERRORS as exc:
                    if strict:
                        raise
                    warnings.warn(
                        f"skipping unreadable archive window {i} "
                        f"({self._records[i].filename}): {exc}",
                        RuntimeWarning,
                        stacklevel=2,
                    )
                    continue
                runs.append((m.keys, m.vals))
            if not runs:
                return HyperSparseMatrix.empty((2**32, 2**32))
            keys, vals = kway_merge(runs)
            result = HyperSparseMatrix._from_keys(keys, vals, (2**32, 2**32))
            inc(MATRIX_NNZ, result.nnz)
            return result

    def total_packets(self) -> int:
        """Packets across all archived windows."""
        return sum(r.n_packets for r in self._records)
