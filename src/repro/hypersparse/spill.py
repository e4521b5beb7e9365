"""Out-of-core columnar runs: spill, map and merge canonical key/value arrays.

The paper's analysis matrices are built from ``2^13`` archived
``2^17``-packet windows; at the full ``N_V = 2^30`` scale neither the
windows nor the intermediate hierarchical levels fit in RAM together.
This module is the disk substrate that closes the gap:

* a **columnar run file** — a fixed 32-byte header followed by the packed
  ``uint64`` keys and ``float64`` values of one canonical run, written
  with chunked appends into ``<path>.tmp`` and an atomic rename, so a
  crash can never leave a half-written file under a valid name.  A run
  whose size is known at open time writes both columns in place; a
  streamed merge, whose size is not, appends a value sidecar at close.
  **Durable** runs (archive windows, ``write_run``'s default) fsync
  before the rename; **scratch** runs skip it;
* **memory-mapped loads** — a run opens as two read-only ``np.memmap``
  views, so folding a run touches only the pages the merge actually
  reads (tracked by the ``shard_bytes_mapped`` counter);
* a :class:`SpillStore` — a directory of numbered scratch runs used by
  budgeted accumulators (:class:`~repro.hypersparse.hierarchical
  .HierarchicalMatrix` with a memory budget) and by the pool-side
  combine tree of :mod:`repro.parallel.shard`, whose workers write runs
  the parent then books on the spill counters (:meth:`SpillStore.book`);
* **chunked merges** — :func:`merge_runs_streamed` combines two canonical
  runs segment by segment through :func:`~repro.hypersparse.merge
  .merge_combine`, writing the output run to disk without ever
  materializing it; :func:`fold_runs_to_disk` folds many runs
  smallest-first in exactly :func:`~repro.hypersparse.merge.kway_merge`
  order, so the out-of-core collapse is bit-identical to the in-memory
  one (segment boundaries partition both inputs by key value, so every
  matched pair is combined by the same single ``np.add``).  A fold of
  one kept run publishes a hard link to it instead of a copy.

Disk round-trips are exact — the arrays are written and mapped as raw
little-endian bytes — so a spilled-and-reloaded run is bit-identical to
the array that was spilled; the equivalence suite pins this.
"""

from __future__ import annotations

import os
import shutil
import struct
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from ..analysis.knobs import env_str
from ..obs.metrics import SHARD_BYTES_MAPPED, SHARD_SPILL_BYTES, SHARD_SPILLS, inc
from ..obs.spans import span
from .coo import _row_of, checked_shape
from .merge import merge_combine

__all__ = [
    "RUN_MAGIC",
    "RUN_HEADER_SIZE",
    "ColumnarWriter",
    "SpilledRun",
    "SpillStore",
    "write_run",
    "read_run_header",
    "load_run",
    "run_nbytes",
    "unique_rows_of_run",
    "merge_runs_streamed",
    "fold_runs_to_disk",
    "parse_mem_budget",
    "configured_mem_budget",
    "DEFAULT_MERGE_CHUNK",
]

PathLike = Union[str, Path]

#: File magic of a columnar run (version 2 of the archive's on-disk story;
#: version 1 is the ``.npz`` triple format of :mod:`repro.hypersparse.io`).
RUN_MAGIC = b"RPRCOL2\n"

#: Header layout: magic, nnz, nrows, ncols — all little-endian uint64.
_HEADER = struct.Struct("<8sQQQ")

#: Total header size in bytes; keys start here, values at
#: ``RUN_HEADER_SIZE + 8 * nnz``.
RUN_HEADER_SIZE = _HEADER.size

#: Entries per segment in the streamed merges — 1M entries keeps the
#: transient working set of a chunked merge near 32 MB.
DEFAULT_MERGE_CHUNK = 1 << 20

#: Bytes one stored entry occupies in RAM and on disk (uint64 key +
#: float64 value) — the accounting unit for memory budgets.
ENTRY_BYTES = 16


@dataclass(frozen=True)
class SpilledRun:
    """One canonical run living on disk instead of in RAM."""

    path: Path
    nnz: int
    shape: Tuple[int, int]

    @property
    def nbytes(self) -> int:
        """On-disk size of the run (header + columns)."""
        return RUN_HEADER_SIZE + ENTRY_BYTES * self.nnz


class ColumnarWriter:
    """Chunked writer of one columnar run file.

    Everything streams into ``<path>.tmp``, which ``close`` renames into
    place, so a crash at any point leaves only ``.tmp`` droppings — a
    file named ``<path>`` is always complete.  When ``nnz`` is given at
    open time the header is final from the start and every chunk's keys
    and values land at their final offsets; otherwise values go to a
    ``.vals.tmp`` sidecar that ``close`` appends after the keys.
    ``durable`` (the default) fsyncs before the rename; scratch runs
    that nothing reopens after a crash skip it.  Use as a context
    manager: the ``with`` exit closes on success and aborts (removing
    the temporaries) on error.
    """

    def __init__(
        self,
        path: PathLike,
        shape: Tuple[int, int],
        *,
        nnz: Optional[int] = None,
        durable: bool = True,
    ):
        self.path = Path(path)
        self.shape = checked_shape(shape)
        self.nnz = 0
        self._durable = durable
        self._expected = None if nnz is None else int(nnz)
        self._tmp = self.path.with_name(self.path.name + ".tmp")
        self._vals_tmp = self.path.with_name(self.path.name + ".vals.tmp")
        self._keys_f = open(self._tmp, "wb")
        self._vals_f = None if nnz is not None else open(self._vals_tmp, "wb")
        # With an unknown size the entry count is patched in close().
        self._keys_f.write(_HEADER.pack(RUN_MAGIC, nnz or 0, *self.shape))
        self._closed = False

    def append(self, keys: np.ndarray, vals: np.ndarray) -> None:
        """Append one canonical chunk (keys strictly above all prior keys)."""
        if self._closed:
            raise ValueError(f"writer for {self.path} is closed")
        if keys.size != vals.size:
            raise ValueError("keys and vals must have identical size")
        if keys.size == 0:
            return
        keys = np.ascontiguousarray(keys, dtype="<u8")
        vals = np.ascontiguousarray(vals, dtype="<f8")
        if self._expected is not None:
            if self.nnz + keys.size > self._expected:
                raise ValueError(
                    f"run {self.path} was opened for {self._expected} entries"
                )
            self._keys_f.seek(RUN_HEADER_SIZE + 8 * self.nnz)
            self._keys_f.write(keys)
            self._keys_f.seek(RUN_HEADER_SIZE + 8 * (self._expected + self.nnz))
            self._keys_f.write(vals)
        else:
            self._keys_f.write(keys)
            self._vals_f.write(vals)
        self.nnz += int(keys.size)

    def close(self) -> SpilledRun:
        """Seal the run: complete the file and rename it into place."""
        if self._closed:
            raise ValueError(f"writer for {self.path} is closed")
        if self._expected is not None:
            if self.nnz != self._expected:
                self.abort()
                raise ValueError(
                    f"run {self.path} was opened for {self._expected} "
                    f"entries but got {self.nnz}"
                )
        else:
            self._vals_f.close()
            with open(self._vals_tmp, "rb") as vf:
                shutil.copyfileobj(vf, self._keys_f)
            self._keys_f.seek(0)
            self._keys_f.write(_HEADER.pack(RUN_MAGIC, self.nnz, *self.shape))
            os.remove(self._vals_tmp)
        self._closed = True
        self._keys_f.flush()
        if self._durable:
            os.fsync(self._keys_f.fileno())
        self._keys_f.close()
        os.replace(self._tmp, self.path)
        return SpilledRun(self.path, self.nnz, self.shape)

    def abort(self) -> None:
        """Drop the partial output; the target path is never touched."""
        if self._closed:
            return
        self._closed = True
        self._keys_f.close()
        if self._vals_f is not None:
            self._vals_f.close()
        for leftover in (self._tmp, self._vals_tmp):
            try:
                os.remove(leftover)
            except OSError:
                pass

    def __enter__(self) -> "ColumnarWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            self.abort()
        elif not self._closed:
            self.close()


def write_run(
    path: PathLike,
    keys: np.ndarray,
    vals: np.ndarray,
    shape: Tuple[int, int],
    *,
    chunk: int = DEFAULT_MERGE_CHUNK,
    durable: bool = True,
) -> SpilledRun:
    """Write one in-memory canonical run as a columnar file (chunked).

    The entry count is known up front, so both columns are written in
    place.  ``durable`` (the default, which archive windows rely on)
    fsyncs the file before it is renamed into place.
    """
    with ColumnarWriter(path, shape, nnz=int(keys.size), durable=durable) as w:
        # lint: allow-loop — iterates O(nnz / chunk) segments, not entries
        for lo in range(0, int(keys.size), chunk):
            w.append(keys[lo : lo + chunk], vals[lo : lo + chunk])
        return w.close()


def read_run_header(path: PathLike) -> Tuple[int, Tuple[int, int]]:
    """``(nnz, shape)`` from a run file; ValueError when not a valid run."""
    p = Path(path)
    try:
        with open(p, "rb") as f:
            raw = f.read(RUN_HEADER_SIZE)
    except FileNotFoundError:
        raise
    except OSError as exc:
        raise ValueError(f"cannot read columnar run {p}: {exc}") from exc
    if len(raw) < RUN_HEADER_SIZE:
        raise ValueError(f"columnar run {p} is truncated (no header)")
    magic, nnz, nrows, ncols = _HEADER.unpack(raw)
    if magic != RUN_MAGIC:
        raise ValueError(f"{p} is not a columnar run (bad magic {magic!r})")
    expected = RUN_HEADER_SIZE + ENTRY_BYTES * nnz
    actual = p.stat().st_size
    if actual != expected:
        raise ValueError(
            f"columnar run {p} is truncated: header promises {expected} "
            f"bytes, file has {actual}"
        )
    try:
        shape = checked_shape((nrows, ncols))
    except ValueError as exc:
        raise ValueError(f"columnar run {p} has a bad header: {exc}") from None
    return int(nnz), shape


def load_run(
    path: PathLike, *, mapped: bool = True
) -> Tuple[np.ndarray, np.ndarray, Tuple[int, int]]:
    """Load a run's ``(keys, vals, shape)``; mapped (default) or eager.

    Mapped loads return read-only ``np.memmap`` views — the OS pages in
    only what downstream kernels touch — and count the mapped bytes on
    the ``shard_bytes_mapped`` counter.  Eager loads copy both columns
    into ordinary arrays.
    """
    nnz, shape = read_run_header(path)
    if mapped:
        keys = np.memmap(path, dtype="<u8", mode="r", offset=RUN_HEADER_SIZE, shape=(nnz,))
        vals = np.memmap(
            path,
            dtype="<f8",
            mode="r",
            offset=RUN_HEADER_SIZE + 8 * nnz,
            shape=(nnz,),
        )
        inc(SHARD_BYTES_MAPPED, ENTRY_BYTES * nnz)
        return keys, vals, shape
    with open(path, "rb") as f:
        f.seek(RUN_HEADER_SIZE)
        keys = np.fromfile(f, dtype="<u8", count=nnz)
        vals = np.fromfile(f, dtype="<f8", count=nnz)
    return keys, vals, shape


def run_nbytes(keys: np.ndarray) -> int:
    """RAM accounting for one run: 16 bytes per stored entry."""
    return ENTRY_BYTES * int(keys.size)


def unique_rows_of_run(
    run: SpilledRun, *, chunk: int = DEFAULT_MERGE_CHUNK
) -> int:
    """Distinct row count of a disk run, streamed in key chunks.

    Keys are strictly increasing, so rows (the high digits of the packed
    key) are non-decreasing: distinct rows = row transitions + 1, and a
    chunk boundary only needs the previous chunk's last key.
    """
    if run.nnz == 0:
        return 0
    keys, _, shape = load_run(run.path, mapped=True)
    ncols = shape[1]
    total = 1
    prev_last: Optional[np.ndarray] = None
    # lint: allow-loop — iterates O(nnz / chunk) segments, not entries
    for lo in range(0, run.nnz, chunk):
        seg = np.asarray(keys[lo : lo + chunk])
        rows = _row_of(seg, ncols)
        total += int(np.count_nonzero(rows[1:] != rows[:-1]))
        if prev_last is not None and rows[0] != prev_last:
            total += 1
        prev_last = rows[-1]
    return total


def merge_runs_streamed(
    a: Tuple[np.ndarray, np.ndarray],
    b: Tuple[np.ndarray, np.ndarray],
    writer: ColumnarWriter,
    *,
    chunk: int = DEFAULT_MERGE_CHUNK,
) -> None:
    """Union-combine two canonical runs into ``writer``, segment by segment.

    Segment boundaries are key values taken every ``chunk`` entries of
    the larger run; both runs are sliced at the same key boundaries
    (``searchsorted``), so the segments partition each input and every
    matched key pair meets in exactly one segment.  Each segment goes
    through :func:`~repro.hypersparse.merge.merge_combine` — therefore
    the concatenated output is bit-identical to one whole-run
    ``merge_combine``, while the transient working set stays
    ``O(chunk)`` regardless of run sizes.
    """
    keys_a, vals_a = a
    keys_b, vals_b = b
    if keys_b.size > keys_a.size:
        keys_a, vals_a, keys_b, vals_b = keys_b, vals_b, keys_a, vals_a
    n = int(keys_a.size)
    if n == 0 and keys_b.size == 0:
        return
    bounds_a = list(range(chunk, n, chunk))
    cut_keys = keys_a[np.asarray(bounds_a, dtype=np.intp)] if bounds_a else np.zeros(
        0, dtype=np.uint64
    )
    bounds_b = np.searchsorted(keys_b, cut_keys).tolist()
    lo_a = 0
    lo_b = 0
    # lint: allow-loop — iterates O(nnz / chunk) segments, not entries
    for hi_a, hi_b in zip(bounds_a + [n], bounds_b + [int(keys_b.size)]):
        seg_keys, seg_vals = merge_combine(
            np.asarray(keys_a[lo_a:hi_a]),
            np.asarray(vals_a[lo_a:hi_a]),
            np.asarray(keys_b[lo_b:hi_b]),
            np.asarray(vals_b[lo_b:hi_b]),
        )
        writer.append(seg_keys, seg_vals)
        lo_a, lo_b = hi_a, hi_b


class SpillStore:
    """A directory of numbered scratch runs backing out-of-core folds.

    Store runs are scratch: nothing reopens them after a crash, and an
    owned store deletes them all on :meth:`close`.  They keep the
    ``.tmp`` + ``os.replace`` publication (a file named ``<path>`` is
    always complete) but skip the fsync that durable runs pay.

    Parameters
    ----------
    root:
        Spill directory.  When omitted a temporary directory is created
        and owned by the store — :meth:`close` removes it.
    """

    def __init__(self, root: Optional[PathLike] = None):
        if root is None:
            self.root = Path(tempfile.mkdtemp(prefix="repro-spill-"))
            self._owned = True
        else:
            self.root = Path(root)
            self.root.mkdir(parents=True, exist_ok=True)
            self._owned = False
        self._seq = 0

    def next_path(self, tag: str = "run") -> Path:
        """A fresh file path inside the store (never reused)."""
        path = self.root / f"{tag}_{self._seq:06d}.col"
        self._seq += 1
        return path

    def book(self, run: SpilledRun) -> SpilledRun:
        """Count one run written into the store (``shard_spills`` + bytes).

        Counters do not cross process boundaries, so runs written by
        pool workers are booked here, by the parent, from their
        descriptors.
        """
        inc(SHARD_SPILLS)
        inc(SHARD_SPILL_BYTES, run.nbytes)
        return run

    def spill(
        self,
        keys: np.ndarray,
        vals: np.ndarray,
        shape: Tuple[int, int],
        *,
        tag: str = "run",
    ) -> SpilledRun:
        """Write one in-memory run to the store and book it."""
        with span("spill_run", nnz=int(keys.size)):
            run = write_run(self.next_path(tag), keys, vals, shape, durable=False)
        return self.book(run)

    def writer(self, shape: Tuple[int, int], *, tag: str = "run") -> ColumnarWriter:
        """A chunked scratch writer on a fresh store path (streamed merges)."""
        return ColumnarWriter(self.next_path(tag), shape, durable=False)

    def remove(self, run: SpilledRun) -> None:
        """Delete one run's backing file (missing files are fine)."""
        try:
            os.remove(run.path)
        except OSError:
            pass

    def close(self) -> None:
        """Remove the directory if the store created it (else leave it)."""
        if self._owned:
            shutil.rmtree(self.root, ignore_errors=True)

    def __enter__(self) -> "SpillStore":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


#: A fold input: an in-memory canonical run or one already on disk.
FoldItem = Union[SpilledRun, Tuple[np.ndarray, np.ndarray]]


def _fold_arrays(item: FoldItem) -> Tuple[np.ndarray, np.ndarray]:
    """The (keys, vals) view of a fold input (mapped for disk runs)."""
    if isinstance(item, SpilledRun):
        keys, vals, _ = load_run(item.path, mapped=True)
        return keys, vals
    return item


def _fold_size(item: FoldItem) -> int:
    return item.nnz if isinstance(item, SpilledRun) else int(item[0].size)


def fold_runs_to_disk(
    items: Sequence[FoldItem],
    store: SpillStore,
    shape: Tuple[int, int],
    *,
    chunk: int = DEFAULT_MERGE_CHUNK,
    keep_inputs: bool = False,
) -> SpilledRun:
    """Fold many canonical runs into one on-disk run, smallest pair first.

    The fold order replicates :func:`~repro.hypersparse.merge.kway_merge`
    exactly — initial stable sort by size, always merge the two smallest,
    re-insert the result by size — and each pairwise merge is the
    segment-partitioned :func:`merge_runs_streamed`, so the final run's
    keys and values are bit-identical to the in-memory collapse.
    Intermediate runs — and, unless ``keep_inputs`` is set, consumed
    input runs that live in the store — are deleted as soon as they are
    folded, so peak disk stays near twice the final run size.  A kept
    lone input is hard-linked to a fresh store path rather than copied.
    """
    from bisect import insort

    pending: List[FoldItem] = [it for it in items if _fold_size(it)]
    if not pending:
        return store.spill(
            np.zeros(0, dtype=np.uint64), np.zeros(0, dtype=np.float64), shape
        )
    protected = {id(it) for it in pending} if keep_inputs else set()
    pending.sort(key=_fold_size)
    with span("fold_runs_to_disk", runs=len(pending)):
        # lint: allow-loop — folds O(runs) pairs, never entries
        while len(pending) > 1:
            a = pending.pop(0)
            b = pending.pop(0)
            with store.writer(shape, tag="fold") as w:
                merge_runs_streamed(_fold_arrays(a), _fold_arrays(b), w, chunk=chunk)
                merged = store.book(w.close())
            for used in (a, b):
                if (
                    isinstance(used, SpilledRun)
                    and used.path.parent == store.root
                    and id(used) not in protected
                ):
                    store.remove(used)
            insort(pending, merged, key=_fold_size)
    final = pending[0]
    if isinstance(final, SpilledRun):
        if id(final) in protected:
            # A one-run fold publishes the kept input under a new name.
            # Runs are immutable once renamed into place, so a hard link
            # shares the blocks without a copy, and either name can be
            # unlinked without touching the other.
            path = store.next_path("fold")
            try:
                os.link(final.path, path)
            except OSError:  # no hard links on this filesystem: copy
                keys, vals, _ = load_run(final.path, mapped=True)
                return store.book(
                    write_run(path, keys, vals, shape, chunk=chunk, durable=False)
                )
            return SpilledRun(path, final.nnz, shape)
        return final
    return store.spill(final[0], final[1], shape)


def parse_mem_budget(text: str) -> int:
    """Parse a byte budget: plain bytes or a K/M/G/T-suffixed quantity.

    ``"512M"`` -> 536870912; suffixes are binary (KiB-style) multiples,
    case-insensitive, with an optional ``B`` (``"4GB"`` == ``"4G"``).
    """
    raw = text.strip()
    if not raw:
        raise ValueError("memory budget must be non-empty")
    suffixes = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30, "T": 1 << 40}
    upper = raw.upper()
    if upper.endswith("B"):
        upper = upper[:-1]
    scale = 1
    if upper and upper[-1] in suffixes:
        scale = suffixes[upper[-1]]
        upper = upper[:-1]
    try:
        value = float(upper)
    except ValueError:
        raise ValueError(
            f"malformed memory budget {text!r} (expected e.g. 512M, 4G, 1048576)"
        ) from None
    budget = int(value * scale)
    if budget <= 0:
        raise ValueError(f"memory budget must be positive, got {text!r}")
    return budget


def configured_mem_budget() -> Optional[int]:
    """The ``REPRO_MEM_BUDGET`` knob in bytes, or None when unset."""
    raw = env_str("REPRO_MEM_BUDGET")
    if not raw:
        return None
    return parse_mem_budget(raw)
