"""The incremental correlation engine behind ``repro serve``.

A long-running, write-single/read-many service core: packet batches and
honeyfarm months arrive continuously, fold into a live hierarchical
accumulator (:class:`repro.stream.StreamingWindowAnalyzer`, riding the
budgeted spill ladder), and everything the paper derives from them —
Table II aggregates, Fig 3 degree distributions, the Fig 4 coeval
overlap, and the modified-Cauchy temporal fit — is maintained as
queryable state behind epoch-numbered immutable snapshots.

Concurrency contract
--------------------
The engine is synchronous and thread-safe, with one writer and any
number of readers.  Two locks split the work, always taken writer
first:

* the **writer lock** serialises :meth:`~CorrelationEngine.fold_batch`,
  :meth:`~CorrelationEngine.fold_month`, :meth:`~CorrelationEngine.publish`
  and :meth:`~CorrelationEngine.save`.  Readers never take it, so a
  fold or a derivation never delays a read;
* the **lease lock** guards only the lease table and the swap of the
  published snapshot pointer.  ``publish()`` derives the next snapshot
  under the writer lock alone and holds the lease lock just for the
  swap, so a reader waits at most for a dict update.

Two paths cross the locks.  ``acquire()`` on an engine that has
published nothing takes the writer lock to publish epoch 1, re-checking
the pointer inside, so concurrent first readers publish it once.
``close()`` takes both, so a fold already running finishes before the
engine closes; afterwards folds, publishes and acquires raise and
``release()`` keeps working.

Readers ``acquire()`` a snapshot lease and ``release()`` it when done.
Snapshots freeze themselves on construction
(:func:`~repro.serve.snapshot.freeze_snapshot`), so arbitrarily many
readers can share one without copies.  RL020 gates the lease discipline
statically (acquire/release balance, epoch monotonicity, no
fold/query-after-close); at runtime an over-release raises, and a
write into a published buffer raises ``ValueError`` at the write.
"""

from __future__ import annotations

import threading
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from ..core.correlation import PeakCorrelation, peak_correlation
from ..fits.bootstrap import per_source_trajectories
from ..fits.fitting import FitResult, fit_temporal
from ..hypersparse.coo import SparseVec
from ..obs.metrics import (
    SERVE_BATCHES_FOLDED,
    SERVE_EPOCH_LAG,
    SERVE_FOLD_SECONDS,
    SERVE_PUBLISH_SECONDS,
    SERVE_WINDOWS_CLOSED,
    SNAPSHOT_EPOCH,
    SNAPSHOT_LEASES,
    SNAPSHOT_READERS,
    SNAPSHOTS_PUBLISHED,
    inc,
    observe,
    set_gauge,
)
from ..obs.spans import annotate, span, stopwatch
from ..stream.analyzer import StreamingWindowAnalyzer
from ..traffic.packet import Packets
from .snapshot import EngineSnapshot, load_snapshot, save_snapshot

__all__ = ["CorrelationEngine"]

#: Fewest folded months before a modified-Cauchy fit is attempted (the
#: three-parameter profile is under-determined below this).
_MIN_FIT_MONTHS = 3


class CorrelationEngine:
    """Incremental correlation service core (single writer, many readers).

    Parameters
    ----------
    n_valid:
        Packets per constant-packet analysis window (``N_V``).
    shape:
        Traffic-matrix extent.
    cutoff:
        Level-0 capacity of the per-window hierarchical accumulator.
    mem_budget:
        Optional byte budget for the accumulator's spill ladder; ``None``
        defers to the ``REPRO_MEM_BUDGET`` knob.

    Use as a context manager, or call :meth:`close` when done; folding or
    querying a closed engine raises ``RuntimeError``.
    """

    def __init__(
        self,
        n_valid: int,
        *,
        shape: Tuple[int, int] = (2**32, 2**32),
        cutoff: int = 1 << 14,
        mem_budget: Optional[int] = None,
    ):
        # Writer lock: folds, publish, save.  Lease lock: the lease table
        # and the snapshot pointer.  See the module's concurrency contract.
        self._write_lock = threading.RLock()
        self._lease_lock = threading.Lock()
        self._analyzer = StreamingWindowAnalyzer(
            n_valid, shape=shape, cutoff=cutoff, mem_budget=mem_budget
        )
        self.n_valid = int(n_valid)
        self._win_index: List[int] = []
        self._win_start: List[float] = []
        self._win_end: List[float] = []
        self._win_quantities: List = []
        self._win_dists: List = []
        self._index_offset = 0
        self._latest_sources: Optional[SparseVec] = None
        self._months: List[Tuple[float, np.ndarray]] = []
        self._month_times = np.zeros(0, dtype=np.float64)
        self._month_fracs = np.zeros(0, dtype=np.float64)
        self._epoch = 0
        self._snapshot: Optional[EngineSnapshot] = None
        self._leases: Dict[int, int] = {}
        self._closed = False

    # -- lifecycle ---------------------------------------------------------

    def __enter__(self) -> "CorrelationEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _ensure_open(self) -> None:
        if self._closed:
            raise RuntimeError("correlation engine is closed")

    @property
    def closed(self) -> bool:
        """True once :meth:`close` has run."""
        return self._closed

    @property
    def epoch(self) -> int:
        """Epoch of the most recent publish (0 before the first)."""
        return self._epoch

    @property
    def window_count(self) -> int:
        """Constant-packet windows closed so far."""
        return len(self._win_index)

    @property
    def months_folded(self) -> int:
        """Honeyfarm months folded so far."""
        return len(self._months)

    def outstanding_leases(self) -> int:
        """Snapshot leases acquired but not yet released."""
        with self._lease_lock:
            return sum(self._leases.values())

    def close(self) -> None:
        """Release accumulator resources; idempotent.

        Closing with reader leases outstanding is allowed and
        :meth:`outstanding_leases` keeps reporting them: readers may
        still *release* after close, but no new folds, publishes or
        acquires are accepted.  A fold or publish already running
        finishes first.
        """
        with self._write_lock, self._lease_lock:
            self._closed = True

    # -- folding (the single writer) ---------------------------------------

    def fold_batch(self, packets: Packets) -> int:
        """Absorb one time-ordered packet batch; return windows closed."""
        with self._write_lock:
            self._ensure_open()
            with span("serve_fold"), stopwatch() as took:
                annotate(batch_packets=len(packets))
                completed = self._analyzer.process(packets)
                for stats in completed:
                    assert stats.matrix is not None  # engine keeps matrices
                    self._win_index.append(stats.index + self._index_offset)
                    self._win_start.append(stats.start_time)
                    self._win_end.append(stats.end_time)
                    self._win_quantities.append(stats.quantities)
                    self._win_dists.append(stats.degree_distribution)
                    self._latest_sources = stats.matrix.row_reduce()
            observe(SERVE_FOLD_SECONDS, took.seconds)
            inc(SERVE_BATCHES_FOLDED)
            if completed:
                inc(SERVE_WINDOWS_CLOSED, len(completed))
            self._gauge_epoch_lag()
            return len(completed)

    def fold_month(self, time: float, sources: np.ndarray) -> None:
        """Fold one honeyfarm month: its time and observed source set.

        ``sources`` must be integer addresses; a non-empty array of
        another dtype, or one holding a negative value, raises
        ``ValueError`` rather than wrapping into a false uint64 source.
        """
        with self._write_lock:
            self._ensure_open()
            arr = np.asarray(sources)
            if arr.size and not np.issubdtype(arr.dtype, np.integer):
                raise ValueError(f"month sources must be integers, got dtype {arr.dtype}")
            if arr.size and np.issubdtype(arr.dtype, np.signedinteger) and arr.min() < 0:
                raise ValueError(f"month sources must be non-negative, got {int(arr.min())}")
            uniq = np.unique(arr.astype(np.uint64))
            self._months.append((float(time), uniq))
            self._months.sort(key=lambda m: m[0])

    # -- derived correlation state -----------------------------------------

    def _overlap_curve(self) -> Tuple[np.ndarray, np.ndarray]:
        """Per-month overlap fractions of the latest window's sources."""
        if self._latest_sources is None or not self._months:
            return self._month_times, self._month_fracs
        tel = self._latest_sources.keys
        times = np.asarray([m[0] for m in self._months], dtype=np.float64)
        counts = per_source_trajectories(tel, [hf for _, hf in self._months]).sum(axis=0)
        fracs = counts / tel.size if tel.size else np.zeros(times.size)
        return times, fracs

    def _coeval_correlation(self) -> Optional[PeakCorrelation]:
        """Fig 4 per-bin overlap against the nearest-in-time month."""
        if self._latest_sources is None or not self._months:
            return None
        t_win = self._win_end[-1] if self._win_end else 0.0
        nearest = min(self._months, key=lambda m: abs(m[0] - t_win))
        return peak_correlation(self._latest_sources, nearest[1], self.n_valid)

    def _temporal_fit(
        self, times: np.ndarray, fracs: np.ndarray
    ) -> Optional[FitResult]:
        """Modified-Cauchy fit of the overlap curve, when determined."""
        if times.size < _MIN_FIT_MONTHS or float(fracs.max(initial=0.0)) <= 0.0:
            return None
        t0 = float(times[int(np.argmax(fracs))])
        return fit_temporal(times, fracs, t0)

    # -- publication and reader leases -------------------------------------

    def _gauge_epoch_lag(self) -> None:
        """Gauge the windows closed but not yet in a published snapshot.

        Called under the writer lock, the only place the pointer moves.
        """
        published = self._snapshot.window_count if self._snapshot is not None else 0
        set_gauge(SERVE_EPOCH_LAG, len(self._win_index) - published)

    def publish(self) -> EngineSnapshot:
        """Derive, freeze and publish the next epoch's snapshot.

        Readers keep leasing the previous epoch while this derives; the
        lease lock is held only to swap the pointer.
        """
        with self._write_lock:
            self._ensure_open()
            with span("snapshot_publish"), stopwatch() as took:
                self._epoch += 1
                annotate(epoch=self._epoch)
                times, fracs = self._overlap_curve()
                self._month_times, self._month_fracs = times, fracs
                snap = EngineSnapshot(
                    epoch=self._epoch,
                    n_valid=self.n_valid,
                    window_index=np.asarray(self._win_index, dtype=np.int64),
                    window_start=np.asarray(self._win_start, dtype=np.float64),
                    window_end=np.asarray(self._win_end, dtype=np.float64),
                    quantities=tuple(self._win_quantities),
                    degree_distributions=tuple(self._win_dists),
                    month_times=times,
                    overlap_fractions=fracs,
                    correlation=self._coeval_correlation(),
                    fit=self._temporal_fit(times, fracs),
                )
                with self._lease_lock:
                    self._snapshot = snap
            observe(SERVE_PUBLISH_SECONDS, took.seconds)
            inc(SNAPSHOTS_PUBLISHED)
            set_gauge(SNAPSHOT_EPOCH, self._epoch)
            self._gauge_epoch_lag()
            return snap

    def acquire(self) -> EngineSnapshot:
        """Take a reader lease on the current snapshot.

        Publishes epoch 1 lazily if nothing has been published yet.
        Every acquire must be matched by exactly one :meth:`release` —
        RL020 proves that per-path for local leases.
        """
        if self._snapshot is None:
            # The pointer only ever moves from None to a snapshot, so this
            # unlocked peek can be stale only in the slow direction; the
            # re-check under the writer lock publishes epoch 1 once.
            with self._write_lock:
                if self._snapshot is None:
                    self.publish()
        with self._lease_lock:
            self._ensure_open()
            snap = self._snapshot
            self._leases[snap.epoch] = self._leases.get(snap.epoch, 0) + 1
            set_gauge(SNAPSHOT_LEASES, sum(self._leases.values()))
        inc(SNAPSHOT_READERS)
        return snap

    def release(self, snap: EngineSnapshot) -> None:
        """Return a reader lease (valid even after :meth:`close`).

        Releasing an epoch that holds no lease raises ``ValueError`` and
        leaves the lease table unchanged.
        """
        with self._lease_lock:
            held = self._leases.get(snap.epoch, 0)
            if held <= 0:
                raise ValueError(
                    f"release of snapshot epoch {snap.epoch} that holds no lease"
                )
            if held == 1:
                del self._leases[snap.epoch]
            else:
                self._leases[snap.epoch] = held - 1
            set_gauge(SNAPSHOT_LEASES, sum(self._leases.values()))

    # -- queries (read the published snapshot) ------------------------------

    def query_quantities(self, index: int = -1):
        """Table II aggregates of one published window (default latest)."""
        self._ensure_open()
        snap = self.acquire()
        try:
            return snap.quantities[index]
        finally:
            self.release(snap)

    def query_degree_distribution(self, index: int = -1):
        """Degree distribution of one published window (default latest)."""
        self._ensure_open()
        snap = self.acquire()
        try:
            return snap.degree_distributions[index]
        finally:
            self.release(snap)

    def query_fit(self) -> Optional[FitResult]:
        """The published modified-Cauchy fit, if one exists."""
        self._ensure_open()
        snap = self.acquire()
        try:
            return snap.fit
        finally:
            self.release(snap)

    # -- save / restore ----------------------------------------------------

    def save(self, path: Union[str, Path]) -> Path:
        """Publish the current state and serialize the snapshot."""
        with self._write_lock:
            return save_snapshot(self.publish(), path)

    @classmethod
    def restore(
        cls, path: Union[str, Path], **engine_kwargs
    ) -> "CorrelationEngine":
        """Resume serving from a :meth:`save` archive.

        The published queryable state (windows, overlap curve, fit) and
        the writer epoch resume exactly where the archive left them;
        accumulation state (the open window, live month source sets)
        restarts empty, so newly folded data extends the window sequence
        rather than replaying it.
        """
        snap = load_snapshot(path)
        engine = cls(snap.n_valid, **engine_kwargs)
        engine._win_index = [int(i) for i in snap.window_index]
        engine._win_start = [float(t) for t in snap.window_start]
        engine._win_end = [float(t) for t in snap.window_end]
        engine._win_quantities = list(snap.quantities)
        engine._win_dists = list(snap.degree_distributions)
        engine._index_offset = len(engine._win_index)
        engine._month_times = snap.month_times
        engine._month_fracs = snap.overlap_fractions
        engine._epoch = snap.epoch  # lint: allow-engine-lifecycle -- restore resumes the archived epoch
        engine._snapshot = snap
        return engine
