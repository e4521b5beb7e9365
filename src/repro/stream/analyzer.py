"""Streaming constant-packet window analysis.

Consumes packet batches as they arrive and emits a full analysis record
(:class:`WindowStats`: Table II aggregates, unique sources, duration,
degree distribution) the moment each ``N_V``-packet window completes —
the online counterpart of the batch ``constant_packet_windows`` →
``network_quantities`` pipeline, built on the hierarchical accumulator so
per-batch work stays amortized ``O(batch log window)``.

The batch and streaming paths are verified equivalent in
``tests/stream/test_analyzer.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from ..hypersparse import HierarchicalMatrix, HyperSparseMatrix
from ..obs.metrics import PACKETS_INGESTED, inc
from ..obs.spans import annotate, span
from ..stats.binning import BinnedDistribution, differential_cumulative
from ..traffic.packet import Packets
from ..traffic.quantities import NetworkQuantities, network_quantities

__all__ = ["StreamingWindowAnalyzer", "WindowStats"]


@dataclass(frozen=True)
class WindowStats:
    """Analysis record for one completed constant-packet window.

    ``matrix`` is ``None`` when the analyzer was built with
    ``keep_matrices=False``: the traffic matrix is dropped the moment the
    derived aggregates are computed, so long runs hold O(1) windows of
    buffer memory instead of O(windows).
    """

    index: int
    start_time: float
    end_time: float
    quantities: NetworkQuantities
    degree_distribution: BinnedDistribution
    matrix: Optional[HyperSparseMatrix]

    @property
    def duration(self) -> float:
        """Window duration in seconds."""
        return self.end_time - self.start_time

    @property
    def unique_sources(self) -> int:
        """Distinct source addresses observed in the window."""
        return self.quantities.unique_sources


class StreamingWindowAnalyzer:
    """Single-pass constant-packet window analyzer.

    Parameters
    ----------
    n_valid:
        Packets per analysis window (the paper's ``N_V``).
    shape:
        Traffic-matrix extent.
    cutoff:
        Level-0 capacity of the per-window hierarchical accumulator.
    keep_matrices:
        When ``True`` (default) each :class:`WindowStats` carries the
        window's full traffic matrix.  Long-running consumers that only
        need the derived aggregates should pass ``False``: stats are
        published with ``matrix=None`` and the buffer is dropped, keeping
        resident memory flat over arbitrarily many windows.
    mem_budget:
        Optional byte budget for the accumulator's spill ladder
        (``HierarchicalMatrix(budget=...)``); ``None`` defers to the
        ``REPRO_MEM_BUDGET`` knob.

    Feed batches with :meth:`process`; completed windows come back
    immediately.  Batches need not align with window boundaries and may be
    any size.  Packets are assumed time-ordered across batches (the
    capture order); within-batch order is preserved.
    """

    def __init__(
        self,
        n_valid: int,
        *,
        shape: Tuple[int, int] = (2**32, 2**32),
        cutoff: int = 1 << 14,
        keep_matrices: bool = True,
        mem_budget: Optional[int] = None,
    ):
        if n_valid <= 0:
            raise ValueError("n_valid must be positive")
        self.n_valid = int(n_valid)
        self.shape = shape
        self.cutoff = int(cutoff)
        self.keep_matrices = bool(keep_matrices)
        self.mem_budget = mem_budget
        self._acc = self._new_accumulator()
        self._in_window = 0
        self._window_index = 0
        self._start_time: Optional[float] = None
        self._last_time: float = 0.0
        self._windows_emitted = 0

    def _new_accumulator(self) -> HierarchicalMatrix:
        return HierarchicalMatrix(
            shape=self.shape, cutoff=self.cutoff, budget=self.mem_budget
        )

    @property
    def windows_emitted(self) -> int:
        """Completed windows so far."""
        return self._windows_emitted

    @property
    def pending_packets(self) -> int:
        """Packets in the currently open window."""
        return self._in_window

    def _check_bounds(self, packets: Packets) -> None:
        """Reject a batch holding an address outside ``shape``.

        Runs before any state changes: a bad packet late in a batch must
        not leave earlier windows closed but unreported.
        """
        n_rows, n_cols = self.shape
        src, dst = packets.src, packets.dst
        if src.size == 0 or (int(src.max()) < n_rows and int(dst.max()) < n_cols):
            return
        i = int(np.flatnonzero((src >= n_rows) | (dst >= n_cols))[0])
        field, value = ("src", src[i]) if src[i] >= n_rows else ("dst", dst[i])
        raise ValueError(
            f"packet {i}: {field} address {int(value)} outside shape {self.shape}"
        )

    def process(self, packets: Packets) -> List[WindowStats]:
        """Absorb one batch; return any windows completed by it.

        Raises ``ValueError`` (with no state changed) when any packet's
        ``src``/``dst`` lies outside ``shape``.
        """
        self._check_bounds(packets)
        out: List[WindowStats] = []
        pos = 0
        n = len(packets)
        while pos < n:
            if self._start_time is None and n > pos:
                self._start_time = float(packets.time[pos])
            room = self.n_valid - self._in_window
            take = min(room, n - pos)
            chunk = packets[pos : pos + take]
            self._acc.insert(chunk.src, chunk.dst)
            inc(PACKETS_INGESTED, take)
            self._in_window += take
            self._last_time = float(chunk.time[-1])
            pos += take
            if self._in_window == self.n_valid:
                out.append(self._close_window())
        return out

    def _close_window(self) -> WindowStats:
        with span("stream_window"):
            annotate(index=self._window_index)
            matrix = self._acc.total()
            quantities = network_quantities(matrix)
            degrees = matrix.row_reduce().vals
        stats = WindowStats(
            index=self._window_index,
            start_time=float(self._start_time if self._start_time is not None else 0.0),
            end_time=self._last_time,
            quantities=quantities,
            degree_distribution=differential_cumulative(degrees),
            matrix=matrix if self.keep_matrices else None,
        )
        del matrix
        self._acc = self._new_accumulator()
        self._in_window = 0
        self._window_index += 1
        self._start_time = None
        self._windows_emitted += 1
        return stats

    def flush(self) -> Optional[WindowStats]:
        """Close the open window early (end of stream); None if empty."""
        if self._in_window == 0:
            return None
        return self._close_window()
