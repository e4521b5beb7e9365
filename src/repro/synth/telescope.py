"""The darkspace telescope simulator (CAIDA analogue).

Samples constant-packet windows from the shared population: the sources
active in the window's month emit packets into the monitored darkspace in
proportion to their brightness (a multinomial draw of ``N_V`` packets), a
trace of legitimate traffic is mixed in and then discarded by the validity
filter — mirroring how the real telescope discards the small amount of
legitimate traffic reaching its /8 — and the surviving packets aggregate
into a hypersparse traffic matrix whose only populated quadrant is
external→internal (Fig 1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..hypersparse import HyperSparseMatrix
from ..hypersparse.coo import SparseVec
from ..obs.metrics import PACKETS_INGESTED, inc
from ..obs.spans import annotate, traced
from ..traffic.matrix import TrafficMatrixView
from ..traffic.packet import Packets
from .population import SourcePopulation

__all__ = ["TelescopeSimulator", "TelescopeSample", "WindowSourceCounts"]

#: Seconds per (average) month, used to anchor packet timestamps.
SECONDS_PER_MONTH = 30.44 * 86400.0


def _bursty_times(
    rng: np.random.Generator, t0: float, duration: float, n: int
) -> np.ndarray:
    """Sorted arrival times with realistic burstiness.

    Internet background radiation is far from Poisson-uniform: scanning
    campaigns and backscatter events arrive in bursts.  A uniform
    background carries ~60% of the packets; the rest concentrate in a
    handful of Gaussian bursts.  This is what makes constant-*time*
    windows fluctuate in packet count — the instability constant-packet
    windowing removes (the paper's [22]-[24] motivation, measured in the
    ablation benchmark).
    """
    n_bursts = int(rng.integers(3, 9))
    centers = rng.uniform(t0, t0 + duration, n_bursts)
    widths = rng.uniform(0.005, 0.05, n_bursts) * duration
    share = rng.dirichlet(np.ones(n_bursts)) * 0.4
    counts = rng.multinomial(n, np.concatenate([[0.6], share]))
    parts = [rng.uniform(t0, t0 + duration, counts[0])]
    for c, w, k in zip(centers, widths, counts[1:]):
        parts.append(rng.normal(c, w, k))
    times = np.clip(np.concatenate(parts), t0, t0 + duration)
    rng.shuffle(times)
    return np.sort(times[:n])


@dataclass(frozen=True)
class TelescopeSample:
    """One constant-packet telescope observation.

    Attributes
    ----------
    month_time:
        Fractional month of the sample (study clock, month 0 = first
        honeyfarm month).
    month_index:
        The whole month containing the sample.
    packets:
        The ``N_V`` valid packets (legitimate traffic already filtered).
    packets_raw:
        The capture before the validity filter (includes legit traffic).
    matrix:
        The external→internal traffic matrix ``A_t`` of the valid packets.
    source_packets:
        ``A_t 1`` — per-source packet counts (the degree ``d`` of Figs 3-8).
    duration:
        Window duration in seconds (variable, per constant-packet design).
    """

    month_time: float
    month_index: int
    packets: Packets
    packets_raw: Packets
    matrix: HyperSparseMatrix
    source_packets: SparseVec
    duration: float

    @property
    def n_valid(self) -> int:
        """The window's ``N_V``."""
        return len(self.packets)

    @property
    def unique_sources(self) -> int:
        """Unique sources in the window (Table I column)."""
        return self.source_packets.nnz

    def sources(self) -> np.ndarray:
        """Sorted unique source addresses."""
        return self.source_packets.keys


@dataclass(frozen=True)
class WindowSourceCounts:
    """The multinomial source draw of one window, without its packets.

    The per-source packet counts fully determine a window's source
    marginal; materializing them alone costs ``O(active sources)`` where
    the packets cost ``O(N_V)`` — the out-of-core scaling path
    (:func:`repro.experiments.scaling.run_out_of_core`) draws these once
    per window and expands packet chunks lazily in pool workers.
    Produced by the *same* RNG draw as :meth:`TelescopeSimulator.sample`,
    so the counts are bit-identical to the full sample's.
    """

    month_index: int
    addresses: np.ndarray  # emitting source addresses (uint64)
    counts: np.ndarray  # packets per emitting source (>= 1 each)
    focused: np.ndarray  # bool: source hits a fixed target
    focus_dst: np.ndarray  # that target (meaningful where focused)

    @property
    def n_packets(self) -> int:
        """Total darkspace packets of the window (the ``N_V`` drawn)."""
        return int(self.counts.sum())


class TelescopeSimulator:
    """Constant-packet darkspace sampling of a source population."""

    def __init__(self, population: SourcePopulation):
        self.population = population
        self.config = population.config
        lo, hi = population.darkspace
        self.darkspace = (lo, hi)

    def _window_draw(self, month_time: float, nv: int):
        """The window's RNG and multinomial source draw (the stream prefix).

        Shared by :meth:`sample` and :meth:`window_source_counts`: the
        multinomial is the first draw on the window RNG, so both paths
        see bit-identical counts.
        """
        pop = self.population
        cfg = self.config
        if nv <= 0:
            raise ValueError("n_valid must be positive")
        m = pop.month_of_time(month_time)
        rng = np.random.default_rng(
            (cfg.seed, 0x7E1E5C0, int(round(month_time * 1000)), nv)
        )

        active = pop.active_mask(m)
        idx = np.flatnonzero(active)
        if idx.size == 0:
            raise RuntimeError(f"no active sources in month {m}")
        weights = pop.brightness[idx]
        probs = weights / weights.sum()
        counts = rng.multinomial(nv, probs)
        emitting = counts > 0
        return rng, m, idx[emitting], counts[emitting]

    def window_source_counts(
        self, month_time: float, *, n_valid: int | None = None
    ) -> WindowSourceCounts:
        """The window's source draw alone — no packets materialized.

        Bit-identical to the counts :meth:`sample` would draw for the
        same ``(month_time, n_valid)``; costs ``O(active sources)``
        regardless of ``N_V``.
        """
        nv = int(n_valid) if n_valid is not None else self.config.n_valid
        pop = self.population
        _, m, idx, counts = self._window_draw(month_time, nv)
        return WindowSourceCounts(
            month_index=m,
            addresses=pop.addresses[idx],
            counts=counts.astype(np.int64),
            focused=pop.focused[idx],
            focus_dst=pop.focus_dst[idx],
        )

    @traced(name="telescope_sample")
    def sample(
        self, month_time: float, *, n_valid: int | None = None
    ) -> TelescopeSample:
        """Observe one window of ``n_valid`` packets at the given time.

        Deterministic given (population seed, month_time, n_valid): repeat
        calls reproduce the identical window.
        """
        pop = self.population
        cfg = self.config
        nv = int(n_valid) if n_valid is not None else cfg.n_valid
        rng, m, idx, counts = self._window_draw(month_time, nv)

        src = np.repeat(pop.addresses[idx], counts)
        dst = self._destinations(rng, idx, counts)

        # Mix in legitimate traffic, to be removed by the validity filter.
        n_legit = rng.binomial(nv, cfg.legit_fraction)
        if n_legit:
            legit_src = rng.choice(pop.legit_addresses, n_legit)
            legit_dst = rng.integers(
                self.darkspace[0], self.darkspace[1], n_legit, dtype=np.uint64
            )
            src = np.concatenate([src, legit_src])
            dst = np.concatenate([dst, legit_dst])

        # Shuffle packet order, then stamp sorted arrival times.
        order = rng.permutation(src.size)
        src, dst = src[order], dst[order]
        duration = float(rng.uniform(950.0, 1650.0))
        t0 = month_time * SECONDS_PER_MONTH
        times = _bursty_times(rng, t0, duration, src.size)
        raw = Packets(times, src, dst)

        valid = raw[pop.valid_source_mask(raw.src)]
        inc(PACKETS_INGESTED, len(valid))
        annotate(month=m, nv=nv, n_raw=len(raw))
        matrix = TrafficMatrixView.from_packets(
            valid, self.darkspace
        ).external_to_internal()
        return TelescopeSample(
            month_time=float(month_time),
            month_index=m,
            packets=valid,
            packets_raw=raw,
            matrix=matrix,
            source_packets=matrix.row_reduce(),
            duration=duration,
        )

    def _destinations(
        self, rng: np.random.Generator, idx: np.ndarray, counts: np.ndarray
    ) -> np.ndarray:
        """Per-packet destinations: focused sources hit their fixed target,
        sweepers spray uniformly over the darkspace."""
        pop = self.population
        lo, hi = self.darkspace
        total = int(counts.sum())
        dst = rng.integers(lo, hi, total, dtype=np.uint64)
        focused_mask = np.repeat(pop.focused[idx], counts)
        if np.any(focused_mask):
            dst[focused_mask] = np.repeat(pop.focus_dst[idx], counts)[focused_mask]
        return dst
