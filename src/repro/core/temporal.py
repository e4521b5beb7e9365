"""Temporal correlation of telescope sources with honeyfarm months — Figs 5-6.

Fix one telescope sample and one brightness bin; for every honeyfarm month
in the study, measure the fraction of the bin's telescope sources present
in that month's source set.  The resulting 15-point curve peaks at the
coeval month and decays with lag — the paper's central measurement, fit to
the modified Cauchy profile in :mod:`repro.fits`.  Each curve is the
column mean of :func:`repro.fits.per_source_trajectories` over the bin's
sources, the same membership matrix the bootstrap resamples.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

import numpy as np

from ..fits import FitResult, fit_all_families, fit_temporal, per_source_trajectories
from ..hypersparse.coo import SparseVec
from .correlation import DegreeBin

__all__ = ["TemporalCurve", "temporal_correlation"]


@dataclass(frozen=True)
class TemporalCurve:
    """One temporal-correlation curve.

    Attributes
    ----------
    times:
        Honeyfarm month centers (fractional months).
    fractions:
        Overlap fraction of the bin's telescope sources at each month.
    t0:
        The telescope sample's fractional month (the peak location).
    bin:
        The brightness bin, or ``None`` for an all-sources curve.
    n_sources:
        Telescope sources in the bin.
    """

    times: np.ndarray
    fractions: np.ndarray
    t0: float
    bin: Optional[DegreeBin]
    n_sources: int

    def fit(self, family: str = "modified_cauchy", **kwargs) -> FitResult:
        """Fit one model family with the paper's grid procedure."""
        return fit_temporal(self.times, self.fractions, self.t0, family=family, **kwargs)

    def fit_all(self, **kwargs) -> Dict[str, FitResult]:
        """Fit all three candidate families (the Fig 5 comparison)."""
        return fit_all_families(self.times, self.fractions, self.t0, **kwargs)

    def peak_fraction(self) -> float:
        """Measured overlap at the month nearest ``t0``."""
        return float(self.fractions[int(np.argmin(np.abs(self.times - self.t0)))])

    def background_fraction(self) -> float:
        """Mean overlap at lags of 6+ months — the long-lag floor."""
        far = np.abs(self.times - self.t0) >= 6.0
        if not far.any():
            raise ValueError("no observations at lag >= 6 months")
        return float(self.fractions[far].mean())


def temporal_correlation(
    source_packets: SparseVec,
    monthly_sources: Sequence[np.ndarray],
    month_times: Sequence[float],
    t0: float,
    *,
    bin: Optional[DegreeBin] = None,
) -> TemporalCurve:
    """Measure one temporal-correlation curve.

    Parameters
    ----------
    source_packets:
        The telescope window's per-source packet counts (``A_t 1``).
    monthly_sources:
        One sorted unique source array per honeyfarm month (``ValueError``
        otherwise, naming the month index).
    month_times:
        Fractional-month center of each honeyfarm month.
    t0:
        Fractional month of the telescope sample.
    bin:
        Restrict to telescope sources with brightness in this bin
        (``None`` = all sources).
    """
    if len(monthly_sources) != len(month_times):
        raise ValueError("monthly_sources and month_times must align")
    selected = bin.select(source_packets) if bin is not None else source_packets
    tel = selected.keys
    n = tel.size
    counts = per_source_trajectories(tel, monthly_sources).sum(axis=0)
    fractions = counts / n if n else np.zeros(len(monthly_sources))
    return TemporalCurve(
        times=np.asarray(month_times, dtype=np.float64),
        fractions=fractions,
        t0=float(t0),
        bin=bin,
        n_sources=int(n),
    )
