"""Peak (coeval) correlation of telescope and honeyfarm sources — Fig 4.

The primitive question: *of the telescope sources with brightness in a
given bin, what fraction appears in the honeyfarm's source set for the
same month?*  Brightness bins are binary-logarithmic ``[2^i, 2^{i+1})``,
matching the degree binning used everywhere else in the study.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..fits import per_source_trajectories
from ..hypersparse.coo import SparseVec

__all__ = [
    "DegreeBin",
    "PeakBinResult",
    "PeakCorrelation",
    "degree_bins",
    "peak_correlation",
]


@dataclass(frozen=True)
class DegreeBin:
    """A half-open brightness bin ``[lo, hi)`` of source packet counts."""

    lo: float
    hi: float

    @property
    def center(self) -> float:
        """Geometric bin center."""
        return float(np.sqrt(self.lo * self.hi))

    @property
    def label(self) -> str:
        """Human-readable label, e.g. ``"[2^4, 2^5)"``."""

        def fmt(x: float) -> str:
            lg = np.log2(x)
            if lg == int(lg):
                return f"2^{int(lg)}"
            return f"{x:g}"

        return f"[{fmt(self.lo)}, {fmt(self.hi)})"

    def select(self, vec: SparseVec) -> SparseVec:
        """Entries of a degree vector falling in this bin."""
        return vec.select_range(self.lo, self.hi)


def degree_bins(
    d_max: float, *, d_min: float = 1.0
) -> List[DegreeBin]:
    """Binary-logarithmic bins ``[2^i, 2^{i+1})`` covering ``[d_min, d_max]``."""
    if d_max < d_min:
        raise ValueError("d_max must be >= d_min")
    lo_i = int(np.floor(np.log2(d_min)))
    hi_i = int(np.floor(np.log2(d_max)))
    return [DegreeBin(2.0**i, 2.0 ** (i + 1)) for i in range(lo_i, hi_i + 1)]


@dataclass(frozen=True)
class PeakBinResult:
    """Overlap measurement for one brightness bin."""

    bin: DegreeBin
    n_telescope: int
    n_common: int

    @property
    def fraction(self) -> float:
        """Fraction of the bin's telescope sources seen by the honeyfarm."""
        return self.n_common / self.n_telescope if self.n_telescope else 0.0


@dataclass(frozen=True)
class PeakCorrelation:
    """Fig 4: per-bin coeval overlap of one telescope sample.

    Attributes
    ----------
    bins:
        Per-bin overlap measurements (ascending brightness).
    n_valid:
        The telescope window's ``N_V`` (sets the ``N_V^{1/2}`` threshold).
    """

    bins: Tuple[PeakBinResult, ...]
    n_valid: int

    @property
    def threshold(self) -> float:
        """The saturation threshold ``N_V^{1/2}``."""
        return float(self.n_valid) ** 0.5

    def centers(self) -> np.ndarray:
        """Bin centers."""
        return np.asarray([b.bin.center for b in self.bins])

    def fractions(self) -> np.ndarray:
        """Measured overlap fraction per bin."""
        return np.asarray([b.fraction for b in self.bins])

    def counts(self) -> np.ndarray:
        """Telescope sources per bin."""
        return np.asarray([b.n_telescope for b in self.bins])

    def nonempty(self) -> "PeakCorrelation":
        """Drop bins with no telescope sources."""
        return PeakCorrelation(
            tuple(b for b in self.bins if b.n_telescope > 0), self.n_valid
        )


def peak_correlation(
    source_packets: SparseVec,
    honeyfarm_sources: np.ndarray,
    n_valid: int,
    *,
    bins: Optional[Sequence[DegreeBin]] = None,
) -> PeakCorrelation:
    """Compute the Fig-4 per-bin coeval overlap.

    Parameters
    ----------
    source_packets:
        The telescope window's ``A_t 1`` (per-source packet counts).
    honeyfarm_sources:
        Sorted unique source addresses of the coeval honeyfarm month
        (``ValueError`` otherwise).
    n_valid:
        The window's ``N_V``.
    bins:
        Brightness bins; defaults to log2 bins up to the observed maximum.
    """
    if bins is None:
        d_max = max(source_packets.max(), 1.0)
        bins = degree_bins(d_max)
    # One membership column for all telescope sources, then bin the results.
    seen = per_source_trajectories(source_packets.keys, [honeyfarm_sources])[:, 0]
    results = []
    for b in bins:
        in_bin = (source_packets.vals >= b.lo) & (source_packets.vals < b.hi)
        results.append(
            PeakBinResult(
                bin=b,
                n_telescope=int(in_bin.sum()),
                n_common=int((in_bin & seen).sum()),
            )
        )
    return PeakCorrelation(bins=tuple(results), n_valid=int(n_valid))
