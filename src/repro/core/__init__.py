"""The paper's contribution: observatory↔outpost correlation analysis.

Given telescope samples (constant-packet windows with per-source packet
counts) and honeyfarm months (source sets), this package computes:

* **peak correlation** (Fig 4): per brightness bin, the fraction of
  telescope sources found in the coeval honeyfarm month, with the
  empirical ``log2(d)/log2(N_V^{1/2})`` law;
* **temporal correlation** (Figs 5-6): the same fraction against honeyfarm
  months across the study span, fit to Gaussian / Cauchy / modified-Cauchy
  profiles with the paper's grid procedure;
* **parameter sweeps** (Figs 7-8): best-fit ``alpha`` and the one-month
  drop ``1/(beta+1)`` across brightness bins;
* :class:`CorrelationStudy` — the end-to-end driver tying the synthetic
  instruments, the optional anonymized-sharing path, and all of the above
  together.
"""

from .correlation import (
    DegreeBin,
    PeakBinResult,
    PeakCorrelation,
    degree_bins,
    peak_correlation,
)
from .empirical import empirical_log_law, log_law_errors
from .temporal import TemporalCurve, temporal_correlation
from .study import CorrelationStudy, StudyResults

__all__ = [
    "DegreeBin",
    "PeakBinResult",
    "PeakCorrelation",
    "degree_bins",
    "peak_correlation",
    "empirical_log_law",
    "log_law_errors",
    "TemporalCurve",
    "temporal_correlation",
    "CorrelationStudy",
    "StudyResults",
]
