"""repro — reproduction of *Temporal Correlation of Internet Observatories
and Outposts* (Kepner et al., IEEE IPDPS Workshops 2022).

The package layers, bottom to top:

* :mod:`repro.hypersparse` — GraphBLAS-style hypersparse matrices over the
  IPv4 plane (sorted-COO kernels, hierarchical accumulation, spill runs);
* :mod:`repro.d4m` — D4M associative arrays with string keys and values;
* :mod:`repro.anonymize` — CryptoPAN-style prefix-preserving anonymization
  and the paper's three trusted-sharing correlation workflows;
* :mod:`repro.traffic` — packet streams, constant-packet windows, traffic
  matrices with Fig-1 quadrants, and every Table II network quantity;
* :mod:`repro.synth` — the synthetic Internet standing in for the
  restricted CAIDA/GreyNoise traces (see DESIGN.md §2);
* :mod:`repro.stats` / :mod:`repro.fits` — log2-binned degree statistics,
  Zipf-Mandelbrot fitting, and the Gaussian/Cauchy/modified-Cauchy
  temporal fits with the paper's grid procedure;
* :mod:`repro.core` — the correlation study itself (Figs 3-8);
* :mod:`repro.experiments` — one runnable module per paper table/figure.

Quickstart::

    from repro import CorrelationStudy, ModelConfig

    study = CorrelationStudy(config=ModelConfig(log2_nv=16, n_sources=8000))
    peak = study.fig4_peak()          # Fig 4: coeval overlap vs brightness
    curve = study.fig5_curve()        # Fig 5: 15-month temporal correlation
    fit = curve.fit("modified_cauchy")
"""

from .analysis.sanitize import bootstrap as _sanitize_bootstrap
from .core import CorrelationStudy
from .core.correlation import DegreeBin, PeakCorrelation, peak_correlation
from .core.temporal import TemporalCurve, temporal_correlation
from .d4m import Assoc
from .fits import fit_temporal, modified_cauchy
from .hypersparse import HierarchicalMatrix, HyperSparseMatrix
from .stats import ZipfMandelbrot, differential_cumulative, fit_zipf_mandelbrot
from .synth import InternetModel, ModelConfig
from .traffic import Packets, constant_packet_windows, network_quantities

__version__ = "1.0.0"

# Arm any sanitizers requested via REPRO_SAN now that every module they
# patch is imported (the knob registry rejects malformed values loudly).
_sanitize_bootstrap()

__all__ = [
    "CorrelationStudy",
    "DegreeBin",
    "PeakCorrelation",
    "peak_correlation",
    "TemporalCurve",
    "temporal_correlation",
    "Assoc",
    "fit_temporal",
    "modified_cauchy",
    "HierarchicalMatrix",
    "HyperSparseMatrix",
    "ZipfMandelbrot",
    "differential_cumulative",
    "fit_zipf_mandelbrot",
    "InternetModel",
    "ModelConfig",
    "Packets",
    "constant_packet_windows",
    "network_quantities",
    "__version__",
]
