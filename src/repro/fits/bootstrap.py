"""Per-source overlap trajectories and bootstrap uncertainty for the fits.

:func:`per_source_trajectories` is the one source-overlap primitive: the
Figs 4-8 fractions, the serve curve and the vantage and consistency
overlaps are all column means of its membership matrix.

The paper reports point estimates of ``alpha`` and ``beta`` per brightness
bin (Figs 7-8); its §V calls for "predictions for future measurements",
which need uncertainties.  The natural resampling unit is the *source*:
each temporal curve is an average of per-source indicator trajectories
("was source s in month m's honeyfarm set?"), so a bootstrap replicate
resamples sources with replacement, rebuilds the curve, and refits.

:func:`bootstrap_temporal_fit` does exactly that, returning a percentile
interval for every fitted parameter and derived one-month drop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

import numpy as np

from ..hypersparse.merge import in_sorted
from .fitting import fit_temporal, one_month_drop

__all__ = ["BootstrapResult", "bootstrap_temporal_fit", "per_source_trajectories"]


def per_source_trajectories(
    telescope_sources: np.ndarray,
    monthly_sources: Sequence[np.ndarray],
) -> np.ndarray:
    """Indicator matrix ``(n_sources, n_months)``: source in month's set.

    The one source-overlap primitive: every overlap fraction in the
    package is a column mean of this matrix, and bootstrap replicates are
    row resamples.  Month sets must be sorted and unique; one that is not
    raises ``ValueError`` naming its month index.
    """
    tel = np.asarray(telescope_sources, dtype=np.uint64)
    out = np.zeros((tel.size, len(monthly_sources)), dtype=bool)
    for j, month in enumerate(monthly_sources):
        month = np.asarray(month, dtype=np.uint64)
        if not np.all(month[1:] > month[:-1]):
            raise ValueError(f"month {j}: source set is not sorted and unique")
        out[:, j] = in_sorted(month, tel)
    return out


@dataclass(frozen=True)
class BootstrapResult:
    """Percentile confidence bounds for one curve's modified-Cauchy fit.

    Attributes
    ----------
    point:
        Point estimates ``{param: value}`` from the full sample, including
        the derived ``one_month_drop``.
    lo, hi:
        Lower/upper percentile bounds per parameter.
    replicates:
        Number of bootstrap replicates used.
    level:
        Nominal confidence level (e.g. 0.9).
    """

    point: Dict[str, float]
    lo: Dict[str, float]
    hi: Dict[str, float]
    replicates: int
    level: float

    def interval(self, param: str) -> Tuple[float, float]:
        """(lower, upper) bound for one parameter."""
        return self.lo[param], self.hi[param]

    def describe(self) -> str:
        """One-line summary: each parameter's point estimate and interval."""
        parts = [
            f"{k}={self.point[k]:.3g} [{self.lo[k]:.3g}, {self.hi[k]:.3g}]"
            for k in self.point
        ]
        return ", ".join(parts)


def bootstrap_temporal_fit(
    trajectories: np.ndarray,
    times: np.ndarray,
    t0: float,
    *,
    family: str = "modified_cauchy",
    replicates: int = 200,
    level: float = 0.9,
    seed: int = 0,
) -> BootstrapResult:
    """Bootstrap a temporal-curve fit by resampling sources.

    Parameters
    ----------
    trajectories:
        Per-source indicator matrix from :func:`per_source_trajectories`.
    times, t0:
        As in :func:`~repro.fits.fit_temporal`.
    replicates:
        Bootstrap replicates (each refits the grid — cost scales
        linearly).
    level:
        Central interval mass.
    """
    if trajectories.ndim != 2 or trajectories.shape[0] == 0:
        raise ValueError("trajectories must be a non-empty (sources x months) matrix")
    if not 0 < level < 1:
        raise ValueError("level must be in (0, 1)")
    n = trajectories.shape[0]
    times = np.asarray(times, dtype=np.float64)

    def fit_params(curve: np.ndarray) -> Dict[str, float]:
        fit = fit_temporal(times, curve, t0, family=family)
        out = dict(zip(fit.param_names, fit.params))
        if "beta" in out:
            out["one_month_drop"] = one_month_drop(out["beta"])
        return out

    point = fit_params(trajectories.mean(axis=0))
    rng = np.random.default_rng(seed)
    samples: Dict[str, list] = {k: [] for k in point}
    for _ in range(replicates):
        idx = rng.integers(0, n, n)
        curve = trajectories[idx].mean(axis=0)
        for k, v in fit_params(curve).items():
            samples[k].append(v)
    alpha_tail = (1.0 - level) / 2.0
    lo = {k: float(np.quantile(v, alpha_tail)) for k, v in samples.items()}
    hi = {k: float(np.quantile(v, 1.0 - alpha_tail)) for k, v in samples.items()}
    return BootstrapResult(
        point=point, lo=lo, hi=hi, replicates=replicates, level=level
    )
