"""Measurement consistency across time and vantage (paper's framing question).

The introduction sets the program: "comparing observations of the Internet
from two different viewpoints at the same time can tell us which
measurements are consistent."  This experiment quantifies consistency
three ways:

1. **Across time, same instrument** — the pairwise KS-distance matrix of
   the five telescope samples' degree distributions (the quantitative
   version of Fig 3's visual overlay), plus a bootstrap confidence interval
   on each Fig 5 fit parameter showing the estimates are stable.
2. **Across instruments, same time** — the coeval source-set overlap
   (Fig 4's aggregate) for every telescope sample against its own month.
3. **Across instruments and time** — the fraction of each month's
   honeyfarm sources that any telescope sample ever sees (the reverse
   direction, which the paper does not plot but its framework implies).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from ..core import CorrelationStudy
from ..fits import bootstrap_temporal_fit, per_source_trajectories
from .common import Check, ascii_table

__all__ = ["run", "ConsistencyResult"]


@dataclass(frozen=True)
class ConsistencyResult:
    """The three consistency views."""

    ks_matrix: np.ndarray
    max_binned_deviation: float
    sample_labels: Tuple[str, ...]
    coeval_overlap: List[Tuple[str, float]]
    reverse_overlap: List[Tuple[str, float]]
    alpha_interval: Tuple[float, float, float]  # (point, lo, hi)
    drop_interval: Tuple[float, float, float]

    def format(self) -> str:
        """Render the result as an aligned text table."""
        k = self.ks_matrix
        short = [l[:10] for l in self.sample_labels]
        ks_rows = [
            [short[i]] + [f"{k[i, j]:.4f}" for j in range(k.shape[1])]
            for i in range(k.shape[0])
        ]
        lines = [
            "Consistency across time: pairwise KS distances of sample "
            "degree distributions",
            ascii_table([""] + short, ks_rows),
            "",
            "Consistency across instruments (coeval source overlap):",
            ascii_table(
                ["sample", "overall overlap"],
                [[l, f"{o:.3f}"] for l, o in self.coeval_overlap],
            ),
            "",
            "Reverse direction (honeyfarm month sources ever seen by telescope):",
            ascii_table(
                ["month", "fraction"],
                [[l, f"{o:.3f}"] for l, o in self.reverse_overlap[:5]],
            ),
            "",
            (
                f"Fig 5 fit stability (90% bootstrap): alpha = "
                f"{self.alpha_interval[0]:.2f} "
                f"[{self.alpha_interval[1]:.2f}, {self.alpha_interval[2]:.2f}], "
                f"one-month drop = {self.drop_interval[0]:.2f} "
                f"[{self.drop_interval[1]:.2f}, {self.drop_interval[2]:.2f}]"
            ),
        ]
        return "\n".join(lines)

    def checks(self) -> List[Check]:
        """Shape checks against the paper's claims (see EXPERIMENTS.md)."""
        off_diag = self.ks_matrix[~np.eye(self.ks_matrix.shape[0], dtype=bool)]
        coeval = np.asarray([o for _, o in self.coeval_overlap])
        reverse = np.asarray([o for _, o in self.reverse_overlap])
        a_pt, a_lo, a_hi = self.alpha_interval
        return [
            Check(
                "samples months apart have similar log2-binned distributions",
                self.max_binned_deviation < 0.08,
                f"max pairwise bin deviation {self.max_binned_deviation:.4f} "
                f"(raw two-sample KS up to {off_diag.max():.3f} reflects the "
                "per-window amplification shift, not a shape change)",
            ),
            Check(
                "every telescope sample overlaps its coeval month consistently",
                float(coeval.std()) < 0.1 and coeval.min() > 0.2,
                f"overlaps {np.round(coeval, 3).tolist()}",
            ),
            Check(
                "the honeyfarm sees far more than any telescope window "
                "(reverse overlap is small)",
                float(np.median(reverse)) < 0.5,
                f"median reverse overlap {np.median(reverse):.3f}",
            ),
            Check(
                "the Fig 5 alpha estimate is bootstrap-stable (CI width < 1.5)",
                (a_hi - a_lo) < 1.5 and a_lo <= a_pt <= a_hi,
                f"alpha {a_pt:.2f} in [{a_lo:.2f}, {a_hi:.2f}]",
            ),
        ]


def run(study: CorrelationStudy) -> ConsistencyResult:
    """Compute all three consistency views."""
    # 1. KS distance between every pair of sample degree distributions.
    samples = study.samples
    n = len(samples)
    degs = [s.source_packets.vals for s in samples]
    ks = np.zeros((n, n))
    for i in range(n):
        # Empirical-vs-empirical KS via each sample's ECDF on shared values.
        for j in range(n):
            if i == j:
                continue
            values = np.unique(np.concatenate([degs[i], degs[j]]))
            ecdf_i = np.searchsorted(np.sort(degs[i]), values, side="right") / degs[i].size
            ecdf_j = np.searchsorted(np.sort(degs[j]), values, side="right") / degs[j].size
            ks[i, j] = np.abs(ecdf_i - ecdf_j).max()

    # 1b. The paper's actual stability statistic: log2-binned deviation.
    from ..stats import differential_cumulative

    binned = [differential_cumulative(d).prob for d in degs]
    max_dev = 0.0
    for i in range(n):
        for j in range(i + 1, n):
            m = min(binned[i].size, binned[j].size)
            max_dev = max(max_dev, float(np.abs(binned[i][:m] - binned[j][:m]).max()))

    # 2. Coeval overlap per sample.
    coeval = []
    for si, sample in enumerate(samples):
        month_sources = study.monthly_sources[study.coeval_month_index(si)]
        frac = float(per_source_trajectories(sample.sources(), [month_sources]).mean())
        coeval.append((study.model.scenario.telescope_labels[si], frac))

    # 3. Reverse: fraction of each month's sources ever seen by a telescope.
    all_tel = np.unique(np.concatenate([s.sources() for s in samples]))
    reverse = []
    for month, sources in zip(study.months, study.monthly_sources):
        frac = float(per_source_trajectories(sources, [all_tel]).mean()) if sources.size else 0.0
        reverse.append((month.label, frac))

    # 4. Bootstrap the Fig 5 fit.
    sp = study.telescope_sources(0)
    selected = study.threshold_bin().select(sp)
    traj = per_source_trajectories(selected.keys, study.monthly_sources)
    boot = bootstrap_temporal_fit(
        traj,
        np.asarray(study.month_times),
        samples[0].month_time,
        replicates=100,
        seed=study.model.config.seed,
    )
    return ConsistencyResult(
        ks_matrix=ks,
        max_binned_deviation=max_dev,
        sample_labels=tuple(study.model.scenario.telescope_labels),
        coeval_overlap=coeval,
        reverse_overlap=reverse,
        alpha_interval=(boot.point["alpha"], *boot.interval("alpha")),
        drop_interval=(
            boot.point["one_month_drop"],
            *boot.interval("one_month_drop"),
        ),
    )
