"""Why Fig 4 conditions on brightness (paper §IV vs ref [21]).

The paper notes a tension with prior work: Nawrocki et al. [21] report
that IXPs and honeypots observe *mostly disjoint* attack sets, yet Fig 4
shows telescope sources above the brightness threshold are almost always
seen by the honeyfarm.  This experiment demonstrates the resolution the
paper's methodology embodies: **overall overlap between two vantage points
is composition-dependent and therefore not a meaningful consistency
statistic** — it must be conditioned on brightness, which is exactly what
Fig 4 does.

Sweep the telescope's collecting power (window size ``N_V``; shrinking the
monitored address block thins per-source packets the same way):

* a *small* instrument resolves only bright sources, so its *overall*
  overlap with the honeyfarm is high;
* a *large* instrument additionally resolves swarms of dim sources the
  honeyfarm misses, so its overall overlap **falls** as it grows — two
  perfectly consistent instruments can thus appear "mostly disjoint"
  or "mostly coincident" depending on what they resolve;
* meanwhile the overlap within a **fixed intrinsic-brightness cohort** is
  invariant to instrument size — per-source visibility is a property of
  the source, not the telescope.  (A cohort of fixed intrinsic rate
  appears at observed degree proportional to ``N_V``, so the tracking bin
  scales with the window.)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from ..core import CorrelationStudy, DegreeBin
from ..fits import per_source_trajectories
from .common import Check, ascii_table

__all__ = ["run", "VantageResult"]

#: Intrinsic cohort: observed degree bin at the *largest* window; at a
#: window 2^k smaller the same cohort appears 2^k dimmer.
TOP_BIN = DegreeBin(2.0**8, 2.0**9)
#: Octaves below the top window swept by the experiment.
SWEEP_OCTAVES = 6


@dataclass(frozen=True)
class VantageResult:
    """Overall vs brightness-conditioned overlap across instrument sizes."""

    #: (log2 N_V, unique sources, overall overlap, fixed-bin overlap, bin n)
    rows: List[Tuple[int, int, float, float, int]]

    def format(self) -> str:
        """Render the result as an aligned text table."""
        table = [
            [f"2^{lg}", uniq, f"{ov:.3f}", f"{bin_ov:.3f}" if n >= 10 else "-", n]
            for lg, uniq, ov, bin_ov, n in self.rows
        ]
        return (
            "Vantage-point composition effect (why Fig 4 bins by brightness)\n"
            + ascii_table(
                [
                    "window N_V",
                    "sources",
                    "overall overlap",
                    "cohort overlap",
                    "cohort n",
                ],
                table,
            )
        )

    def checks(self) -> List[Check]:
        """Shape checks against the paper's claims (see EXPERIMENTS.md)."""
        overall = np.asarray([r[2] for r in self.rows])
        populated = [(r[3], r[4]) for r in self.rows if r[4] >= 10]
        bin_ovs = np.asarray([b for b, _ in populated])
        return [
            Check(
                "overall overlap falls as the instrument resolves dimmer sources",
                overall[-1] < 0.75 * overall[0],
                f"{overall[0]:.3f} (small) -> {overall[-1]:.3f} (large)",
            ),
            Check(
                "fixed intrinsic cohort's overlap is invariant to instrument size",
                bin_ovs.size >= 2 and float(bin_ovs.max() - bin_ovs.min()) < 0.25,
                f"cohort overlaps {np.round(bin_ovs, 3).tolist()} "
                f"(bin {TOP_BIN.label} at the top window, scaled down with N_V)",
            ),
            Check(
                "apparent 'disjointness' [21] is reproducible by composition "
                "alone (overall overlap < 0.55 at the largest size)",
                overall[-1] < 0.55,
                f"largest-instrument overall overlap {overall[-1]:.3f}",
            ),
        ]


def run(study: CorrelationStudy) -> VantageResult:
    """Sweep instrument size; measure overall and fixed-bin overlap."""
    top = study.model.config.log2_nv
    coeval = study.monthly_sources[4]
    rows: List[Tuple[int, int, float, float, int]] = []
    for lg in range(max(8, top - SWEEP_OCTAVES), top + 1, 2):
        sample = study.model.telescope_sample(4.55, n_valid=1 << lg)
        seen = per_source_trajectories(sample.sources(), [coeval])[:, 0]
        overall = float(seen.mean()) if seen.size else 0.0
        scale = 2.0 ** (lg - top)
        d = sample.source_packets.vals
        cohort = (d >= TOP_BIN.lo * scale) & (d < TOP_BIN.hi * scale)
        bin_overlap = float(seen[cohort].mean()) if cohort.any() else 0.0
        rows.append((lg, seen.size, overall, bin_overlap, int(cohort.sum())))
    return VantageResult(rows=rows)


def plot(result: VantageResult) -> str:
    """Semilog-x render of overall vs cohort overlap across sizes."""
    from ..report import AsciiPlot

    p = AsciiPlot(x_log=True, title="Overlap vs instrument size N_V")
    nv = [2.0 ** r[0] for r in result.rows]
    p.add_series("overall", nv, [r[2] for r in result.rows])
    populated = [(2.0 ** r[0], r[3]) for r in result.rows if r[4] >= 10]
    if populated:
        p.add_series("cohort", [x for x, _ in populated], [y for _, y in populated])
    return p.render()
