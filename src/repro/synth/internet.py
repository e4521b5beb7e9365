"""The full synthetic Internet: one population, two instruments.

:class:`InternetModel` bundles a :class:`~repro.synth.SourcePopulation`
with the telescope and honeyfarm simulators; :class:`StudyScenario`
captures the paper's observation schedule (Table I): fifteen honeyfarm
months from 2020-02 and five telescope samples roughly six weeks
apart, on Wednesdays at noon or midnight, expressed as fractional
month offsets from the study start.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from .calibration import PAPER_TABLE1_CAIDA, month_labels
from .honeyfarm import HoneyfarmMonth, HoneyfarmSimulator
from .population import ModelConfig, SourcePopulation
from .telescope import TelescopeSample, TelescopeSimulator

__all__ = ["InternetModel", "StudyScenario"]


@dataclass(frozen=True)
class StudyScenario:
    """Observation schedule for a correlation study.

    Defaults reproduce Table I: month labels 2020-02..2021-04 and the five
    CAIDA sample times converted to fractional months.
    """

    n_months: int = 15
    telescope_month_times: Tuple[float, ...] = tuple(
        row[3] for row in PAPER_TABLE1_CAIDA
    )
    telescope_labels: Tuple[str, ...] = tuple(row[0] for row in PAPER_TABLE1_CAIDA)

    @property
    def month_labels(self) -> List[str]:
        """Calendar labels for each honeyfarm month."""
        return month_labels(self.n_months)

    @property
    def month_centers(self) -> List[float]:
        """Fractional-month centers of the honeyfarm windows (m + 0.5)."""
        return [m + 0.5 for m in range(self.n_months)]


class InternetModel:
    """One shared population observed by a telescope and a honeyfarm.

    Parameters
    ----------
    config:
        Population / instrument configuration.  ``config.n_months`` must
        cover the scenario.
    scenario:
        Observation schedule; defaults to the paper's Table I.
    """

    def __init__(
        self,
        config: ModelConfig = ModelConfig(),
        scenario: StudyScenario = StudyScenario(),
    ):
        if config.n_months < scenario.n_months:
            raise ValueError(
                f"config covers {config.n_months} months but the scenario "
                f"needs {scenario.n_months}"
            )
        self.config = config
        self.scenario = scenario
        self.population = SourcePopulation(config)
        self.telescope = TelescopeSimulator(self.population)
        self.honeyfarm = HoneyfarmSimulator(self.population)

    def telescope_sample(self, month_time: float, **kwargs) -> TelescopeSample:
        """One constant-packet telescope window at a fractional month."""
        return self.telescope.sample(month_time, **kwargs)

    def telescope_samples(self, **kwargs) -> List[TelescopeSample]:
        """All telescope windows of the scenario schedule."""
        return [
            self.telescope.sample(t, **kwargs)
            for t in self.scenario.telescope_month_times
        ]

    def honeyfarm_month(self, month: int) -> HoneyfarmMonth:
        """One honeyfarm month."""
        return self.honeyfarm.observe_month(month)

    def honeyfarm_months(self) -> List[HoneyfarmMonth]:
        """All honeyfarm months of the scenario."""
        return [
            self.honeyfarm.observe_month(m) for m in range(self.scenario.n_months)
        ]
