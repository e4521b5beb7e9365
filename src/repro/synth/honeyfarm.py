"""The honeyfarm simulator (GreyNoise analogue).

Observes the shared population in month-long windows.  An *active* source
is detected with the Fig-4 logarithmic brightness probability (its chance
of touching — and conversing with — a sensor during the month); detections
are enriched with D4M-style metadata (classification, intent, actor tags),
built only when a caller reads it, and a low-intensity noise pool visible
only to the honeyfarm inflates the monthly source counts, as the real
GreyNoise's commercial noise-labelling database dwarfs any single
telescope window (Table I).

Because sensors respond to probes, the honeyfarm's traffic matrix occupies
*both* the external→internal and internal→external quadrants (Fig 1);
:meth:`HoneyfarmSimulator.observe_month` returns a sampled response stream
exhibiting that structure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, Tuple

import numpy as np

from ..d4m import Assoc
from ..ip import ints_to_ips
from ..obs.spans import annotate, traced
from ..rand import hash_u64
from ..traffic.packet import Packets
from .calibration import CONFIG_CHANGE_MONTHS, month_days, month_labels
from .population import SourcePopulation
from .telescope import SECONDS_PER_MONTH

__all__ = ["HoneyfarmSimulator", "HoneyfarmMonth"]

#: Default sensitivity multiplier applied in configuration-change months to
#: reproduce Table I's 2020-03 and 2021-04 source-count spikes.
CONFIG_BOOST = 5.0

_CLASSIFICATIONS = np.asarray(["malicious", "benign", "unknown"], dtype=np.str_)
_CLASS_WEIGHTS = np.asarray([0.62, 0.08, 0.30])
_INTENTS = np.asarray(
    ["scanner", "worm", "backscatter", "bruteforce", "crawler"], dtype=np.str_
)
_INTENT_WEIGHTS = np.asarray([0.55, 0.15, 0.12, 0.13, 0.05])


@dataclass(frozen=True, eq=False)
class HoneyfarmMonth:
    """One month of honeyfarm observations.

    Equality and hashing are by identity: two observations of the same
    month hold equal data but compare unequal.

    Attributes
    ----------
    month_index:
        Index into the study window (0-based).
    label:
        Calendar label, e.g. ``"2020-06"``.
    days:
        Collection duration in days (Table I column).
    sources:
        Sorted unique source addresses detected this month (population
        detections plus honeyfarm-only noise).
    responses:
        Sampled sensor→source response packets (internal→external
        quadrant evidence for Fig 1).
    enrichment:
        String-valued :class:`~repro.d4m.Assoc`: rows are source IPs,
        columns ``classification`` / ``intent`` / ``first_seen``.  Built
        on first read and cached.
    hits:
        Numeric :class:`~repro.d4m.Assoc` of per-source sensor-hit counts.
        Built on first read and cached.
    """

    month_index: int
    label: str
    days: int
    sources: np.ndarray
    responses: Packets
    # Inputs of the lazy builders: the population seed, the detected
    # sources' population indices, addresses and expected degrees, and
    # the honeyfarm-only noise addresses.
    _seed: int = field(repr=False)
    _det_idx: np.ndarray = field(repr=False)
    _det_addrs: np.ndarray = field(repr=False)
    _det_degree: np.ndarray = field(repr=False)
    _noise_addrs: np.ndarray = field(repr=False)

    @property
    def n_sources(self) -> int:
        """Unique sources this month (Table I column)."""
        return int(self.sources.size)

    def source_set(self) -> np.ndarray:
        """Sorted unique detected source addresses."""
        return self.sources

    @cached_property
    def enrichment(self) -> Assoc:
        """String-valued metadata in D4M layout (rows: IPs)."""
        return _build_enrichment(
            self._seed, self._det_idx, self._det_addrs, self._noise_addrs, self.label
        )

    @cached_property
    def hits(self) -> Assoc:
        """Numeric per-source sensor-hit counts, brightness-proportional."""
        return _build_hits(
            self._seed,
            self._det_idx,
            self._det_addrs,
            self._det_degree,
            self._noise_addrs,
            self.month_index,
        )


def _categorical(
    values: np.ndarray, weights: np.ndarray, seed: int, idx: np.ndarray
) -> np.ndarray:
    """Stable per-source categorical labels via counter hashing."""
    u = hash_u64(seed, idx).astype(np.float64) / float(2**64)
    cuts = np.cumsum(weights)
    return values[np.searchsorted(cuts, u, side="right").clip(0, values.size - 1)]


@traced(name="honeyfarm_enrichment")
def _build_enrichment(
    seed: int,
    det_idx: np.ndarray,
    det_addrs: np.ndarray,
    noise_addrs: np.ndarray,
    label: str,
) -> Assoc:
    det_ips = ints_to_ips(det_addrs)
    noise_ips = ints_to_ips(noise_addrs)
    rows = []
    cols = []
    vals = []
    if det_ips.size:
        classification = _categorical(
            _CLASSIFICATIONS, _CLASS_WEIGHTS, seed ^ 0xC1A55, det_idx
        )
        intent = _categorical(_INTENTS, _INTENT_WEIGHTS, seed ^ 0x1B7E17, det_idx)
        rows += [det_ips, det_ips, det_ips]
        cols += [
            np.full(det_ips.size, "classification"),
            np.full(det_ips.size, "intent"),
            np.full(det_ips.size, "first_seen"),
        ]
        vals += [classification, intent, np.full(det_ips.size, label)]
    if noise_ips.size:
        rows += [noise_ips, noise_ips]
        cols += [
            np.full(noise_ips.size, "classification"),
            np.full(noise_ips.size, "intent"),
        ]
        vals += [
            np.full(noise_ips.size, "benign"),
            np.full(noise_ips.size, "crawler"),
        ]
    if not rows:
        return Assoc.empty()
    return Assoc(np.concatenate(rows), np.concatenate(cols), np.concatenate(vals))


@traced(name="honeyfarm_enrichment")
def _build_hits(
    seed: int,
    det_idx: np.ndarray,
    det_addrs: np.ndarray,
    det_degree: np.ndarray,
    noise_addrs: np.ndarray,
    month: int,
) -> Assoc:
    if det_addrs.size == 0 and noise_addrs.size == 0:
        return Assoc.empty()
    det_hits = np.maximum(
        1.0,
        np.round(
            np.log2(det_degree + 1.0)
            * (
                1.0
                + (hash_u64(seed ^ 0x417, det_idx, month).astype(np.float64) / 2**64)
            )
        ),
    )
    rows = ints_to_ips(np.concatenate([det_addrs, noise_addrs]))
    vals = np.concatenate([det_hits, np.ones(noise_addrs.size)])
    return Assoc(rows, "sensor_hits", vals)


class HoneyfarmSimulator:
    """Month-resolution honeyfarm observation of a source population.

    :meth:`observe_month` computes a month's sources and responses; its
    enrichment metadata and hit counts are built only when read.
    """

    def __init__(
        self,
        population: SourcePopulation,
        *,
        config_boost: float = CONFIG_BOOST,
        boost_months: Tuple[int, ...] = CONFIG_CHANGE_MONTHS,
        max_response_packets: int = 4096,
    ):
        self.population = population
        self.config = population.config
        self.config_boost = float(config_boost)
        self.boost_months = tuple(boost_months)
        self.max_response_packets = int(max_response_packets)
        self._labels = month_labels(self.config.n_months)

    def boost_for(self, month: int) -> float:
        """Sensitivity multiplier for a month (config-change spikes)."""
        return self.config_boost if month in self.boost_months else 1.0

    @traced(name="honeyfarm_month")
    def observe_month(self, month: int) -> HoneyfarmMonth:
        """Observe one month; deterministic given the population seed."""
        pop = self.population
        m = pop._check_month(month)
        boost = self.boost_for(m)
        detected = pop.detected_mask(m, boost=boost)
        det_idx = np.flatnonzero(detected)
        det_addrs = pop.addresses[det_idx]
        noise_addrs = pop.noise_addresses[pop.noise_detected_mask(m, boost=boost)]
        sources = np.sort(np.concatenate([det_addrs, noise_addrs]))

        label = self._labels[m]
        responses = self._build_responses(det_addrs, m)
        annotate(month=m, sources=int(sources.size))
        return HoneyfarmMonth(
            month_index=m,
            label=label,
            days=month_days(label),
            sources=sources,
            responses=responses,
            _seed=self.config.seed,
            _det_idx=det_idx,
            _det_addrs=det_addrs,
            _det_degree=pop.expected_degree[det_idx],
            _noise_addrs=noise_addrs,
        )

    # -- internals ----------------------------------------------------------

    def _build_responses(self, det_addrs: np.ndarray, month: int) -> Packets:
        """Sampled sensor conversations: each picked source probes a sensor
        (external→internal) and the sensor answers (internal→external) —
        the two populated quadrants of the honeyfarm's Fig-1 matrix."""
        pop = self.population
        if det_addrs.size == 0:
            return Packets.empty()
        rng = np.random.default_rng((self.config.seed, 0x5E50, month))
        n = min(self.max_response_packets // 2, det_addrs.size)
        picked = rng.choice(det_addrs, n, replace=False)
        sensors = rng.choice(pop.sensor_addresses, n)
        t0 = month * SECONDS_PER_MONTH
        probe_t = np.sort(
            rng.uniform(t0, t0 + month_days(self._labels[month]) * 86400.0, n)
        )
        reply_t = probe_t + rng.uniform(0.001, 0.5, n)
        return Packets.concat(
            [Packets(probe_t, picked, sensors), Packets(reply_t, sensors, picked)]
        ).sort_by_time()

    def month_summary(self, month: int) -> Dict[str, object]:
        """Table-I row for one month: label, days, source count."""
        obs = self.observe_month(month)
        return {"label": obs.label, "days": obs.days, "sources": obs.n_sources}
