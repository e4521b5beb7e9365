"""The shared source population: a drifting beam of heavy-tailed scanners.

Both instruments observe the *same* population, which is what makes their
observations correlate.  Each source carries:

* a unique IPv4 address (outside the darkspace and sensor blocks),
* an expected per-window brightness ``d_exp`` drawn Zipf-Mandelbrot,
* an *anchor month* — the center of its activity episode — and per-source
  modified-Cauchy activity profile parameters ``(alpha_s, beta_s)`` taken
  from the Fig 7/8 calibration curves at its brightness,
* a focus flag (a minority of sources concentrate on one destination —
  DoS backscatter style — the rest sweep the darkspace uniformly).

Month-level activity uses a comonotone episode coupling: each source draws
one tempered uniform ``u_s`` and is beam-active in exactly the months where
``q_s(m) = min(beta_s / (beta_s + |m - anchor_s|^alpha_s), q_max) > u_s`` —
one contiguous, heavy-tailed episode per source, so the active-population
overlap between two months decays with the modified-Cauchy profile itself
(the paper's drifting beam).  An independent counter-hashed background
flicker adds the long-lag correlation floor.  Everything is deterministic
given the seed: any subset of (source, month) queries agrees with any
other, with no stored activity table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..hypersparse.merge import in_sorted
from ..ip import cidr_to_range
from ..rand import hash_bernoulli, hash_uniform
from ..stats.zipf import ZipfMandelbrot
from .calibration import DEFAULT_CALIBRATION, CalibrationCurves, detection_probability

__all__ = ["ModelConfig", "SourcePopulation"]

# Hash salts separating the model's independent randomness streams.
_SALT_ACTIVITY = 0xA11CE
_SALT_BEAM = 0xBEA3
_SALT_DETECT = 0xDE7EC7
_SALT_NOISE = 0x4015E


@dataclass(frozen=True)
class ModelConfig:
    """Configuration of the synthetic Internet.

    Defaults target laptop scale: ``N_V = 2^20`` packet windows against the
    paper's ``2^30``.  All thresholds scale as ``N_V^{1/2}``, so the
    figures keep their shape at any ``log2_nv`` (see DESIGN.md §2).
    """

    #: log2 of the telescope window size N_V.
    log2_nv: int = 20
    #: Number of population (beam) sources.
    n_sources: int = 60_000
    #: Zipf-Mandelbrot brightness distribution (Fig 3 ground truth).
    zm_alpha: float = 1.8
    zm_delta: float = 4.0
    #: log2 of the brightness truncation; default 2 octaves above N_V^(1/2).
    zm_log2_dmax: Optional[int] = None
    #: The telescope's monitored darkspace.
    darkspace: str = "10.0.0.0/8"
    #: The honeyfarm's sensor netblock (its "internal" addresses).
    sensor_block: str = "198.18.0.0/24"
    #: Honeyfarm sensor count ("hundreds of servers"); at most the block size.
    n_sensors: int = 256
    #: Months in the study window.
    n_months: int = 15
    #: Background activity probability (dormant sources waking briefly).
    bg_activity: float = 0.04
    #: Cap on per-month activity probability.
    max_activity: float = 0.98
    #: Episode temper: the per-source beam uniform is drawn from
    #: [episode_floor, 1), so no episode outlives q_s(m) > episode_floor —
    #: scanners retire; without this, length-biased sampling floods every
    #: observation with immortal sources and flattens the temporal decay.
    episode_floor: float = 0.32
    #: Anchors are drawn uniform over [-margin, n_months + margin).
    anchor_margin: float = 6.0
    #: Fraction of sources focusing on a single destination.
    focused_fraction: float = 0.10
    #: Fraction of additional legitimate (non-scanning) traffic mixed into
    #: raw telescope captures, removed by the validity filter.
    legit_fraction: float = 0.001
    #: Honeyfarm-only low-intensity noise pool, as a multiple of n_sources.
    noise_pool_factor: float = 2.0
    #: Per-month detection probability of a noise-pool source.
    noise_detect_prob: float = 0.15
    #: Master seed.
    seed: int = 20220101

    def __post_init__(self) -> None:
        if self.log2_nv < 4 or self.log2_nv > 34:
            raise ValueError("log2_nv must be in [4, 34]")
        if self.n_sources < 10:
            raise ValueError("n_sources must be at least 10")
        if self.n_months < 1:
            raise ValueError("n_months must be positive")
        if not 0.0 <= self.bg_activity < 1.0:
            raise ValueError("bg_activity must be in [0, 1)")
        if not 0.0 < self.max_activity <= 1.0:
            raise ValueError("max_activity must be in (0, 1]")
        if not 0.0 <= self.episode_floor < 1.0:
            raise ValueError("episode_floor must be in [0, 1)")
        if not 0.0 <= self.focused_fraction <= 1.0:
            raise ValueError("focused_fraction must be in [0, 1]")
        if not 0.0 <= self.legit_fraction < 0.5:
            raise ValueError("legit_fraction must be in [0, 0.5)")
        if self.noise_pool_factor < 0:
            raise ValueError("noise_pool_factor must be non-negative")
        if not 0.0 <= self.noise_detect_prob <= 1.0:
            raise ValueError("noise_detect_prob must be in [0, 1]")
        if self.anchor_margin < 0:
            raise ValueError("anchor_margin must be non-negative")
        # rand.hash_u64 masks the seed to 64 bits and default_rng rejects
        # negatives, so only [0, 2^64) names one reproducible study.
        if not 0 <= self.seed < 1 << 64:
            raise ValueError(f"seed must be in [0, 2^64), got {self.seed}")

    @property
    def n_valid(self) -> int:
        """The telescope window size ``N_V``."""
        return 1 << self.log2_nv

    @property
    def brightness_threshold(self) -> float:
        """The paper's ``N_V^{1/2}`` detection-saturation threshold."""
        return float(self.n_valid) ** 0.5

    @property
    def zm_dmax(self) -> int:
        """Brightness truncation degree."""
        if self.zm_log2_dmax is not None:
            return 1 << self.zm_log2_dmax
        return 1 << (self.log2_nv // 2 + 2)


class SourcePopulation:
    """All per-source state of the synthetic Internet (see module docs)."""

    def __init__(
        self,
        config: ModelConfig = ModelConfig(),
        *,
        calibration: CalibrationCurves = DEFAULT_CALIBRATION,
    ):
        self.config = config
        self.calibration = calibration
        rng = np.random.default_rng(config.seed)
        n = config.n_sources
        dark_lo, dark_hi = cidr_to_range(config.darkspace)
        self.darkspace = (dark_lo, dark_hi)

        # -- addresses: population, noise pool, sensors, legit senders ------
        sens_lo, sens_hi = cidr_to_range(config.sensor_block)
        self.sensor_block = (sens_lo, sens_hi)
        if config.n_sensors > sens_hi - sens_lo:
            raise ValueError("n_sensors exceeds the sensor block size")
        self.sensor_addresses = np.arange(
            sens_lo, sens_lo + config.n_sensors, dtype=np.uint64
        )
        n_noise = int(round(config.noise_pool_factor * n))
        n_legit = max(16, n // 1000)
        total = n + n_noise + n_legit
        addrs = self._draw_addresses(
            rng, total, excluded=((dark_lo, dark_hi), (sens_lo, sens_hi))
        )
        self.addresses = addrs[:n]
        self.noise_addresses = addrs[n : n + n_noise]
        self.legit_addresses = addrs[n + n_noise :]

        # -- brightness ------------------------------------------------------
        zm = ZipfMandelbrot(config.zm_alpha, config.zm_delta, config.zm_dmax)
        self.brightness = zm.sample(n, rng).astype(np.float64)  # d_exp
        self.zipf_model = zm

        # -- activity profile -------------------------------------------------
        self.anchors = rng.uniform(
            -config.anchor_margin, config.n_months + config.anchor_margin, n
        )
        # Pass 1: provisional window amplification with nominal profile
        # parameters (the amplification barely depends on them).
        prov_q = self._activity_of(self._profile(np.full(n, 1.0), np.full(n, 2.5)))
        amp0 = config.n_valid / float((self.brightness * prov_q.mean(axis=1)).sum())
        d_hat0 = self.brightness * amp0
        rel = d_hat0 / config.brightness_threshold
        jitter_a = rng.lognormal(0.0, 0.08, n)
        jitter_b = rng.lognormal(0.0, 0.15, n)
        self.profile_alpha = np.clip(calibration.alpha(rel) * jitter_a, 0.2, 3.0)
        self.profile_beta = np.clip(calibration.beta(rel) * jitter_b, 0.1, 20.0)
        # Pass 2: final amplification with the real profiles.
        self._monthly_q = self._profile(self.profile_alpha, self.profile_beta)
        self.window_amplification = config.n_valid / float(
            (self.brightness * self._activity_of(self._monthly_q).mean(axis=1)).sum()
        )
        #: Expected observed degree in one telescope window when active.
        self.expected_degree = self.brightness * self.window_amplification
        #: Fig 4 detection law at each source's expected degree.
        self.detection_prob = detection_probability(
            self.expected_degree, config.n_valid, floor=0.05
        )

        # -- destination behaviour --------------------------------------------
        self.focused = rng.random(n) < config.focused_fraction
        self.focus_dst = rng.integers(dark_lo, dark_hi, n, dtype=np.uint64)

    # -- construction helpers ---------------------------------------------

    @staticmethod
    def _draw_addresses(
        rng: np.random.Generator, count: int, *, excluded=()
    ) -> np.ndarray:
        """Unique random addresses outside the excluded ranges."""
        out = np.zeros(0, dtype=np.uint64)
        while out.size < count:
            batch = rng.integers(0, 2**32, 2 * (count - out.size) + 64, dtype=np.uint64)
            for lo, hi in excluded:
                batch = batch[(batch < np.uint64(lo)) | (batch >= np.uint64(hi))]
            out = np.unique(np.concatenate([out, batch]))
        # unique() sorted them; shuffle so slices are unbiased.
        rng.shuffle(out)
        return out[:count]

    def _profile(self, alpha: np.ndarray, beta: np.ndarray) -> np.ndarray:
        """Beam-activity probability per (source, month): shape (n, n_months).

        The raw modified-Cauchy profile around each source's anchor, capped
        at ``max_activity``.  The background flicker is *not* folded in here:
        it is an independent stream added in :meth:`active_mask`.
        """
        months = np.arange(self.config.n_months, dtype=np.float64)
        lag = np.abs(months[None, :] - self.anchors[:, None])
        q = beta[:, None] / (beta[:, None] + lag ** alpha[:, None])
        return np.minimum(q, self.config.max_activity)

    def _activity_of(self, q: np.ndarray) -> np.ndarray:
        """Total activity probability: tempered beam OR independent flicker."""
        floor = self.config.episode_floor
        bg = self.config.bg_activity
        beam_p = np.clip((q - floor) / (1.0 - floor), 0.0, 1.0)
        return beam_p + bg - beam_p * bg

    # -- queries ---------------------------------------------------------------

    @property
    def n(self) -> int:
        """Population size."""
        return self.config.n_sources

    def activity_prob(self, month: int) -> np.ndarray:
        """Per-source probability of being active in the given month
        (tempered beam profile OR independent background flicker)."""
        m = self._check_month(month)
        return self._activity_of(self._monthly_q[:, m])

    def active_mask(self, month: int) -> np.ndarray:
        """Deterministic activity draw for the given month.

        Comonotone beam coupling: one uniform ``u_s`` per source across all
        months, active while ``u_s < q_s(m)``.  Because ``q_s`` is unimodal
        around the anchor, each source's beam activity is one contiguous
        episode whose duration is heavy-tailed — and the population overlap
        between two months decays with the modified-Cauchy profile itself,
        which is the drifting-beam behaviour the paper infers.  An
        independent per-month background flicker adds the long-lag floor.
        """
        m = self._check_month(month)
        floor = self.config.episode_floor
        u = floor + (1.0 - floor) * hash_uniform(
            self.config.seed ^ _SALT_BEAM, np.arange(self.n)
        )
        beam = u < self._monthly_q[:, m]
        flicker = hash_bernoulli(
            self.config.bg_activity,
            self.config.seed ^ _SALT_ACTIVITY,
            np.arange(self.n),
            m,
        )
        return beam | flicker

    def detected_mask(self, month: int, *, boost: float = 1.0) -> np.ndarray:
        """Honeyfarm detection draw: active AND caught by a sensor.

        ``boost`` scales detection (sensor-configuration changes); the
        detection stream is hashed independently of the activity stream.
        """
        m = self._check_month(month)
        p = np.clip(self.detection_prob * boost, 0.0, 0.99)
        caught = hash_bernoulli(
            p, self.config.seed ^ _SALT_DETECT, np.arange(self.n), m
        )
        return self.active_mask(m) & caught

    def noise_detected_mask(self, month: int, *, boost: float = 1.0) -> np.ndarray:
        """Detection draw over the honeyfarm-only noise pool."""
        m = self._check_month(month)
        p = min(self.config.noise_detect_prob * boost, 0.99)
        return hash_bernoulli(
            np.full(self.noise_addresses.size, p),
            self.config.seed ^ _SALT_NOISE,
            np.arange(self.noise_addresses.size),
            m,
        )

    def valid_source_mask(self, sources: np.ndarray) -> np.ndarray:
        """The telescope's validity filter: True where a packet's source is
        not one of the legitimate senders.

        Searches a sorted copy, so ``legit_addresses`` keeps the draw order
        the telescope samples from.
        """
        return ~in_sorted(np.sort(self.legit_addresses), sources)

    def _check_month(self, month: int) -> int:
        m = int(month)
        if not 0 <= m < self.config.n_months:
            raise ValueError(
                f"month {m} outside study window [0, {self.config.n_months})"
            )
        return m

    def month_of_time(self, month_time: float) -> int:
        """Month index containing a fractional month time (clamped)."""
        return int(np.clip(np.floor(month_time), 0, self.config.n_months - 1))
