"""Source-population mechanics: addresses, brightness, activity, detection."""

import numpy as np
import pytest

from repro.ip import cidr_to_range
from repro.synth import ModelConfig, SourcePopulation


@pytest.fixture(scope="module")
def pop():
    return SourcePopulation(ModelConfig(log2_nv=14, n_sources=2000, seed=7))


class TestAddresses:
    def test_counts(self, pop):
        cfg = pop.config
        assert pop.addresses.size == cfg.n_sources
        assert pop.noise_addresses.size == int(cfg.noise_pool_factor * cfg.n_sources)
        assert pop.sensor_addresses.size == cfg.n_sensors

    def test_population_outside_darkspace_and_sensors(self, pop):
        lo, hi = pop.darkspace
        slo, shi = pop.sensor_block
        for addrs in (pop.addresses, pop.noise_addresses, pop.legit_addresses):
            assert not np.any((addrs >= lo) & (addrs < hi))
            assert not np.any((addrs >= slo) & (addrs < shi))

    def test_all_addresses_disjoint(self, pop):
        merged = np.concatenate(
            [pop.addresses, pop.noise_addresses, pop.legit_addresses]
        )
        assert np.unique(merged).size == merged.size

    def test_validity_filter_drops_exactly_the_legit_senders(self, pop):
        drawn = pop.legit_addresses.copy()
        sources = np.concatenate([pop.legit_addresses[::-1], pop.addresses])
        keep = pop.valid_source_mask(sources)
        n_legit = pop.legit_addresses.size
        assert not np.any(keep[:n_legit]) and np.all(keep[n_legit:])
        # The telescope draws legit packets from this order.
        assert np.array_equal(pop.legit_addresses, drawn)

    def test_sensors_inside_block(self, pop):
        lo, hi = cidr_to_range(pop.config.sensor_block)
        assert np.all((pop.sensor_addresses >= lo) & (pop.sensor_addresses < hi))

    def test_too_many_sensors_rejected(self):
        with pytest.raises(ValueError):
            SourcePopulation(
                ModelConfig(n_sources=100, n_sensors=1000, sensor_block="1.0.0.0/24")
            )

    @pytest.mark.parametrize("seed", [-1, 2**64, 2**64 + 5])
    def test_seed_outside_u64_rejected(self, seed):
        # 2^64 + 5 would alias seed 5 in hash_u64 but not in default_rng.
        with pytest.raises(ValueError, match="seed must be in"):
            ModelConfig(seed=seed)

    def test_seed_u64_bounds_accepted(self):
        assert ModelConfig(seed=0).seed == 0
        assert ModelConfig(seed=2**64 - 1).seed == 2**64 - 1


class TestBrightness:
    def test_within_zm_support(self, pop):
        assert pop.brightness.min() >= 1
        assert pop.brightness.max() <= pop.config.zm_dmax

    def test_amplification_near_unity(self, pop):
        # The population is sized so observed degrees track brightness.
        assert 0.3 < pop.window_amplification < 3.0

    def test_detection_prob_in_unit_interval(self, pop):
        assert pop.detection_prob.min() >= 0.0
        assert pop.detection_prob.max() <= 1.0

    def test_brighter_is_more_detectable(self, pop):
        order = np.argsort(pop.expected_degree)
        p = pop.detection_prob[order]
        assert p[-1] >= p[0]
        # Overall positive association.
        assert np.corrcoef(np.log2(pop.expected_degree), pop.detection_prob)[0, 1] > 0.8


class TestActivity:
    def test_determinism(self, pop):
        a = pop.active_mask(3)
        b = pop.active_mask(3)
        np.testing.assert_array_equal(a, b)

    def test_activity_prob_bounds(self, pop):
        for m in range(pop.config.n_months):
            q = pop.activity_prob(m)
            assert q.min() >= pop.config.bg_activity - 1e-12
            assert q.max() <= 1.0

    def test_activity_rate_tracks_probability(self, pop):
        for m in (0, 7, 14):
            q = pop.activity_prob(m)
            rate = pop.active_mask(m).mean()
            assert abs(rate - q.mean()) < 0.05

    def test_beam_episodes_are_contiguous(self, pop):
        """Comonotone coupling: each source's beam months form one run."""
        months = np.arange(pop.config.n_months)
        floor = pop.config.episode_floor
        from repro.rand import hash_uniform
        from repro.synth.population import _SALT_BEAM

        u = floor + (1 - floor) * hash_uniform(
            pop.config.seed ^ _SALT_BEAM, np.arange(pop.n)
        )
        beam = pop._monthly_q > u[:, None]
        runs = np.abs(np.diff(beam.astype(int), axis=1)).sum(axis=1)
        # One contiguous episode has at most 2 transitions (on, off).
        assert np.all(runs <= 2)

    def test_anchored_sources_active_near_anchor(self, pop):
        m = 7
        near = np.abs(pop.anchors - m) < 0.5
        far = np.abs(pop.anchors - m) > 6
        if near.sum() > 50 and far.sum() > 50:
            active = pop.active_mask(m)
            assert active[near].mean() > active[far].mean() + 0.2

    def test_month_bounds_checked(self, pop):
        with pytest.raises(ValueError):
            pop.active_mask(-1)
        with pytest.raises(ValueError):
            pop.active_mask(pop.config.n_months)

    def test_month_of_time_clamps(self, pop):
        assert pop.month_of_time(-3.0) == 0
        assert pop.month_of_time(4.55) == 4
        assert pop.month_of_time(99.0) == pop.config.n_months - 1


class TestDetection:
    def test_detected_implies_active(self, pop):
        for m in (0, 4, 14):
            det = pop.detected_mask(m)
            act = pop.active_mask(m)
            assert not np.any(det & ~act)

    def test_boost_increases_detections(self, pop):
        base = pop.detected_mask(5).sum()
        boosted = pop.detected_mask(5, boost=4.0).sum()
        assert boosted > base

    def test_noise_detections_deterministic(self, pop):
        a = pop.noise_detected_mask(2)
        np.testing.assert_array_equal(a, pop.noise_detected_mask(2))
        assert 0 < a.mean() < 1

    def test_detection_independent_across_months(self, pop):
        # Different months re-roll detection; masks should differ.
        a = pop.detected_mask(6)
        b = pop.detected_mask(7)
        assert not np.array_equal(a, b)


def test_seed_changes_population():
    a = SourcePopulation(ModelConfig(log2_nv=12, n_sources=500, seed=1))
    b = SourcePopulation(ModelConfig(log2_nv=12, n_sources=500, seed=2))
    assert not np.array_equal(a.addresses, b.addresses)
    assert not np.array_equal(a.brightness, b.brightness)


def test_same_seed_reproduces_population():
    a = SourcePopulation(ModelConfig(log2_nv=12, n_sources=500, seed=9))
    b = SourcePopulation(ModelConfig(log2_nv=12, n_sources=500, seed=9))
    np.testing.assert_array_equal(a.addresses, b.addresses)
    np.testing.assert_array_equal(a.brightness, b.brightness)
    np.testing.assert_array_equal(a.anchors, b.anchors)


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"log2_nv": 2},
            {"log2_nv": 40},
            {"n_sources": 1},
            {"n_months": 0},
            {"bg_activity": 1.0},
            {"bg_activity": -0.1},
            {"max_activity": 0.0},
            {"episode_floor": 1.0},
            {"focused_fraction": 1.5},
            {"legit_fraction": 0.6},
            {"noise_pool_factor": -1.0},
            {"noise_detect_prob": 2.0},
            {"anchor_margin": -1.0},
        ],
    )
    def test_invalid_config_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ModelConfig(**kwargs)

    def test_defaults_valid(self):
        cfg = ModelConfig()
        assert cfg.n_valid == 1 << cfg.log2_nv
