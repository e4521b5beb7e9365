"""Honeyfarm simulator: monthly enriched source observations."""

import hashlib

import numpy as np
import pytest

from repro.synth import HoneyfarmSimulator, ModelConfig, SourcePopulation
from repro.synth import honeyfarm
from repro.synth.calibration import CONFIG_CHANGE_MONTHS


@pytest.fixture(scope="module")
def pop():
    return SourcePopulation(ModelConfig(log2_nv=13, n_sources=1500, seed=13))


@pytest.fixture(scope="module")
def farm(pop):
    return HoneyfarmSimulator(pop)


@pytest.fixture(scope="module")
def month(farm):
    return farm.observe_month(6)


class TestObservation:
    def test_metadata_fields(self, month):
        assert month.label == "2020-08"
        assert month.days == 31
        assert month.month_index == 6

    def test_sources_sorted_unique(self, month):
        assert np.all(np.diff(month.sources.astype(np.int64)) > 0)

    def test_sources_are_population_or_noise(self, pop, month):
        known = np.concatenate([pop.addresses, pop.noise_addresses])
        assert np.all(np.isin(month.sources, known))

    def test_detected_population_sources_were_active(self, pop, month):
        det = month.sources[np.isin(month.sources, pop.addresses)]
        active = pop.addresses[pop.active_mask(6)]
        assert np.all(np.isin(det, active))

    def test_deterministic(self, farm, month):
        again = farm.observe_month(6)
        np.testing.assert_array_equal(month.sources, again.sources)
        assert month.enrichment == again.enrichment

    def test_n_sources_property(self, month):
        assert month.n_sources == month.sources.size
        np.testing.assert_array_equal(month.source_set(), month.sources)


class TestEnrichment:
    def test_schema(self, month):
        cols = set(month.enrichment.col_set().tolist())
        assert {"classification", "intent", "first_seen"} <= cols

    def test_every_source_classified(self, month):
        from repro.ip import ints_to_ips

        classified = month.enrichment[":", ["classification"]]
        assert set(classified.row_set().tolist()) == set(
            ints_to_ips(month.sources).tolist()
        )

    def test_classification_values(self, month):
        _, _, vals = month.enrichment[":", ["classification"]].triples()
        assert set(np.unique(vals).tolist()) <= {"malicious", "benign", "unknown"}

    def test_first_seen_is_month_label(self, month):
        _, _, vals = month.enrichment[":", ["first_seen"]].triples()
        assert set(np.unique(vals).tolist()) == {month.label}

    def test_hits_positive(self, month):
        _, _, vals = month.hits.triples()
        assert np.all(vals >= 1.0)


#: SHA-256 of the enrichment and hit-count triples of months 0-14 of the
#: module population, captured before enrichment became lazy.
ENRICHMENT_DIGEST = "f89f156848bacd71e0927fdba11497f898d4ed0f570cf251fea68f01d652ae9e"


class TestLazyEnrichment:
    @pytest.fixture
    def assoc_calls(self, monkeypatch):
        calls = []
        real = honeyfarm.Assoc

        class CountingAssoc(real):
            def __init__(self, *args, **kwargs):
                calls.append(1)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(honeyfarm, "Assoc", CountingAssoc)
        return calls

    def test_observation_builds_no_assoc(self, farm, assoc_calls):
        obs = farm.observe_month(3)
        assert obs.sources.size > 0 and obs.n_sources == obs.sources.size
        assert len(obs.responses) > 0
        assert assoc_calls == []

    @pytest.mark.parametrize("attr", ["enrichment", "hits"])
    def test_first_read_builds_once(self, farm, assoc_calls, attr):
        obs = farm.observe_month(3)
        first = getattr(obs, attr)
        assert len(assoc_calls) == 1
        assert getattr(obs, attr) is first
        assert len(assoc_calls) == 1

    def test_triples_match_eager_digest(self, farm):
        h = hashlib.sha256()
        for m in range(15):
            obs = farm.observe_month(m)
            for a in (obs.enrichment, obs.hits):
                for arr in a.triples():
                    arr = np.asarray(arr)
                    h.update(str(arr.dtype).encode())
                    h.update(np.ascontiguousarray(arr).tobytes())
        assert h.hexdigest() == ENRICHMENT_DIGEST


def test_month_equality_is_identity(farm, month):
    assert month == month
    assert month != farm.observe_month(6)
    assert hash(month) == hash(month)
    assert month in {month}


class TestResponses:
    def test_both_directions_present(self, pop, month):
        sensors = pop.sensor_addresses
        src_is_sensor = np.isin(month.responses.src, sensors)
        dst_is_sensor = np.isin(month.responses.dst, sensors)
        assert src_is_sensor.any() and dst_is_sensor.any()
        # Every packet touches a sensor on exactly one side.
        assert np.all(src_is_sensor ^ dst_is_sensor)

    def test_time_sorted_within_month(self, month):
        assert month.responses.is_time_sorted()

    def test_bounded_size(self, farm, month):
        assert len(month.responses) <= farm.max_response_packets


class TestBoost:
    def test_config_months_spike(self, farm):
        normal = farm.observe_month(6).n_sources
        for m in CONFIG_CHANGE_MONTHS:
            assert farm.observe_month(m).n_sources > 2 * normal

    def test_boost_for(self, farm):
        assert farm.boost_for(CONFIG_CHANGE_MONTHS[0]) == farm.config_boost
        assert farm.boost_for(6) == 1.0

    def test_custom_boost_months(self, pop):
        farm = HoneyfarmSimulator(pop, boost_months=(3,), config_boost=10.0)
        assert farm.observe_month(3).n_sources > farm.observe_month(6).n_sources


def test_month_summary(farm):
    s = farm.month_summary(2)
    assert s["label"] == "2020-04" and s["days"] == 30 and s["sources"] > 0


def test_invalid_month(farm):
    with pytest.raises(ValueError):
        farm.observe_month(15)
