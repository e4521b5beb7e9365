"""Bootstrap confidence bounds for temporal fits."""

import numpy as np
import pytest

from repro.fits import (
    bootstrap_temporal_fit,
    modified_cauchy,
    per_source_trajectories,
)

MONTHS = np.arange(15.0) + 0.5
T0 = 4.55


def synthetic_trajectories(n_sources, alpha, beta, scale, seed=0):
    """Independent per-source Bernoulli months with a modified-Cauchy mean."""
    rng = np.random.default_rng(seed)
    p = scale * modified_cauchy(MONTHS, T0, alpha, beta)
    return rng.random((n_sources, MONTHS.size)) < p[None, :]


class TestTrajectories:
    def test_indicator_construction(self):
        tel = np.asarray([10, 20, 30], dtype=np.uint64)
        monthly = [
            np.asarray([10, 20], dtype=np.uint64),
            np.asarray([30], dtype=np.uint64),
        ]
        t = per_source_trajectories(tel, monthly)
        np.testing.assert_array_equal(
            t, [[True, False], [True, False], [False, True]]
        )

    def test_column_mean_is_curve(self):
        tel = np.arange(100, dtype=np.uint64)
        monthly = [np.arange(50, dtype=np.uint64)]
        t = per_source_trajectories(tel, monthly)
        assert t.mean(axis=0)[0] == 0.5

    @pytest.mark.parametrize("bad", [[30, 10], [10, 10]], ids=["unsorted", "duplicated"])
    def test_month_set_must_be_sorted_unique(self, bad):
        tel = np.asarray([10, 20, 30], dtype=np.uint64)
        monthly = [np.asarray([10], dtype=np.uint64), np.asarray(bad, dtype=np.uint64)]
        with pytest.raises(ValueError, match="month 1"):
            per_source_trajectories(tel, monthly)


class TestBootstrap:
    def test_point_estimate_within_interval(self):
        t = synthetic_trajectories(400, 1.0, 2.0, 0.9)
        result = bootstrap_temporal_fit(t, MONTHS, T0, replicates=60, seed=1)
        for param in ("alpha", "beta", "one_month_drop"):
            lo, hi = result.interval(param)
            assert lo <= result.point[param] <= hi

    def test_interval_covers_truth(self):
        t = synthetic_trajectories(400, 1.0, 2.0, 0.9, seed=3)
        result = bootstrap_temporal_fit(t, MONTHS, T0, replicates=80, seed=2)
        lo, hi = result.interval("alpha")
        assert lo - 0.2 <= 1.0 <= hi + 0.2  # generous: grid + finite sample

    def test_more_sources_tighter_interval(self):
        narrow = bootstrap_temporal_fit(
            synthetic_trajectories(800, 1.0, 2.0, 0.9),
            MONTHS, T0, replicates=60, seed=4,
        )
        wide = bootstrap_temporal_fit(
            synthetic_trajectories(60, 1.0, 2.0, 0.9),
            MONTHS, T0, replicates=60, seed=4,
        )
        def width(r, p):
            lo, hi = r.interval(p)
            return hi - lo
        assert width(narrow, "one_month_drop") < width(wide, "one_month_drop")

    def test_describe(self):
        t = synthetic_trajectories(100, 1.0, 2.0, 0.9)
        r = bootstrap_temporal_fit(t, MONTHS, T0, replicates=20)
        text = r.describe()
        assert "alpha=" in text and "one_month_drop=" in text

    def test_validation(self):
        with pytest.raises(ValueError):
            bootstrap_temporal_fit(np.zeros((0, 15)), MONTHS, T0)
        with pytest.raises(ValueError):
            bootstrap_temporal_fit(
                synthetic_trajectories(10, 1, 1, 0.5), MONTHS, T0, level=1.5
            )

    def test_gaussian_family_has_no_drop(self):
        t = synthetic_trajectories(100, 1.0, 2.0, 0.9)
        r = bootstrap_temporal_fit(t, MONTHS, T0, family="gaussian", replicates=20)
        assert "sigma" in r.point and "one_month_drop" not in r.point


def test_study_integration(tiny_study):
    """Bootstrap the tiny study's Fig 5 bin end to end."""
    sp = tiny_study.telescope_sources(0)
    selected = tiny_study.threshold_bin().select(sp)
    t = per_source_trajectories(selected.keys, tiny_study.monthly_sources)
    result = bootstrap_temporal_fit(
        t,
        np.asarray(tiny_study.month_times),
        tiny_study.samples[0].month_time,
        replicates=30,
    )
    lo, hi = result.interval("alpha")
    assert 0 < lo <= hi < 4
