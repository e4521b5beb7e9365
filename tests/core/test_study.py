"""Integration tests of the end-to-end correlation study (tiny scale)."""

import numpy as np
import pytest

from repro.core import CorrelationStudy
from repro.synth import ModelConfig


class TestDataCollection:
    def test_samples_cached(self, tiny_study):
        assert tiny_study.samples is tiny_study.samples
        assert len(tiny_study.samples) == 5

    def test_months_cached(self, tiny_study):
        assert len(tiny_study.months) == 15
        assert tiny_study.monthly_sources[0] is tiny_study.monthly_sources[0]

    def test_month_times(self, tiny_study):
        assert tiny_study.month_times == [m + 0.5 for m in range(15)]

    def test_coeval_month_index(self, tiny_study):
        assert tiny_study.coeval_month_index(0) == 4

    def test_config_or_model_not_both(self, tiny_model):
        with pytest.raises(ValueError):
            CorrelationStudy(tiny_model, config=ModelConfig())


class TestFig3(object):
    def test_distributions(self, tiny_study):
        dists = tiny_study.fig3_distributions()
        assert len(dists) == 5
        for label, binned, fit in dists:
            assert np.isclose(binned.prob.sum(), 1.0)
            assert 1.0 < fit.alpha < 3.0


class TestFig4:
    def test_peak_shape(self, tiny_study):
        peak = tiny_study.fig4_peak().nonempty()
        fracs = peak.fractions()
        centers = peak.centers()
        # Brighter bins see higher overlap.
        assert fracs[centers > peak.threshold / 2].mean() > fracs[
            centers < 4
        ].mean()

    def test_log_law(self, tiny_study):
        errors = tiny_study.fig4_log_law_errors()
        assert errors["correlation"] > 0.9
        assert errors["mean_abs_error"] < 0.1


class TestFig5:
    def test_threshold_bin(self, tiny_study):
        b = tiny_study.threshold_bin()
        thr = float(tiny_study.n_valid) ** 0.5
        assert b.lo == thr / 2 and b.hi == thr

    def test_curve_peaks_at_coeval(self, tiny_study):
        curve = tiny_study.fig5_curve()
        assert curve.n_sources > 0
        peak_month = curve.times[int(np.argmax(curve.fractions))]
        assert abs(peak_month - curve.t0) <= 1.0

    def test_modified_cauchy_wins(self, tiny_study):
        fits = tiny_study.fig5_curve().fit_all()
        assert fits["modified_cauchy"].loss <= fits["gaussian"].loss
        assert fits["modified_cauchy"].loss <= fits["cauchy"].loss


class TestFig678:
    def test_fig6_grid(self, tiny_study):
        curves = tiny_study.fig6_curves()
        assert len(curves) >= 10
        for (si, label), (curve, fit) in curves.items():
            assert curve.n_sources >= tiny_study.min_bin_sources
            assert fit.family == "modified_cauchy"

    def test_sweep_tables(self, tiny_study):
        sweep = tiny_study.fit_parameter_sweep()
        rows = sweep.rows()
        assert len(rows) >= 4
        alphas = np.asarray(sweep.alpha_mean)
        drops = np.asarray(sweep.drop_mean)
        assert np.all((alphas > 0.2) & (alphas < 2.5))
        assert np.all((drops > 0.05) & (drops < 0.9))

    def test_sweep_requires_sources(self, tiny_study):
        from repro.core.correlation import DegreeBin

        with pytest.raises(RuntimeError):
            tiny_study.fit_parameter_sweep(bins=[DegreeBin(2**20, 2**21)])


class TestTable1:
    def test_rows(self, tiny_study):
        rows = tiny_study.table1_rows()
        assert len(rows) == 15
        with_tel = [r for r in rows if "caida_sources" in r]
        assert len(with_tel) == 5
        assert all(r["gn_sources"] > 0 for r in rows)


class TestAnonymizedPath:
    def test_results_identical_with_sharing(self, tiny_model):
        """The anonymized mode-1 exchange changes nothing — the guarantee
        that lets the paper correlate without sharing plain data."""
        direct = CorrelationStudy(tiny_model, min_bin_sources=25)
        shared = CorrelationStudy(
            tiny_model, use_anonymization=True, min_bin_sources=25
        )
        np.testing.assert_array_equal(
            direct.monthly_sources[4], shared.monthly_sources[4]
        )
        d = direct.fig4_peak()
        s = shared.fig4_peak()
        np.testing.assert_array_equal(d.fractions(), s.fractions())
        np.testing.assert_array_equal(
            direct.fig5_curve().fractions, shared.fig5_curve().fractions
        )
        d6, s6 = direct.fig6_curves(), shared.fig6_curves()
        assert d6.keys() == s6.keys() and d6
        for key, (curve, _) in d6.items():
            np.testing.assert_array_equal(curve.fractions, s6[key][0].fractions)
