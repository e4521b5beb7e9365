"""Each sanitizer: traps its seeded violation, stays silent on clean runs."""

import numpy as np
import pytest

from repro.analysis.sanitize import fixtures as probes
from repro.analysis.sanitize.runtime import (
    disarm,
    sanitizers,
    take_traps,
)


@pytest.fixture(autouse=True)
def clean_slate():
    disarm()
    take_traps()
    yield
    disarm()
    take_traps()


def traps_by_rule():
    out = {}
    for trap in take_traps():
        out.setdefault(trap.rule_id, []).append(trap)
    return out


class TestOverflowSanitizer:
    def test_traps_overflowing_pack(self):
        with sanitizers(["overflow"]):
            probes.probe_overflow()
        by_rule = traps_by_rule()
        assert "RS001" in by_rule
        [trap] = by_rule["RS001"]
        assert "fixtures.py" in trap.path  # anchored at the faulting call

    def test_silent_on_domain_sized_inputs(self):
        from repro.hypersparse import HyperSparseMatrix

        with sanitizers(["overflow"]):
            m = HyperSparseMatrix(
                np.array([0, 2**32 - 1], dtype=np.uint64),
                np.array([2**32 - 1, 0], dtype=np.uint64),
                np.array([1.0, 2.0]),
                shape=(2**32, 2**32),
            )
            assert m.nnz == 2
        assert take_traps() == []


class TestForkSanitizer:
    def test_traps_worker_that_mutates_its_input(self):
        with sanitizers(["fork"]):
            probes.probe_fork_mutation()
        by_rule = traps_by_rule()
        assert "RS003" in by_rule
        assert "mutated" in by_rule["RS003"][0].message

    def test_silent_on_well_behaved_workers(self):
        from repro.parallel.pool import parallel_map

        with sanitizers(["fork"]):
            out = parallel_map(abs, [-1, 2, -3, 4], processes=1)
        assert out == [1, 2, 3, 4]
        assert take_traps() == []


class TestFloatSanitizer:
    def test_traps_nan_escaping_fit(self):
        with sanitizers(["float"]):
            probes.probe_nan_fit()
        by_rule = traps_by_rule()
        assert "RS004" in by_rule
        assert "fit_temporal" in by_rule["RS004"][0].message

    def test_silent_on_finite_fit(self):
        from repro.fits.fitting import fit_temporal

        t = np.linspace(-3.0, 3.0, 31)
        y = np.exp(-(t**2) / 2.0)
        with sanitizers(["float"]):
            fit = fit_temporal(t, y, t0=0.0)
        assert np.isfinite(fit.loss)
        assert take_traps() == []


class TestAllTogether:
    def test_all_armed_probe_suite_hits_every_rule(self):
        with sanitizers(["overflow", "fork", "float"]):
            for probe in probes.PROBES.values():
                probe()
        rules = set(traps_by_rule())
        assert rules == {"RS001", "RS003", "RS004"}
