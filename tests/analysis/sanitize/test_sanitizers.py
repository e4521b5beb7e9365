"""Each sanitizer: traps its seeded violation, stays silent on clean runs."""

import numpy as np
import pytest

from repro.analysis.sanitize import fixtures as probes
from repro.analysis.sanitize import mutate
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


class TestMutateSanitizer:
    def test_freezes_buffers_at_construction(self):
        from repro.hypersparse.coo import SparseVec

        with sanitizers(["mutate"]):
            v = SparseVec(
                np.array([1, 5], dtype=np.uint64), np.array([1.0, 2.0])
            )
            assert not v.vals.flags.writeable
            with pytest.raises(ValueError):
                v.vals[0] = 9.0
        assert take_traps() == []

    def test_verify_frozen_catches_thawed_write(self):
        from repro.hypersparse.coo import SparseVec

        with sanitizers(["mutate"]):
            v = SparseVec(
                np.array([1, 5], dtype=np.uint64), np.array([1.0, 2.0])
            )
            v.vals.flags.writeable = True  # adversarial thaw
            v.vals[0] = 9.0
            assert mutate.verify_frozen() == 1
        by_rule = traps_by_rule()
        assert "RS002" in by_rule
        assert "vector" in by_rule["RS002"][0].message

    def test_dead_objects_are_not_retained(self):
        # Tracking is weak: once an object dies, the sanitizer holds
        # neither its entry nor its buffers.
        import gc
        import weakref

        from repro.hypersparse.coo import SparseVec

        with sanitizers(["mutate"]):
            vecs = [
                SparseVec(np.array([1, 5], dtype=np.uint64), np.array([1.0, 2.0]))
                for _ in range(100)
            ]
            assert mutate.tracked_count() == 100
            buffer = weakref.ref(vecs[0].vals)
            del vecs
            gc.collect()
            assert buffer() is None
            assert mutate.tracked_count() == 0
            assert mutate.verify_frozen() == 0
        assert take_traps() == []

    def test_live_scribble_traps_after_others_died(self):
        from repro.hypersparse.coo import SparseVec

        with sanitizers(["mutate"]):
            SparseVec(np.array([2], dtype=np.uint64), np.array([3.0]))
            v = SparseVec(np.array([1, 5], dtype=np.uint64), np.array([1.0, 2.0]))
            assert mutate.tracked_count() == 1
            v.vals.flags.writeable = True  # adversarial thaw
            v.vals[0] = 9.0
            assert mutate.verify_frozen() == 1
        assert [t.rule_id for t in take_traps()] == ["RS002"]

    def test_verify_frozen_clean_construction(self):
        from repro.hypersparse.coo import SparseVec

        with sanitizers(["mutate"]):
            SparseVec(np.array([3], dtype=np.uint64), np.array([4.0]))
            assert mutate.verify_frozen() == 0
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
        with sanitizers(["overflow", "mutate", "fork", "float"]):
            for probe in probes.PROBES.values():
                probe()
            mutate.verify_frozen()
        rules = set(traps_by_rule())
        assert rules == {"RS001", "RS002", "RS003", "RS004"}
