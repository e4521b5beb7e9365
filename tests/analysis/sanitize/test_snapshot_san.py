"""Published-snapshot integrity under RS002 and the lease lifecycle faults.

Snapshots are fingerprinted by the mutate sanitizer like every other
frozen object, so a scribble through a thawed buffer traps as RS002 at
``verify_frozen()``.  Lease faults are not sanitizer traps: an
over-release raises ``ValueError`` from the engine and a leaked lease
stays visible in ``outstanding_leases()``, armed or not.
"""

import pytest

from repro.analysis.sanitize import fixtures as probes
from repro.analysis.sanitize import mutate
from repro.analysis.sanitize.runtime import disarm, sanitizers, take_traps
from repro.serve import CorrelationEngine
from repro.serve.cli import synthetic_batch


@pytest.fixture(autouse=True)
def clean_slate():
    disarm()
    take_traps()
    yield
    disarm()
    take_traps()


def rs002_traps():
    return [t for t in take_traps() if t.rule_id == "RS002"]


class TestFingerprint:
    def test_scribble_traps_at_release(self):
        # The scribble happens under a lease; once the lease is released
        # the next verify_frozen() names the snapshot.
        with sanitizers(["mutate"]):
            with CorrelationEngine(64, cutoff=1 << 8) as engine:
                engine.fold_batch(synthetic_batch(1, 0, 128, 300))
                snap = engine.acquire()
                snap.window_start.flags.writeable = True
                snap.window_start[0] += 1.0
                engine.release(snap)
                assert engine.outstanding_leases() == 0
            assert mutate.verify_frozen() == 1
        [trap] = rs002_traps()
        assert "snapshot EngineSnapshot" in trap.message

    def test_clean_readers_silent(self):
        with sanitizers(["mutate"]):
            with CorrelationEngine(64, cutoff=1 << 8) as engine:
                engine.fold_batch(synthetic_batch(1, 0, 128, 300))
                for _ in range(3):
                    snap = engine.acquire()
                    assert snap.window_count == 2
                    engine.release(snap)
            assert mutate.verify_frozen() == 0
        assert take_traps() == []

    def test_one_scribble_one_trap(self):
        # Two readers hold the scribbled epoch: one object, one trap.
        with sanitizers(["mutate"]):
            with CorrelationEngine(64, cutoff=1 << 8) as engine:
                engine.fold_batch(synthetic_batch(1, 0, 64, 300))
                a = engine.acquire()
                b = engine.acquire()
                a.window_start.flags.writeable = True
                a.window_start[0] += 1.0
                engine.release(a)
                engine.release(b)
            assert mutate.verify_frozen() == 1
        [trap] = take_traps()
        assert trap.rule_id == "RS002"
        assert "snapshot EngineSnapshot" in trap.message


class TestLifecycleFaults:
    def test_over_release_traps(self):
        # Armed, the over-release still raises from the engine itself and
        # records no sanitizer trap.
        with sanitizers(["mutate"]):
            with CorrelationEngine(64) as engine:
                snap = engine.acquire()
                engine.release(snap)
                with pytest.raises(ValueError, match="epoch 1 that holds no lease"):
                    engine.release(snap)
                assert engine.outstanding_leases() == 0
        assert take_traps() == []

    def test_leaked_lease_traps_at_verify(self):
        # What `repro serve smoke` checks after verify_frozen(): a lease
        # never released is counted by outstanding_leases(), not trapped.
        with sanitizers(["mutate"]):
            engine = CorrelationEngine(64)
            leaked = engine.acquire()
            assert mutate.verify_frozen() == 0
            assert engine.outstanding_leases() == 1
            engine.release(leaked)
            engine.close()
            assert engine.outstanding_leases() == 0
        assert take_traps() == []

    def test_close_with_outstanding_lease_tracked(self):
        with sanitizers(["mutate"]):
            engine = CorrelationEngine(64)
            snap = engine.acquire()
            engine.close()
            assert engine.closed
            assert engine.outstanding_leases() == 1
            engine.release(snap)
            assert engine.outstanding_leases() == 0
        assert take_traps() == []


class TestArming:
    def test_disarmed_probe_is_silent(self):
        probes.probe_snapshot()
        assert take_traps() == []

    def test_probe_traps_both_faults_when_armed(self):
        # The probe seeds the scribble, which traps as RS002; the
        # over-release it used to seed as well is now a ValueError the
        # engine raises armed or not.
        with sanitizers(["mutate"]):
            probes.probe_snapshot()
            mutate.verify_frozen()
            with CorrelationEngine(64) as engine:
                snap = engine.acquire()
                engine.release(snap)
                with pytest.raises(ValueError, match="holds no lease"):
                    engine.release(snap)
        traps = take_traps()
        assert [t.rule_id for t in traps] == ["RS002"]
        assert "snapshot" in traps[0].message

    def test_verify_silent_when_disarmed(self):
        # Disarmed, nothing is fingerprinted, so a scribble goes unseen.
        with CorrelationEngine(64, cutoff=1 << 8) as engine:
            engine.fold_batch(synthetic_batch(1, 0, 128, 300))
            snap = engine.acquire()
            snap.window_start.flags.writeable = True
            snap.window_start[0] += 1.0
            engine.release(snap)
        assert mutate.verify_frozen() == 0
        assert take_traps() == []
