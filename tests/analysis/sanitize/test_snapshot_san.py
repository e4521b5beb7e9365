"""Published-snapshot integrity and the lease lifecycle faults, unarmed.

Snapshots freeze themselves on construction, so readers share them
without copies and no sanitizer is needed to keep them intact.  Lease
faults are not sanitizer traps either: an over-release raises
``ValueError`` from the engine and a leaked lease stays visible in
``outstanding_leases()``.
"""

import pytest

from repro.analysis.sanitize.runtime import disarm, take_traps
from repro.serve import CorrelationEngine
from repro.serve.cli import synthetic_batch


@pytest.fixture(autouse=True)
def clean_slate():
    disarm()
    take_traps()
    yield
    disarm()
    take_traps()


class TestFingerprint:
    def test_clean_readers_silent(self):
        # Readers only read: the shared snapshot stays read-only through
        # every lease, and nothing is recorded.
        with CorrelationEngine(64, cutoff=1 << 8) as engine:
            engine.fold_batch(synthetic_batch(1, 0, 128, 300))
            for _ in range(3):
                snap = engine.acquire()
                assert snap.window_count == 2
                assert not snap.window_start.flags.writeable
                engine.release(snap)
            assert engine.outstanding_leases() == 0
        assert take_traps() == []


class TestLifecycleFaults:
    def test_over_release_traps(self):
        # The over-release raises from the engine itself and records no
        # sanitizer trap.
        with CorrelationEngine(64) as engine:
            snap = engine.acquire()
            engine.release(snap)
            with pytest.raises(ValueError, match="epoch 1 that holds no lease"):
                engine.release(snap)
            assert engine.outstanding_leases() == 0
        assert take_traps() == []

    def test_leaked_lease_traps_at_verify(self):
        # What `repro serve smoke` checks at the end of a run: a lease
        # never released is counted by outstanding_leases(), not trapped.
        engine = CorrelationEngine(64)
        leaked = engine.acquire()
        assert engine.outstanding_leases() == 1
        engine.release(leaked)
        engine.close()
        assert engine.outstanding_leases() == 0
        assert take_traps() == []

    def test_close_with_outstanding_lease_tracked(self):
        engine = CorrelationEngine(64)
        snap = engine.acquire()
        engine.close()
        assert engine.closed
        assert engine.outstanding_leases() == 1
        engine.release(snap)
        assert engine.outstanding_leases() == 0
        assert take_traps() == []
