"""Sanitizer core: trap log, arming lifecycle, patch plumbing."""

import sys

import numpy as np
import pytest

from repro.analysis.sanitize import runtime
from repro.analysis.sanitize.runtime import (
    MAX_TRAPS,
    RULE_IDS,
    SANITIZER_NAMES,
    Trap,
    arm,
    armed,
    disarm,
    record_trap,
    sanitizers,
    take_traps,
    trap_count,
)


def _repro_bindings():
    """Every module- and class-level binding in the loaded repro modules.

    Keyed by ``(module, class or None, attribute)`` so sanitizers that
    patch module functions and those that patch methods are both seen.
    """
    out = {}
    for mod_name, module in list(sys.modules.items()):
        if module is None or not mod_name.startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            out[(mod_name, None, attr)] = value
            if isinstance(value, type) and value.__module__ == mod_name:
                for name, member in list(vars(value).items()):
                    out[(mod_name, attr, name)] = member
    return out


@pytest.fixture(autouse=True)
def clean_slate():
    """Every test starts and ends disarmed with an empty trap log."""
    disarm()
    take_traps()
    yield
    disarm()
    take_traps()


class TestTrapLog:
    def test_record_and_drain(self):
        record_trap("overflow", "boom", site=("kern.py", 7))
        [trap] = take_traps()
        assert trap == Trap(
            sanitizer="overflow", message="boom", path="kern.py", line=7
        )
        assert trap.rule_id == "RS001"
        assert take_traps() == []  # drained

    def test_identical_traps_collapse_with_count(self):
        for _ in range(5):
            record_trap("float", "nan escaped", site=("fit.py", 3))
        assert trap_count() == 5
        [trap] = take_traps()
        assert trap.count == 5
        assert "(x5)" in trap.format()

    def test_distinct_sites_stay_distinct(self):
        record_trap("fork", "drift", site=("a.py", 1))
        record_trap("fork", "drift", site=("b.py", 1))
        assert len(take_traps()) == 2

    def test_trap_flood_is_bounded(self):
        for i in range(MAX_TRAPS + 50):
            record_trap("overflow", "boom", site=("x.py", i))
        traps = take_traps()
        assert len(traps) == MAX_TRAPS

    def test_unknown_sanitizer_rejected(self):
        with pytest.raises(ValueError, match="unknown sanitizer"):
            record_trap("asan", "nope")

    def test_rule_ids_cover_every_sanitizer(self):
        assert set(RULE_IDS) == set(SANITIZER_NAMES)
        assert len(set(RULE_IDS.values())) == len(SANITIZER_NAMES)


class TestArming:
    def test_arm_disarm_roundtrip_restores_bindings(self):
        from repro.hypersparse import coo

        err, errcall = np.geterr(), np.geterrcall()
        original = coo._pack_keys
        arm(["overflow"])
        assert armed() == ("overflow",)
        assert coo._pack_keys is not original  # checked wrapper swapped in
        disarm()
        assert armed() == ()
        assert coo._pack_keys is original  # fully restored

        # The disarmed-overhead contract is structural: after disarm()
        # every binding any sanitizer patched is the original object and
        # the numpy error state is exactly what it was before arming.
        # The first full cycle imports every sanitizer's targets, so the
        # binding snapshot is taken after it.
        arm(SANITIZER_NAMES)
        disarm()
        bindings = _repro_bindings()

        arm(SANITIZER_NAMES)
        patched = [k for k, v in _repro_bindings().items() if bindings.get(k) is not v]
        assert patched, "arming patched nothing; the residue check is vacuous"
        disarm()

        after = _repro_bindings()
        residue = [k for k, v in bindings.items() if after.get(k) is not v]
        assert residue == []
        assert np.geterr() == err
        assert np.geterrcall() is errcall

    def test_arm_is_idempotent(self):
        arm(["fork"])
        arm(["fork"])
        assert armed() == ("fork",)

    def test_canonical_order_regardless_of_request_order(self):
        arm(["float", "overflow"])
        assert armed() == ("overflow", "float")

    def test_unknown_name_rejected_loudly(self):
        with pytest.raises(ValueError, match="unknown sanitizer"):
            arm(["overflow", "asan"])

    def test_context_manager_scopes_arming(self):
        with sanitizers(["overflow"]):
            assert armed() == ("overflow",)
        assert armed() == ()

    def test_seterr_state_restored_after_disarm(self):
        before = np.geterr()["over"]
        arm(["overflow"])
        disarm()
        assert np.geterr()["over"] == before


class TestBootstrap:
    def test_bootstrap_reads_the_knob(self, monkeypatch):
        monkeypatch.setenv("REPRO_SAN", "overflow, fork")
        runtime.bootstrap()
        assert armed() == ("overflow", "fork")

    def test_bootstrap_noop_when_unset(self, monkeypatch):
        monkeypatch.delenv("REPRO_SAN", raising=False)
        runtime.bootstrap()
        assert armed() == ()

    def test_bootstrap_rejects_bad_value(self, monkeypatch):
        monkeypatch.setenv("REPRO_SAN", "overflow,typo")
        with pytest.raises(ValueError, match="typo"):
            runtime.bootstrap()

    def test_bootstrap_rejects_retired_mutate(self, monkeypatch):
        # Canonical containers freeze themselves, so there is no mutate
        # sanitizer left to arm; asking for it must fail, not no-op.
        monkeypatch.setenv("REPRO_SAN", "mutate")
        with pytest.raises(ValueError, match="unknown sanitizer.*mutate"):
            runtime.bootstrap()


class TestPatchEverywhere:
    def test_patches_direct_import_bindings_and_undoes(self):
        # ``from x import f`` copies the binding, so patching the pack
        # function must swap it in every module holding it, not just coo.
        import types

        import repro.hypersparse.coo as coo

        original = coo._pack_keys
        consumer = types.ModuleType("repro._patch_probe")
        consumer._pack_keys = original
        sys.modules[consumer.__name__] = consumer
        sentinel = object()
        try:
            undo = runtime.patch_everywhere(original, sentinel)
            try:
                assert coo._pack_keys is sentinel
                assert consumer._pack_keys is sentinel
            finally:
                undo()
            assert coo._pack_keys is original
            assert consumer._pack_keys is original
        finally:
            del sys.modules[consumer.__name__]
