"""``repro san`` end to end: selftest, exit codes, trap lines."""

import pytest

from repro.analysis.sanitize.cli import main
from repro.analysis.sanitize.runtime import disarm, take_traps


@pytest.fixture(autouse=True)
def clean_slate():
    disarm()
    take_traps()
    yield
    disarm()
    take_traps()


class TestSelftest:
    def test_selftest_traps_every_armed_sanitizer(self, capsys):
        code = main(["selftest"])
        out = capsys.readouterr().out
        assert code == 1  # seeded violations must be found
        for rule_id in ("RS001", "RS003", "RS004"):
            assert rule_id in out, f"selftest missed {rule_id}"

    def test_quiet_selftest_still_prints_every_trap(self, capsys):
        # -q silences experiment output only; the trap lines are the
        # report CI reads.
        code = main(["selftest", "-q"])
        out = capsys.readouterr().out
        assert code == 1
        for rule_id in ("RS001", "RS003", "RS004"):
            assert rule_id in out, f"quiet selftest hid {rule_id}"

    def test_selftest_subset_only_arms_requested(self, capsys):
        code = main(["selftest", "--san", "overflow"])
        out = capsys.readouterr().out
        assert code == 1
        assert "RS001" in out
        assert "RS003" not in out  # fork sanitizer never armed

    def test_dispatch_via_top_level_cli(self, capsys):
        from repro.cli import main as repro_main

        code = repro_main(["san", "selftest", "--san", "overflow"])
        assert code == 1
        assert "RS001" in capsys.readouterr().out


class TestUsage:
    def test_unknown_experiment_exits_2(self, capsys):
        assert main(["no-such-experiment"]) == 2

    def test_unknown_sanitizer_exits_2(self, capsys):
        assert main(["selftest", "--san", "asan"]) == 2
