"""``repro san`` end to end: selftest, exit codes, SARIF output, merging."""

import json

import jsonschema
import pytest

from repro.analysis.sanitize.cli import main
from repro.analysis.sanitize.runtime import disarm, take_traps
from tests.analysis.test_sarif import SARIF_CORE_SCHEMA


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
        for rule_id in ("RS001", "RS002", "RS003", "RS004"):
            assert rule_id in out, f"selftest missed {rule_id}"

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


class TestSarifOutput:
    def test_selftest_sarif_is_schema_valid(self, tmp_path, capsys):
        out = tmp_path / "san.sarif"
        code = main(["selftest", "--sarif", str(out), "-q"])
        assert code == 1
        log = json.loads(out.read_text())
        jsonschema.validate(log, SARIF_CORE_SCHEMA)
        [run] = log["runs"]
        assert run["tool"]["driver"]["name"] == "repro-san"
        ids = {r["ruleId"] for r in run["results"]}
        assert "RS001" in ids
        # occurrenceCount carries the collapse count for hot-loop traps.
        for res in run["results"]:
            assert res["occurrenceCount"] >= 1

    def test_merge_folds_lint_run_into_one_log(self, tmp_path, capsys):
        from pathlib import Path

        from repro.analysis.cli import main as lint_main

        fixtures = Path(__file__).resolve().parents[1] / "fixtures"
        lint_log = tmp_path / "lint.sarif"
        assert (
            lint_main(
                [str(fixtures / "repro"), "--select", "RL001",
                 "--sarif", str(lint_log), "-q"]
            )
            == 1
        )
        merged = tmp_path / "all.sarif"
        code = main(
            ["selftest", "--sarif", str(merged), "--merge", str(lint_log), "-q"]
        )
        assert code == 1
        log = json.loads(merged.read_text())
        jsonschema.validate(log, SARIF_CORE_SCHEMA)
        drivers = [run["tool"]["driver"]["name"] for run in log["runs"]]
        assert sorted(drivers) == ["repro-lint", "repro-san"]
