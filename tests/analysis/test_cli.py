"""The ``repro lint`` / ``python -m repro.analysis`` command surface."""

import json
import os
import subprocess
import sys
from pathlib import Path

from repro.analysis.cli import main as lint_main
from repro.cli import main as repro_main

FIXTURES = Path(__file__).parent / "fixtures"
REPO_ROOT = Path(__file__).resolve().parents[2]
SRC_REPRO = REPO_ROOT / "src" / "repro"


class TestExitStatus:
    def test_nonzero_on_seeded_violation(self):
        assert lint_main([str(FIXTURES / "repro" / "bad_random.py")]) == 1

    def test_zero_on_clean_tree(self):
        assert lint_main([str(FIXTURES / "clean")]) == 0

    def test_zero_on_shipped_source_tree(self):
        assert lint_main([str(SRC_REPRO)]) == 0

    def test_usage_error_on_missing_path(self):
        assert lint_main(["definitely/not/a/path.py"]) == 2

    def test_usage_error_on_unknown_rule(self):
        assert lint_main(["--select", "RL999", str(FIXTURES / "clean")]) == 2

    def test_usage_error_on_empty_selection(self, capsys):
        # A selection naming no rule would lint nothing and pass.
        assert lint_main(["--select", ",", str(FIXTURES / "repro")]) == 2
        captured = capsys.readouterr()
        assert "names no rule" in captured.err
        assert captured.out == ""


class TestReproSubcommand:
    def test_lint_subcommand_delegates(self, capsys):
        assert repro_main(["lint", str(FIXTURES / "clean")]) == 0
        out = capsys.readouterr().out
        assert "repro-lint: clean" in out

    def test_lint_subcommand_fails_on_findings(self, capsys):
        assert repro_main(["lint", str(FIXTURES / "repro")]) == 1
        out = capsys.readouterr().out
        assert "RL001" in out

    def test_module_invocation(self):
        # python -m repro.analysis is the CI entry point.
        proc = subprocess.run(
            [sys.executable, "-m", "repro.analysis", str(SRC_REPRO)],
            capture_output=True,
            text=True,
            cwd=REPO_ROOT,
            env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr


class TestImportCost:
    def test_runtime_imports_skip_the_lint_engine(self):
        # Kernels and the service import repro.analysis for contracts and
        # knobs only; the rule engine loads when a lint actually runs.
        code = (
            "import sys, repro.cli, repro.hypersparse, repro.serve.engine\n"
            "loaded = sorted(m for m in ('repro.analysis.rules', "
            "'repro.analysis.engine') if m in sys.modules)\n"
            "print(','.join(loaded))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            cwd=REPO_ROOT,
            env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == ""


class TestOutput:
    def test_select_restricts_rules(self, capsys):
        assert lint_main(["--select", "RL006", str(FIXTURES / "repro")]) == 1
        out = capsys.readouterr().out
        assert "RL006" in out and "RL001" not in out

    def test_findings_use_path_line_col_format(self, capsys):
        lint_main([str(FIXTURES / "repro" / "bad_random_import.py")])
        first = capsys.readouterr().out.splitlines()[0]
        assert first.endswith(
            "bad_random_import.py:3:1: RL001 import of RNG functions from "
            "'random' (randint); use repro.rand or a seeded "
            "np.random.default_rng(seed)"
        )

    def test_json_format(self, capsys):
        lint_main(["--format", "json", str(FIXTURES / "repro" / "bad_random_import.py")])
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is False
        assert payload["findings"][0]["rule"] == "RL001"

    def test_list_rules_catalogue(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        listed = {line.split()[0] for line in out.splitlines() if line.startswith("RL")}
        assert listed == {
            "RL001", "RL002", "RL003", "RL006", "RL007", "RL008",
            "RL011", "RL012", "RL016", "RL020",
        }
        assert "allow-loop" in out
