"""Each repro-lint rule: positive, negative, and allowlist-escape cases.

Fixture files under ``fixtures/`` mirror the ``repro/`` package layout so
the package-scoped rules (RL002/RL003/RL006) fire through the engine's
normal module-path anchoring rather than through test-only shims.
"""

from pathlib import Path

import pytest

from repro.analysis.engine import lint_paths, module_path
from repro.analysis.rules import ALL_RULES, rule_by_id

FIXTURES = Path(__file__).parent / "fixtures"
SRC_REPRO = Path(__file__).resolve().parents[2] / "src" / "repro"


def run_rule(rule_id, *relpaths):
    """Lint fixture files with a single rule; returns the findings."""
    result = lint_paths([FIXTURES / r for r in relpaths], [rule_by_id(rule_id)])
    assert not result.errors, result.errors
    return result.findings


def lines_of(findings):
    return sorted(f.line for f in findings)


class TestModulePath:
    def test_anchors_at_last_repro_dir(self):
        assert module_path(Path("src/repro/d4m/ops.py")) == "repro/d4m/ops.py"
        assert (
            module_path(Path("tests/analysis/fixtures/repro/d4m/ops.py"))
            == "repro/d4m/ops.py"
        )

    def test_paths_outside_repro_kept(self):
        assert module_path(Path("somewhere/else/mod.py")) == "somewhere/else/mod.py"

    def test_file_named_repro_is_not_an_anchor(self):
        assert module_path(Path("x/repro.py")) == "x/repro.py"


class TestUnseededRandom:
    def test_flags_legacy_unseeded_and_stdlib(self):
        findings = run_rule("RL001", "repro/bad_random.py")
        # np.random.seed, np.random.rand, default_rng(), random.random,
        # random.randint — the allowlisted call is suppressed.
        assert len(findings) == 5
        assert all(f.rule_id == "RL001" for f in findings)

    def test_flags_rng_imports(self):
        findings = run_rule("RL001", "repro/bad_random_import.py")
        assert len(findings) == 1
        assert "randint" in findings[0].message

    def test_seeded_and_allowlisted_pass(self):
        findings = run_rule("RL001", "repro/bad_random.py")
        flagged = lines_of(findings)
        source = (FIXTURES / "repro/bad_random.py").read_text().splitlines()
        for line in flagged:
            assert "seeded_ok" not in source[line - 1]
            assert "allow-random" not in source[line - 1]

    def test_repro_rand_is_exempt(self):
        result = lint_paths([SRC_REPRO / "rand.py"], [rule_by_id("RL001")])
        assert result.findings == []

    def test_clean_module_passes(self):
        assert run_rule("RL001", "clean/good_module.py") == []


class TestDtypeDiscipline:
    def test_flags_implicit_allocators_in_scope(self):
        findings = run_rule("RL002", "repro/hypersparse/bad_dtype.py")
        assert len(findings) == 4
        assert {"np.zeros", "np.ones", "np.arange", "np.full"} == {
            f.message.split("(")[0] for f in findings
        }

    def test_explicit_positional_keyword_and_like_pass(self):
        findings = run_rule("RL002", "repro/hypersparse/bad_dtype.py")
        source = (FIXTURES / "repro/hypersparse/bad_dtype.py").read_text().splitlines()
        for line in lines_of(findings):
            assert "dtype" not in source[line - 1]

    def test_out_of_scope_module_ignored(self):
        # Same allocator patterns, but the file is outside the kernel packages.
        findings = run_rule("RL002", "clean/good_module.py", "repro/bad_random.py")
        assert findings == []


class TestEntryLoop:
    def test_flags_for_and_while_in_hot_module(self):
        findings = run_rule("RL003", "repro/hypersparse/merge.py")
        assert len(findings) == 2
        kinds = {f.message.split()[1] for f in findings}
        assert kinds == {"for-loop", "while-loop"}

    def test_allowlist_comment_on_previous_line_suppresses(self):
        findings = run_rule("RL003", "repro/hypersparse/merge.py")
        source = (FIXTURES / "repro/hypersparse/merge.py").read_text().splitlines()
        for line in lines_of(findings):
            assert "allow-loop" not in source[line - 2]

    def test_non_hot_module_ignored(self):
        # bad_random has loops nowhere near hot paths; name is not merge/coo.
        assert run_rule("RL003", "repro/bad_random.py", "clean/good_module.py") == []


class TestWallClock:
    def test_flags_calendar_reads_only(self):
        # time-module clocks moved to RL007; RL006 keeps the datetime family.
        findings = run_rule("RL006", "repro/experiments/bad_wallclock.py")
        assert len(findings) == 1
        assert "datetime.now()" in findings[0].message

    def test_allowlist_pass(self):
        findings = run_rule("RL006", "repro/experiments/bad_wallclock.py")
        source = (FIXTURES / "repro/experiments/bad_wallclock.py").read_text().splitlines()
        for line in lines_of(findings):
            assert "allow-wallclock" not in source[line - 1]

    def test_out_of_scope_module_ignored(self):
        assert run_rule("RL006", "repro/bad_random.py") == []


class TestTimerDiscipline:
    def test_flags_all_time_module_clocks(self):
        findings = run_rule("RL007", "repro/experiments/bad_wallclock.py")
        # time.time (stamped), 2x time.perf_counter (measured), and the
        # from-import alias (measured_from_import); allow-timer suppressed.
        assert len(findings) == 4
        called = {f.message.split()[3].rstrip(";") for f in findings}
        assert called == {"time.time()", "time.perf_counter()"}

    def test_allowlist_and_calendar_reads_pass(self):
        findings = run_rule("RL007", "repro/experiments/bad_wallclock.py")
        source = (FIXTURES / "repro/experiments/bad_wallclock.py").read_text().splitlines()
        for line in lines_of(findings):
            assert "allow-timer" not in source[line - 1]
        # Calendar reads are RL006's territory, never RL007's.
        assert all("datetime" not in f.message for f in findings)

    def test_obs_package_is_sanctioned(self):
        assert run_rule("RL007", "repro/obs/timing_ok.py") == []

    def test_applies_outside_kernel_scope_too(self):
        # Unlike RL006, timer discipline covers the whole package: the
        # fixture below is in repro/ root, not an experiment kernel.
        findings = run_rule("RL007", "repro/bad_random.py")
        assert findings == []  # no clocks there, but the file is in scope

    def test_real_obs_package_sanctioned(self):
        result = lint_paths([SRC_REPRO / "obs"], [rule_by_id("RL007")])
        assert result.findings == []


class TestResort:
    def test_flags_argsort_and_lexsort(self):
        findings = run_rule("RL008", "repro/hypersparse/bad_resort.py")
        assert len(findings) == 2
        assert any("argsort" in f.message for f in findings)
        assert any("lexsort" in f.message for f in findings)

    def test_allowlisted_canonicalization_passes(self):
        findings = run_rule("RL008", "repro/hypersparse/bad_resort.py")
        source = (FIXTURES / "repro/hypersparse/bad_resort.py").read_text().splitlines()
        for line in lines_of(findings):
            assert "allow-resort" not in source[line - 1]

    def test_searchsorted_not_flagged(self):
        findings = run_rule("RL008", "repro/hypersparse/bad_resort.py")
        assert all("searchsorted" not in f.message for f in findings)

    def test_out_of_scope_module_ignored(self):
        # argsort outside hypersparse/ is not RL008's business.
        assert run_rule("RL008", "repro/bad_random.py") == []

    def test_real_hypersparse_package_clean(self):
        # The shipped kernels carry allow-resort only at sanctioned
        # canonicalization sites; everything else merges without sorting.
        result = lint_paths([SRC_REPRO / "hypersparse"], [rule_by_id("RL008")])
        assert result.findings == []


class TestDtypeWidth:
    def findings(self):
        return run_rule("RL011", "repro/traffic/bad_width.py")

    def test_cast_after_arithmetic_flagged(self):
        msgs = [f.message for f in self.findings()]
        assert any("after '<<'" in m for m in msgs)
        assert any("after '+'" in m for m in msgs)
        assert any("after '*'" in m for m in msgs)

    def test_narrowed_operand_flagged(self):
        msgs = [f.message for f in self.findings()]
        assert any("narrowed to int32" in m for m in msgs)
        assert any("narrowed to uint32" in m for m in msgs)

    def test_widened_operands_and_constants_clean(self):
        # pack_good is silent: five findings, all in pack_bad, none on
        # the allowlisted line.
        fs = self.findings()
        assert len(fs) == 5
        source = (FIXTURES / "repro/traffic/bad_width.py").read_text().splitlines()
        bad_start = next(
            i for i, line in enumerate(source, 1) if "def pack_bad" in line
        )
        good_start = next(
            i for i, line in enumerate(source, 1) if "def pack_good" in line
        )
        assert all(bad_start < f.line < good_start for f in fs)

    def test_splitmix_mixer_in_real_tree_clean(self):
        # The wraparound multiplies in repro.rand operate on evidently
        # uint64 values; flow-insensitive width tracking must see that.
        result = lint_paths([SRC_REPRO / "rand.py"], [rule_by_id("RL011")])
        assert result.findings == []

    def test_cast_after_multiply_flagged_inside_hypersparse(self):
        # RL011 patrols the packed-key kernels too: a multiply of
        # unknown-width operands cast to uint64 afterwards is flagged
        # there, while the cast-operands-first form stays silent.
        fs = run_rule("RL011", "repro/hypersparse/bad_width.py")
        assert len(fs) == 1
        assert "uint64 cast applied after '*'" in fs[0].message
        source = (FIXTURES / "repro/hypersparse/bad_width.py").read_text()
        line = next(
            i for i, text in enumerate(source.splitlines(), 1)
            if "def cast_unproven" in text
        )
        assert fs[0].line == line + 2

    def test_real_tree_clean(self):
        result = lint_paths([SRC_REPRO], [rule_by_id("RL011")])
        assert result.findings == []


class TestEnvKnob:
    def findings(self):
        return run_rule("RL012", "repro/bad_env.py")

    def test_raw_access_and_getenv_flagged(self):
        msgs = [f.message for f in self.findings()]
        assert sum("raw os.environ" in m for m in msgs) == 2
        assert any("os.getenv() bypasses" in m for m in msgs)

    def test_undeclared_knob_flagged_declared_clean(self):
        msgs = [f.message for f in self.findings()]
        assert any("'REPRO_UNDECLARED'" in m for m in msgs)
        assert all("'REPRO_TRACE'" not in m for m in msgs)

    def test_allowlisted_foreign_variable_clean(self):
        assert all("HOME" not in f.message for f in self.findings())
        assert len(self.findings()) == 4

    def test_registry_module_itself_exempt(self):
        result = lint_paths(
            [SRC_REPRO / "analysis" / "knobs.py"], [rule_by_id("RL012")]
        )
        assert result.findings == []

    def test_real_tree_clean(self):
        # The acceptance criterion: every environment read in the
        # package goes through the declared registry.
        result = lint_paths([SRC_REPRO], [rule_by_id("RL012")])
        assert result.findings == []


class TestWriterLifecycle:
    """RL016 typestates columnar spill writers (staged .tmp output)."""

    def findings(self):
        return run_rule("RL016", "repro/traffic/bad_archive_lifecycle.py")

    def test_leaked_writer_flagged(self):
        assert any(
            "leaky_writer" in f.message and "not closed or aborted" in f.message
            for f in self.findings()
        )

    def test_append_after_close_flagged(self):
        assert any(
            "append_after_close" in f.message
            and "writer" in f.message
            and "use after free" in f.message
            for f in self.findings()
        )

    def test_happy_path_only_close_flagged(self):
        # The leak exists only on the retry branch: the checker must
        # enumerate paths, not just count calls.
        assert any("leaky_on_retry" in f.message for f in self.findings())

    def test_exactly_the_three_hazards(self):
        assert len(self.findings()) == 3

    def test_clean_writers_silent(self):
        # Bare close()/abort() on every path, and ownership transfer via
        # return, all discharge the obligation; the context-manager form
        # is the sanctioned idiom and is never tracked.
        assert run_rule("RL016", "repro/traffic/archive_lifecycle_ok.py") == []

    def test_real_tree_clean(self):
        result = lint_paths([SRC_REPRO], [rule_by_id("RL016")])
        assert result.findings == []


class TestEngineLifecycle:
    def findings(self):
        return run_rule("RL020", "repro/serve/bad_engine_lifecycle.py")

    def test_unclosed_engine_flagged(self):
        assert any(
            "leaky_engine" in f.message and "not closed on every path" in f.message
            for f in self.findings()
        )

    def test_unreleased_lease_flagged(self):
        assert any(
            "leaky_lease" in f.message
            and "not released on every path" in f.message
            for f in self.findings()
        )

    def test_use_after_close_flagged(self):
        assert any(
            "use_after_close" in f.message and "use after free" in f.message
            for f in self.findings()
        )

    def test_close_on_happy_path_only_flagged(self):
        # The leak exists only on the `batch is None` branch: the
        # checker enumerates paths, like RL016's retry-branch case.
        assert any("leaky_on_error" in f.message for f in self.findings())

    def test_epoch_rewind_flagged(self):
        assert any(
            "rewind" in f.message and "writer epoch assigned" in f.message
            for f in self.findings()
        )

    def test_epoch_nonconstant_stride_flagged(self):
        assert any(
            "in skip" in f.message and "positive constant" in f.message
            for f in self.findings()
        )

    def test_exactly_the_six_hazards(self):
        # __init__'s epoch seed in the same class must stay silent.
        assert len(self.findings()) == 6

    def test_clean_lifecycles_silent(self):
        # Context-manager form, try/finally close, paired acquire/release,
        # ownership transfer, and `epoch += 1` all discharge cleanly.
        assert run_rule("RL020", "repro/serve/engine_lifecycle_ok.py") == []

    def test_real_tree_clean(self):
        result = lint_paths([SRC_REPRO], [rule_by_id("RL020")])
        assert result.findings == []


class TestEngine:
    def test_every_rule_has_fixture_coverage(self):
        # Run everything over the whole fixture tree: each shipped rule
        # must produce at least one finding somewhere in the fixtures.
        result = lint_paths([FIXTURES / "repro"], list(ALL_RULES))
        fired = {f.rule_id for f in result.findings}
        assert fired == {r.id for r in ALL_RULES}

    def test_clean_tree_is_clean(self):
        result = lint_paths([FIXTURES / "clean"], list(ALL_RULES))
        assert result.ok and result.findings == []

    def test_syntax_error_reported_not_raised(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("def broken(:\n")
        result = lint_paths([bad], list(ALL_RULES))
        assert not result.ok
        assert result.findings == [] and len(result.errors) == 1

    def test_unknown_rule_id_raises(self):
        with pytest.raises(KeyError):
            rule_by_id("RL999")

    def test_real_tree_is_clean(self):
        # The acceptance criterion, enforced continuously: the shipped
        # source tree passes its own linter.
        result = lint_paths([SRC_REPRO], list(ALL_RULES))
        assert result.ok, "\n".join(f.format() for f in result.findings)
