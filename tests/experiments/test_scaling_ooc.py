"""Out-of-core scaling sweep: identical measurand, bounded memory.

The acceptance bar of the paper-scale path: at every ``N_V`` where both
fit, the out-of-core sweep must reproduce the in-memory sweep *exactly* —
same unique-source rows, same fitted slope — with and without a memory
budget, across chunk sizes and pool widths.
"""

import numpy as np
import pytest

from repro.cli import main
from repro.core import CorrelationStudy
from repro.experiments import scaling
from repro.synth import InternetModel, ModelConfig, SourcePopulation, TelescopeSimulator


@pytest.fixture(scope="module")
def small_study():
    # log2_nv=12 keeps the sweep at 2^8..2^10: three octaves, seconds-fast.
    return CorrelationStudy(InternetModel(ModelConfig(log2_nv=12, n_sources=1500, seed=7)))


@pytest.fixture(scope="module")
def reference(small_study):
    return scaling.run(small_study)


def assert_same_result(a, b):
    assert a.rows == b.rows
    assert a.slope == pytest.approx(b.slope, abs=1e-12)


class TestEquivalence:
    def test_rows_match_in_memory_run(self, small_study, reference):
        got = scaling.run_out_of_core(small_study, log2_chunk=8, processes=1)
        assert_same_result(got, reference)

    def test_budgeted_rows_match(self, small_study, reference, tmp_path):
        got = scaling.run_out_of_core(
            small_study,
            mem_budget=32 << 10,
            log2_chunk=8,
            cutoff=256,
            processes=1,
            spill_dir=tmp_path / "spill",
        )
        assert_same_result(got, reference)

    def test_chunk_size_does_not_change_rows(self, small_study, reference):
        got = scaling.run_out_of_core(small_study, log2_chunk=10, processes=1)
        assert got.rows == reference.rows

    def test_pool_width_does_not_change_rows(self, small_study, reference):
        got = scaling.run_out_of_core(small_study, log2_chunk=8, processes=2)
        assert got.rows == reference.rows

    def test_samples_trims_to_largest_octaves(self, small_study, reference):
        got = scaling.run_out_of_core(small_study, samples=2, log2_chunk=8, processes=1)
        assert got.rows == reference.rows[-2:]


class TestAssembleWindow:
    @pytest.fixture(scope="class")
    def telescope(self, small_study):
        from dataclasses import replace

        base = small_study.model.config
        config = replace(
            base, zm_alpha=1.5, n_sources=4 * base.n_sources, seed=base.seed ^ 0x5CA1E
        )
        return TelescopeSimulator(SourcePopulation(config))

    def test_budget_is_bit_invisible(self, telescope, tmp_path):
        def assemble(budget, **kwargs):
            acc = scaling.assemble_window(
                telescope,
                4.55,
                n_valid=1 << 10,
                log2_chunk=8,
                cutoff=256,
                processes=1,
                mem_budget=budget,
                **kwargs,
            )
            try:
                return acc.total(), acc.merges
            finally:
                acc.close()

        ref, _ = assemble(None)
        # The budget sets the group size: 8 KiB cuts the window into
        # single-chunk groups whose runs the pool tree has to merge.
        got, merges = assemble(8 << 10, spill_dir=tmp_path / "aw")
        assert merges > 0, "budget never engaged; test is vacuous"
        assert np.array_equal(got.keys, ref.keys)
        assert np.array_equal(got.vals.view(np.uint64), ref.vals.view(np.uint64))

    def test_source_marginal_matches_sample(self, telescope):
        # The assembled window's per-source packet counts must equal the
        # full sample's: both derive from the same multinomial RNG prefix,
        # and assemble_window drops the same legit sources the validity
        # filter removes.
        sample = telescope.sample(4.55, n_valid=1 << 10)
        acc = scaling.assemble_window(
            telescope, 4.55, n_valid=1 << 10, log2_chunk=8, processes=1
        )
        try:
            marginal = acc.total().row_reduce()
        finally:
            acc.close()
        assert np.array_equal(marginal.keys, sample.source_packets.keys)
        assert np.array_equal(marginal.vals, sample.source_packets.vals)


class TestWindowSourceCounts:
    def test_counts_share_sample_rng_prefix(self, small_study):
        telescope = TelescopeSimulator(small_study.model.population)
        spec = telescope.window_source_counts(4.55, n_valid=1 << 10)
        sample = telescope.sample(4.55, n_valid=1 << 10)
        assert spec.n_packets == 1 << 10
        assert np.all(spec.counts >= 1)
        # The raw capture's darkspace packets per source == the spec's.
        raw_src = np.asarray(sample.packets_raw.src)
        dark = np.isin(raw_src, spec.addresses)
        src_sorted = np.sort(raw_src[dark])
        expect = np.repeat(spec.addresses, spec.counts)
        assert np.array_equal(src_sorted, np.sort(expect))

    def test_rejects_nonpositive_window(self, small_study):
        telescope = TelescopeSimulator(small_study.model.population)
        with pytest.raises(ValueError):
            telescope.window_source_counts(4.55, n_valid=0)


class TestCli:
    ARGS = ["scaling", "--log2-nv", "12", "--sources", "800", "--seed", "5", "--no-checks"]

    def test_out_of_core_flag(self, capsys):
        assert main(self.ARGS + ["--out-of-core", "--samples", "2"]) == 0
        assert "Unique-source scaling" in capsys.readouterr().out

    def test_mem_budget_implies_out_of_core(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(self.ARGS + ["--mem-budget", "1M", "--samples", "2"]) == 0
        assert "Unique-source scaling" in capsys.readouterr().out

    def test_nv_override(self, capsys):
        args = [a for a in self.ARGS if a not in ("--log2-nv", "12")]
        assert main(args + ["--nv", "2**12", "--out-of-core", "--samples", "2"]) == 0
        out = capsys.readouterr().out
        assert "2^10" in out

    def test_bad_nv_rejected(self, capsys):
        assert main(self.ARGS + ["--nv", "12345"]) == 2
        assert "power of two" in capsys.readouterr().err

    def test_ooc_flags_require_scaling_only(self, capsys):
        assert main(["fig1", "--out-of-core", "--no-checks"]) == 2
        assert "scaling" in capsys.readouterr().err
