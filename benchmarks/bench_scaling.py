"""Benchmark: the scaling experiment, in-memory vs out-of-core (paper §IV).

Three measurements over the shared benchmark-scale study:

* ``test_scaling`` — the in-memory sweep (the PR 5 baseline), with the
  result series written to ``benchmarks/output/scaling.txt``;
* ``test_scaling_out_of_core`` — the same sweep via chunked window
  assembly and the sharded accumulator, unbudgeted;
* ``test_scaling_out_of_core_budgeted`` — the sweep under a deliberately
  tight ``mem_budget`` so ladder levels spill to columnar run files.

Each out-of-core run asserts its rows equal the in-memory sweep's — the
bit-identity half of the paper-scale acceptance criterion — and records
peak RSS plus the spill counters in ``extra_info``.
"""

import pytest

from repro.experiments import scaling
from repro.obs.metrics import SHARD_BYTES_MAPPED, SHARD_SPILLS, counter_value
from repro.parallel import update_peak_rss


@pytest.fixture(scope="module")
def reference(study):
    """The in-memory sweep both out-of-core benchmarks must reproduce."""
    return scaling.run(study)


def test_scaling(benchmark, study, report):
    result = benchmark.pedantic(scaling.run, args=(study,), rounds=1, iterations=1)
    benchmark.extra_info["peak_rss_bytes"] = update_peak_rss()
    report("scaling", result)


def test_scaling_out_of_core(benchmark, study, reference):
    result = benchmark.pedantic(
        scaling.run_out_of_core, args=(study,), rounds=1, iterations=1
    )
    benchmark.extra_info["peak_rss_bytes"] = update_peak_rss()
    assert result.rows == reference.rows
    assert result.slope == reference.slope


def test_scaling_out_of_core_budgeted(benchmark, study, reference, tmp_path):
    spills_before = counter_value(SHARD_SPILLS)

    def run_budgeted():
        return scaling.run_out_of_core(
            study,
            mem_budget=4 << 20,
            cutoff=1 << 12,
            spill_dir=tmp_path / "spill",
        )

    result = benchmark.pedantic(run_budgeted, rounds=1, iterations=1)
    spills = counter_value(SHARD_SPILLS) - spills_before
    benchmark.extra_info["peak_rss_bytes"] = update_peak_rss()
    benchmark.extra_info["shard_spills"] = spills
    benchmark.extra_info["shard_bytes_mapped"] = counter_value(SHARD_BYTES_MAPPED)
    assert spills > 0, "budget never engaged; the benchmark is vacuous"
    assert result.rows == reference.rows
