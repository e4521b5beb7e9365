"""Sharded out-of-core accumulation: order-determinism and exact folds."""

import time

import numpy as np
import pytest

from repro.analysis.sanitize.runtime import sanitizers, take_traps
from repro.hypersparse import HierarchicalMatrix, HyperSparseMatrix
from repro.hypersparse.spill import SpillStore
from repro.obs.metrics import (
    PEAK_RSS_BYTES,
    enable_metrics,
    gauge,
    metrics_enabled,
    reset_metrics,
)
from repro.parallel import sharded_accumulate, sum_archive, update_peak_rss
from repro.traffic import Packets, WindowArchive

SHAPE = (1 << 20, 1 << 20)


def chunk_matrix(seed):
    """Picklable worker: one deterministic canonical sub-matrix per seed."""
    rng = np.random.default_rng((77, seed))
    rows = rng.integers(0, SHAPE[0], 500)
    cols = rng.integers(0, SHAPE[1], 500)
    vals = rng.random(500)
    return HyperSparseMatrix(rows, cols, vals, shape=SHAPE)


def crowded_matrix(seed):
    """Picklable worker: float values on a 32x32 corner of the plane.

    Items share keys, so the float sums depend on the fold order; early
    items sleep, so a pool finishes them after later ones.
    """
    time.sleep(0.02 if seed % 4 == 0 else 0.0)
    rng = np.random.default_rng((78, seed))
    rows = rng.integers(0, 32, 200)
    cols = rng.integers(0, 32, 200)
    return HyperSparseMatrix(rows, cols, rng.random(200), shape=SHAPE)


def poke_item(item):
    """Picklable worker that writes into one of its ndarray inputs."""
    i = int(item[0])
    if i == 5:
        item[1] = 1.0
    return HyperSparseMatrix(np.array([i]), np.array([i]), shape=SHAPE)


def reference_total(items):
    total = HyperSparseMatrix.empty(SHAPE)
    for it in items:
        total = total.ewise_add(chunk_matrix(it))
    return total


def assert_bit_identical(a: HyperSparseMatrix, b: HyperSparseMatrix):
    assert np.array_equal(a.keys, b.keys)
    assert np.array_equal(a.vals.view(np.uint64), b.vals.view(np.uint64))


class TestShardedAccumulate:
    ITEMS = list(range(24))

    def accumulate(self, **kwargs):
        acc = sharded_accumulate(
            chunk_matrix, self.ITEMS, shape=SHAPE, cutoff=256, **kwargs
        )
        try:
            return acc.total()
        finally:
            acc.close()

    def test_matches_flat_sum(self):
        got = self.accumulate(processes=1)
        ref = reference_total(self.ITEMS)
        assert got.nnz == ref.nnz
        assert np.array_equal(got.keys, ref.keys)
        assert np.allclose(got.vals, ref.vals)

    def test_independent_of_worker_count_and_wave(self):
        ref = self.accumulate(processes=1)
        assert_bit_identical(self.accumulate(processes=2), ref)
        assert_bit_identical(self.accumulate(processes=1, wave=5), ref)

    def test_fold_order_is_item_order(self):
        """Out-of-order completion still folds in item order.

        Float sums over shared keys are bit-identical for every width.
        """

        def fold(processes):
            acc = sharded_accumulate(
                crowded_matrix,
                range(16),
                shape=SHAPE,
                cutoff=64,
                processes=processes,
                wave=4,
            )
            try:
                return acc.total()
            finally:
                acc.close()

        serial = fold(1)
        assert serial.nnz < 16 * 200  # real duplicate keys across items
        assert_bit_identical(fold(2), serial)

    @pytest.mark.parametrize("processes", [1, 2])
    @pytest.mark.parametrize("wave", [1, 3])
    def test_at_most_wave_items_ahead_of_the_fold(self, monkeypatch, processes, wave):
        handed = [0]
        folded = [0]
        ahead = []

        def counted():
            for it in self.ITEMS:
                handed[0] += 1
                yield it

        insert = HierarchicalMatrix.insert_matrix

        def counting_insert(acc, matrix):
            ahead.append(handed[0] - folded[0])
            insert(acc, matrix)
            folded[0] += 1

        monkeypatch.setattr(HierarchicalMatrix, "insert_matrix", counting_insert)
        acc = sharded_accumulate(
            chunk_matrix,
            counted(),
            shape=SHAPE,
            cutoff=256,
            processes=processes,
            wave=wave,
        )
        acc.close()
        assert folded[0] == handed[0] == len(self.ITEMS)
        assert max(ahead) <= wave

    @pytest.mark.parametrize("processes", [1, 2])
    def test_fork_sanitizer_sees_the_workers(self, processes):
        """RS003 wraps the stream the accumulator dispatches through."""
        items = [np.array([float(i), 0.0]) for i in range(8)]
        take_traps()
        with sanitizers(["fork"]):
            acc = sharded_accumulate(
                poke_item, items, shape=SHAPE, cutoff=256, processes=processes
            )
            acc.close()
        traps = [t for t in take_traps() if t.rule_id == "RS003"]
        assert len(traps) == 1
        assert "item 5" in traps[0].message

    def test_budgeted_bit_identical(self):
        ref = self.accumulate(processes=1)
        assert_bit_identical(
            self.accumulate(processes=1, mem_budget=32 << 10), ref
        )

    def test_budget_engages(self):
        acc = sharded_accumulate(
            chunk_matrix,
            self.ITEMS,
            shape=SHAPE,
            cutoff=256,
            processes=1,
            mem_budget=32 << 10,
        )
        try:
            assert acc.spilled_levels > 0
            assert acc.mem_nbytes <= 32 << 10
        finally:
            acc.close()

    def test_caller_spill_store(self, tmp_path):
        with SpillStore(tmp_path / "shard") as store:
            acc = sharded_accumulate(
                chunk_matrix,
                self.ITEMS,
                shape=SHAPE,
                cutoff=256,
                processes=1,
                mem_budget=32 << 10,
                spill=store,
            )
            assert any((tmp_path / "shard").iterdir())
            acc.close()

    def test_empty_items(self):
        acc = sharded_accumulate(chunk_matrix, [], shape=SHAPE, cutoff=256)
        assert acc.total().nnz == 0

    def test_invalid_wave(self):
        with pytest.raises(ValueError):
            sharded_accumulate(
                chunk_matrix, self.ITEMS, shape=SHAPE, cutoff=256, wave=0
            )

    def test_peak_rss_gauge_updates(self):
        was = metrics_enabled()
        enable_metrics(True)
        try:
            peak = update_peak_rss()
            assert peak > 0
            assert gauge(PEAK_RSS_BYTES).value == peak
        finally:
            enable_metrics(was)
            reset_metrics()


class TestSumArchive:
    @pytest.fixture()
    def archive(self, tmp_path, rng):
        arch = WindowArchive(tmp_path / "arch", n_valid=128)
        packets = Packets(
            np.sort(rng.uniform(0, 100, 1500)),
            rng.integers(0, 2**32, 1500),
            rng.integers(0, 2**24, 1500),
        )
        arch.append_packets(packets)
        assert len(arch) == 11
        return arch

    def test_matches_sum_windows(self, archive):
        ref = archive.sum_windows()
        for group in (3, 64):
            got = sum_archive(
                archive.root, n_valid=128, group=group, processes=1
            )
            assert np.array_equal(got.keys, ref.keys)
            # Integral packet counts: float64 addition is exact, so the
            # grouped association changes nothing — not even low bits.
            assert np.array_equal(
                got.vals.view(np.uint64), ref.vals.view(np.uint64)
            )

    def test_budgeted_matches(self, archive):
        ref = archive.sum_windows()
        got = sum_archive(
            archive.root,
            n_valid=128,
            group=2,
            processes=1,
            cutoff=64,
            mem_budget=16 << 10,
        )
        assert np.array_equal(got.keys, ref.keys)
        assert np.array_equal(got.vals.view(np.uint64), ref.vals.view(np.uint64))

    def test_parallel_groups_match_serial(self, archive):
        serial = sum_archive(archive.root, n_valid=128, group=2, processes=1)
        parallel = sum_archive(archive.root, n_valid=128, group=2, processes=2)
        assert np.array_equal(serial.keys, parallel.keys)
        assert np.array_equal(
            serial.vals.view(np.uint64), parallel.vals.view(np.uint64)
        )

    def test_index_subset(self, archive):
        ref = archive.sum_windows([0, 3, 5])
        got = sum_archive(
            archive.root, n_valid=128, indices=[0, 3, 5], group=2, processes=1
        )
        assert np.array_equal(got.keys, ref.keys)

    def test_empty_archive(self, tmp_path):
        WindowArchive(tmp_path / "empty", n_valid=128)
        got = sum_archive(tmp_path / "empty", n_valid=128)
        assert got.nnz == 0

    def test_invalid_group(self, archive):
        with pytest.raises(ValueError):
            sum_archive(archive.root, n_valid=128, group=0)
