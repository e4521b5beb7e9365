"""Sharded out-of-core accumulation: order-determinism and exact folds."""

import os
import tempfile
import time

import numpy as np
import pytest

from repro.analysis.sanitize.runtime import sanitizers, take_traps
from repro.hypersparse import HyperSparseMatrix
from repro.hypersparse.spill import SpillStore
from repro.obs.metrics import (
    PEAK_RSS_BYTES,
    SHARD_SPILL_BYTES,
    SHARD_SPILLS,
    counter_value,
    enable_metrics,
    gauge,
    metrics_enabled,
    reset_metrics,
)
from repro.parallel import shard, sharded_accumulate, shutdown_pools, sum_archive
from repro.parallel import update_peak_rss
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


def failing_matrix(seed):
    """Picklable worker that raises in the middle of the items."""
    if seed == 5:
        raise RuntimeError("worker failed on item 5")
    return chunk_matrix(seed)


def reference_total(items):
    total = HyperSparseMatrix.empty(SHAPE)
    for it in items:
        total = total.ewise_add(chunk_matrix(it))
    return total


def tree_total(matrices):
    """The combine tree folded in RAM: pair adjacent sums level by level.

    An odd last sum is carried up unchanged, exactly as the pool does.
    """
    level = list(matrices)
    while len(level) > 1:
        merged = [a.ewise_add(b) for a, b in zip(level[0::2], level[1::2])]
        level = merged + level[len(merged) * 2 :]
    return level[0]


def assert_bit_identical(a: HyperSparseMatrix, b: HyperSparseMatrix):
    assert np.array_equal(a.keys, b.keys)
    assert np.array_equal(a.vals.view(np.uint64), b.vals.view(np.uint64))


class TestShardedAccumulate:
    ITEMS = list(range(24))

    def accumulate(self, **kwargs):
        acc = sharded_accumulate(
            chunk_matrix, self.ITEMS, shape=SHAPE, **kwargs
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

        # The fold point: the parent receives one item's run, in order.
        leaf = shard._Tree.leaf

        def counting_leaf(tree, run):
            ahead.append(handed[0] - folded[0])
            folded[0] += 1
            return leaf(tree, run)

        monkeypatch.setattr(shard._Tree, "leaf", counting_leaf)
        acc = sharded_accumulate(
            chunk_matrix,
            counted(),
            shape=SHAPE,
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
                poke_item, items, shape=SHAPE, processes=processes
            )
            acc.close()
        traps = [t for t in take_traps() if t.rule_id == "RS003"]
        assert len(traps) == 1
        assert "item 5" in traps[0].message

    def test_budgeted_bit_identical(self):
        """Every tree level lives on disk; that residence is bit-invisible.

        The result equals the same tree folded in RAM, bit for bit.
        """
        ref = tree_total(chunk_matrix(it) for it in self.ITEMS)
        for processes in (1, 2):
            assert_bit_identical(self.accumulate(processes=processes), ref)

    def test_budget_engages(self):
        """The parent holds no sum: the root is one run, all merges done."""
        acc = sharded_accumulate(chunk_matrix, self.ITEMS, shape=SHAPE, processes=1)
        try:
            assert acc.mem_nbytes == 0
            assert acc.num_levels == 1 and acc.disk_nbytes > 0
            assert acc.merges == len(self.ITEMS) - 1
            assert acc.inserted == sum(chunk_matrix(it).nnz for it in self.ITEMS)
        finally:
            acc.close()

    def test_caller_spill_store(self, tmp_path):
        with SpillStore(tmp_path / "shard") as store:
            acc = sharded_accumulate(
                chunk_matrix,
                self.ITEMS,
                shape=SHAPE,
                processes=1,
                spill=store,
            )
            # Only the root run is left; the tree deleted every input.
            assert len(list((tmp_path / "shard").iterdir())) == 1
            acc.close()
            assert not any((tmp_path / "shard").iterdir())

    def test_empty_items(self):
        acc = sharded_accumulate(chunk_matrix, [], shape=SHAPE)
        assert acc.total().nnz == 0

    def test_invalid_wave(self):
        with pytest.raises(ValueError):
            sharded_accumulate(chunk_matrix, self.ITEMS, shape=SHAPE, wave=0)

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


def run_files(root):
    """Every file under ``root`` (runs and write droppings alike)."""
    return sorted(p.name for p in root.rglob("*") if p.is_file())


class TestCombineTree:
    """The pool-side tree: fixed by item order, clean on failure."""

    @pytest.mark.parametrize("n_items", [16, 13, 7])
    def test_float_sums_bit_identical_across_widths_and_waves(self, n_items):
        ref = tree_total(crowded_matrix(i) for i in range(n_items))
        assert ref.nnz < n_items * 200  # real duplicate keys across items
        for processes, wave in ((1, None), (2, None), (2, 1), (2, 3), (1, 5)):
            acc = sharded_accumulate(
                crowded_matrix,
                range(n_items),
                shape=SHAPE,
                processes=processes,
                wave=wave,
            )
            try:
                assert acc.merges == n_items - 1
                assert_bit_identical(acc.total(), ref)
            finally:
                acc.close()

    def test_moved_entries_count_every_merge_input(self):
        acc = sharded_accumulate(chunk_matrix, range(3), shape=SHAPE, processes=1)
        try:
            nnz = [chunk_matrix(i).nnz for i in range(3)]
            pair = chunk_matrix(0).ewise_add(chunk_matrix(1)).nnz
            assert acc.moved_entries == nnz[0] + nnz[1] + pair + nnz[2]
        finally:
            acc.close()

    @pytest.mark.parametrize("processes", [1, 2])
    def test_worker_error_leaves_no_file(self, tmp_path, processes):
        with SpillStore(tmp_path / "store") as store:
            with pytest.raises(RuntimeError, match="item 5"):
                sharded_accumulate(
                    failing_matrix,
                    range(12),
                    shape=SHAPE,
                    processes=processes,
                    spill=store,
                )
            assert run_files(tmp_path / "store") == []

    @pytest.mark.parametrize("processes", [1, 2])
    def test_merge_error_leaves_no_file(self, tmp_path, monkeypatch, processes):
        def broken_merge(a, b, writer, **kwargs):
            writer.append(a[0][:1], a[1][:1])  # a partial output first
            raise RuntimeError("merge failed")

        # Workers fork from the patched parent: start a fresh pool.
        shutdown_pools()
        monkeypatch.setattr(shard, "merge_runs_streamed", broken_merge)
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        try:
            with pytest.raises(RuntimeError, match="merge failed"):
                sharded_accumulate(
                    chunk_matrix, range(12), shape=SHAPE, processes=processes
                )
        finally:
            shutdown_pools()
        # The private store went with the error, .tmp droppings and all.
        assert run_files(tmp_path) == []
        assert not list(tmp_path.glob("repro-spill-*"))

    def test_close_removes_private_store(self, tmp_path, monkeypatch):
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        acc = sharded_accumulate(chunk_matrix, range(6), shape=SHAPE, processes=2)
        (root,) = tmp_path.glob("repro-spill-*")
        assert len(run_files(root)) == 1
        acc.close()
        assert not root.exists()

    def test_parent_books_every_run(self):
        was = metrics_enabled()
        enable_metrics(True)
        reset_metrics()
        try:
            acc = sharded_accumulate(
                chunk_matrix, range(6), shape=SHAPE, processes=2
            )
            try:
                # 6 item runs and 5 merged runs, written by the workers.
                assert counter_value(SHARD_SPILLS) == 6 + 5
                assert counter_value(SHARD_SPILL_BYTES) >= acc.disk_nbytes
            finally:
                acc.close()
        finally:
            enable_metrics(was)
            reset_metrics()

    def test_store_runs_skip_fsync_archive_windows_keep_it(
        self, tmp_path, monkeypatch, rng
    ):
        synced = []
        real_fsync = os.fsync

        def counting_fsync(fd):
            synced.append(os.fstat(fd).st_ino)
            real_fsync(fd)

        monkeypatch.setattr(os, "fsync", counting_fsync)
        acc = sharded_accumulate(chunk_matrix, range(6), shape=SHAPE, processes=1)
        acc.collapse_to_disk()
        acc.close()
        assert synced == []

        arch = WindowArchive(tmp_path / "arch", n_valid=128)
        arch.append_packets(
            Packets(
                np.sort(rng.uniform(0, 100, 600)),
                rng.integers(0, 2**32, 600),
                rng.integers(0, 2**24, 600),
            )
        )
        windows = [p.stat().st_ino for p in (tmp_path / "arch").glob("window_*.col")]
        assert len(windows) == 4
        assert sorted(i for i in synced if i in windows) == sorted(windows)


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

    def test_budgeted_matches(self, archive, tmp_path):
        """Group sums combine as scratch runs in a caller store."""
        ref = archive.sum_windows()
        with SpillStore(tmp_path / "runs") as store:
            got = sum_archive(
                archive.root, n_valid=128, group=2, processes=1, spill=store
            )
            assert run_files(tmp_path / "runs") == []
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
