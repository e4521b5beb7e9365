"""CorrelationEngine: lifecycle, queries, save/restore round-trips."""

import re
import sys
import threading
import time

import numpy as np
import pytest

from repro.obs.metrics import (
    SERVE_EPOCH_LAG,
    SERVE_FOLD_SECONDS,
    SERVE_PUBLISH_SECONDS,
    SNAPSHOT_LEASES,
    enable_metrics,
    gauge,
    histogram,
    metrics_enabled,
    reset_metrics,
)
from repro.serve import CorrelationEngine, EngineSnapshot, load_snapshot, snapshot_buffers
from repro.serve import snapshot as snapshot_module
from repro.serve.cli import synthetic_batch, synthetic_month
from repro.serve.engine import _MIN_FIT_MONTHS
from repro.stats.binning import BinnedDistribution
from repro.traffic.packet import Packets


def folded_engine(n_windows=4, n_valid=256, seed=7):
    """An engine with ``n_windows`` closed windows and as many months."""
    engine = CorrelationEngine(n_valid, cutoff=1 << 8)
    months = 0
    for b in range(n_windows):
        closed = engine.fold_batch(synthetic_batch(seed, b, n_valid, 1024))
        for _ in range(closed):
            engine.fold_month(float(months), synthetic_month(seed, months, 1024))
            months += 1
    return engine


class TestFolding:
    def test_fold_batch_counts_closed_windows(self):
        with CorrelationEngine(100, cutoff=1 << 8) as engine:
            assert engine.fold_batch(synthetic_batch(1, 0, 250, 500)) == 2
            assert engine.window_count == 2
            assert engine.fold_batch(synthetic_batch(1, 1, 50, 500)) == 1

    def test_fold_month_sorted_unique(self):
        with CorrelationEngine(64) as engine:
            engine.fold_month(2.0, np.array([5, 1, 5], dtype=np.uint64))
            engine.fold_month(1.0, np.array([9], dtype=np.uint64))
            assert engine.months_folded == 2

    def test_fold_month_rejects_negative_and_non_integer_sources(self):
        with CorrelationEngine(64) as engine:
            with pytest.raises(ValueError, match="non-negative"):
                engine.fold_month(0.0, np.array([3, -1], dtype=np.int64))
            with pytest.raises(ValueError, match="integers"):
                engine.fold_month(0.0, np.array([1.0, 2.0]))
            with pytest.raises(ValueError, match="integers"):
                engine.fold_month(0.0, np.array([True]))
            assert engine.months_folded == 0
            # Empty months and the full uint64 range still fold.
            engine.fold_month(0.0, np.array([], dtype=np.float64))
            engine.fold_month(1.0, np.array([0, 2**64 - 1], dtype=np.uint64))
            engine.fold_month(2.0, [5, 1, 5])
            assert engine.months_folded == 3

    def test_bad_address_leaves_state_unchanged(self):
        # The out-of-range address sits in the second window of the batch:
        # the first window must not close (and vanish) before the error.
        good = np.arange(12, dtype=np.uint64)
        bad_src, bad_dst = good.copy(), good.copy()
        bad_src[10] = 2**33
        bad_dst[9] = 2**32
        with CorrelationEngine(8) as engine:
            with pytest.raises(ValueError, match=r"packet 10: src address 8589934592"):
                engine.fold_batch(Packets(np.arange(12.0), bad_src, good))
            with pytest.raises(ValueError, match=r"packet 9: dst address 4294967296"):
                engine.fold_batch(Packets(np.arange(12.0), good, bad_dst))
            assert engine.window_count == 0
            assert engine._analyzer.windows_emitted == 0
            assert engine._analyzer.pending_packets == 0
            assert engine.fold_batch(Packets(np.arange(12.0), good, good)) == 1
            snap = engine.acquire()
            try:
                assert list(snap.window_index) == [0]
            finally:
                engine.release(snap)

    def test_window_indices_survive_restart_offset(self):
        engine = folded_engine(3)
        snap = engine.acquire()
        try:
            assert list(snap.window_index) == [0, 1, 2]
        finally:
            engine.release(snap)
        engine.close()


class TestLifecycle:
    def test_epoch_advances_per_publish(self):
        with CorrelationEngine(64) as engine:
            first = engine.publish()
            second = engine.publish()
            assert second.epoch == first.epoch + 1

    def test_acquire_publishes_lazily(self):
        with CorrelationEngine(64) as engine:
            snap = engine.acquire()
            engine.release(snap)
            assert snap.epoch == 1

    def test_close_idempotent_and_fold_after_close_raises(self):
        engine = CorrelationEngine(64)
        engine.close()
        engine.close()
        with pytest.raises(RuntimeError):
            engine.fold_batch(synthetic_batch(1, 0, 64, 100))
        with pytest.raises(RuntimeError):
            engine.publish()

    def test_outstanding_leases_tracks_readers(self):
        with CorrelationEngine(64) as engine:
            a = engine.acquire()
            b = engine.acquire()
            assert engine.outstanding_leases() == 2
            engine.release(a)
            engine.release(b)
            assert engine.outstanding_leases() == 0

    def test_over_release_raises_and_leaves_leases_unchanged(self):
        with CorrelationEngine(64) as engine:
            first = engine.acquire()
            engine.publish()
            second = engine.acquire()
            engine.release(first)
            with pytest.raises(ValueError, match="epoch 1 that holds no lease"):
                engine.release(first)
            assert engine._leases == {2: 1}
            engine.release(second)
            assert engine.outstanding_leases() == 0

    def test_snapshot_release_pairing(self):
        # A lease taken on one thread is held until another releases it.
        with CorrelationEngine(64, cutoff=1 << 8) as engine:
            leased = []
            taker = threading.Thread(target=lambda: leased.append(engine.acquire()))
            taker.start()
            taker.join()
            held = engine.outstanding_leases()
            giver = threading.Thread(target=engine.release, args=(leased[0],))
            giver.start()
            giver.join()
            assert held == 1 and engine.outstanding_leases() == 0

    def test_release_allowed_after_close(self):
        engine = CorrelationEngine(64)
        snap = engine.acquire()
        engine.close()
        engine.release(snap)
        assert engine.outstanding_leases() == 0


class TestQueries:
    def test_query_helpers_match_snapshot(self):
        engine = folded_engine(3)
        try:
            snap = engine.acquire()
            try:
                assert engine.query_quantities() == snap.quantities[-1]
                assert (
                    engine.query_degree_distribution().n_total
                    == snap.degree_distributions[-1].n_total
                )
            finally:
                engine.release(snap)
        finally:
            engine.close()

    def test_fold_and_query(self):
        # The writer folds on its own thread; the query runs on the caller's.
        engine = CorrelationEngine(128, cutoff=1 << 8)
        closed = []
        writer = threading.Thread(
            target=lambda: closed.append(engine.fold_batch(synthetic_batch(3, 0, 300, 800)))
        )
        writer.start()
        writer.join()
        assert closed == [2]
        assert engine.query_quantities().valid_packets == 128
        engine.close()
        assert engine.closed
        assert engine.outstanding_leases() == 0

    def test_fit_appears_after_enough_months(self):
        engine = folded_engine(_MIN_FIT_MONTHS + 1)
        try:
            snap = engine.acquire()
            try:
                assert snap.fit is not None
                assert snap.correlation is not None
                assert len(snap.month_times) == engine.months_folded
            finally:
                engine.release(snap)
        finally:
            engine.close()


class TestSaveRestore:
    def test_round_trip_bit_identical(self, tmp_path):
        engine = folded_engine(4)
        path = tmp_path / "snap.npz"
        engine.save(path)
        snap = engine.acquire()
        loaded = load_snapshot(path)
        try:
            assert loaded.epoch == snap.epoch
            assert loaded.n_valid == snap.n_valid
            np.testing.assert_array_equal(loaded.window_index, snap.window_index)
            np.testing.assert_array_equal(loaded.window_start, snap.window_start)
            np.testing.assert_array_equal(loaded.window_end, snap.window_end)
            np.testing.assert_array_equal(loaded.month_times, snap.month_times)
            np.testing.assert_array_equal(
                loaded.overlap_fractions, snap.overlap_fractions
            )
            assert loaded.quantities == snap.quantities
            for got, want in zip(
                loaded.degree_distributions, snap.degree_distributions
            ):
                np.testing.assert_array_equal(got.edges, want.edges)
                np.testing.assert_array_equal(got.counts, want.counts)
                assert got.n_total == want.n_total
            assert loaded.fit == snap.fit
            assert loaded.correlation == snap.correlation
        finally:
            engine.release(snap)
            engine.close()

    def test_restored_engine_resumes_folding(self, tmp_path):
        engine = folded_engine(2)
        path = tmp_path / "snap.npz"
        engine.save(path)
        engine.close()

        resumed = CorrelationEngine.restore(path, cutoff=1 << 8)
        try:
            assert resumed.window_count == 2
            assert resumed.epoch >= 1
            resumed.fold_batch(synthetic_batch(7, 2, 256, 1024))
            resumed.publish()  # readers see archived state until republish
            snap = resumed.acquire()
            try:
                # Indices continue past the archived windows.
                assert list(snap.window_index) == [0, 1, 2]
                assert snap.epoch > resumed.epoch - 1
            finally:
                resumed.release(snap)
        finally:
            resumed.close()

    def test_loaded_buffers_are_frozen(self, tmp_path):
        engine = folded_engine(2)
        path = tmp_path / "snap.npz"
        engine.save(path)
        engine.close()
        loaded = load_snapshot(path)
        with pytest.raises(ValueError):
            loaded.window_start[0] = 0.0

    def test_directly_built_snapshot_is_frozen(self):
        dist = BinnedDistribution(
            edges=np.array([1.0, 2.0]),
            counts=np.array([3.0]),
            prob=np.array([1.0]),
            n_total=3,
            d_max=1,
        )
        snap = EngineSnapshot(
            epoch=1,
            n_valid=4,
            window_index=np.arange(1, dtype=np.int64),
            window_start=np.zeros(1),
            window_end=np.ones(1),
            quantities=(),
            degree_distributions=(dist,),
            month_times=np.zeros(2),
            overlap_fractions=np.full(2, 0.5),
            correlation=None,
            fit=None,
        )
        buffers = list(snapshot_buffers(snap))
        assert len(buffers) == 8
        for arr in buffers:
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 7.0


def snapshot_bytes(snap):
    """Every array of a snapshot as raw bytes, for bit-identity checks."""
    out = [
        snap.window_index.tobytes(),
        snap.window_start.tobytes(),
        snap.window_end.tobytes(),
        snap.month_times.tobytes(),
        snap.overlap_fractions.tobytes(),
    ]
    for dist in snap.degree_distributions:
        out += [dist.edges.tobytes(), dist.counts.tobytes(), dist.prob.tobytes()]
    return out


class TestSnapshotDurability:
    @pytest.mark.parametrize("cut", ["zero", "ten", "half", "five-short"])
    def test_truncated_archive_raises_value_error_naming_path(self, tmp_path, cut):
        engine = folded_engine(2)
        path = tmp_path / "snap.npz"
        engine.save(path)
        engine.close()
        blob = path.read_bytes()
        offset = {"zero": 0, "ten": 10, "half": len(blob) // 2, "five-short": len(blob) - 5}
        path.write_bytes(blob[: offset[cut]])
        with pytest.raises(ValueError, match=re.escape(str(path))):
            load_snapshot(path)

    def test_archive_missing_member_raises_value_error(self, tmp_path):
        path = tmp_path / "other.npz"
        np.savez(path, unrelated=np.arange(3))
        with pytest.raises(ValueError, match=re.escape(str(path))):
            load_snapshot(path)

    def test_failed_save_leaves_prior_archive_restorable(self, tmp_path, monkeypatch):
        engine = folded_engine(2)
        path = tmp_path / "snap.npz"
        engine.save(path)
        prior = load_snapshot(path)
        engine.fold_batch(synthetic_batch(7, 2, 256, 1024))

        def torn_savez(fh, **arrays):
            fh.write(b"PK\x03\x04 half an archive")
            raise OSError("simulated crash mid-write")

        monkeypatch.setattr(snapshot_module.np, "savez", torn_savez)
        with pytest.raises(OSError, match="mid-write"):
            engine.save(path)
        monkeypatch.undo()
        engine.close()

        assert [p.name for p in tmp_path.iterdir()] == ["snap.npz"]
        restored = load_snapshot(path)
        assert restored.epoch == prior.epoch
        assert snapshot_bytes(restored) == snapshot_bytes(prior)
        resumed = CorrelationEngine.restore(path, cutoff=1 << 8)
        try:
            assert resumed.window_count == 2
        finally:
            resumed.close()


def _join(*threads):
    """Join each thread with a timeout and assert that it finished."""
    for thread in threads:
        thread.join(60)
        assert not thread.is_alive(), thread.name


def _hold_folds(engine):
    """Make each fold signal ``in_fold`` and wait for ``resume`` while it
    holds the writer lock; return ``(in_fold, resume)``."""
    in_fold, resume = threading.Event(), threading.Event()
    process = engine._analyzer.process

    def held_process(packets):
        in_fold.set()
        assert resume.wait(10)
        return process(packets)

    engine._analyzer.process = held_process
    return in_fold, resume


def _paced_reader(engine, done, reads, pause=0.005):
    """Acquire, read, release, then sleep ``pause``, until ``done`` is set.

    Appends each leased epoch to ``reads``.
    """
    while not done.is_set():
        snap = engine.acquire()
        try:
            epoch = snap.epoch
            if snap.window_count:
                assert snap.quantities[-1].valid_packets == engine.n_valid
        finally:
            engine.release(snap)
        reads.append(epoch)
        time.sleep(pause)


class TestReadersNeverWaitOnWriter:
    def test_back_to_back_writer_does_not_starve_a_reader(self):
        # The writer folds with no yield between batches; only the
        # reader's own 5 ms pause should bound its read rate.
        pause = 0.005
        reads = []
        done = threading.Event()
        batches = [synthetic_batch(7, b, 4096, 16384) for b in range(768)]
        with CorrelationEngine(2**17, cutoff=2**12) as engine:
            reader = threading.Thread(target=_paced_reader, args=(engine, done, reads, pause))
            start = time.perf_counter()
            reader.start()
            try:
                for batch in batches:
                    if engine.fold_batch(batch):
                        engine.publish()
            finally:
                done.set()
                _join(reader)
            elapsed = time.perf_counter() - start
            assert engine.window_count == 24
            assert engine.outstanding_leases() == 0
        assert len(reads) >= elapsed / pause / 2, (len(reads), elapsed)

    def test_first_readers_publish_epoch_one_once(self):
        # Readers hit a fresh engine while the writer is mid-fold: they
        # wait for that fold, then exactly one of them publishes epoch 1.
        engine = CorrelationEngine(128, cutoff=1 << 8)
        in_fold, resume = _hold_folds(engine)
        publishes = []
        publish = engine.publish

        def counted_publish():
            publishes.append(publish())
            return publishes[-1]

        engine.publish = counted_publish
        got = []

        def first_read():
            snap = engine.acquire()
            got.append(snap)
            engine.release(snap)

        writer = threading.Thread(target=engine.fold_batch, args=(synthetic_batch(3, 0, 300, 800),))
        readers = [threading.Thread(target=first_read) for _ in range(4)]
        writer.start()
        assert in_fold.wait(10)
        for thread in readers:
            thread.start()
        time.sleep(0.05)  # let the readers reach acquire() mid-fold
        resume.set()
        _join(writer, *readers)
        try:
            assert [snap.epoch for snap in publishes] == [1]
            assert all(snap is publishes[0] for snap in got) and len(got) == 4
            assert publishes[0].window_count == 2  # published after the fold
            assert engine.outstanding_leases() == 0
        finally:
            engine.close()

    def test_epochs_a_reader_sees_never_decrease(self):
        # More readers than cores, switching threads far more often than
        # the default 5 ms: a lost lease-table update would leak a lease.
        engine = CorrelationEngine(128, cutoff=1 << 8)
        done = threading.Event()
        seen = [[] for _ in range(4)]
        readers = [
            threading.Thread(target=_paced_reader, args=(engine, done, out, 0.0))
            for out in seen
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in readers:
                thread.start()
            try:
                for b in range(40):
                    engine.fold_batch(synthetic_batch(5, b, 64, 800))
                    engine.publish()
                    engine.publish()
            finally:
                done.set()
                _join(*readers)
        finally:
            sys.setswitchinterval(interval)
        try:
            for epochs in seen:
                assert epochs and epochs == sorted(epochs)
            assert max(max(epochs) for epochs in seen) <= engine.epoch
            assert engine.outstanding_leases() == 0
        finally:
            engine.close()

    def test_close_waits_for_running_fold_then_refuses(self):
        engine = CorrelationEngine(128, cutoff=1 << 8)
        early = engine.acquire()
        in_fold, resume = _hold_folds(engine)
        closed = []
        writer = threading.Thread(
            target=lambda: closed.append(engine.fold_batch(synthetic_batch(3, 0, 300, 800)))
        )
        closer = threading.Thread(target=engine.close)
        writer.start()
        assert in_fold.wait(10)
        closer.start()
        closer.join(0.05)
        # close() waits out the fold, and readers still lease meanwhile.
        assert closer.is_alive() and not engine.closed
        during = engine.acquire()
        engine.release(during)
        resume.set()
        _join(writer, closer)
        assert closed == [2] and engine.window_count == 2
        assert engine.closed
        with pytest.raises(RuntimeError):
            engine.fold_batch(synthetic_batch(3, 1, 300, 800))
        with pytest.raises(RuntimeError):
            engine.acquire()
        engine.release(early)
        assert engine.outstanding_leases() == 0


class TestHealthMetrics:
    @pytest.fixture()
    def recording(self):
        was = metrics_enabled()
        enable_metrics(True)
        reset_metrics()
        try:
            yield
        finally:
            enable_metrics(was)
            reset_metrics()

    def test_epoch_lag_counts_unpublished_windows(self, recording):
        with CorrelationEngine(100, cutoff=1 << 8) as engine:
            engine.fold_batch(synthetic_batch(1, 0, 250, 500))
            assert gauge(SERVE_EPOCH_LAG).value == 2
            engine.publish()
            assert gauge(SERVE_EPOCH_LAG).value == 0
            engine.fold_batch(synthetic_batch(1, 1, 100, 500))
            assert gauge(SERVE_EPOCH_LAG).value == 1
            engine.publish()
            assert gauge(SERVE_EPOCH_LAG).value == 0
            assert histogram(SERVE_FOLD_SECONDS).count == 2
            assert histogram(SERVE_PUBLISH_SECONDS).count == 2

    def test_lease_gauge_follows_acquire_and_release(self, recording):
        with CorrelationEngine(64) as engine:
            a = engine.acquire()
            b = engine.acquire()
            assert gauge(SNAPSHOT_LEASES).value == 2
            engine.release(a)
            assert gauge(SNAPSHOT_LEASES).value == 1
            engine.release(b)
            assert gauge(SNAPSHOT_LEASES).value == 0
