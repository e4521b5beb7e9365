"""Process-pool mapping."""

import os
import time

import numpy as np
import pytest

from repro.parallel import (
    configured_processes,
    cpu_count,
    get_pool,
    parallel_map,
    shutdown_pools,
    stream_map,
)


def square(x):
    return x * x


def test_preserves_order():
    assert parallel_map(square, list(range(100))) == [x * x for x in range(100)]


def test_serial_fallback_small_input():
    assert parallel_map(square, [1, 2], min_parallel=4) == [1, 4]


def test_forced_serial():
    assert parallel_map(square, list(range(50)), processes=1) == [
        x * x for x in range(50)
    ]


def test_empty():
    assert parallel_map(square, []) == []


def scaled(matrix):
    """Worker that derives a new matrix and returns it through the pipe."""
    return matrix * 2.0


def roundtrip(matrix):
    """Worker that returns the matrix it was sent."""
    return matrix


def total(matrix):
    return float(matrix.vals.sum())


def matrices_of(rng, count=6, nnz=256):
    from repro.hypersparse import HyperSparseMatrix

    return [
        HyperSparseMatrix(
            rng.integers(0, 2**32, size=nnz, dtype=np.uint64),
            rng.integers(0, 2**32, size=nnz, dtype=np.uint64),
            rng.random(nnz),
            shape=(2**32, 2**32),
        )
        for _ in range(count)
    ]


def assert_bit_identical(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.shape == w.shape
        assert g.keys.tobytes() == w.keys.tobytes()
        assert g.vals.tobytes() == w.vals.tobytes()


def test_parallel_matches_serial(rng):
    items = list(range(200))
    assert parallel_map(square, items, processes=2) == parallel_map(
        square, items, processes=1
    )
    # Matrices cross the pool boundary pickled, both ways.
    matrices = matrices_of(rng)
    assert_bit_identical(
        parallel_map(scaled, matrices, processes=2, min_parallel=1),
        parallel_map(scaled, matrices, processes=1),
    )
    assert parallel_map(total, matrices, processes=2, min_parallel=1) == [
        total(m) for m in matrices
    ]


def test_workers_can_return_matrices(rng):
    matrices = matrices_of(rng, count=4)
    out = parallel_map(roundtrip, matrices, processes=2, min_parallel=1)
    assert_bit_identical(out, matrices)
    # Unpickled in the parent, the results are as read-only as the inputs.
    assert not any(m.keys.flags.writeable or m.vals.flags.writeable for m in out)


def test_derived_results_bit_identical_to_serial(rng):
    matrices = matrices_of(rng, count=4)
    assert_bit_identical(
        parallel_map(scaled, matrices, processes=2, min_parallel=1),
        [scaled(m) for m in matrices],
    )


def test_cpu_count_positive():
    assert cpu_count() >= 1


def test_chunksize_override():
    out = parallel_map(square, list(range(64)), processes=2, chunksize=5)
    assert out == [x * x for x in range(64)]


def worker_pid(_):
    return os.getpid()


def late_square(x):
    """Early items finish last, so completion order is not item order."""
    time.sleep(0.02 if x % 4 == 0 else 0.0)
    return x * x


class TestStreamMap:
    @pytest.mark.parametrize("processes", [1, 2])
    def test_yields_in_item_order(self, processes):
        out = list(stream_map(late_square, range(24), processes=processes, wave=4))
        assert out == [x * x for x in range(24)]

    @pytest.mark.parametrize("processes", [1, 2])
    @pytest.mark.parametrize("wave", [1, 3, 4])
    def test_at_most_wave_items_ahead_of_the_consumer(self, processes, wave):
        handed = [0]

        def counted():
            for x in range(32):
                handed[0] += 1
                yield x

        ahead = []
        for consumed, result in enumerate(
            stream_map(late_square, counted(), processes=processes, wave=wave)
        ):
            ahead.append(handed[0] - consumed)
            assert result == consumed * consumed
        assert max(ahead) <= wave
        assert handed[0] == 32

    def test_invalid_wave(self):
        with pytest.raises(ValueError):
            list(stream_map(square, range(8), wave=0))


class TestPersistentPool:
    """The pool survives between calls: startup is paid once, not per map."""

    @pytest.fixture(autouse=True)
    def _fresh_pools(self):
        shutdown_pools()
        yield
        shutdown_pools()

    def test_get_pool_reuses_same_width(self):
        assert get_pool(2) is get_pool(2)

    def test_distinct_widths_get_distinct_pools(self):
        assert get_pool(2) is not get_pool(3)

    def test_workers_persist_across_maps(self):
        pids_first = set(parallel_map(worker_pid, list(range(32)), processes=2))
        pids_second = set(parallel_map(worker_pid, list(range(32)), processes=2))
        # A fresh pool per call would show up to 4 distinct worker pids;
        # the persistent pool serves both batches from the same 2.
        assert len(pids_first | pids_second) <= 2

    def test_usable_again_after_shutdown(self):
        assert parallel_map(square, list(range(20)), processes=2) == [
            x * x for x in range(20)
        ]
        shutdown_pools()
        assert parallel_map(square, list(range(20)), processes=2) == [
            x * x for x in range(20)
        ]

    def test_shutdown_idempotent(self):
        get_pool(2)
        shutdown_pools()
        shutdown_pools()

    def test_shutdown_swallows_double_close_errors(self):
        # A pool whose teardown raises (workers already dead, or some
        # caller closed it behind our back) must not abort the shutdown:
        # atexit replays shutdown_pools after explicit shutdowns.
        from repro.parallel import pool as pool_mod

        class _Broken:
            def terminate(self):
                raise OSError("already closed")

            def join(self):  # pragma: no cover - terminate raises first
                raise AssertionError("join after failed terminate")

        pool_mod._reap_stale_pools()
        pool_mod._pools[99] = _Broken()
        shutdown_pools()
        assert pool_mod._pools == {}

    def test_atexit_replay_after_explicit_shutdown(self):
        # Explicit shutdown, then the atexit hook fires anyway: the
        # second call sees an empty registry and must be a clean no-op,
        # and the pools must still be usable afterwards.
        get_pool(2)
        shutdown_pools()
        shutdown_pools()
        assert parallel_map(square, list(range(20)), processes=2) == [
            x * x for x in range(20)
        ]


class TestProcessesEnv:
    def test_unset_returns_none(self, monkeypatch):
        monkeypatch.delenv("REPRO_PROCESSES", raising=False)
        assert configured_processes() is None

    def test_env_sets_default_width(self, monkeypatch):
        monkeypatch.setenv("REPRO_PROCESSES", "2")
        assert configured_processes() == 2
        shutdown_pools()
        pids = set(parallel_map(worker_pid, list(range(32))))
        assert len(pids) <= 2
        shutdown_pools()

    def test_env_one_forces_serial(self, monkeypatch):
        monkeypatch.setenv("REPRO_PROCESSES", "1")
        assert parallel_map(worker_pid, list(range(8))) == [os.getpid()] * 8

    def test_env_zero_forces_serial(self, monkeypatch):
        # 0 is the environment-side "switch parallelism off" escape
        # hatch: every item runs in the parent, no pool is created.
        from repro.parallel import pool as pool_mod

        monkeypatch.setenv("REPRO_PROCESSES", "0")
        assert configured_processes() == 0
        shutdown_pools()
        assert parallel_map(worker_pid, list(range(8))) == [os.getpid()] * 8
        assert pool_mod._pools == {}

    def test_explicit_processes_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_PROCESSES", "4")
        assert parallel_map(worker_pid, list(range(8)), processes=1) == [os.getpid()] * 8

    @pytest.mark.parametrize("bad", ["lots", "-2", "2.5"])
    def test_malformed_env_raises(self, monkeypatch, bad):
        monkeypatch.setenv("REPRO_PROCESSES", bad)
        with pytest.raises(ValueError, match="REPRO_PROCESSES"):
            configured_processes()
