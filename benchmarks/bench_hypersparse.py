"""The hypersparse substrate (paper §II) at telescope-batch scale.

The paper's pipeline rests on streaming inserts into hierarchical
hypersparse matrices and on the Table II reductions.  These checks run
each operation once on 16 batches of 2^17 packets and assert its result.
They are not timed: speed is measured end to end by
``benchmarks/e2e/run.py`` (``window-ooc`` exercises this layer).
"""

import numpy as np
import pytest

from repro.hypersparse import HierarchicalMatrix, HyperSparseMatrix

BATCH = 1 << 17  # the telescope's archived matrix granularity
N_BATCHES = 16
SPACE = (2**32, 2**32)


@pytest.fixture(scope="module")
def batches():
    rng = np.random.default_rng(0)
    return [
        (
            rng.integers(0, 2**32, BATCH, dtype=np.uint64),
            rng.integers(0, 2**32, BATCH, dtype=np.uint64),
        )
        for _ in range(N_BATCHES)
    ]


@pytest.fixture(scope="module")
def window_matrix(batches):
    acc = HierarchicalMatrix(shape=SPACE, cutoff=1 << 16)
    for src, dst in batches:
        acc.insert(src, dst)
    return acc.total()


def test_hierarchical_insert_throughput(batches):
    """Streaming accumulation of 2^17-packet batches (hierarchical)."""
    acc = HierarchicalMatrix(shape=SPACE, cutoff=1 << 16)
    for src, dst in batches:
        acc.insert(src, dst)
    assert acc.total().total() == BATCH * N_BATCHES


def test_flat_insert_throughput(batches):
    """The ablation baseline: re-canonicalize the total on every batch."""
    flat = HyperSparseMatrix.empty(SPACE)
    for src, dst in batches:
        flat = flat.ewise_add(HyperSparseMatrix(src, dst, shape=SPACE))
    assert flat.total() == BATCH * N_BATCHES


def test_single_window_construction(batches):
    """One-shot construction of a full window's matrix."""
    src = np.concatenate([s for s, _ in batches])
    dst = np.concatenate([d for _, d in batches])
    m = HyperSparseMatrix(src, dst)
    assert m.total() == src.size


def test_table2_reductions(window_matrix):
    """All Table II aggregates of a window matrix."""
    from repro.traffic.quantities import network_quantities

    q = network_quantities(window_matrix)
    assert q.valid_packets == BATCH * N_BATCHES


def test_ewise_add(window_matrix):
    out = window_matrix.ewise_add(window_matrix)
    assert out.total() == 2 * window_matrix.total()


def test_zero_norm(window_matrix):
    out = window_matrix.zero_norm()
    assert out.nnz == window_matrix.nnz


def test_mxm_square():
    """Semiring matmul on a dense-ish small graph (correlation workloads)."""
    rng = np.random.default_rng(1)
    n = 20_000
    a = HyperSparseMatrix(
        rng.integers(0, 2000, n), rng.integers(0, 2000, n), shape=(2000, 2000)
    )
    out = a.mxm(a)
    assert out.nnz > 0
