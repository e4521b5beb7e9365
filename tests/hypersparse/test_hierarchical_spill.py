"""Budgeted hierarchical accumulation: bit-identical to the in-RAM ladder.

The memory budget moves ladder levels to disk but never reorders the
merge tree, so every comparison here demands exact equality — float
columns included — between the budgeted and unbudgeted accumulators.
"""

import numpy as np
import pytest

from repro.hypersparse import HierarchicalMatrix, HyperSparseMatrix, SpillStore
from repro.hypersparse.spill import load_run

SHAPE = (1 << 20, 1 << 20)


def feed(acc, rng, batches=40, size=2000):
    for _ in range(batches):
        rows = rng.integers(0, SHAPE[0], size)
        cols = rng.integers(0, SHAPE[1], size)
        vals = rng.random(size)
        acc.insert(rows, cols, vals)


def accumulate(budget, seed=9, **kwargs):
    acc = HierarchicalMatrix(SHAPE, cutoff=256, budget=budget, **kwargs)
    feed(acc, np.random.default_rng(seed))
    return acc


def assert_bit_identical(a: HyperSparseMatrix, b: HyperSparseMatrix):
    assert np.array_equal(a.keys, b.keys)
    assert np.array_equal(a.vals.view(np.uint64), b.vals.view(np.uint64))


def test_budgeted_total_bit_identical_to_unbudgeted():
    ref = accumulate(None)
    tight = accumulate(64 << 10)
    try:
        assert tight.spilled_levels > 0, "budget never engaged; test is vacuous"
        assert_bit_identical(tight.total(), ref.total())
    finally:
        tight.close()


def test_collapse_to_disk_matches_total():
    acc = accumulate(64 << 10)
    try:
        total = acc.total()
        run = acc.collapse_to_disk()
        keys, vals, _ = load_run(run.path)
        assert np.array_equal(np.asarray(keys), total.keys)
        assert np.array_equal(
            np.asarray(vals).view(np.uint64), total.vals.view(np.uint64)
        )
    finally:
        acc.close()


def test_collapse_is_non_destructive():
    acc = accumulate(64 << 10)
    try:
        before = acc.total()
        acc.collapse_to_disk()
        assert_bit_identical(acc.total(), before)
    finally:
        acc.close()


def test_spill_accounting_moves_bytes_to_disk():
    acc = accumulate(64 << 10)
    try:
        assert acc.mem_nbytes <= 64 << 10
        assert acc.disk_nbytes > 0
        assert acc.spilled_levels > 0
    finally:
        acc.close()


def test_unbudgeted_never_spills():
    acc = accumulate(None)
    assert acc.spilled_levels == 0 and acc.disk_nbytes == 0


def test_infeasible_budget_still_correct():
    # A budget below a single level's size cannot be honoured in RAM, but
    # the ladder must keep absorbing and stay exact.
    ref = accumulate(None)
    acc = accumulate(1)
    try:
        assert_bit_identical(acc.total(), ref.total())
    finally:
        acc.close()


def test_owned_store_removed_on_close():
    acc = accumulate(64 << 10)
    store_root = acc._spill.root
    assert store_root.exists()
    acc.close()
    assert not store_root.exists()


def test_caller_store_left_in_place(tmp_path):
    with SpillStore(tmp_path / "ladder") as store:
        acc = accumulate(64 << 10, spill=store)
        acc.close()
        assert (tmp_path / "ladder").exists()


def test_clear_removes_spilled_level_files():
    acc = accumulate(64 << 10)
    try:
        store_root = acc._spill.root
        assert any(store_root.iterdir())
        acc.clear()
        assert acc.total().nnz == 0
        assert not any(store_root.iterdir())
    finally:
        acc.close()


def test_budget_from_knob(monkeypatch):
    monkeypatch.setenv("REPRO_MEM_BUDGET", "64K")
    acc = HierarchicalMatrix(SHAPE, cutoff=256)
    try:
        assert acc.budget == 64 << 10
        feed(acc, np.random.default_rng(9))
        assert acc.spilled_levels > 0
    finally:
        acc.close()


def test_invalid_budget_rejected():
    with pytest.raises(ValueError):
        HierarchicalMatrix(SHAPE, cutoff=256, budget=0)


def test_one_run_collapse_links_instead_of_copying():
    acc = HierarchicalMatrix(SHAPE, cutoff=1 << 20, budget=1)
    acc.insert([1, 2, 3], [4, 5, 6], [0.5, 1.5, 2.5])
    try:
        (level,) = [m for m in acc._levels if m is not None]
        ref = acc.total()
        run = acc.collapse_to_disk()
        assert run.path != level.path
        assert run.path.stat().st_ino == level.path.stat().st_ino
        run.path.unlink()
        keys, vals, _ = load_run(level.path)
        assert np.array_equal(np.asarray(keys), ref.keys)
        assert_bit_identical(acc.total(), ref)
    finally:
        acc.close()
