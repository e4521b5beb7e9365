"""Sorted-merge kernel layer: bit-identical to the argsort path it replaced.

Every test here compares :mod:`repro.hypersparse.merge` (and the matrix
operations routed through it) against the stable-argsort + ``reduceat``
reference it displaced — with ``np.array_equal``, not ``allclose``: the
fast path's contract is *bit-identical* canonical output.  Inputs are
generated with :mod:`repro.rand` counter-mode hashing so every case is
seeded and order-independent.
"""

import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.contracts import debug_invariants
from repro.hypersparse import HierarchicalMatrix, HyperSparseMatrix
from repro.hypersparse.merge import in_sorted, intersect_sorted, kway_merge, merge_combine
from repro.rand import hash_u64, hash_uniform

SPACE = 10_000


def make_run(seed, n, lo=0, hi=SPACE, integral=True):
    """A canonical run: sorted unique uint64 keys with aligned float64 values."""
    raw = hash_u64(seed, np.arange(n, dtype=np.uint64))
    keys = np.unique(raw % np.uint64(hi - lo) + np.uint64(lo))
    if integral:
        vals = (hash_u64(seed + 1, keys) % np.uint64(8) + np.uint64(1)).astype(np.float64)
    else:
        vals = hash_uniform(seed + 1, keys)
    return keys, vals


def make_pair(pattern, seed, integral=True):
    """Two canonical runs arranged in the named overlap pattern."""
    empty = (np.zeros(0, dtype=np.uint64), np.zeros(0, dtype=np.float64))
    if pattern == "both_empty":
        return (*empty, *empty)
    if pattern == "left_empty":
        return (*empty, *make_run(seed, 50, integral=integral))
    if pattern == "right_empty":
        return (*make_run(seed, 50, integral=integral), *empty)
    if pattern == "disjoint":
        ka, va = make_run(seed, 50, lo=0, hi=SPACE // 2, integral=integral)
        kb, vb = make_run(seed + 7, 50, lo=SPACE // 2, hi=SPACE, integral=integral)
        return ka, va, kb, vb
    if pattern == "identical":
        ka, va = make_run(seed, 60, integral=integral)
        _, vb = make_run(seed + 7, 60, integral=integral)
        return ka, va, ka.copy(), vb[: ka.size]
    if pattern == "overlapping":
        ka, va = make_run(seed, 80, integral=integral)
        kb, vb = make_run(seed + 7, 80, integral=integral)
        return ka, va, kb, vb
    if pattern == "asymmetric":
        ka, va = make_run(seed, 2000, integral=integral)
        kb, vb = make_run(seed + 7, 5, integral=integral)
        return ka, va, kb, vb
    raise ValueError(pattern)


PATTERNS = (
    "both_empty",
    "left_empty",
    "right_empty",
    "disjoint",
    "identical",
    "overlapping",
    "asymmetric",
)


def reference_union(ka, va, kb, vb, op):
    """The displaced path: stable concat + argsort + reduceat."""
    keys = np.concatenate([ka, kb])
    vals = np.concatenate([va, vb])
    order = np.argsort(keys, kind="stable")
    keys, vals = keys[order], vals[order]
    first = np.ones(keys.size, dtype=bool)
    first[1:] = keys[1:] != keys[:-1]
    starts = np.flatnonzero(first)
    return keys[starts], op.reduceat(vals, starts)


class TestMergeCombine:
    @pytest.mark.parametrize("pattern", PATTERNS)
    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("op", [np.add, np.maximum, np.minimum], ids=["add", "max", "min"])
    def test_bit_identical_to_argsort_path(self, pattern, seed, op):
        ka, va, kb, vb = make_pair(pattern, seed)
        keys, vals = merge_combine(ka, va, kb, vb, op)
        rk, rv = reference_union(ka, va, kb, vb, op)
        assert np.array_equal(keys, rk)
        assert np.array_equal(vals, rv)

    @pytest.mark.parametrize("pattern", PATTERNS)
    def test_bit_identical_on_arbitrary_floats(self, pattern):
        # Matched keys combine as op(a_value, b_value) in operand order —
        # exactly what reduceat does over a stable-sorted [a, b] pair —
        # so even non-integral floats are bit-identical, not just close.
        ka, va, kb, vb = make_pair(pattern, 11, integral=False)
        keys, vals = merge_combine(ka, va, kb, vb, np.add)
        rk, rv = reference_union(ka, va, kb, vb, np.add)
        assert np.array_equal(keys, rk)
        assert np.array_equal(vals, rv)

    def test_operand_order_preserved(self):
        ka = np.array([3], dtype=np.uint64)
        va = np.array([10.0])
        kb = np.array([3], dtype=np.uint64)
        vb = np.array([4.0])
        _, vals = merge_combine(ka, va, kb, vb, np.subtract)
        assert vals[0] == 6.0
        # Swapped operands must swap the result: op order is a contract.
        _, vals = merge_combine(kb, vb, ka, va, np.subtract)
        assert vals[0] == -6.0

    @pytest.mark.parametrize("pattern", PATTERNS)
    @pytest.mark.parametrize("seed", [4, 5])
    def test_right_op_subtraction(self, pattern, seed):
        ka, va, kb, vb = make_pair(pattern, seed)
        keys, vals = merge_combine(ka, va, kb, vb, np.subtract, right_op=np.negative)
        ref = {}
        for k, v in zip(ka.tolist(), va.tolist()):
            ref[k] = v
        for k, v in zip(kb.tolist(), vb.tolist()):
            ref[k] = ref.get(k, 0.0) - v
        assert keys.tolist() == sorted(ref)
        assert vals.tolist() == [ref[k] for k in sorted(ref)]

    def test_empty_side_aliases_input(self):
        ka, va = make_run(1, 40)
        empty_k = np.zeros(0, dtype=np.uint64)
        empty_v = np.zeros(0, dtype=np.float64)
        keys, vals = merge_combine(ka, va, empty_k, empty_v, np.add)
        assert keys is ka and vals is va


class TestIntersectAndMembership:
    @pytest.mark.parametrize("pattern", PATTERNS)
    @pytest.mark.parametrize("seed", [1, 2])
    def test_intersect_matches_numpy(self, pattern, seed):
        ka, _, kb, _ = make_pair(pattern, seed)
        common, ia, ib = intersect_sorted(ka, kb)
        ref_common, ref_ia, ref_ib = np.intersect1d(
            ka, kb, assume_unique=True, return_indices=True
        )
        assert np.array_equal(common, ref_common)
        assert np.array_equal(ia, ref_ia)
        assert np.array_equal(ib, ref_ib)

    @pytest.mark.parametrize("pattern", PATTERNS)
    def test_in_sorted_matches_isin(self, pattern):
        ka, _, kb, _ = make_pair(pattern, 3)
        assert np.array_equal(in_sorted(ka, kb), np.isin(kb, ka, assume_unique=True))
        # Unsorted queries are allowed.
        assert np.array_equal(in_sorted(ka, kb[::-1]), np.isin(kb[::-1], ka))


class TestKwayMerge:
    def test_matches_pairwise_reference(self):
        runs = [make_run(seed, n) for seed, n in ((1, 10), (2, 500), (3, 40), (4, 3))]
        keys, vals = kway_merge(runs)
        rk = np.zeros(0, dtype=np.uint64)
        rv = np.zeros(0, dtype=np.float64)
        for ka, va in runs:
            rk, rv = reference_union(rk, rv, ka, va, np.add)
        # Integral values: any fold order sums exactly.
        assert np.array_equal(keys, rk)
        assert np.array_equal(vals, rv)

    def test_empty_input(self):
        keys, vals = kway_merge([])
        assert keys.size == 0 and vals.size == 0

    def test_single_run_passes_through(self):
        ka, va = make_run(9, 30)
        keys, vals = kway_merge([(ka, va)])
        assert np.array_equal(keys, ka) and np.array_equal(vals, va)

    def test_drops_empty_runs(self):
        ka, va = make_run(9, 30)
        empty = (np.zeros(0, dtype=np.uint64), np.zeros(0, dtype=np.float64))
        keys, vals = kway_merge([empty, (ka, va), empty])
        assert np.array_equal(keys, ka) and np.array_equal(vals, va)


def random_matrix(seed, shape, n=80):
    rows = hash_u64(seed, np.arange(n, dtype=np.uint64)) % np.uint64(shape[0])
    cols = hash_u64(seed + 1, np.arange(n, dtype=np.uint64)) % np.uint64(shape[1])
    vals = (hash_u64(seed + 2, np.arange(n, dtype=np.uint64)) % np.uint64(8) + np.uint64(1))
    return HyperSparseMatrix(rows, cols, vals.astype(np.float64), shape=shape)


@pytest.mark.parametrize("shape", [(64, 64), (50, 37)], ids=["pow2", "odd"])
@pytest.mark.parametrize("invariants", [False, True], ids=["fast", "checked"])
class TestMatrixOpsThroughMergeKernels:
    """End-to-end equivalence of the rerouted matrix operations.

    Parametrized over a power-of-two shape (shift/mask linearization, the
    IPv4-plane case) and an odd shape (multiply/divide path), with and
    without REPRO_DEBUG_INVARIANTS-equivalent validation.
    """

    def test_ewise_add_bit_identical_to_construction(self, shape, invariants):
        with debug_invariants(invariants):
            a = random_matrix(21, shape)
            b = random_matrix(22, shape)
            merged = a.ewise_add(b)
            rebuilt = HyperSparseMatrix(
                np.concatenate([a.rows, b.rows]),
                np.concatenate([a.cols, b.cols]),
                np.concatenate([a.vals, b.vals]),
                shape=shape,
            )
            assert merged == rebuilt
            np.testing.assert_array_equal(
                merged.to_dense(), a.to_dense() + b.to_dense()
            )

    def test_ewise_mult_matches_dense(self, shape, invariants):
        with debug_invariants(invariants):
            a = random_matrix(23, shape)
            b = random_matrix(24, shape)
            np.testing.assert_array_equal(
                a.ewise_mult(b).to_dense(), a.to_dense() * b.to_dense()
            )

    def test_sub_matches_dense_without_negated_copy(self, shape, invariants):
        with debug_invariants(invariants):
            a = random_matrix(25, shape)
            b = random_matrix(26, shape)
            np.testing.assert_array_equal(
                (a - b).to_dense(), a.to_dense() - b.to_dense()
            )

    def test_mxm_matches_dense(self, shape, invariants):
        with debug_invariants(invariants):
            a = random_matrix(27, (shape[0], shape[0]))
            b = random_matrix(28, (shape[0], shape[1]))
            np.testing.assert_array_equal(
                a.mxm(b).to_dense(), a.to_dense() @ b.to_dense()
            )

    def test_getitem_every_stored_entry(self, shape, invariants):
        with debug_invariants(invariants):
            m = random_matrix(29, shape)
            stored = set(zip(m.rows.tolist(), m.cols.tolist()))
            for i, j, v in zip(m.rows.tolist(), m.cols.tolist(), m.vals.tolist()):
                assert m[i, j] == v
            absent = next(
                (i, j)
                for i in range(shape[0])
                for j in range(shape[1])
                if (i, j) not in stored
            )
            assert m[absent] == 0.0

    def test_hierarchical_total_bit_identical_to_flat(self, shape, invariants):
        with debug_invariants(invariants):
            hier = HierarchicalMatrix(shape=shape, cutoff=32)
            all_rows, all_cols, all_vals = [], [], []
            for seed in range(31, 39):
                m = random_matrix(seed, shape, n=60)
                hier.insert_matrix(m)
                all_rows.append(m.rows)
                all_cols.append(m.cols)
                all_vals.append(m.vals)
            flat = HyperSparseMatrix(
                np.concatenate(all_rows),
                np.concatenate(all_cols),
                np.concatenate(all_vals),
                shape=shape,
            )
            # Integral values: the smallest-first fold sums exactly, so the
            # collapse is bit-identical to one flat canonicalization.
            assert hier.total() == flat


class TestLazyKeyCache:
    def test_keys_cached_per_instance(self):
        m = random_matrix(41, (64, 64))
        assert m.keys is m.keys

    def test_merge_result_delays_delinearization(self):
        # Invariant validation itself reads .rows, which (correctly)
        # materializes the lazy view — laziness is only observable with
        # validation off, so pin that mode regardless of the env flag.
        with debug_invariants(False):
            a = random_matrix(42, (64, 64))
            b = random_matrix(43, (64, 64))
            c = a.ewise_add(b)
        assert c._rows is None and c._cols is None and c._keys is not None
        rows = c.rows  # forces (and caches) the coordinate views
        assert c._rows is rows
        expected = np.concatenate([a.rows, b.rows])
        assert set(rows.tolist()) <= set(expected.tolist())

    def test_lazy_views_round_trip(self):
        a = random_matrix(44, (50, 37))
        b = random_matrix(45, (50, 37))
        c = a.ewise_add(b)
        again = HyperSparseMatrix(c.rows, c.cols, c.vals, shape=c.shape)
        assert c == again

    def test_copy_preserves_cached_views(self):
        m = random_matrix(46, (64, 64))
        _ = m.keys
        dup = m.copy()
        assert dup == m
        assert dup.keys is not m.keys
        assert np.array_equal(dup.keys, m.keys)


# -- property: merge_combine against an independent unique-and-fold ----------

_U64 = st.integers(min_value=0, max_value=2**64 - 1)
# Bounded so no sum or difference overflows (the overflow sanitizer
# watches this suite in CI).
_FINITE = st.floats(min_value=-1e300, max_value=1e300, width=64)


def _unique_fold_reference(ka, va, kb, vb, op, right_op):
    """``np.unique`` with inverse, then fold a's values, then b's, by ``op``."""
    keys, inverse = np.unique(np.concatenate([ka, kb]), return_inverse=True)
    ia, ib = inverse[: ka.size], inverse[ka.size :]
    vals = np.zeros(keys.size, dtype=np.float64)
    seen = np.zeros(keys.size, dtype=bool)
    vals[ia] = va
    seen[ia] = True
    matched = seen[ib]
    op.at(vals, ib[matched], vb[matched])
    exclusive = np.asarray(vb[~matched], dtype=np.float64)
    vals[ib[~matched]] = exclusive if right_op is None else right_op(exclusive)
    return keys, vals


@st.composite
def run_pairs(draw):
    """Two canonical uint64 runs in one of the named overlap shapes."""
    shape = draw(st.sampled_from(["empty", "one", "disjoint", "identical", "interleaved"]))
    pool = np.array(
        sorted(draw(st.sets(_U64, min_size=0 if shape == "empty" else 1, max_size=60))),
        dtype=np.uint64,
    )
    if shape == "empty":
        # At most one run holds keys.
        filled = draw(st.sampled_from(["a", "b", None]))
        in_a = np.full(pool.size, filled == "a")
        in_b = np.full(pool.size, filled == "b")
    elif shape == "one":
        pool = pool[:1]
        in_a = np.ones(1, dtype=bool)
        in_b = np.array([draw(st.booleans())])
        if draw(st.booleans()):
            in_a, in_b = in_b, in_a
    elif shape == "disjoint":
        in_a = np.array(draw(st.lists(st.booleans(), min_size=pool.size, max_size=pool.size)), dtype=bool)
        in_b = ~in_a
    elif shape == "identical":
        in_a = in_b = np.ones(pool.size, dtype=bool)
    else:
        # Each key lands in a only, b only, or both.
        where = np.array(
            draw(st.lists(st.sampled_from([1, 2, 3]), min_size=pool.size, max_size=pool.size)),
            dtype=np.int64,
        )
        in_a, in_b = (where & 1) > 0, (where & 2) > 0
    ka, kb = pool[in_a], pool[in_b]
    va = np.array(draw(st.lists(_FINITE, min_size=ka.size, max_size=ka.size)), dtype=np.float64)
    vb = np.array(draw(st.lists(_FINITE, min_size=kb.size, max_size=kb.size)), dtype=np.float64)
    return ka, va, kb, vb


def _mapped(arr, root, name):
    """A read-only memmap holding ``arr`` (empty arrays cannot be mapped)."""
    if arr.size == 0:
        return arr
    path = os.path.join(root, name)
    arr.tofile(path)
    return np.memmap(path, dtype=arr.dtype, mode="r", shape=arr.shape)


class TestMergeCombineProperty:
    @settings(max_examples=150, deadline=None)
    @given(
        pair=run_pairs(),
        op=st.sampled_from([np.add, np.subtract, np.maximum]),
        right_op=st.sampled_from([None, np.negative]),
        memmap=st.booleans(),
    )
    def test_matches_unique_fold_reference(self, pair, op, right_op, memmap):
        ka, va, kb, vb = pair
        rk, rv = _unique_fold_reference(ka, va, kb, vb, op, right_op)
        with tempfile.TemporaryDirectory() as root:
            if memmap:
                ka, va, kb, vb = (
                    _mapped(arr, root, name)
                    for arr, name in zip((ka, va, kb, vb), ("ka", "va", "kb", "vb"))
                )
            keys, vals = merge_combine(ka, va, kb, vb, op, right_op=right_op)
            assert keys.dtype == np.uint64
            assert np.array_equal(np.asarray(keys), rk)
            assert np.array_equal(
                np.asarray(vals, dtype=np.float64).view(np.uint64), rv.view(np.uint64)
            )
