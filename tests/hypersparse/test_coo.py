"""Unit tests for the canonical COO hypersparse matrix."""

import numpy as np
import pytest

from repro.hypersparse import HyperSparseMatrix
from repro.hypersparse.coo import IPV4_SPACE, SparseVec, checked_shape


class TestConstruction:
    def test_empty(self):
        m = HyperSparseMatrix()
        assert m.nnz == 0
        assert m.shape == (IPV4_SPACE, IPV4_SPACE)
        assert m.total() == 0.0
        assert m.max_value() == 0.0

    def test_duplicates_accumulate(self):
        m = HyperSparseMatrix([1, 1, 2], [3, 3, 4], [1.0, 2.0, 5.0])
        assert m.nnz == 2
        assert m[1, 3] == 3.0
        assert m[2, 4] == 5.0

    def test_default_values_are_ones(self):
        m = HyperSparseMatrix([7, 7, 9], [1, 1, 1])
        assert m[7, 1] == 2.0
        assert m[9, 1] == 1.0

    def test_canonical_order(self):
        m = HyperSparseMatrix([5, 1, 3], [0, 9, 2], [1, 2, 3])
        assert list(m.rows) == [1, 3, 5]
        # Lexicographic within equal rows.
        m2 = HyperSparseMatrix([1, 1, 1], [9, 2, 5], [1, 2, 3])
        assert list(m2.cols) == [2, 5, 9]

    def test_from_triples(self):
        m = HyperSparseMatrix.from_triples([(0, 1, 2.0), (0, 1, 3.0), (4, 4, 1.0)])
        assert m[0, 1] == 5.0
        assert m.nnz == 2

    def test_from_triples_empty(self):
        assert HyperSparseMatrix.from_triples([]).nnz == 0

    def test_accumulate_max(self):
        m = HyperSparseMatrix([0, 0], [0, 0], [3.0, 7.0], accumulate=np.maximum)
        assert m[0, 0] == 7.0

    def test_full_ipv4_corner(self):
        hi = IPV4_SPACE - 1
        m = HyperSparseMatrix([hi], [hi], [1.0])
        assert m[hi, hi] == 1.0

    def test_rejects_out_of_shape(self):
        with pytest.raises(ValueError):
            HyperSparseMatrix([5], [0], [1.0], shape=(4, 4))
        with pytest.raises(ValueError):
            HyperSparseMatrix([0], [5], [1.0], shape=(4, 4))

    def test_rejects_negative_coordinates(self):
        with pytest.raises(ValueError):
            HyperSparseMatrix([-1], [0], [1.0], shape=(4, 4))

    def test_rejects_fractional_coordinates(self):
        with pytest.raises(ValueError):
            HyperSparseMatrix([0.5], [0], [1.0], shape=(4, 4))

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError):
            HyperSparseMatrix([0, 1], [0], [1.0, 2.0], shape=(4, 4))

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            HyperSparseMatrix(shape=(0, 4))

    def test_integral_float_coordinates_accepted(self):
        m = HyperSparseMatrix(np.asarray([1.0, 2.0]), [0, 0], [1, 1], shape=(4, 4))
        assert m.nnz == 2


class TestIndexSpace:
    """Every shape-making path keeps ``nrows * ncols`` within 2^64 keys."""

    def test_full_ipv4_plane_is_exactly_the_key_space(self):
        assert checked_shape((IPV4_SPACE, IPV4_SPACE)) == (IPV4_SPACE, IPV4_SPACE)
        assert checked_shape((1, 2**64)) == (1, 2**64)

    @pytest.mark.parametrize(
        "shape", [(0, 4), (4, 0), (-1, 4), (IPV4_SPACE, IPV4_SPACE + 1), (2**64, 2)]
    )
    def test_bad_shapes_rejected(self, shape):
        with pytest.raises(ValueError):
            checked_shape(shape)

    def test_mxm_output_past_the_key_space_raises(self):
        # (2^40 x 2^20) . (2^20 x 2^40) is a 2^80-entry index space: the
        # packed key of row 2^40-1 would wrap instead of naming it.
        a = HyperSparseMatrix([2**40 - 1], [5], shape=(2**40, 2**20))
        b = HyperSparseMatrix([5], [2**40 - 1], shape=(2**20, 2**40))
        with pytest.raises(ValueError, match="2\\^64"):
            a.mxm(b)

    def test_diag_and_hierarchical_shapes_checked(self):
        from repro.hypersparse import HierarchicalMatrix
        from repro.hypersparse.ops import diag

        with pytest.raises(ValueError):
            diag(SparseVec([], []), 0)
        with pytest.raises(ValueError):
            HierarchicalMatrix(shape=(2**40, 2**40))


class TestProtocol:
    def test_getitem_missing_is_zero(self):
        m = HyperSparseMatrix([1], [1], [5.0], shape=(4, 4))
        assert m[0, 0] == 0.0
        assert m[3, 3] == 0.0

    def test_equality(self):
        a = HyperSparseMatrix([1, 2], [1, 2], [1, 2], shape=(4, 4))
        b = HyperSparseMatrix([2, 1], [2, 1], [2, 1], shape=(4, 4))
        c = HyperSparseMatrix([1, 2], [1, 2], [1, 3], shape=(4, 4))
        assert a == b
        assert a != c
        assert a != HyperSparseMatrix([1, 2], [1, 2], [1, 2], shape=(8, 8))

    def test_unhashable(self):
        with pytest.raises(TypeError):
            hash(HyperSparseMatrix(shape=(4, 4)))

    def test_copy_is_independent(self):
        a = HyperSparseMatrix([1], [1], [5.0], shape=(4, 4))
        a.rows  # materialize the lazy views so copy() carries them too
        b = a.copy()
        assert b == a
        for name in ("_rows", "_cols", "_keys", "vals"):
            assert not np.shares_memory(getattr(a, name), getattr(b, name))
            for side in (a, b):
                with pytest.raises(ValueError, match="read-only"):
                    getattr(side, name)[0] = 0

    def test_find_returns_canonical_triples(self):
        m = HyperSparseMatrix([3, 1], [0, 2], [7, 8], shape=(4, 4))
        r, c, v = m.find()
        assert list(r) == [1, 3]
        assert list(c) == [2, 0]
        assert list(v) == [8.0, 7.0]

    def test_to_dense_guard(self):
        m = HyperSparseMatrix([1], [1], [1.0])
        with pytest.raises(ValueError):
            m.to_dense()

    def test_to_dense_small(self):
        m = HyperSparseMatrix([0, 1], [1, 0], [2, 3], shape=(2, 2))
        np.testing.assert_array_equal(m.to_dense(), [[0, 2], [3, 0]])


class TestStructuralOps:
    def test_transpose_involution(self, rng):
        m = HyperSparseMatrix(
            rng.integers(0, 50, 100), rng.integers(0, 30, 100), shape=(50, 30)
        )
        assert m.T.T == m
        assert m.T.shape == (30, 50)

    def test_transpose_values(self):
        m = HyperSparseMatrix([1], [2], [7.0], shape=(4, 4))
        assert m.T[2, 1] == 7.0

    def test_zero_norm(self):
        m = HyperSparseMatrix([1, 2], [1, 2], [5.0, -3.0], shape=(4, 4))
        z = m.zero_norm()
        assert z.nnz == 2
        assert set(z.vals.tolist()) == {1.0}

    def test_prune(self):
        m = HyperSparseMatrix([0, 1], [0, 1], [0.0, 2.0], shape=(4, 4))
        p = m.prune()
        assert p.nnz == 1
        assert p[1, 1] == 2.0

    def test_apply(self):
        m = HyperSparseMatrix([0], [0], [4.0], shape=(4, 4))
        assert m.apply(np.sqrt)[0, 0] == 2.0

    def test_apply_rejects_shape_change(self):
        m = HyperSparseMatrix([0, 1], [0, 1], [1, 2], shape=(4, 4))
        with pytest.raises(ValueError):
            m.apply(lambda v: v[:1])

    def test_permute_roundtrip(self):
        m = HyperSparseMatrix([1, 2], [3, 0], [5, 6], shape=(4, 4))
        perm = np.asarray([2, 3, 0, 1], dtype=np.uint64)
        inv = np.argsort(perm).astype(np.uint64)
        p = m.permute(lambda x: perm[x.astype(np.int64)])
        back = p.permute(lambda x: inv[x.astype(np.int64)])
        assert back == m


class TestSelection:
    def test_extract_rows(self):
        m = HyperSparseMatrix([1, 2, 3], [0, 0, 0], [1, 2, 3], shape=(4, 4))
        sub = m.extract(rows=[1, 3])
        assert sub.nnz == 2
        assert sub[1, 0] == 1.0 and sub[3, 0] == 3.0

    def test_extract_rows_and_cols(self):
        m = HyperSparseMatrix([1, 1, 2], [1, 2, 1], [1, 2, 3], shape=(4, 4))
        sub = m.extract(rows=[1], cols=[2])
        assert sub.nnz == 1 and sub[1, 2] == 2.0

    def test_extract_none_selects_all(self):
        m = HyperSparseMatrix([1], [1], [1.0], shape=(4, 4))
        assert m.extract() == m

    def test_extract_range(self):
        m = HyperSparseMatrix([0, 5, 9], [1, 1, 1], [1, 2, 3], shape=(10, 10))
        sub = m.extract_range(row_range=(4, 9))
        assert sub.nnz == 1 and sub[5, 1] == 2.0


class TestReductions:
    def test_row_reduce_matches_dense(self, rng):
        m = HyperSparseMatrix(
            rng.integers(0, 20, 200), rng.integers(0, 20, 200),
            rng.random(200), shape=(20, 20),
        )
        dense = m.to_dense()
        vec = m.row_reduce()
        for k, v in vec:
            assert np.isclose(v, dense[int(k)].sum())
        # Missing rows are absent, not zero.
        present = set(vec.keys.tolist())
        for i in range(20):
            if i not in present:
                assert dense[i].sum() == 0.0

    def test_col_reduce_max(self):
        m = HyperSparseMatrix([0, 1], [5, 5], [3.0, 9.0], shape=(10, 10))
        vec = m.col_reduce(np.maximum)
        assert vec.get(5) == 9.0

    def test_degrees(self):
        m = HyperSparseMatrix([1, 1, 2], [3, 4, 3], [9, 9, 9], shape=(5, 5))
        assert m.row_degree().to_dict() == {1: 2.0, 2: 1.0}
        assert m.col_degree().to_dict() == {3: 2.0, 4: 1.0}

    def test_unique_rows_cols(self):
        m = HyperSparseMatrix([5, 5, 1], [2, 3, 2], shape=(10, 10))
        assert list(m.unique_rows()) == [1, 5]
        assert list(m.unique_cols()) == [2, 3]

    def test_total_is_nv(self, rng):
        n = 500
        m = HyperSparseMatrix(
            rng.integers(0, 100, n), rng.integers(0, 100, n), shape=(100, 100)
        )
        assert m.total() == n


class TestSparseVec:
    def test_duplicate_keys_accumulate(self):
        v = SparseVec([1, 1, 2], [1.0, 2.0, 3.0])
        assert v.to_dict() == {1: 3.0, 2: 3.0}

    def test_get_default(self):
        v = SparseVec([5], [1.0])
        assert v.get(4) == 0.0
        assert v.get(4, -1.0) == -1.0

    def test_ewise_add_union(self):
        a = SparseVec([1, 2], [1.0, 2.0])
        b = SparseVec([2, 3], [10.0, 30.0])
        assert (a + b).to_dict() == {1: 1.0, 2: 12.0, 3: 30.0}

    def test_ewise_mult_intersection(self):
        a = SparseVec([1, 2], [2.0, 3.0])
        b = SparseVec([2, 3], [5.0, 7.0])
        assert (a * b).to_dict() == {2: 15.0}

    def test_scalar_mult(self):
        v = SparseVec([1], [3.0])
        assert (2 * v).to_dict() == {1: 6.0}

    def test_select_range_half_open(self):
        v = SparseVec([1, 2, 3], [1.0, 2.0, 4.0])
        assert v.select_range(2.0, 4.0).to_dict() == {2: 2.0}

    def test_select_keys(self):
        v = SparseVec([1, 2, 3], [1.0, 2.0, 3.0])
        assert v.select_keys([2, 3, 99]).to_dict() == {2: 2.0, 3: 3.0}

    def test_zero_norm_and_prune(self):
        v = SparseVec([1, 2], [0.0, 5.0])
        assert v.prune().to_dict() == {2: 5.0}
        assert v.zero_norm().to_dict() == {1: 1.0, 2: 1.0}

    def test_stats(self):
        v = SparseVec([1, 2, 3], [5.0, 1.0, 3.0])
        assert v.total() == 9.0
        assert v.max() == 5.0
        assert v.min() == 1.0
        assert len(v) == 3

    def test_empty_stats(self):
        v = SparseVec([], [])
        assert v.total() == 0.0 and v.max() == 0.0 and v.min() == 0.0

    def test_rejects_mismatched_shapes(self):
        with pytest.raises(ValueError):
            SparseVec([1, 2], [1.0])

    def test_unhashable(self):
        with pytest.raises(TypeError):
            hash(SparseVec([1], [1.0]))


class TestStableSortBoundary:
    """The packed-sort guard at the exact 2^63/2^64 boundary.

    ``_stable_sorted_with_order`` packs ``(value << index_bits) | index``
    into uint64 only when the top packed key provably fits; these tests
    pin that bit-length guard at the edge where one more bit would wrap,
    and the overflow sanitizer (RS001) re-checks it at runtime.
    """

    @staticmethod
    def _reference(coord):
        order = np.argsort(coord, kind="stable")
        return coord[order], order

    @staticmethod
    def _spy_argsort(monkeypatch):
        from repro.hypersparse import coo

        calls = []
        real = np.argsort

        def spy(*args, **kwargs):
            calls.append(kwargs.get("kind"))
            return real(*args, **kwargs)

        monkeypatch.setattr(coo.np, "argsort", spy)
        return calls

    def test_largest_bound_that_still_packs(self, monkeypatch):
        from repro.hypersparse.coo import _stable_sorted_with_order

        # n=4 uses 2 index bits; bound=2^62 puts the top packed key at
        # exactly (2^62-1)<<2 | 3 == 2^64 - 1: the last value that fits.
        coord = np.array([2**62 - 1, 0, 2**62 - 1, 5], dtype=np.uint64)
        ref_sorted, ref_order = self._reference(coord)
        calls = self._spy_argsort(monkeypatch)
        got, order = _stable_sorted_with_order(coord.copy(), 2**62)
        assert np.array_equal(got, ref_sorted)
        assert np.array_equal(order, ref_order)
        assert calls == []  # packed path: no argsort fallback

    def test_one_past_the_boundary_falls_back(self, monkeypatch):
        from repro.hypersparse.coo import _stable_sorted_with_order

        # bound=2^62+1 would need the packed key to reach 2^64+3: wrap.
        coord = np.array([2**62, 0, 2**62, 5], dtype=np.uint64)
        ref_sorted, ref_order = self._reference(coord)
        calls = self._spy_argsort(monkeypatch)
        got, order = _stable_sorted_with_order(coord.copy(), 2**62 + 1)
        assert np.array_equal(got, ref_sorted)
        assert np.array_equal(order, ref_order)
        assert calls == ["stable"]  # guard chose the argsort fallback

    @pytest.mark.parametrize("bound", [2**63, 2**64])
    def test_exact_power_boundaries_sort_correctly(self, bound):
        from repro.hypersparse.coo import _stable_sorted_with_order

        top = bound - 1
        coord = np.array([top, 2**63 - 1, top, 0, 1], dtype=np.uint64)
        got, order = _stable_sorted_with_order(coord.copy(), bound)
        ref_sorted, ref_order = self._reference(coord)
        assert np.array_equal(got, ref_sorted)
        assert np.array_equal(order, ref_order)  # index ties stay stable

    def test_boundary_results_identical_across_paths(self):
        # The same coordinates sorted under a tight bound (packed) and a
        # sloppy bound (fallback) must agree bit for bit.
        from repro.hypersparse.coo import _stable_sorted_with_order

        rng = np.random.default_rng(20220101)
        coord = rng.integers(0, 2**40, size=257, dtype=np.uint64)
        packed = _stable_sorted_with_order(coord.copy(), 2**40)
        fallback = _stable_sorted_with_order(coord.copy(), 2**64)
        assert np.array_equal(packed[0], fallback[0])
        assert np.array_equal(packed[1], fallback[1])

    def test_no_wraparound_under_overflow_sanitizer(self):
        # The runtime cross-check of the same guard: sorting at the
        # boundary under REPRO_SAN=overflow must record no traps.
        from repro.analysis.sanitize.runtime import sanitizers, take_traps
        from repro.hypersparse.coo import _stable_sorted_with_order

        take_traps()
        coord = np.array([2**62 - 1, 3, 2**62 - 1, 0], dtype=np.uint64)
        with sanitizers(["overflow"]):
            _stable_sorted_with_order(coord.copy(), 2**62)
            _stable_sorted_with_order(coord.copy(), 2**64)
        assert take_traps() == []
