"""Construction, lookup and selection semantics of Assoc."""

import numpy as np
import pytest

from repro.d4m import Assoc


class TestConstruction:
    def test_empty(self):
        a = Assoc.empty()
        assert a.nnz == 0 and not a
        assert a.shape == (0, 0)

    def test_numeric_basic(self):
        a = Assoc(["r1", "r2"], ["c1", "c2"], [1.0, 2.0])
        assert a.nnz == 2
        assert a.get("r1", "c1") == 1.0
        assert a.get("r2", "c2") == 2.0
        assert not a.is_string_valued

    def test_scalar_broadcast(self):
        a = Assoc(["r1", "r2"], "packets", [3.0, 4.0])
        assert a.get("r1", "packets") == 3.0
        assert a.shape == (2, 1)

    def test_default_value_is_one(self):
        a = Assoc(["x"], ["y"])
        assert a.get("x", "y") == 1.0

    def test_numeric_duplicates_sum(self):
        a = Assoc(["r", "r"], ["c", "c"], [2.0, 3.0])
        assert a.get("r", "c") == 5.0

    def test_numeric_collision_modes(self):
        rows, cols, vals = ["r", "r"], ["c", "c"], [2.0, 7.0]
        assert Assoc(rows, cols, vals, collision="min").get("r", "c") == 2.0
        assert Assoc(rows, cols, vals, collision="max").get("r", "c") == 7.0
        assert Assoc(rows, cols, vals, collision="first").get("r", "c") == 2.0
        assert Assoc(rows, cols, vals, collision="last").get("r", "c") == 7.0

    def test_string_values(self):
        a = Assoc(["r1", "r2"], "intent", ["scanner", "worm"])
        assert a.is_string_valued
        assert a.get("r1", "intent") == "scanner"
        assert a.get("r2", "intent") == "worm"

    def test_string_duplicates_keep_lexicographic_max(self):
        a = Assoc(["r", "r"], ["c", "c"], ["aaa", "zzz"])
        assert a.get("r", "c") == "zzz"

    def test_string_collision_first_last(self):
        rows, cols, vals = ["r", "r"], ["c", "c"], ["zzz", "aaa"]
        assert Assoc(rows, cols, vals, collision="first").get("r", "c") == "zzz"
        assert Assoc(rows, cols, vals, collision="last").get("r", "c") == "aaa"

    def test_integer_keys_stringified(self):
        a = Assoc([1, 2], [10, 20], [1.0, 2.0])
        assert a.get("1", "10") == 1.0

    def test_invalid_collision_raises(self):
        with pytest.raises(ValueError):
            Assoc(["r"], ["c"], [1.0], collision="median")
        with pytest.raises(ValueError):
            Assoc(["r"], ["c"], ["v"], collision="sum")

    def test_mismatched_lengths_raise(self):
        with pytest.raises(ValueError):
            Assoc(["a", "b", "c"], ["x", "y"], [1, 2])

    def test_d4m_separator_string_keys(self):
        a = Assoc("a,b,c,", "col", [1.0, 2.0, 3.0])
        assert a.get("b", "col") == 2.0

    def test_from_sparsevec(self):
        from repro.hypersparse.coo import SparseVec
        from repro.ip import int_to_ip

        vec = SparseVec([16843009, 42], [7.0, 1.0])
        a = Assoc.from_sparsevec(vec, "packets", key_format=int_to_ip)
        assert a.get("1.1.1.1", "packets") == 7.0
        assert a.get("0.0.0.42", "packets") == 1.0


class TestProtocol:
    def test_triples_roundtrip(self):
        a = Assoc(["r1", "r2"], ["c1", "c2"], [1.0, 2.0])
        rows, cols, vals = a.triples()
        b = Assoc(rows, cols, vals)
        assert a == b

    def test_string_triples_roundtrip(self):
        a = Assoc(["r1", "r2"], "c", ["x", "y"])
        rows, cols, vals = a.triples()
        assert Assoc(rows, cols, vals) == a

    def test_get_default(self):
        a = Assoc(["r"], ["c"], [1.0])
        assert a.get("r", "missing") is None
        assert a.get("missing", "c", 0.0) == 0.0

    def test_copy_independent(self):
        a = Assoc(["r"], ["c"], ["v"])
        b = a.copy()
        assert b == a
        pairs = [(a.row, b.row), (a.col, b.col), (a.val, b.val), (a.adj.vals, b.adj.vals)]
        for ours, theirs in pairs:
            assert not np.shares_memory(ours, theirs)
            for arr in (ours, theirs):
                with pytest.raises(ValueError, match="read-only"):
                    arr[0] = arr[0]

    def test_unhashable(self):
        with pytest.raises(TypeError):
            hash(Assoc.empty())

    def test_row_col_sets(self):
        a = Assoc(["r1", "r2"], ["c1", "c1"], [1.0, 2.0])
        assert list(a.row_set()) == ["r1", "r2"]
        assert list(a.col_set()) == ["c1"]


class TestSelection:
    @pytest.fixture()
    def sample(self):
        return Assoc(
            ["1.1.1.1", "2.2.2.2", "3.3.3.3", "1.1.1.1"],
            ["packets", "packets", "packets", "fanout"],
            [10.0, 20.0, 30.0, 2.0],
        )

    def test_select_all(self, sample):
        assert sample[":", ":"] == sample

    def test_select_single_row(self, sample):
        sub = sample[["1.1.1.1"], ":"]
        assert sub.nnz == 2
        assert sub.get("1.1.1.1", "fanout") == 2.0

    def test_select_column(self, sample):
        sub = sample[":", ["fanout"]]
        assert sub.nnz == 1 and list(sub.col_set()) == ["fanout"]

    def test_select_missing_keys_dropped(self, sample):
        sub = sample[["1.1.1.1", "9.9.9.9"], ":"]
        assert list(sub.row_set()) == ["1.1.1.1"]

    def test_lexicographic_range(self, sample):
        sub = sample["1":"3", ":"]
        assert set(sub.row_set().tolist()) == {"1.1.1.1", "2.2.2.2"}

    def test_open_ended_range(self, sample):
        sub = sample["2":, ":"]
        assert set(sub.row_set().tolist()) == {"2.2.2.2", "3.3.3.3"}

    def test_stepped_slice_rejected(self, sample):
        with pytest.raises(ValueError):
            sample["1":"3":2, ":"]

    def test_selection_requires_pair(self, sample):
        with pytest.raises(TypeError):
            sample["1.1.1.1"]

    def test_select_rows_cols_helpers(self, sample):
        assert sample.select_rows(["2.2.2.2"]).nnz == 1
        assert sample.select_cols(["packets"]).nnz == 3

    def test_empty_selection(self, sample):
        sub = sample[["9.9.9.9"], ":"]
        assert sub.nnz == 0

    def test_condensed_keys_after_selection(self, sample):
        sub = sample[["2.2.2.2"], ":"]
        # Unreferenced keys are dropped from the key spaces entirely.
        assert sub.shape == (1, 1)


class TestComparisons:
    def test_numeric_threshold(self):
        a = Assoc(["r1", "r2", "r3"], "d", [5.0, 50.0, 500.0])
        assert (a > 10).nnz == 2
        assert (a >= 50).nnz == 2
        assert (a < 50).nnz == 1
        assert (a <= 5).nnz == 1
        assert (a == 50.0).nnz == 1
        assert (a != 50.0).nnz == 2

    def test_string_equality(self):
        a = Assoc(["r1", "r2"], "intent", ["scanner", "worm"])
        hit = a == "scanner"
        assert hit.nnz == 1 and hit.get("r1", "intent") == "scanner"
        assert (a == "absent").nnz == 0
        assert (a != "scanner").nnz == 1

    def test_string_ordering(self):
        a = Assoc(["r1", "r2"], "v", ["apple", "zebra"])
        assert (a > "m").nnz == 1

    def test_type_mismatch_raises(self):
        num = Assoc(["r"], ["c"], [1.0])
        strv = Assoc(["r"], ["c"], ["x"])
        with pytest.raises(TypeError):
            num == "x"
        with pytest.raises(TypeError):
            strv == 1.0
