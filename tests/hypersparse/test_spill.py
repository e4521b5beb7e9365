"""Columnar spill layer: exact round-trips and bit-identical disk folds.

Every equivalence here is pinned with ``np.array_equal`` on the raw bit
patterns (float columns compared through ``.view(np.uint64)``): the
out-of-core contract is *bit-identical* to the in-memory kernels, not
merely close.
"""

import struct

import numpy as np
import pytest

from repro.hypersparse.merge import kway_merge, merge_combine
from repro.hypersparse.spill import (
    RUN_HEADER_SIZE,
    RUN_MAGIC,
    ColumnarWriter,
    SpillStore,
    fold_runs_to_disk,
    load_run,
    merge_runs_streamed,
    parse_mem_budget,
    read_run_header,
    unique_rows_of_run,
    write_run,
)
from repro.rand import hash_u64, hash_uniform

SHAPE = (1 << 16, 1 << 16)


def make_run(seed, n, space=1 << 20):
    """A canonical run: sorted unique uint64 keys with random float64 values."""
    raw = hash_u64(seed, np.arange(n, dtype=np.uint64))
    keys = np.unique(raw % np.uint64(space))
    vals = hash_uniform(seed + 1, keys) * 100.0
    return keys, vals


def assert_run_equal(got_keys, got_vals, keys, vals):
    assert np.array_equal(np.asarray(got_keys), keys)
    assert np.array_equal(
        np.asarray(got_vals, dtype=np.float64).view(np.uint64), vals.view(np.uint64)
    )


class TestRoundTrip:
    def test_mapped_and_eager_bit_identical(self, tmp_path):
        keys, vals = make_run(3, 5000)
        run = write_run(tmp_path / "a.col", keys, vals, SHAPE)
        assert run.nnz == keys.size and run.shape == SHAPE
        for mapped in (True, False):
            k, v, shape = load_run(run.path, mapped=mapped)
            assert shape == SHAPE
            assert_run_equal(k, v, keys, vals)

    def test_chunked_append_equals_single_write(self, tmp_path):
        keys, vals = make_run(5, 4000)
        write_run(tmp_path / "one.col", keys, vals, SHAPE)
        write_run(tmp_path / "many.col", keys, vals, SHAPE, chunk=257)
        assert (tmp_path / "one.col").read_bytes() == (tmp_path / "many.col").read_bytes()

    def test_empty_run(self, tmp_path):
        run = write_run(
            tmp_path / "e.col",
            np.zeros(0, dtype=np.uint64),
            np.zeros(0, dtype=np.float64),
            SHAPE,
        )
        assert run.nnz == 0
        k, v, _ = load_run(run.path)
        assert k.size == 0 and v.size == 0

    def test_mapped_views_are_read_only(self, tmp_path):
        keys, vals = make_run(7, 100)
        run = write_run(tmp_path / "ro.col", keys, vals, SHAPE)
        k, v, _ = load_run(run.path, mapped=True)
        with pytest.raises((ValueError, TypeError)):
            k[0] = 0


class TestHeaderValidation:
    def test_header_reports_nnz_and_shape(self, tmp_path):
        keys, vals = make_run(11, 321)
        write_run(tmp_path / "h.col", keys, vals, SHAPE)
        nnz, shape = read_run_header(tmp_path / "h.col")
        assert nnz == keys.size and shape == SHAPE

    def test_missing_file_is_file_not_found(self, tmp_path):
        # Callers (the archive) distinguish "gone" from "corrupt".
        with pytest.raises(FileNotFoundError):
            read_run_header(tmp_path / "gone.col")

    def test_bad_magic_rejected(self, tmp_path):
        p = tmp_path / "bad.col"
        p.write_bytes(b"NOTARUN!" + b"\0" * 24)
        with pytest.raises(ValueError, match="bad magic"):
            read_run_header(p)

    def test_truncated_file_rejected(self, tmp_path):
        keys, vals = make_run(13, 200)
        run = write_run(tmp_path / "t.col", keys, vals, SHAPE)
        whole = run.path.read_bytes()
        run.path.write_bytes(whole[:-8])
        with pytest.raises(ValueError, match="truncated"):
            read_run_header(run.path)

    def test_headerless_file_rejected(self, tmp_path):
        p = tmp_path / "stub.col"
        p.write_bytes(RUN_MAGIC)
        with pytest.raises(ValueError, match="truncated"):
            read_run_header(p)

    @pytest.mark.parametrize(
        "nrows, ncols", [(1 << 16, 0), (0, 1 << 16), (2**33, 2**32)]
    )
    def test_bad_header_shape_rejected(self, tmp_path, nrows, ncols):
        # A zero extent or an index space past 2^64 cannot be a run this
        # code wrote: loading it must fail naming the file, never hand a
        # matrix whose keys do not unpack to its shape.
        keys, vals = make_run(17, 64)
        run = write_run(tmp_path / "s.col", keys, vals, SHAPE)
        raw = bytearray(run.path.read_bytes())
        raw[16:RUN_HEADER_SIZE] = struct.pack("<QQ", nrows, ncols)
        run.path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="s.col"):
            read_run_header(run.path)
        with pytest.raises(ValueError, match="s.col"):
            load_run(run.path)

    def test_writer_rejects_bad_shape(self, tmp_path):
        with pytest.raises(ValueError):
            ColumnarWriter(tmp_path / "w.col", (2**40, 2**40))
        assert list(tmp_path.iterdir()) == []


class TestWriterLifecycle:
    def test_crash_leaves_no_valid_file(self, tmp_path):
        # Simulate a crash mid-write: the target name must not exist, only
        # .tmp droppings — a file named <path> is always complete.
        target = tmp_path / "crash.col"
        w = ColumnarWriter(target, SHAPE)
        keys, vals = make_run(17, 50)
        w.append(keys, vals)
        del w  # no close: the "crash"
        assert not target.exists()
        assert (tmp_path / "crash.col.tmp").exists()

    def test_abort_removes_temporaries(self, tmp_path):
        target = tmp_path / "ab.col"
        w = ColumnarWriter(target, SHAPE)
        keys, vals = make_run(19, 50)
        w.append(keys, vals)
        w.abort()
        assert list(tmp_path.iterdir()) == []

    def test_context_manager_aborts_on_error(self, tmp_path):
        target = tmp_path / "cm.col"
        with pytest.raises(RuntimeError):
            with ColumnarWriter(target, SHAPE) as w:
                keys, vals = make_run(23, 50)
                w.append(keys, vals)
                raise RuntimeError("boom")
        assert list(tmp_path.iterdir()) == []

    def test_append_after_close_rejected(self, tmp_path):
        with ColumnarWriter(tmp_path / "seal.col", SHAPE) as w:
            run = w.close()
        assert run.nnz == 0
        with pytest.raises(ValueError, match="closed"):
            w.append(np.zeros(1, dtype=np.uint64), np.zeros(1, dtype=np.float64))

    def test_mismatched_columns_rejected(self, tmp_path):
        with ColumnarWriter(tmp_path / "mm.col", SHAPE) as w:
            with pytest.raises(ValueError, match="identical size"):
                w.append(
                    np.zeros(3, dtype=np.uint64), np.zeros(2, dtype=np.float64)
                )
            w.abort()


@pytest.mark.parametrize("chunk", [64, 257, 1 << 20])
def test_streamed_merge_bit_identical(tmp_path, chunk):
    # Segment boundaries partition both inputs by key value: the
    # concatenated output must equal one whole-run merge_combine bit for bit.
    ka, va = make_run(29, 3000)
    kb, vb = make_run(31, 5000)
    ref_k, ref_v = merge_combine(ka, va, kb, vb)
    with ColumnarWriter(tmp_path / "m.col", SHAPE) as w:
        merge_runs_streamed((ka, va), (kb, vb), w, chunk=chunk)
        run = w.close()
    got_k, got_v, _ = load_run(run.path)
    assert_run_equal(got_k, got_v, ref_k, ref_v)


class TestFold:
    def runs(self, n=6):
        return [make_run(37 + 2 * i, 500 * (i + 1)) for i in range(n)]

    def test_fold_matches_kway_merge(self, tmp_path):
        runs = self.runs()
        ref_k, ref_v = kway_merge(runs)
        with SpillStore(tmp_path / "store") as store:
            spilled = [store.spill(k, v, SHAPE) for k, v in runs]
            out = fold_runs_to_disk(spilled, store, SHAPE, chunk=333)
            got_k, got_v, _ = load_run(out.path)
            assert_run_equal(got_k, got_v, ref_k, ref_v)

    def test_fold_mixes_memory_and_disk_inputs(self, tmp_path):
        runs = self.runs()
        ref_k, ref_v = kway_merge(runs)
        with SpillStore(tmp_path / "store") as store:
            items = [
                store.spill(k, v, SHAPE) if i % 2 else (k, v)
                for i, (k, v) in enumerate(runs)
            ]
            out = fold_runs_to_disk(items, store, SHAPE, chunk=333)
            got_k, got_v, _ = load_run(out.path)
            assert_run_equal(got_k, got_v, ref_k, ref_v)

    def test_consumed_store_runs_deleted(self, tmp_path):
        with SpillStore(tmp_path / "store") as store:
            spilled = [store.spill(k, v, SHAPE) for k, v in self.runs()]
            out = fold_runs_to_disk(spilled, store, SHAPE)
            assert out.path.exists()
            for run in spilled:
                assert not run.path.exists()

    def test_keep_inputs_preserves_store_runs(self, tmp_path):
        with SpillStore(tmp_path / "store") as store:
            spilled = [store.spill(k, v, SHAPE) for k, v in self.runs()]
            out = fold_runs_to_disk(spilled, store, SHAPE, keep_inputs=True)
            for run in spilled:
                assert run.path.exists()
            assert out.path not in {run.path for run in spilled}

    def test_single_kept_input_copied_not_aliased(self, tmp_path):
        keys, vals = make_run(41, 700)
        with SpillStore(tmp_path / "store") as store:
            only = store.spill(keys, vals, SHAPE)
            out = fold_runs_to_disk([only], store, SHAPE, keep_inputs=True)
            assert out.path != only.path
            got_k, got_v, _ = load_run(out.path)
            assert_run_equal(got_k, got_v, keys, vals)

    def test_empty_fold_yields_empty_run(self, tmp_path):
        with SpillStore(tmp_path / "store") as store:
            out = fold_runs_to_disk([], store, SHAPE)
            assert out.nnz == 0


class TestUniqueRows:
    @pytest.mark.parametrize("ncols", [1 << 16, 1000])
    @pytest.mark.parametrize("chunk", [128, 1 << 20])
    def test_matches_numpy_unique(self, tmp_path, ncols, chunk):
        keys, vals = make_run(43, 4000, space=200 * ncols)
        run = write_run(tmp_path / "u.col", keys, vals, (1 << 32, ncols))
        expected = np.unique(keys // np.uint64(ncols)).size
        assert unique_rows_of_run(run, chunk=chunk) == expected

    def test_empty_run_has_no_rows(self, tmp_path):
        run = write_run(
            tmp_path / "e.col",
            np.zeros(0, dtype=np.uint64),
            np.zeros(0, dtype=np.float64),
            SHAPE,
        )
        assert unique_rows_of_run(run) == 0


class TestSpillStore:
    def test_owned_tempdir_removed_on_close(self):
        store = SpillStore()
        root = store.root
        assert root.exists()
        store.close()
        assert not root.exists()

    def test_caller_directory_left_in_place(self, tmp_path):
        with SpillStore(tmp_path / "keep") as store:
            keys, vals = make_run(47, 10)
            store.spill(keys, vals, SHAPE)
        assert (tmp_path / "keep").exists()

    def test_paths_never_reused(self, tmp_path):
        with SpillStore(tmp_path / "seq") as store:
            assert store.next_path() != store.next_path()


class TestParseMemBudget:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("1048576", 1 << 20),
            ("512M", 512 << 20),
            ("4G", 4 << 30),
            ("4GB", 4 << 30),
            ("2k", 2048),
            ("1.5G", (3 << 30) // 2),
            ("1T", 1 << 40),
        ],
    )
    def test_accepted(self, text, expected):
        assert parse_mem_budget(text) == expected

    @pytest.mark.parametrize("text", ["", "lots", "-1G", "0"])
    def test_rejected(self, text):
        with pytest.raises(ValueError):
            parse_mem_budget(text)


class TestKnownSizeWriter:
    def test_in_place_write_is_byte_identical_and_has_no_sidecar(
        self, tmp_path, monkeypatch
    ):
        keys, vals = make_run(53, 3000)
        with ColumnarWriter(tmp_path / "side.col", SHAPE) as w:
            w.append(keys, vals)
            w.close()
        opened = []
        real_open = open

        def spying_open(path, *args, **kwargs):
            opened.append(str(path))
            return real_open(path, *args, **kwargs)

        monkeypatch.setattr("builtins.open", spying_open)
        run = write_run(tmp_path / "place.col", keys, vals, SHAPE, chunk=700)
        monkeypatch.undo()
        assert not any(p.endswith(".vals.tmp") for p in opened)
        assert run.path.read_bytes() == (tmp_path / "side.col").read_bytes()

    def test_short_write_is_rejected_and_leaves_nothing(self, tmp_path):
        keys, vals = make_run(59, 100)
        with pytest.raises(ValueError, match="opened for"):
            with ColumnarWriter(tmp_path / "short.col", SHAPE, nnz=keys.size + 1) as w:
                w.append(keys, vals)
                w.close()
        assert list(tmp_path.iterdir()) == []

    def test_overlong_append_is_rejected(self, tmp_path):
        keys, vals = make_run(61, 100)
        with pytest.raises(ValueError, match="opened for"):
            with ColumnarWriter(tmp_path / "long.col", SHAPE, nnz=10) as w:
                w.append(keys, vals)
        assert list(tmp_path.iterdir()) == []


def test_single_kept_input_link_survives_unlinking_the_input(tmp_path):
    keys, vals = make_run(67, 400)
    with SpillStore(tmp_path / "store") as store:
        only = store.spill(keys, vals, SHAPE)
        out = fold_runs_to_disk([only], store, SHAPE, keep_inputs=True)
        assert out.path.stat().st_ino == only.path.stat().st_ino
        store.remove(only)
        got_k, got_v, _ = load_run(out.path)
        assert_run_equal(got_k, got_v, keys, vals)
