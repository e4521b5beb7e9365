"""Archive v2 durability: migration, corruption handling, crash recovery."""

import json

import numpy as np
import pytest

from repro.traffic import Packets, WindowArchive, build_traffic_matrix

N_VALID = 128


def stream(n, rng, t0=0.0):
    return Packets(
        np.sort(rng.uniform(t0, t0 + 100, n)),
        rng.integers(0, 2**32, n),
        rng.integers(0, 2**24, n),
    )


def fill(root, rng, n=1500, **kwargs):
    arch = WindowArchive(root, n_valid=N_VALID, **kwargs)
    arch.append_packets(stream(n, rng))
    return arch


def make_v1_archive(root, rng, windows=4):
    """A v1 archive as the previous release wrote it: npz files and a
    manifest without format/storage fields."""
    arch = fill(root, rng, n=windows * N_VALID)
    manifest = root / "manifest.json"
    data = json.loads(manifest.read_text())
    data["format"] = "repro-window-archive-v1"
    for i, rec in enumerate(data["windows"]):
        m = arch.load(i)
        (root / rec["filename"]).unlink()
        rec["filename"] = f"window_{i:06d}.npz"
        np.savez_compressed(
            root / rec["filename"],
            rows=m.rows,
            cols=m.cols,
            vals=m.vals,
            shape=np.asarray(m.shape, dtype=np.uint64),
        )
        del rec["storage"]
    manifest.write_text(json.dumps(data))
    # The old handle's records name the replaced columnar files.
    return WindowArchive(root, n_valid=N_VALID)


class TestMigration:
    def test_v1_manifest_loads(self, tmp_path, rng):
        ref = make_v1_archive(tmp_path / "v1", rng).sum_windows()
        arch = WindowArchive(tmp_path / "v1", n_valid=N_VALID)
        assert len(arch) == 4
        assert all(r.storage == "npz" for r in arch.records)
        assert arch.sum_windows() == ref

    def test_v1_archive_upgrades_on_append(self, tmp_path, rng):
        make_v1_archive(tmp_path / "up", rng)
        arch = WindowArchive(tmp_path / "up", n_valid=N_VALID)
        arch.append_packets(stream(2 * N_VALID, rng, t0=500.0))
        data = json.loads((tmp_path / "up" / "manifest.json").read_text())
        assert data["format"] == "repro-window-archive-v2"
        # Old windows keep their npz files; new ones are columnar.
        storages = [r.storage for r in arch.records]
        assert storages[:4] == ["npz"] * 4 and storages[4:] == ["columnar"] * 2

    def test_mixed_formats_sum_together(self, tmp_path, rng):
        make_v1_archive(tmp_path / "mix", rng)
        arch = WindowArchive(tmp_path / "mix", n_valid=N_VALID)
        arch.append_packets(stream(2 * N_VALID, rng, t0=500.0))
        total = arch.sum_windows()
        assert total.total() == arch.total_packets()

    def test_newer_format_rejected(self, tmp_path, rng):
        fill(tmp_path / "new", rng)
        manifest = tmp_path / "new" / "manifest.json"
        data = json.loads(manifest.read_text())
        data["format"] = "repro-window-archive-v9"
        manifest.write_text(json.dumps(data))
        with pytest.raises(ValueError, match="newer than this reader"):
            WindowArchive(tmp_path / "new", n_valid=N_VALID)


class TestCorruption:
    def test_truncated_window_skipped_with_warning(self, tmp_path, rng):
        arch = fill(tmp_path / "tr", rng)
        ref = arch.sum_windows(list(range(1, len(arch))))
        victim = tmp_path / "tr" / arch.records[0].filename
        victim.write_bytes(victim.read_bytes()[:-16])
        with pytest.warns(RuntimeWarning, match="skipping unreadable"):
            got = arch.sum_windows()
        assert got == ref

    def test_strict_mode_raises(self, tmp_path, rng):
        arch = fill(tmp_path / "st", rng)
        (tmp_path / "st" / arch.records[2].filename).unlink()
        with pytest.raises(FileNotFoundError):
            arch.sum_windows(strict=True)

    def test_load_raises_on_corrupt_window(self, tmp_path, rng):
        arch = fill(tmp_path / "ld", rng)
        victim = tmp_path / "ld" / arch.records[1].filename
        victim.write_bytes(b"garbage")
        with pytest.raises(ValueError):
            arch.load(1)


class TestCrashRecovery:
    def test_leftover_tmp_files_ignored_on_reopen(self, tmp_path, rng):
        # Simulate a crash mid-append: the writer's .tmp droppings are on
        # disk but the manifest never recorded the half-written window.
        arch = fill(tmp_path / "cr", rng)
        n = len(arch)
        next_name = f"window_{n:06d}.col"
        (tmp_path / "cr" / (next_name + ".tmp")).write_bytes(b"\0" * 100)
        (tmp_path / "cr" / (next_name + ".vals.tmp")).write_bytes(b"\0" * 50)
        reopened = WindowArchive(tmp_path / "cr", n_valid=N_VALID)
        assert len(reopened) == n
        assert reopened.sum_windows().total() == reopened.total_packets()

    def test_append_after_crash_overwrites_droppings(self, tmp_path, rng):
        arch = fill(tmp_path / "ow", rng)
        n = len(arch)
        next_name = f"window_{n:06d}.col"
        (tmp_path / "ow" / (next_name + ".tmp")).write_bytes(b"\0" * 100)
        arch.append_packets(stream(N_VALID, rng, t0=900.0))
        assert len(arch) == n + 1
        assert arch.load(n).total() == arch.records[n].n_packets


class TestMappedLoads:
    def test_mapped_bit_identical_to_eager(self, tmp_path, rng):
        arch = fill(tmp_path / "mm", rng)
        for i in range(len(arch)):
            eager = arch.load(i, mapped=False)
            lazy = arch.load(i, mapped=True)
            assert np.array_equal(np.asarray(lazy.keys), eager.keys)
            assert np.array_equal(
                np.asarray(lazy.vals, dtype=np.float64).view(np.uint64),
                eager.vals.view(np.uint64),
            )

    def test_columnar_roundtrip_matches_build(self, tmp_path, rng):
        p = stream(2 * N_VALID, rng)
        arch = WindowArchive(tmp_path / "rt", n_valid=N_VALID)
        arch.append_packets(p)
        first = p.sort_by_time()[:N_VALID]
        assert arch.load(0) == build_traffic_matrix(first)

    def test_sum_windows_uses_direct_kway_fold(self, tmp_path, rng):
        arch = fill(tmp_path / "kw", rng)
        ref = arch.load(0)
        for i in range(1, len(arch)):
            ref = ref.ewise_add(arch.load(i))
        got = arch.sum_windows()
        # Integral counts: any fold order is exact.
        assert got == ref
