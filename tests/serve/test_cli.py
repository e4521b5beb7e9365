"""``repro serve smoke``: threaded writer and readers, argument checks."""

import contextlib
import io
import re
import sys

import pytest

from repro.analysis.sanitize.runtime import take_traps
from repro.serve import load_snapshot, snapshot_buffers
from repro.serve.cli import main


@pytest.fixture(scope="class")
def smoke(tmp_path_factory):
    """One unarmed smoke run: (exit code, stdout, archive).

    A short switch interval makes the writer and the four readers
    interleave far more often than the default 5 ms slices would.
    """
    path = tmp_path_factory.mktemp("serve") / "final.npz"
    out = io.StringIO()
    take_traps()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with contextlib.redirect_stdout(out):
            code = main(["smoke", "--batches", "16", "--readers", "4", "--save", str(path)])
    finally:
        sys.setswitchinterval(interval)
    assert take_traps() == []  # the smoke drained and printed its own
    return code, out.getvalue(), path


class TestSmoke:
    def test_concurrent_readers_zero_traps(self, smoke):
        code, out, _ = smoke
        assert code == 0, out
        summary, verdict = out.splitlines()
        match = re.fullmatch(
            r"serve smoke: 4 windows, epoch (\d+), 4 months, (\d+) reads by 4 readers",
            summary,
        )
        assert match, summary
        assert int(match.group(2)) >= 4  # every reader reads at least once
        assert verdict == "clean: zero traps, all snapshot leases released"

    def test_save_through_service(self, smoke):
        _, out, path = smoke
        loaded = load_snapshot(path)
        assert loaded.window_count == 4
        assert f"epoch {loaded.epoch}," in out
        assert all(not arr.flags.writeable for arr in snapshot_buffers(loaded))

    def test_zero_batches_runs_clean(self, capsys):
        assert main(["smoke", "--batches", "0", "--readers", "1"]) == 0
        assert "0 windows" in capsys.readouterr().out


class TestHealth:
    def test_health_line_after_final_publish(self, capsys):
        assert main(["smoke", "--batches", "16", "--readers", "2"]) == 0
        captured = capsys.readouterr()
        epoch = int(re.search(r"epoch (\d+),", captured.out).group(1))
        (line,) = captured.err.splitlines()
        match = re.fullmatch(
            r"health: fold 16 x mean [\d.]+ ms, max [\d.]+ ms; "
            r"publish (\d+) x mean [\d.]+ ms, max [\d.]+ ms; "
            r"leases 0; epoch lag 0",
            line,
        )
        assert match, line
        assert int(match.group(1)) == epoch  # one publish per epoch


class TestUsage:
    @pytest.mark.parametrize(
        "argv",
        [
            ["--n-valid", "0"],
            ["--batch-size", "0"],
            ["--sources", "0"],
            ["--readers", "0"],
            ["--readers", "-1"],
            ["--batches", "-1"],
            ["--n-valid", "many"],
        ],
    )
    def test_bad_count_exits_2_with_message(self, argv, capsys):
        assert main(["smoke", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"argument {argv[0]}:" in captured.err
