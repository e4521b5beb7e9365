"""The accumulation ablation's verdict rests on merge work, not seconds."""

import pytest

from repro.experiments import ablation
from repro.hypersparse import HierarchicalMatrix

CLAIM = "hierarchical accumulation merges less than flat re-canonicalization"


class _FixedStopwatch:
    """A stopwatch stand-in whose reading is set in advance."""

    def __init__(self, seconds):
        self.seconds = seconds

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


def _verdict(result):
    (check,) = [c for c in result.checks() if c.claim == CLAIM]
    return check.ok, check.detail


def test_inverted_timings_leave_the_verdict_unchanged(tiny_study, monkeypatch):
    honest = _verdict(ablation.run(tiny_study))
    # The hierarchical block "takes" 100 s and the flat one 1 ms.
    readings = iter([100.0, 0.001] * 2)
    monkeypatch.setattr(
        ablation, "stopwatch", lambda: _FixedStopwatch(next(readings))
    )
    for _ in range(2):
        result = ablation.run(tiny_study)
        assert result.hier_seconds > result.flat_seconds
        assert _verdict(result) == honest
    assert honest[0], honest[1]


def test_work_count_matches_the_ladder(tiny_study):
    result = ablation.run(tiny_study)
    assert 0 < result.hier_moved < result.flat_moved
    assert result.hier_equals_flat


def test_moved_entries_sum_merge_operands():
    acc = HierarchicalMatrix(shape=(64, 64), cutoff=2)
    acc.insert([0, 1], [0, 1])  # level 0: 2 entries
    acc.insert([2], [2])  # merge 2 + 1 -> 3 > 2, evicted to level 1
    assert acc.merges == 1 and acc.moved_entries == 3
    acc.insert([3, 4], [3, 4])  # level 0 empty again: no merge
    assert acc.moved_entries == 3
    acc.clear()
    assert acc.moved_entries == 0


@pytest.mark.parametrize(
    "levels, expected", [([], 0), ([5], 0), ([4, 0, 1], 5), ([1, 2, 3], 3 + 6)]
)
def test_collapse_moved_replays_the_smallest_first_fold(levels, expected):
    assert ablation._collapse_moved(levels) == expected
