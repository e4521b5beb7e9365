"""Peak-correlation primitives on hand-built data."""

import numpy as np
import pytest

from repro.core import DegreeBin, degree_bins, peak_correlation
from repro.hypersparse.coo import SparseVec


class TestDegreeBin:
    def test_center_and_label(self):
        b = DegreeBin(16, 32)
        assert np.isclose(b.center, np.sqrt(512))
        assert b.label == "[2^4, 2^5)"

    def test_non_power_label(self):
        assert DegreeBin(3, 5).label == "[3, 5)"

    def test_select_half_open(self):
        vec = SparseVec([1, 2, 3], [16.0, 31.0, 32.0])
        sel = DegreeBin(16, 32).select(vec)
        assert sel.to_dict() == {1: 16.0, 2: 31.0}


class TestDegreeBins:
    def test_cover_range(self):
        bins = degree_bins(100)
        assert bins[0].lo == 1.0
        assert bins[-1].hi > 100
        for a, b in zip(bins, bins[1:]):
            assert a.hi == b.lo

    def test_d_min(self):
        bins = degree_bins(100, d_min=4)
        assert bins[0].lo == 4.0

    def test_invalid(self):
        with pytest.raises(ValueError):
            degree_bins(1, d_min=2)


class TestPeakCorrelation:
    def test_hand_built(self):
        # Sources 1..6 with degrees 1, 2, 4, 8, 16, 32.
        vec = SparseVec([1, 2, 3, 4, 5, 6], [1.0, 2.0, 4.0, 8.0, 16.0, 32.0])
        # Honeyfarm saw the bright half.
        hf = np.asarray([4, 5, 6], dtype=np.uint64)
        peak = peak_correlation(vec, hf, n_valid=1024)
        by_label = {b.bin.label: b for b in peak.bins}
        assert by_label["[2^0, 2^1)"].fraction == 0.0
        assert by_label["[2^3, 2^4)"].fraction == 1.0
        assert by_label["[2^5, 2^6)"].fraction == 1.0
        assert peak.threshold == 32.0

    def test_counts(self):
        vec = SparseVec([1, 2, 3], [2.0, 3.0, 2.0])
        peak = peak_correlation(vec, np.asarray([2], dtype=np.uint64), n_valid=16)
        b = {x.bin.label: x for x in peak.bins}["[2^1, 2^2)"]
        assert b.n_telescope == 3 and b.n_common == 1
        assert np.isclose(b.fraction, 1 / 3)

    def test_custom_bins(self):
        vec = SparseVec([1, 2], [5.0, 50.0])
        peak = peak_correlation(
            vec, np.asarray([2], dtype=np.uint64), n_valid=64,
            bins=[DegreeBin(1, 10), DegreeBin(10, 100)],
        )
        assert peak.bins[0].fraction == 0.0
        assert peak.bins[1].fraction == 1.0

    def test_nonempty_filters(self):
        vec = SparseVec([1], [1.0])
        peak = peak_correlation(vec, np.asarray([], dtype=np.uint64), n_valid=16)
        assert len(peak.nonempty().bins) == 1

    def test_accessor_arrays(self):
        vec = SparseVec([1, 2], [1.0, 2.0])
        peak = peak_correlation(vec, np.asarray([1], dtype=np.uint64), n_valid=16)
        assert peak.centers().size == peak.fractions().size == peak.counts().size

    @pytest.mark.parametrize("hf", [[5, 2], [2, 2]], ids=["unsorted", "duplicated"])
    def test_unsorted_honeyfarm_set_rejected(self, hf):
        vec = SparseVec([1, 2], [1.0, 2.0])
        with pytest.raises(ValueError, match="month 0"):
            peak_correlation(vec, np.asarray(hf, dtype=np.uint64), n_valid=16)
