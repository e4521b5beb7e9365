"""Temporal-correlation curves on hand-built and generated data."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import DegreeBin, degree_bins, temporal_correlation
from repro.fits import per_source_trajectories
from repro.hypersparse.coo import SparseVec


@pytest.fixture()
def vec():
    # Ten sources, degrees 1..10.
    return SparseVec(np.arange(1, 11), np.arange(1, 11, dtype=float))


def test_fractions_computed_per_month(vec):
    monthly = [
        np.arange(1, 11, dtype=np.uint64),  # all seen
        np.arange(1, 6, dtype=np.uint64),  # half seen
        np.asarray([], dtype=np.uint64),  # none seen
    ]
    curve = temporal_correlation(vec, monthly, [0.5, 1.5, 2.5], t0=0.5)
    np.testing.assert_allclose(curve.fractions, [1.0, 0.5, 0.0])
    assert curve.n_sources == 10
    assert curve.bin is None


def test_bin_restriction(vec):
    monthly = [np.asarray([9, 10], dtype=np.uint64)]
    curve = temporal_correlation(
        vec, monthly, [0.5], t0=0.5, bin=DegreeBin(8, 16)
    )
    # Degrees in [8, 16): sources 8, 9, 10; two seen.
    assert curve.n_sources == 3
    np.testing.assert_allclose(curve.fractions, [2 / 3])


def test_empty_bin_gives_zero_curve(vec):
    curve = temporal_correlation(
        vec, [np.asarray([1], dtype=np.uint64)], [0.5], t0=0.5,
        bin=DegreeBin(1000, 2000),
    )
    assert curve.n_sources == 0
    np.testing.assert_allclose(curve.fractions, [0.0])


def test_misaligned_inputs(vec):
    with pytest.raises(ValueError):
        temporal_correlation(vec, [np.asarray([1])], [0.5, 1.5], t0=0.5)


@pytest.mark.parametrize("bad", [[4, 2], [3, 3]], ids=["unsorted", "duplicated"])
@pytest.mark.parametrize("bin", [None, DegreeBin(1000, 2000)], ids=["all", "empty-bin"])
def test_unsorted_month_inputs(vec, bad, bin):
    monthly = [np.asarray([1], dtype=np.uint64), np.asarray(bad, dtype=np.uint64)]
    with pytest.raises(ValueError, match="month 1"):
        temporal_correlation(vec, monthly, [0.5, 1.5], t0=0.5, bin=bin)


def test_peak_and_background(vec):
    times = [float(i) + 0.5 for i in range(15)]
    monthly = [np.arange(1, 11, dtype=np.uint64) if i == 4 else np.asarray([1], dtype=np.uint64) for i in range(15)]
    curve = temporal_correlation(vec, monthly, times, t0=4.55)
    assert curve.peak_fraction() == 1.0
    assert np.isclose(curve.background_fraction(), 0.1)


def test_background_requires_long_lags(vec):
    curve = temporal_correlation(vec, [np.asarray([1])], [0.5], t0=0.5)
    with pytest.raises(ValueError):
        curve.background_fraction()


def test_fit_integrates_with_fits_package(vec):
    from repro.fits import modified_cauchy

    times = np.arange(15.0) + 0.5
    t0 = 4.55
    truth = modified_cauchy(times, t0, 1.0, 2.0)
    monthly = []
    rng = np.random.default_rng(0)
    keys = np.arange(1, 11, dtype=np.uint64)
    for p in truth:
        monthly.append(keys[rng.random(10) < p])
    curve = temporal_correlation(vec, monthly, times, t0=t0)
    fit = curve.fit("modified_cauchy")
    assert 0.3 < fit.alpha < 2.5
    fits = curve.fit_all()
    assert set(fits) == {"gaussian", "cauchy", "modified_cauchy"}


# -- property: the membership matrix reproduces set intersection exactly ----

#: Address-plane edges, plus a narrow band so generated sets overlap often.
U64 = st.one_of(
    st.sampled_from([0, 2**32 - 1, 2**64 - 1]),
    st.integers(0, 40),
    st.integers(0, 2**64 - 1),
)


def u64_set(values):
    return np.asarray(sorted(values), dtype=np.uint64)


month_sets = st.lists(st.sets(U64, max_size=24).map(u64_set), min_size=1, max_size=5)


@st.composite
def telescope_vectors(draw):
    keys = u64_set(draw(st.sets(U64, max_size=40)))
    degrees = draw(st.lists(st.integers(1, 1 << 12), min_size=keys.size, max_size=keys.size))
    return SparseVec(keys, np.asarray(degrees, dtype=np.float64))


@given(vec=telescope_vectors(), monthly=month_sets)
@example(
    vec=SparseVec(np.asarray([0, 7, 2**32 - 1, 2**64 - 1], dtype=np.uint64), [1.0, 2.0, 3.0, 9.0]),
    monthly=[u64_set([]), u64_set([2**64 - 1]), u64_set([0, 2**32 - 1, 2**64 - 1])],
)
@settings(max_examples=200, deadline=None)
def test_fractions_equal_intersection_reference(vec, monthly):
    times = np.arange(len(monthly), dtype=np.float64) + 0.5
    for b in [None] + degree_bins(max(vec.max(), 1.0)):
        tel = (b.select(vec) if b is not None else vec).keys
        n = tel.size
        want = np.asarray(
            [np.intersect1d(tel, hf).size / n if n else 0.0 for hf in monthly],
            dtype=np.float64,
        )
        curve = temporal_correlation(vec, monthly, times, t0=0.5, bin=b)
        assert curve.fractions.tobytes() == want.tobytes()
        assert curve.n_sources == n
    m = per_source_trajectories(vec.keys, monthly)
    assert m.shape == (vec.nnz, len(monthly))
    for j, hf in enumerate(monthly):
        np.testing.assert_array_equal(m[:, j], np.isin(vec.keys, hf))
