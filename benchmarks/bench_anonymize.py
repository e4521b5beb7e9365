"""Anonymization and trusted sharing (paper §I) at 500,000 addresses.

CryptoPAN anonymization sits on the telescope's archive path (every stored
matrix is anonymized), and the mode-1 return-to-source exchange sits on
the correlation path; both must handle window-scale address volumes.
These checks are not timed: speed is measured end to end by
``benchmarks/e2e/run.py``.
"""

import numpy as np
import pytest

from repro.anonymize import AnonymizationDomain, CryptoPan, correlate_anonymized

N = 500_000


@pytest.fixture(scope="module")
def addrs():
    return np.random.default_rng(7).integers(0, 2**32, N, dtype=np.uint64)


@pytest.fixture(scope="module")
def pan():
    return CryptoPan(b"bench-key")


def test_anonymize_throughput(pan, addrs):
    out = pan.anonymize(addrs)
    assert out.size == N


def test_deanonymize_throughput(pan, addrs):
    anon = pan.anonymize(addrs)
    out = pan.deanonymize(anon)
    np.testing.assert_array_equal(out[:100], addrs[:100])


def test_mode1_correlation_roundtrip(addrs):
    dom_a = AnonymizationDomain("telescope", b"a-key")
    dom_b = AnonymizationDomain("honeyfarm", b"b-key")
    half = N // 2
    anon_a = dom_a.publish(addrs[: 3 * half // 2])  # first 75%
    anon_b = dom_b.publish(addrs[half:])  # last 50% -> 25% overlap

    overlap = correlate_anonymized(dom_a, anon_a, dom_b, anon_b, mode=1)
    assert overlap.size > 0
