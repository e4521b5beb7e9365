"""The D4M associative-array substrate at 50,000 IP-keyed rows.

The paper converts reduced telescope results to associative arrays and
correlates them against the honeyfarm's D4M data; these checks cover
that path: construction from IP-keyed triples, row-set intersection (the
correlation primitive), metadata selection, and co-occurrence (sqin).
They are not timed: speed is measured end to end by
``benchmarks/e2e/run.py``.
"""

import numpy as np
import pytest

from repro.d4m import Assoc, val2col
from repro.ip import ints_to_ips

N = 50_000


@pytest.fixture(scope="module")
def ip_rows():
    rng = np.random.default_rng(2)
    return ints_to_ips(rng.integers(0, 2**32, N, dtype=np.uint64))


@pytest.fixture(scope="module")
def packets_assoc(ip_rows):
    rng = np.random.default_rng(3)
    return Assoc(ip_rows, "packets", rng.integers(1, 1000, N).astype(float))


@pytest.fixture(scope="module")
def enrichment_assoc(ip_rows):
    rng = np.random.default_rng(4)
    intents = np.asarray(["scanner", "worm", "crawler"])[rng.integers(0, 3, N)]
    return Assoc(ip_rows, "intent", intents)


def test_numeric_construction(ip_rows):
    rng = np.random.default_rng(5)
    vals = rng.integers(1, 1000, N).astype(float)
    a = Assoc(ip_rows, "packets", vals)
    assert a.nnz == np.unique(ip_rows).size


def test_string_construction(ip_rows):
    a = Assoc(ip_rows, "label", ip_rows)
    assert a.is_string_valued


def test_row_overlap(packets_assoc, enrichment_assoc):
    from repro.d4m.ops import row_overlap

    common, frac = row_overlap(packets_assoc, enrichment_assoc)
    assert frac == 1.0  # same row universe


def test_logical_and(packets_assoc, ip_rows):
    # Second month of packet counts over a staggered half of the rows:
    # the intersection is the sources seen in both months.
    rng = np.random.default_rng(6)
    other = Assoc(ip_rows[N // 2 :], "packets", rng.integers(1, 1000, N - N // 2).astype(float))
    out = packets_assoc & other
    assert out.nnz > 0


def test_threshold_selection(packets_assoc):
    out = packets_assoc > 500
    assert 0 < out.nnz < packets_assoc.nnz


def test_val2col_explode(enrichment_assoc):
    out = val2col(enrichment_assoc)
    assert out.nnz == enrichment_assoc.nnz


def test_sqin_cooccurrence(enrichment_assoc):
    exploded = val2col(enrichment_assoc)
    out = exploded.sqin()
    assert out.nnz >= 3
