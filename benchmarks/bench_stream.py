"""The streaming analysis layer over 2^19 packets in 2^13-packet batches.

Window analysis runs once over the whole stream with its result
asserted.  It is not timed: speed is measured end to end by
``benchmarks/e2e/run.py`` (``serve-stream`` folds through this layer).
"""

import numpy as np
import pytest

from repro.stream import StreamingWindowAnalyzer
from repro.traffic import Packets

N = 1 << 19
BATCH = 1 << 13


@pytest.fixture(scope="module")
def batches():
    rng = np.random.default_rng(0)
    time = np.sort(rng.uniform(0, 1000, N))
    src = rng.integers(0, 2**32, N, dtype=np.uint64)
    dst = rng.integers(0, 2**24, N, dtype=np.uint64)
    p = Packets(time, src, dst)
    return [p[i : i + BATCH] for i in range(0, N, BATCH)]


def test_streaming_window_analysis(batches):
    """Full window analysis (matrix + Table II + distribution) per batch."""
    analyzer = StreamingWindowAnalyzer(1 << 16)
    emitted = 0
    for b in batches:
        emitted += len(analyzer.process(b))
    assert emitted == N // (1 << 16)
