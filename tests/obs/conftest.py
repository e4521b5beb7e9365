"""Observability tests: every test leaves the global recorder clean."""

from __future__ import annotations

import pytest

from repro.obs import enable_metrics, enable_tracing, reset_metrics, reset_tracing
from repro.obs import metrics as _metrics
from repro.obs.spans import tracing_enabled


@pytest.fixture(autouse=True)
def clean_obs_state():
    """Snapshot and restore the process-wide observability switches."""
    was_tracing = tracing_enabled()
    was_metrics = _metrics._metrics_only
    yield
    enable_tracing(was_tracing)
    enable_metrics(was_metrics)
    reset_tracing()
    reset_metrics()
