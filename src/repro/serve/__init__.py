"""Long-running streaming correlation service.

The batch pipeline turned into a server: packet batches and honeyfarm
months fold continuously into hierarchical accumulators, the paper's
derived state (Table II aggregates, Fig 3 degree distributions, Fig 4
coeval overlap, modified-Cauchy fits) stays live and queryable, and
readers share epoch-numbered **immutable snapshots** with save/restore.

Layers:

* :mod:`repro.serve.engine` — the synchronous, internally-locked core
  (one writer thread, any number of reader threads);
* :mod:`repro.serve.snapshot` — self-freezing snapshots and on-disk
  archives;
* :mod:`repro.serve.cli` — ``repro serve smoke``, a threaded
  writer/readers driver.

The lease discipline is gated statically by RL020, and published
snapshots are read-only from construction, like the hypersparse and
D4M containers they summarize; see ``docs/STREAMING.md``.
"""

from .engine import CorrelationEngine
from .snapshot import (
    EngineSnapshot,
    freeze_snapshot,
    load_snapshot,
    save_snapshot,
    snapshot_buffers,
)

__all__ = [
    "CorrelationEngine",
    "EngineSnapshot",
    "freeze_snapshot",
    "load_snapshot",
    "save_snapshot",
    "snapshot_buffers",
]
