"""Outside-in layer ledger: per-layer self time from wrapped entry points.

The end-to-end benchmark attributes a traced repetition's wall time to
the ``repro`` subpackages without touching ``src/``: each public entry
point listed in :data:`ENTRY_POINTS` is replaced, for the duration of
the traced region only, by a timer installed on its defining module or
class and on every loaded ``repro.*`` module global bound to the same
object.  Timers record ``(entry, thread, start, end, parent)`` spans in
a recorder owned by the :class:`Ledger`; every original object is put
back on :meth:`Ledger.uninstall`.

A span's *self time* is its duration minus the durations of its direct
children.  Parents come from a per-thread stack, so a span never
subtracts time spent on another thread.  The traced region itself is a
root span: its self time is the wall time no entry point accounts for
(``trace.unattributed_s``).

Metric names are ``<layer>.<entry>.<stat>``; the layer is the ``repro``
subpackage that defines the entry point.  The catalogue is static
(:data:`PER_LAYER`) so ``BENCHMARK.json`` can be checked against it
without running anything.  An entry point that no longer exists is
reported as ``None`` with a warning, so a later refactor does not break
the run.

This module imports nothing from ``repro`` at import time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import threading
import time
import warnings
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

import numpy as np

__all__ = [
    "EntryPoint",
    "ENTRY_POINTS",
    "EXPERIMENT_NAMES",
    "PER_LAYER",
    "Ledger",
    "SpanRecord",
    "patch_attribute",
    "summarize",
]


@dataclass(frozen=True)
class EntryPoint:
    """One public entry point the ledger times.

    ``qualname`` is ``"function"`` or ``"Class.method"`` inside ``module``.
    ``latency`` adds per-call ``p50_ms``/``p99_ms``; ``key`` names the
    arguments whose distinct value tuples are counted; ``experiment``
    marks an ``EXPERIMENTS[name].run`` (reported as ``wall_s`` and
    ``self_s`` under the experiment's name).
    """

    module: str
    qualname: str
    latency: bool = False
    key: Tuple[str, ...] = ()
    experiment: Optional[str] = None

    @property
    def layer(self) -> str:
        """The ``repro`` subpackage that defines the entry point."""
        return self.module.split(".")[1]

    @property
    def name(self) -> str:
        """Metric stem: ``<layer>.<entry>`` (constructors by class name)."""
        if self.experiment is not None:
            return f"{self.layer}.{self.experiment}"
        entry = self.qualname
        if entry.endswith(".__init__"):
            entry = entry[: -len(".__init__")]
        return f"{self.layer}.{entry}"

    @property
    def stats(self) -> Tuple[Tuple[str, str], ...]:
        """The ``(stat, unit)`` pairs this entry point reports."""
        if self.experiment is not None:
            return (("wall_s", "s"), ("self_s", "s"))
        stats = (("calls", "count"), ("self_s", "s"))
        if self.latency:
            stats += (("p50_ms", "ms"), ("p99_ms", "ms"))
        return stats


#: ``repro.experiments.EXPERIMENTS`` at the commit that defined the ledger.
#: Static on purpose: the emitted metric set must equal ``BENCHMARK.json``.
EXPERIMENT_NAMES = (
    "table1",
    "table2",
    "fig1",
    "fig2",
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "scaling",
    "spectrum",
    "subnets",
    "vantage",
    "consistency",
    "prediction",
    "generative",
    "ablation",
)

_SERVE = "repro.serve.engine"
_SPILL = "repro.hypersparse.spill"
_HIER = "repro.hypersparse.hierarchical"

ENTRY_POINTS: Tuple[EntryPoint, ...] = (
    EntryPoint("repro.synth.population", "SourcePopulation.__init__"),
    EntryPoint("repro.synth.telescope", "TelescopeSimulator.sample"),
    EntryPoint("repro.synth.telescope", "TelescopeSimulator.window_source_counts"),
    EntryPoint("repro.synth.honeyfarm", "HoneyfarmSimulator.observe_month"),
    EntryPoint("repro.d4m.assoc", "Assoc.__init__"),
    EntryPoint("repro.core.temporal", "temporal_correlation", key=("t0", "bin")),
    EntryPoint("repro.core.correlation", "peak_correlation"),
    EntryPoint("repro.fits.fitting", "fit_temporal"),
    EntryPoint("repro.fits.bootstrap", "bootstrap_temporal_fit"),
    EntryPoint("repro.stats.zipf", "fit_zipf_mandelbrot"),
    EntryPoint("repro.stats.binning", "differential_cumulative"),
    EntryPoint("repro.traffic.quantities", "network_quantities"),
    EntryPoint("repro.traffic.matrix", "build_traffic_matrix"),
    EntryPoint(_HIER, "HierarchicalMatrix.insert"),
    EntryPoint(_HIER, "HierarchicalMatrix.insert_matrix"),
    EntryPoint(_HIER, "HierarchicalMatrix.total"),
    EntryPoint(_HIER, "HierarchicalMatrix.collapse_to_disk"),
    EntryPoint(_SPILL, "merge_runs_streamed"),
    EntryPoint(_SPILL, "unique_rows_of_run"),
    EntryPoint(_SPILL, "ColumnarWriter.close"),
    EntryPoint("repro.hypersparse.coo", "HyperSparseMatrix.row_reduce"),
    EntryPoint("repro.parallel.shard", "sharded_accumulate"),
    EntryPoint("repro.parallel.pool", "parallel_map"),
    EntryPoint("repro.stream.analyzer", "StreamingWindowAnalyzer.process"),
    EntryPoint(_SERVE, "CorrelationEngine.fold_batch", latency=True),
    EntryPoint(_SERVE, "CorrelationEngine.fold_month", latency=True),
    EntryPoint(_SERVE, "CorrelationEngine.publish", latency=True),
    EntryPoint(_SERVE, "CorrelationEngine.acquire", latency=True),
    EntryPoint(_SERVE, "CorrelationEngine.release", latency=True),
    EntryPoint("repro.serve.snapshot", "freeze_snapshot", latency=True),
    *(
        EntryPoint(f"repro.experiments.{name}", "run", experiment=name)
        for name in EXPERIMENT_NAMES
    ),
    EntryPoint("repro.experiments.scaling", "assemble_window"),
    EntryPoint("repro.experiments.reportgen", "generate_report"),
)

#: Per-layer metrics that do not come from one entry point's spans:
#: name -> (unit, better).
_DERIVED: Dict[str, Tuple[str, str]] = {
    "core.distinct_curve_frac": ("fraction", "higher"),
    "hypersparse.spills": ("count", "lower"),
    "hypersparse.spill_mb": ("MiB", "lower"),
    "hypersparse.mapped_mb": ("MiB", "lower"),
    "hypersparse.merge_fastpath_hit_frac": ("fraction", "higher"),
    "parallel.worker_cpu_s": ("s", "lower"),
    "serve.publish_lag_p90_ms": ("ms", "lower"),
    "trace.unattributed_s": ("s", "lower"),
    "trace.overhead_frac": ("fraction", "lower"),
}

#: Every per-layer metric, in emission order: name -> (unit, better).
PER_LAYER: Dict[str, Tuple[str, str]] = {
    **{
        f"{ep.name}.{stat}": (unit, "lower")
        for ep in ENTRY_POINTS
        for stat, unit in ep.stats
    },
    **_DERIVED,
}

_ROOT = "<root>"


class SpanRecord:
    """One timed call: entry name, thread, start/end and direct parent."""

    __slots__ = ("name", "thread", "start", "end", "parent", "key")

    def __init__(
        self,
        name: str,
        thread: int,
        start: float,
        end: float = float("nan"),
        parent: Optional["SpanRecord"] = None,
        key: Optional[str] = None,
    ):
        self.name = name
        self.thread = thread
        self.start = start
        self.end = end
        self.parent = parent
        self.key = key

    @property
    def duration(self) -> float:
        """Wall seconds between start and end."""
        return self.end - self.start


def summarize(spans: Iterable[SpanRecord]) -> Dict[str, dict]:
    """Per-name ``calls``, ``self_s``, ``wall_s``, durations and keys.

    Self time is a span's duration minus its direct children's; children
    are the spans whose ``parent`` is that span object, which only ever
    sit on the parent's own thread.
    """
    spans = list(spans)
    child_time: Dict[int, float] = {}
    for s in spans:
        if s.parent is not None:
            child_time[id(s.parent)] = child_time.get(id(s.parent), 0.0) + s.duration
    out: Dict[str, dict] = {}
    for s in spans:
        agg = out.setdefault(
            s.name,
            {"calls": 0, "self_s": 0.0, "wall_s": 0.0, "durations": [], "keys": set()},
        )
        agg["calls"] += 1
        agg["self_s"] += s.duration - child_time.get(id(s), 0.0)
        agg["wall_s"] += s.duration
        agg["durations"].append(s.duration)
        if s.key is not None:
            agg["keys"].add(s.key)
    return out


def patch_attribute(owner: object, attr: str, value: object) -> Callable[[], None]:
    """Set ``owner.attr = value``; return the closure that undoes it.

    An attribute a class only inherits is deleted again on restore, so
    the class is left exactly as it was found.
    """
    own = attr in vars(owner)
    old = vars(owner)[attr] if own else None
    setattr(owner, attr, value)

    def restore() -> None:
        if own:
            setattr(owner, attr, old)
        else:
            delattr(owner, attr)

    return restore


def _resolve(ep: EntryPoint) -> Tuple[object, str, Callable]:
    """``(owner, attribute, original)`` of an entry point; raises if gone."""
    module = importlib.import_module(ep.module)
    owner: object = module
    *path, attr = ep.qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    original = getattr(owner, attr)
    if not callable(original):
        raise TypeError(f"{ep.module}.{ep.qualname} is not callable")
    return owner, attr, original


class Ledger:
    """Installs entry-point timers, records spans, reports layer metrics."""

    def __init__(self, entries: Iterable[EntryPoint] = ENTRY_POINTS):
        self.entries = tuple(entries)
        self.spans: List[SpanRecord] = []
        self.missing: List[str] = []
        self._restores: List[Callable[[], None]] = []
        self._local = threading.local()
        self._pid = os.getpid()

    # -- recording -----------------------------------------------------------

    def _stack(self) -> List[SpanRecord]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, key: Optional[str] = None) -> Iterator[None]:
        """Record one span on the calling thread's stack."""
        stack = self._stack()
        rec = SpanRecord(
            name,
            threading.get_ident(),
            time.perf_counter(),
            parent=stack[-1] if stack else None,
            key=key,
        )
        stack.append(rec)
        try:
            yield
        finally:
            rec.end = time.perf_counter()
            stack.pop()
            self.spans.append(rec)

    def region(self):
        """The root span around the timed region."""
        return self.span(_ROOT)

    def _timer(self, ep: EntryPoint, fn: Callable) -> Callable:
        ledger = self
        signature = inspect.signature(fn) if ep.key else None
        name = ep.name

        def timed(*args, **kwargs):
            # Forked pool workers inherit the timers; only the process
            # that installed them records.
            if os.getpid() != ledger._pid:
                return fn(*args, **kwargs)
            key = None
            if signature is not None:
                bound = signature.bind(*args, **kwargs).arguments
                key = repr(tuple(bound.get(k) for k in ep.key))
            with ledger.span(name, key):
                return fn(*args, **kwargs)

        return functools.wraps(fn)(timed)

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        """Wrap every entry point; missing ones warn and report ``None``."""
        for ep in self.entries:
            try:
                owner, attr, original = _resolve(ep)
            except (ImportError, AttributeError, TypeError) as exc:
                self.missing.append(ep.name)
                warnings.warn(f"ledger: entry point {ep.name} is missing ({exc})")
                continue
            timer = self._timer(ep, original)
            self._restores.append(patch_attribute(owner, attr, timer))
            if inspect.ismodule(owner):
                # Rebind every ``from x import f`` copy in loaded repro modules.
                for mod in list(sys.modules.values()):
                    if mod is owner or not getattr(mod, "__name__", "").startswith("repro"):
                        continue
                    for k, v in list(vars(mod).items()):
                        if v is original:
                            self._restores.append(patch_attribute(mod, k, timer))

    def uninstall(self) -> None:
        """Put every original object back (reverse order of installation)."""
        while self._restores:
            self._restores.pop()()

    @contextmanager
    def installed(self) -> Iterator["Ledger"]:
        """Timers in place for the ``with`` body only."""
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- reporting ---------------------------------------------------------------

    def metrics(self, counters: Dict[str, float]) -> Dict[str, Optional[float]]:
        """Span-derived per-layer metrics plus counter-derived ones.

        ``counters`` is the public ``repro.obs`` counter snapshot.  Stats
        over zero calls read 0; entry points that are gone read ``None``.
        """
        agg = summarize(self.spans)
        out: Dict[str, Optional[float]] = {}
        for ep in self.entries:
            a = agg.get(ep.name)
            for stat, _ in ep.stats:
                metric = f"{ep.name}.{stat}"
                if ep.name in self.missing:
                    out[metric] = None
                elif a is None:
                    out[metric] = 0.0
                elif stat == "calls":
                    out[metric] = float(a["calls"])
                elif stat in ("self_s", "wall_s"):
                    out[metric] = a[stat]
                else:
                    q = 50 if stat == "p50_ms" else 99
                    out[metric] = float(np.percentile(a["durations"], q)) * 1e3
        curves = agg.get("core.temporal_correlation")
        if "core.temporal_correlation" in self.missing:
            out["core.distinct_curve_frac"] = None
        else:
            out["core.distinct_curve_frac"] = (
                len(curves["keys"]) / curves["calls"] if curves else 0.0
            )
        hits = counters.get("merge_fastpath_hits", 0.0)
        misses = counters.get("merge_fastpath_misses", 0.0)
        out["hypersparse.spills"] = float(counters.get("shard_spills", 0.0))
        out["hypersparse.spill_mb"] = counters.get("shard_spill_bytes", 0.0) / 2**20
        out["hypersparse.mapped_mb"] = counters.get("shard_bytes_mapped", 0.0) / 2**20
        out["hypersparse.merge_fastpath_hit_frac"] = (
            hits / (hits + misses) if hits + misses else 0.0
        )
        root = agg.get(_ROOT)
        out["trace.unattributed_s"] = root["self_s"] if root else 0.0
        return out
