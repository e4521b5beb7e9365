"""Span tracing: wall/CPU-scoped timing of pipeline stages.

The paper's pipeline is a multi-stage dataflow — hierarchical GraphBLAS
summation of thousands of sub-matrices per window, D4M associative joins,
15-month temporal sweeps — whose cost structure is invisible without
per-stage accounting (cf. the per-hierarchy-level packets/sec tables of
the 40-trillion-packet companion studies).  This module provides that
accounting as a **zero-overhead-when-off** tracing layer, following the
:mod:`repro.analysis.contracts` pattern exactly:

* tracing is **off by default**; enable it with ``REPRO_TRACE=1``,
  ``repro <experiment> --trace``, or programmatically via
  :func:`enable_tracing` / the :func:`tracing` context manager;
* when off, :func:`span` returns a single shared no-op context manager
  (no allocation per call) and :func:`traced` wrappers reduce to one
  global flag check — the overhead budget (<2 % on a
  ``bench_hypersparse``-scale hierarchical sum) is pinned by
  ``benchmarks/bench_obs.py``;
* when on, each ``with span(name, **attrs):`` block records wall time
  (``perf_counter``), CPU time (``process_time``) and its position in a
  **thread-local span tree** — spans opened on different threads never
  adopt each other as parents.

Finished spans accumulate in a process-wide recorder; drain them with
:func:`take_spans` and export via :mod:`repro.obs.sinks`.

This module deliberately imports nothing from the rest of the package
except the import-free knob registry (:mod:`repro.analysis.knobs`), so
every kernel layer can depend on it without cycles.  It is also the one
sanctioned home for monotonic-clock reads (lint rule RL007): library code
elsewhere uses :func:`span` / :func:`stopwatch` instead of calling
``time.perf_counter`` directly.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import wraps
from typing import Any, Callable, Dict, Iterator, List, Optional, TypeVar

from ..analysis.knobs import env_flag

__all__ = [
    "Span",
    "Stopwatch",
    "tracing_enabled",
    "enable_tracing",
    "tracing",
    "span",
    "traced",
    "annotate",
    "current_span",
    "record_span",
    "take_spans",
    "spans_recorded",
    "reset_tracing",
    "stopwatch",
    "trace_epoch",
    "TimedCall",
]

_ENV_FLAG = "REPRO_TRACE"

_enabled: bool = env_flag(_ENV_FLAG)

#: All span start times are relative to this process-wide epoch, so traces
#: from one run share a clock and Chrome-trace timestamps stay small.
_EPOCH: float = time.perf_counter()

_lock = threading.Lock()
_finished: List["Span"] = []
_next_id: int = 0

F = TypeVar("F", bound=Callable[..., Any])


@dataclass
class Span:
    """One finished (or in-flight) traced region.

    Attributes
    ----------
    span_id, parent_id:
        Process-unique identifiers linking the span tree; ``parent_id`` is
        ``None`` for a thread's root spans.
    name:
        Stage name, e.g. ``"hier_sum"``.
    label_attrs:
        Attributes passed at :func:`span` creation; they become part of
        the grouping :attr:`label` (``"hier_sum level=3"``).
    attrs:
        Free-form attributes added later via :func:`annotate`; recorded
        but excluded from the label to keep summary cardinality low.
    t_start:
        Start time in seconds relative to :func:`trace_epoch`.
    wall_s, cpu_s:
        Elapsed wall-clock and process-CPU seconds.
    thread_id, thread_name:
        The recording thread (spans are thread-local; see module docs).
    """

    span_id: int
    parent_id: Optional[int]
    name: str
    label_attrs: Dict[str, Any] = field(default_factory=dict)
    attrs: Dict[str, Any] = field(default_factory=dict)
    t_start: float = 0.0
    wall_s: float = 0.0
    cpu_s: float = 0.0
    thread_id: int = 0
    thread_name: str = ""

    @property
    def label(self) -> str:
        """Grouping key: the name plus creation-time attributes."""
        if not self.label_attrs:
            return self.name
        parts = " ".join(f"{k}={v}" for k, v in sorted(self.label_attrs.items()))
        return f"{self.name} {parts}"

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serializable event payload (used by the sinks)."""
        out: Dict[str, Any] = {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "label": self.label,
            "t_start": self.t_start,
            "wall_s": self.wall_s,
            "cpu_s": self.cpu_s,
            "thread_id": self.thread_id,
            "thread_name": self.thread_name,
        }
        if self.label_attrs or self.attrs:
            out["attrs"] = {**self.label_attrs, **self.attrs}
        return out


class _ThreadState(threading.local):
    """Per-thread stack of open spans."""

    def __init__(self) -> None:
        self.stack: List[Span] = []


_state = _ThreadState()


def trace_epoch() -> float:
    """The ``perf_counter`` value all span start times are relative to."""
    return _EPOCH


def tracing_enabled() -> bool:
    """True when span recording is active."""
    return _enabled


def enable_tracing(on: bool = True) -> None:
    """Switch tracing on or off for the whole process."""
    global _enabled
    _enabled = bool(on)


@contextmanager
def tracing(on: bool = True) -> Iterator[None]:
    """Context manager scoping :func:`enable_tracing` to a block."""
    global _enabled
    prev = _enabled
    _enabled = bool(on)
    try:
        yield
    finally:
        _enabled = prev


def _alloc_id() -> int:
    global _next_id
    with _lock:
        _next_id += 1
        return _next_id


class _LiveSpan:
    """An open span: context manager recording on exit."""

    __slots__ = ("_span", "_t0", "_c0")

    def __init__(self, name: str, attrs: Dict[str, Any]):
        parent = _state.stack[-1] if _state.stack else None
        thread = threading.current_thread()
        self._span = Span(
            span_id=_alloc_id(),
            parent_id=parent.span_id if parent is not None else None,
            name=name,
            label_attrs=attrs,
            thread_id=thread.ident or 0,
            thread_name=thread.name,
        )
        self._t0 = 0.0
        self._c0 = 0.0

    def __enter__(self) -> "_LiveSpan":
        _state.stack.append(self._span)
        self._c0 = time.process_time()
        self._t0 = time.perf_counter()
        self._span.t_start = self._t0 - _EPOCH
        return self

    def __exit__(self, *exc: Any) -> bool:
        s = self._span
        s.wall_s = time.perf_counter() - self._t0
        s.cpu_s = time.process_time() - self._c0
        if _state.stack and _state.stack[-1] is s:
            _state.stack.pop()
        else:  # pragma: no cover - unbalanced exit, drop without corrupting
            try:
                _state.stack.remove(s)
            except ValueError:
                pass
        with _lock:
            _finished.append(s)
        return False

    def set(self, **attrs: Any) -> None:
        """Attach free-form attributes to this span."""
        self._span.attrs.update(attrs)


class _NoopSpan:
    """The shared disabled-mode span: enter/exit/set are all no-ops."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc: Any) -> bool:
        return False

    def set(self, **attrs: Any) -> None:
        """Discard attributes (tracing is off)."""


#: The singleton returned by :func:`span` while tracing is disabled.
_NOOP = _NoopSpan()


def span(name: str, **attrs: Any) -> Any:
    """A context manager tracing the enclosed block as ``name``.

    Keyword arguments become *label attributes* — part of the span's
    grouping label in summaries (keep their cardinality low; use
    :func:`annotate` for per-instance values).  When tracing is disabled
    this returns a shared no-op object, so instrumenting a hot path costs
    one flag check and one (empty) context-manager round trip::

        with span("hier_sum", level=3):
            merged = a.ewise_add(b)
    """
    if not _enabled:
        return _NOOP
    return _LiveSpan(name, attrs)


def traced(fn: Optional[F] = None, *, name: Optional[str] = None) -> Any:
    """Decorator tracing every call of ``fn`` as a span.

    With tracing off the wrapper is a single flag check and a direct
    call.  Usable bare (``@traced``) or with a name override
    (``@traced(name="assoc_join")``).
    """

    def decorate(f: F) -> F:
        label = name if name is not None else f.__qualname__

        @wraps(f)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not _enabled:
                return f(*args, **kwargs)
            with _LiveSpan(label, {}):
                return f(*args, **kwargs)

        return wrapper  # type: ignore[return-value]

    return decorate(fn) if fn is not None else decorate


def current_span() -> Optional[Span]:
    """The innermost open span on this thread, or None."""
    return _state.stack[-1] if _state.stack else None


def annotate(**attrs: Any) -> None:
    """Attach attributes to the current span (no-op when tracing is off)."""
    if not _enabled or not _state.stack:
        return
    _state.stack[-1].attrs.update(attrs)


def record_span(
    name: str,
    wall_s: float,
    cpu_s: float = 0.0,
    *,
    t_start: Optional[float] = None,
    **attrs: Any,
) -> None:
    """Record an externally-measured span (no-op when tracing is off).

    The ingestion point for timings measured where the in-process recorder
    cannot reach — worker processes of :mod:`repro.parallel.pool` return
    per-item measurements and the parent re-ingests them here.  The span
    parents under the caller's current span.
    """
    if not _enabled:
        return
    parent = _state.stack[-1] if _state.stack else None
    thread = threading.current_thread()
    s = Span(
        span_id=_alloc_id(),
        parent_id=parent.span_id if parent is not None else None,
        name=name,
        label_attrs=attrs,
        t_start=(time.perf_counter() - _EPOCH) - wall_s
        if t_start is None
        else t_start,
        wall_s=float(wall_s),
        cpu_s=float(cpu_s),
        thread_id=thread.ident or 0,
        thread_name=thread.name,
    )
    with _lock:
        _finished.append(s)


def take_spans() -> List[Span]:
    """Drain and return all finished spans recorded so far."""
    global _finished
    with _lock:
        out = _finished
        _finished = []
    return out


def spans_recorded() -> int:
    """Number of finished spans currently held by the recorder."""
    with _lock:
        return len(_finished)


def reset_tracing() -> None:
    """Discard recorded spans (test isolation helper)."""
    global _finished
    with _lock:
        _finished = []


class Stopwatch:
    """A running duration measurement (see :func:`stopwatch`)."""

    __slots__ = ("_t0", "seconds")

    def __init__(self) -> None:
        self._t0 = 0.0
        #: Elapsed wall seconds, final once the ``with`` block exits.
        self.seconds = 0.0

    def __enter__(self) -> "Stopwatch":
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc: Any) -> bool:
        self.seconds = time.perf_counter() - self._t0
        return False


def stopwatch() -> Stopwatch:
    """An always-on duration timer for results that *report* elapsed time.

    Unlike :func:`span`, this measures regardless of the tracing flag —
    it exists for experiments whose printed output includes a throughput
    figure (Fig 2, the accumulation ablation).  Being part of
    :mod:`repro.obs`, it is the sanctioned alternative to calling
    ``time.perf_counter`` directly in kernel packages (lint rule RL007)::

        with stopwatch() as w:
            matrix = build(...)
        rate = n / w.seconds
    """
    return Stopwatch()


class TimedCall:
    """Picklable wrapper timing each call of ``fn`` (for pool workers).

    ``__call__`` returns ``(result, (t_start_abs, wall_s, cpu_s))`` where
    ``t_start_abs`` is the worker's raw ``perf_counter`` reading — on
    fork-based pools this shares the parent's clock, so the parent can
    re-anchor it against :func:`trace_epoch` when re-ingesting via
    :func:`record_span`.
    """

    __slots__ = ("fn",)

    def __init__(self, fn: Callable[[Any], Any]):
        self.fn = fn

    def __call__(self, item: Any) -> Any:
        t0 = time.perf_counter()
        c0 = time.process_time()
        result = self.fn(item)
        return result, (t0, time.perf_counter() - t0, time.process_time() - c0)
