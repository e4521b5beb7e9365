"""Streaming-service discipline rules (RL018-RL020).

The long-running correlation service (:mod:`repro.serve`) layers an
asyncio facade over blocking hypersparse kernels and hands concurrent
readers frozen, epoch-numbered snapshots.  Three whole-program rules
prove the three disciplines that make that safe:

* **RL018** (:class:`AsyncDisciplineRule`) — no blocking kernel, IO, or
  pool-submission call runs on the event loop: inside ``async def``
  bodies such work must route through the sanctioned
  ``to_thread()``/``to_pool()`` shims (:mod:`repro.serve.shims`).
* **RL019** (:class:`SnapshotEscapeRule`) — every
  :class:`~repro.serve.snapshot.EngineSnapshot` that crosses the
  publication boundary (returned or stored) is provably frozen first
  (wrapped in :func:`~repro.serve.snapshot.freeze_snapshot`).
* **RL020** (:class:`EngineLifecycleRule`) — engine lifecycle
  typestate, extending RL016's path-sensitive interpreter: snapshot
  leases acquired on a path are released on that path, engines are
  closed (or ownership transferred), nothing is used after close, and
  the writer epoch only ever moves forward by a positive constant.

The runtime twin of all three is the ``snapshot`` sanitizer (RS006,
:mod:`repro.analysis.sanitize.snapshot`), which fingerprints published
buffers and promotes lease lifecycle faults to traps.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Set, Tuple

from .concurrency import _Env, _FunctionChecker, _Path, _SegState
from .engine import Finding, ProjectRule

__all__ = [
    "AsyncDisciplineRule",
    "SnapshotEscapeRule",
    "EngineLifecycleRule",
]


# ---------------------------------------------------------------------------
# RL018 — async discipline
# ---------------------------------------------------------------------------

#: The sanctioned escape hatches: awaiting these dispatches the blocking
#: work to a worker thread / the process pool instead of the event loop.
_SANCTIONED = frozenset({"to_thread", "to_pool"})

#: Modules whose own bodies are the sanctioned shims (exempt from RL018).
_EXEMPT_MODULES = frozenset({"repro.serve.shims"})

#: Pool-submission entry points: these block the caller (or fork under
#: it) and must never run on the loop thread.
_POOL_SUBMIT = frozenset({"parallel_map", "get_pool", "apply_async", "map_async"})

#: Blocking filesystem / network IO by callee name.
_BLOCKING_IO = frozenset(
    {
        "open",
        "urlopen",
        "read_text",
        "write_text",
        "read_bytes",
        "write_bytes",
    }
)

#: Kernel verbs: method names whose receivers are (or plausibly are)
#: hypersparse accumulators, analyzers, or the engine itself.  A call
#: spelled ``x.fold_batch(...)`` inside a coroutine is kernel work even
#: when ``x``'s type cannot be resolved statically.
_KERNEL_METHODS = frozenset(
    {
        "fold_batch",
        "fold_month",
        "publish",
        "acquire",
        "process",
        "flush",
        "insert",
        "insert_matrix",
        "total",
        "collapse_to_disk",
        "row_reduce",
        "col_reduce",
        "ewise_add",
        "kway_merge",
        "network_quantities",
        "peak_correlation",
        "fit_temporal",
        "constant_packet_windows",
    }
)

#: Dotted-module prefixes that hold blocking kernel code: a call that
#: resolves into one of these packages must not run on the loop.
_KERNEL_PREFIXES = (
    "repro.hypersparse",
    "repro.d4m",
    "repro.traffic",
    "repro.stream",
    "repro.core",
    "repro.fits",
    "repro.synth",
    "repro.parallel",
    "repro.serve.engine",
    "repro.serve.snapshot",
)


def _last_name(raw: str) -> str:
    return raw.rsplit(".", 1)[-1]


def _call_raw(call: ast.Call) -> Optional[str]:
    """Dotted callee text for plain name/attribute-chain callees."""
    parts: List[str] = []
    node: ast.AST = call.func
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _is_kernel_module(module: str) -> bool:
    return any(
        module == p or module.startswith(p + ".") for p in _KERNEL_PREFIXES
    )


def _body_walk(stmts: List[ast.stmt]) -> Iterator[ast.AST]:
    """Walk statements without descending into nested scopes.

    Nested ``async def`` bodies are visited on their own (the module
    walk finds every AsyncFunctionDef); nested sync defs and lambdas
    only block the loop if called, which the call itself reveals.
    """
    stack: List[ast.AST] = list(stmts)
    while stack:
        node = stack.pop()
        yield node
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            stack.append(child)


class AsyncDisciplineRule(ProjectRule):
    """RL018 — coroutines never run blocking work on the event loop.

    Every ``async def`` body is scanned for call expressions that are
    *not* directly awaited shim dispatches: pool submissions, blocking
    IO, ``time.sleep``, kernel-verb method calls, and project calls
    that resolve (directly or transitively through the flow graph) into
    the kernel packages.  The only sanctioned routes are ``await
    to_thread(...)`` / ``await to_pool(...)`` from
    :mod:`repro.serve.shims`; calls to other coroutines are fine (they
    construct awaitables, they do not block).
    """

    id = "RL018"
    tag = "async"
    description = "blocking kernel/IO/pool call reachable on the event loop"
    scope = "project-wide (flow + AST)"
    doc = (
        "Async discipline: inside `async def` bodies, blocking work — "
        "pool submissions (`parallel_map`, ...), filesystem/network IO, "
        "`time.sleep`, kernel verbs (`fold_batch`, `insert_matrix`, "
        "`network_quantities`, ...) and any project call that resolves "
        "into the kernel packages (`repro.hypersparse`, `repro.stream`, "
        "`repro.parallel`, ...) — must be dispatched through the "
        "sanctioned `to_thread()`/`to_pool()` shims "
        "(`repro.serve.shims`), never run on the event loop.  Calling "
        "another coroutine is fine; the shims themselves are exempt."
    )

    def _module_has_async(self, info) -> bool:
        return any(s.is_async for s in info.functions.values())

    def _sleep_target(self, info, raw: str) -> bool:
        """True when ``raw`` is ``time.sleep`` (directly or via import)."""
        if raw == "time.sleep":
            return True
        if raw == "sleep":
            return info.imports.get("sleep") == "time.sleep"
        return False

    def _transitive_blocker(self, graph, key: str) -> Optional[str]:
        """Name of blocking work reachable from project function ``key``."""
        for callee in [key] + sorted(graph.transitive_callees(key)):
            if _is_kernel_module(callee.split(":", 1)[0]):
                return callee
            summary = graph.functions.get(callee)
            if summary is None:
                continue
            for site in summary.calls:
                last = _last_name(site.raw)
                if last in _POOL_SUBMIT or site.raw == "time.sleep":
                    return f"{callee} -> {site.raw}"
        return None

    def _classify_call(self, graph, info, call: ast.Call) -> Optional[str]:
        """Finding message for a blocking-position call, or ``None``."""
        raw = _call_raw(call)
        if raw is None:
            return None
        last = _last_name(raw)
        if last in _SANCTIONED:
            return None
        if self._sleep_target(info, raw):
            return (
                f"blocking sleep {raw!r} on the event loop; use "
                "'await asyncio.sleep(...)'"
            )
        if last in _POOL_SUBMIT:
            return (
                f"pool submission {raw!r} on the event loop; route it "
                "through 'await to_pool(...)' (repro.serve.shims)"
            )
        if last in _BLOCKING_IO:
            return (
                f"blocking IO {raw!r} on the event loop; route it through "
                "'await to_thread(...)' (repro.serve.shims)"
            )
        # Resolve project calls through the flow graph.
        resolved = graph.resolve(info.name, raw)
        if resolved is not None:
            summary = graph.functions.get(resolved)
            if summary is not None and summary.is_async:
                return None  # building a coroutine does not block
            module = resolved.split(":", 1)[0]
            if module in _EXEMPT_MODULES:
                return None
            if _is_kernel_module(module):
                return (
                    f"blocking kernel call {raw!r} ({resolved}) on the "
                    "event loop; route it through 'await to_thread(...)' "
                    "(repro.serve.shims)"
                )
            if summary is not None:
                via = self._transitive_blocker(graph, resolved)
                if via is not None:
                    return (
                        f"call {raw!r} reaches blocking work ({via}) on "
                        "the event loop; route it through "
                        "'await to_thread(...)' (repro.serve.shims)"
                    )
            return None
        if isinstance(call.func, ast.Attribute) and last in _KERNEL_METHODS:
            return (
                f"blocking kernel call {raw!r} on the event loop; route it "
                "through 'await to_thread(...)' (repro.serve.shims)"
            )
        return None

    def check_project(self, graph) -> Iterator[Finding]:
        """Scan every coroutine body for un-dispatched blocking calls."""
        for info in sorted(graph.modules.values(), key=lambda m: m.name):
            if not info.name.startswith("repro"):
                continue
            if info.name in _EXEMPT_MODULES:
                continue
            if not self._module_has_async(info):
                continue
            try:
                tree = ast.parse(Path(info.file).read_text(encoding="utf-8"))
            except (OSError, SyntaxError):  # pragma: no cover - parsed already
                continue
            for node in ast.walk(tree):
                if not isinstance(node, ast.AsyncFunctionDef):
                    continue
                awaited: Set[int] = set()
                for sub in _body_walk(node.body):
                    if isinstance(sub, ast.Await) and isinstance(
                        sub.value, ast.Call
                    ):
                        awaited.add(id(sub.value))
                for sub in _body_walk(node.body):
                    if not isinstance(sub, ast.Call) or id(sub) in awaited:
                        continue
                    message = self._classify_call(graph, info, sub)
                    if message is not None:
                        yield Finding(
                            path=info.file,
                            line=sub.lineno,
                            col=sub.col_offset + 1,
                            rule_id=self.id,
                            message=f"in {node.name}: {message}",
                        )


# ---------------------------------------------------------------------------
# RL019 — snapshot escape analysis
# ---------------------------------------------------------------------------


class SnapshotEscapeRule(ProjectRule):
    """RL019 — snapshots crossing the publication boundary are frozen.

    Readers hold published snapshots without any lock, so the only
    thing standing between them and a racing writer is immutability.
    This rule re-parses every module that constructs an
    ``EngineSnapshot`` and proves each construction is wrapped in
    ``freeze_snapshot(...)`` before it is returned or stored: a raw
    (never-frozen) snapshot local that reaches a ``return`` statement,
    an attribute store, or a subscript store escapes the builder still
    writable and is flagged at the escape site.
    """

    id = "RL019"
    tag = "snapshot-escape"
    description = "EngineSnapshot escapes its builder without freeze_snapshot()"
    scope = "project-wide (flow + AST)"
    doc = (
        "Snapshot escape analysis: every `EngineSnapshot(...)` "
        "construction must pass through `freeze_snapshot()` (which sets "
        "the buffers read-only and fires the construct observers, "
        "RL010's runtime hook) before it is returned or stored into an "
        "attribute/container.  Readers dereference published snapshots "
        "without locks; a writable snapshot crossing that boundary is a "
        "data race waiting to happen.  The runtime twin is the "
        "`snapshot` sanitizer (RS006), which fingerprints published "
        "buffers and re-verifies them at reader release."
    )

    _CTOR = "EngineSnapshot"
    _FREEZE = "freeze_snapshot"

    def _mentions_ctor(self, info) -> bool:
        return any(
            _last_name(site.raw) == self._CTOR
            for summary in info.functions.values()
            for site in summary.calls
        )

    def _scan_function(self, func: ast.AST) -> Iterator[Tuple[int, int, str]]:
        """Yield ``(line, col, message)`` escape sites in one function."""
        # Constructions already inside a freeze_snapshot(...) argument
        # subtree are discharged at birth.
        wrapped: Set[int] = set()
        # Names passed to freeze_snapshot anywhere in the body count as
        # discharged (flow-insensitively: the lint is a gate, not a
        # verifier — the RS006 sanitizer covers the residual orderings).
        discharged: Set[str] = set()
        calls: List[ast.Call] = []
        for sub in ast.walk(func):
            if not isinstance(sub, ast.Call):
                continue
            calls.append(sub)
            raw = _call_raw(sub)
            if raw is not None and _last_name(raw) == self._FREEZE:
                for inner in ast.walk(sub):
                    if inner is sub:
                        continue
                    if isinstance(inner, ast.Call):
                        inner_raw = _call_raw(inner)
                        if inner_raw and _last_name(inner_raw) == self._CTOR:
                            wrapped.add(id(inner))
                    if isinstance(inner, ast.Name) and isinstance(
                        inner.ctx, ast.Load
                    ):
                        discharged.add(inner.id)

        def is_raw_ctor(node: ast.AST) -> bool:
            if not isinstance(node, ast.Call) or id(node) in wrapped:
                return False
            raw = _call_raw(node)
            return raw is not None and _last_name(raw) == self._CTOR

        # Locals bound from a raw construction.
        raw_locals: Dict[str, int] = {}
        for sub in ast.walk(func):
            if (
                isinstance(sub, ast.Assign)
                and len(sub.targets) == 1
                and isinstance(sub.targets[0], ast.Name)
                and is_raw_ctor(sub.value)
            ):
                raw_locals[sub.targets[0].id] = sub.lineno

        def is_raw(node: Optional[ast.AST]) -> bool:
            if node is None:
                return False
            if is_raw_ctor(node):
                return True
            return (
                isinstance(node, ast.Name)
                and node.id in raw_locals
                and node.id not in discharged
            )

        for sub in ast.walk(func):
            if isinstance(sub, ast.Return) and is_raw(sub.value):
                yield (
                    sub.lineno,
                    sub.col_offset + 1,
                    "returns an unfrozen EngineSnapshot; wrap the "
                    "construction in freeze_snapshot(...) before it "
                    "crosses the publication boundary",
                )
            elif isinstance(sub, ast.Assign):
                for target in sub.targets:
                    if isinstance(target, (ast.Attribute, ast.Subscript)) and is_raw(
                        sub.value
                    ):
                        yield (
                            sub.lineno,
                            sub.col_offset + 1,
                            "stores an unfrozen EngineSnapshot; wrap the "
                            "construction in freeze_snapshot(...) before "
                            "publishing it",
                        )

    def check_project(self, graph) -> Iterator[Finding]:
        """Escape-check every module that constructs snapshots."""
        for info in sorted(graph.modules.values(), key=lambda m: m.name):
            if not info.name.startswith("repro"):
                continue
            if not self._mentions_ctor(info):
                continue
            try:
                tree = ast.parse(Path(info.file).read_text(encoding="utf-8"))
            except (OSError, SyntaxError):  # pragma: no cover - parsed already
                continue
            for node in ast.walk(tree):
                if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                for line, col, message in self._scan_function(node):
                    yield Finding(
                        path=info.file,
                        line=line,
                        col=col,
                        rule_id=self.id,
                        message=f"in {node.name}: {message}",
                    )


# ---------------------------------------------------------------------------
# RL020 — engine lifecycle typestate
# ---------------------------------------------------------------------------

#: Attribute names that carry the writer epoch.
_EPOCH_ATTRS = frozenset({"epoch", "_epoch"})

#: Methods allowed to (re)initialize the epoch counter.
_EPOCH_INIT_METHODS = frozenset({"__init__", "__new__"})


def _epoch_attr(node: ast.AST) -> bool:
    return isinstance(node, ast.Attribute) and node.attr in _EPOCH_ATTRS


def _positive_const(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Constant)
        and isinstance(node.value, int)
        and not isinstance(node.value, bool)
        and node.value > 0
    )


class _EngineChecker(_FunctionChecker):
    """RL016's interpreter retargeted at the correlation engine.

    Tracked origins: ``"engine"`` (bound from a bare
    ``CorrelationEngine(...)`` call — the ``with`` form is sanctioned
    and untracked) and ``"acquired"`` (a snapshot lease bound from
    ``e.acquire()`` on a tracked engine).  The base machinery supplies
    path enumeration, use-after-close detection and ownership
    transfer; this subclass adds the acquire/release pairing, the
    close obligations, and the writer-epoch monotonicity check.
    """

    def _classify_ctor(self, call: ast.Call) -> Optional[str]:
        callee = call.func
        name = callee.attr if isinstance(callee, ast.Attribute) else (
            callee.id if isinstance(callee, ast.Name) else None
        )
        return "engine" if name == "CorrelationEngine" else None

    def _apply_lifecycle(self, env: _Env, var: str, method: str, line: int) -> None:
        from dataclasses import replace

        state = env.get(var)
        if state is None:
            return
        if method == "close":
            if state.closed:
                self._report(
                    line,
                    f"{state.noun} {var!r} closed more than once on some "
                    f"path (first {state.origin} at line {state.line})",
                )
                return
            env[var] = replace(state, closed=True)
            return
        # abort is not part of the engine protocol; ignore.

    def _check_epoch(self, stmt: ast.stmt) -> None:
        """Writer-epoch monotonicity: only ``epoch += <positive const>``.

        ``__init__``/``__new__`` may seed the counter; everywhere else
        the epoch only moves forward, so readers can order snapshots
        and the RS006 fingerprints key uniquely by (engine, epoch).
        """
        if isinstance(stmt, ast.AugAssign) and _epoch_attr(stmt.target):
            if isinstance(stmt.op, ast.Add) and _positive_const(stmt.value):
                return
            self._report(
                stmt.lineno,
                "writer epoch must only advance by a positive constant "
                "('self._epoch += 1'); non-monotonic epochs break snapshot "
                "ordering and RS006 fingerprint keying",
            )
            return
        if isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                if not _epoch_attr(target):
                    continue
                if self.var_prefix in _EPOCH_INIT_METHODS:
                    return  # constructors seed the counter
                value = stmt.value
                if (
                    isinstance(value, ast.BinOp)
                    and isinstance(value.op, ast.Add)
                    and _epoch_attr(value.left)
                    and _positive_const(value.right)
                ):
                    return
                self._report(
                    stmt.lineno,
                    "writer epoch assigned from an arbitrary expression; "
                    "outside __init__ the epoch only advances "
                    "('self._epoch += 1') so snapshot ordering and RS006 "
                    "fingerprint keys stay unique",
                )

    def _finish_path(self, env: _Env) -> None:
        for var, state in env.items():
            if state.origin == "acquired" and not state.closed:
                self._report(
                    state.line,
                    f"snapshot lease {var!r} acquired at line {state.line} "
                    "is not released on every path; pair each acquire() "
                    "with release() (or query through the engine helpers)",
                )
            elif state.origin == "engine" and not state.closed:
                self._report(
                    state.line,
                    f"engine {var!r} constructed at line {state.line} is "
                    "not closed on every path; use the context-manager "
                    "form or add close()",
                )

    def _exec_stmt(self, stmt: ast.stmt, env: _Env) -> List[_Path]:
        self._check_epoch(stmt)
        # ``lease = engine.acquire()`` on a tracked engine starts a
        # release obligation; ``engine.release(lease)`` discharges it
        # through the base interpreter's ownership-transfer scan.
        if (
            isinstance(stmt, ast.Assign)
            and len(stmt.targets) == 1
            and isinstance(stmt.targets[0], ast.Name)
            and isinstance(stmt.value, ast.Call)
            and isinstance(stmt.value.func, ast.Attribute)
            and stmt.value.func.attr == "acquire"
            and isinstance(stmt.value.func.value, ast.Name)
        ):
            receiver = env.get(stmt.value.func.value.id)
            if receiver is not None and receiver.origin == "engine":
                if receiver.closed:
                    self._report(
                        stmt.lineno,
                        f"acquire() on engine "
                        f"{stmt.value.func.value.id!r} after close "
                        "(use after free)",
                    )
                self._scan_uses(stmt.value, env)
                env[stmt.targets[0].id] = _SegState("acquired", stmt.lineno)
                return [(env, None)]
        return super()._exec_stmt(stmt, env)


class EngineLifecycleRule(ProjectRule):
    """RL020 — engine/lease lifecycle obligations hold on all paths.

    Modules that construct (or define) ``CorrelationEngine`` are
    re-parsed and every function runs through :class:`_EngineChecker`:
    a bare-bound engine must be closed (or ownership transferred) on
    every path, every ``acquire()`` must be matched by a ``release()``
    on every path, nothing is called on a closed engine, and the
    writer epoch only ever advances by a positive constant outside
    ``__init__``.  The ``with CorrelationEngine(...)`` form is the
    sanctioned idiom and carries no obligations.
    """

    id = "RL020"
    tag = "engine-lifecycle"
    description = "engine/snapshot-lease lifecycle violated on some path"
    scope = "project-wide (flow + AST paths)"
    doc = (
        "Engine lifecycle typestate (extends RL016's path-sensitive "
        "interpreter): every bare `CorrelationEngine(...)` binding must "
        "reach `close()` on every path (or transfer ownership), every "
        "snapshot lease from `acquire()` must reach `release()` on the "
        "same path, no call may land on a closed engine (use after "
        "free), and the writer epoch only advances by a positive "
        "constant (`self._epoch += 1`) outside `__init__`.  The "
        "runtime twin is the `snapshot` sanitizer (RS006), which traps "
        "lease faults and verifies outstanding leases at end of run."
    )

    _CTOR = "CorrelationEngine"

    def _mentions_engine(self, info) -> bool:
        if self._CTOR in info.classes:
            return True  # the defining module checks its own methods
        return any(
            _last_name(site.raw) == self._CTOR
            for summary in info.functions.values()
            for site in summary.calls
        )

    def check_project(self, graph) -> Iterator[Finding]:
        """Typestate-check every module that touches the engine."""
        for info in sorted(graph.modules.values(), key=lambda m: m.name):
            if not info.name.startswith("repro"):
                continue
            if not self._mentions_engine(info):
                continue
            try:
                tree = ast.parse(Path(info.file).read_text(encoding="utf-8"))
            except (OSError, SyntaxError):  # pragma: no cover - parsed already
                continue
            for node in ast.walk(tree):
                if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                checker = _EngineChecker(node, node.name)
                for line, message in checker.run():
                    yield Finding(
                        path=info.file,
                        line=line,
                        col=1,
                        rule_id=self.id,
                        message=f"in {node.name}: {message}",
                    )
