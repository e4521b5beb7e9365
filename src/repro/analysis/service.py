"""Streaming-service engine lifecycle rule (RL020).

The long-running correlation service (:mod:`repro.serve`) hands
concurrent reader threads epoch-numbered snapshot leases.
:class:`EngineLifecycleRule` extends RL016's path-sensitive interpreter
to the engine's typestate: snapshot leases acquired on a path are
released on that path, engines are closed (or ownership transferred),
nothing is used after close, and the writer epoch only ever moves
forward by a positive constant.

Snapshot immutability needs no rule: an
:class:`~repro.serve.snapshot.EngineSnapshot` freezes its buffers on
construction, so a write into one raises at the write.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional

from .concurrency import (
    _Env,
    _FunctionChecker,
    _Path,
    _SegState,
    calls_named,
    typestate_findings,
)
from .engine import FileContext, Finding, Rule

__all__ = ["EngineLifecycleRule"]


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
        and lease counts key uniquely by epoch.
        """
        if isinstance(stmt, ast.AugAssign) and _epoch_attr(stmt.target):
            if isinstance(stmt.op, ast.Add) and _positive_const(stmt.value):
                return
            self._report(
                stmt.lineno,
                "writer epoch must only advance by a positive constant "
                "('self._epoch += 1'); non-monotonic epochs break snapshot "
                "ordering and per-epoch lease keying",
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
                    "('self._epoch += 1') so snapshot ordering and "
                    "per-epoch lease keys stay unique",
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


class EngineLifecycleRule(Rule):
    """RL020 — engine/lease lifecycle obligations hold on all paths.

    In every ``repro`` module that constructs (or defines)
    ``CorrelationEngine``, each function runs through :class:`_EngineChecker`:
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
    scope = "modules defining or calling `CorrelationEngine` (AST paths)"
    doc = (
        "Engine lifecycle typestate (extends RL016's path-sensitive "
        "interpreter): every bare `CorrelationEngine(...)` binding must "
        "reach `close()` on every path (or transfer ownership), every "
        "snapshot lease from `acquire()` must reach `release()` on the "
        "same path, no call may land on a closed engine (use after "
        "free), and the writer epoch only advances by a positive "
        "constant (`self._epoch += 1`) outside `__init__`.  At runtime "
        "an over-release raises `ValueError` and "
        "`outstanding_leases()` reports leases still held."
    )

    _CTOR = "CorrelationEngine"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        """Typestate-check a module that defines or builds the engine."""
        if not ctx.in_package("repro"):
            return
        defines = any(
            isinstance(stmt, ast.ClassDef) and stmt.name == self._CTOR
            for stmt in ctx.tree.body
        )
        if defines or calls_named(ctx.tree, self._CTOR):
            yield from typestate_findings(self, ctx, _EngineChecker)
