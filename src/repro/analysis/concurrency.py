"""Path-sensitive lifecycle typestate (RL016) for columnar spill writers.

**RL016** (writer-lifecycle) runs each function of every module that
calls :class:`repro.hypersparse.spill.ColumnarWriter` through a
path-sensitive interpreter: each bare-bound writer must reach ``close()`` or
``abort()`` on every path, and nothing may use it after that.
Ownership transfers (the writer is returned, stored into a
container/attribute, or handed to another function) end the local
obligation.  The ``with`` form manages itself and is not tracked.

The interpreter (:class:`_FunctionChecker`, :class:`_SegState`) is also
the base of RL020's engine/lease checker in :mod:`repro.analysis.service`.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, replace
from typing import Dict, Iterator, List, Optional, Tuple, Type

from .engine import FileContext, Finding, Rule

__all__ = ["WriterLifecycleRule", "calls_named", "typestate_findings"]

#: Path explosion bound for the RL016 interpreter: beyond this many
#: simultaneous abstract paths a function is too branchy to enumerate
#: and the extra paths are dropped.
_MAX_PATHS = 128


@dataclass(frozen=True)
class _SegState:
    """Abstract lifecycle state of one tracked resource binding.

    A columnar run writer has origin ``"opened"`` and is discharged by
    ``close()`` or ``abort()``; the engine checker in
    :mod:`repro.analysis.service` adds ``"engine"`` and ``"acquired"``.
    """

    origin: str  #: a key of :data:`_ORIGIN_NOUNS`
    line: int  #: binding site (for messages)
    closed: bool = False

    @property
    def noun(self) -> str:
        """What to call this resource in findings."""
        return _ORIGIN_NOUNS[self.origin]


#: Finding noun per lifecycle origin.
_ORIGIN_NOUNS = {
    "opened": "writer",
    "engine": "engine",
    "acquired": "snapshot lease",
}


#: One abstract path: local variable name -> lifecycle state.
_Env = Dict[str, _SegState]

#: A path paired with how it left the current block: ``None`` (falls
#: through), ``"function"`` (return/raise — unwinds every enclosing
#: ``finally`` before the end-of-function obligations are checked) or
#: ``"loop"`` (break/continue — absorbed by the nearest loop).
_Path = Tuple[_Env, Optional[str]]


class _FunctionChecker:
    """Path-sensitive interpreter for one function body (RL016 core).

    Executes the statement list over a set of abstract environments —
    one per feasible branch combination — tracking every local bound
    directly from a ``ColumnarWriter(...)`` call.  Escapes (the variable
    is returned, aliased, stored into a container/attribute, or passed
    to another callable) transfer ownership and end the obligation.
    """

    def __init__(self, func: ast.AST, var_prefix: str) -> None:
        self.func = func
        self.var_prefix = var_prefix  # qualname, for messages
        #: (line, message) pairs, deduplicated across paths.
        self.findings: Dict[Tuple[int, str], None] = {}

    # -- event helpers ---------------------------------------------------

    def _report(self, line: int, message: str) -> None:
        self.findings[(line, message)] = None

    def _classify_ctor(self, call: ast.Call) -> Optional[str]:
        """Lifecycle origin of a tracked-resource constructor call."""
        callee = call.func
        name = callee.attr if isinstance(callee, ast.Attribute) else (
            callee.id if isinstance(callee, ast.Name) else None
        )
        return "opened" if name == "ColumnarWriter" else None

    def _scan_uses(self, node: Optional[ast.AST], env: _Env) -> None:
        """Flag loads of closed resources; untrack variables that escape.

        ``x.close()`` / ``x.abort()`` receivers are handled by the
        statement walker before this runs, so every remaining load of a
        closed resource is a genuine use-after-free.  A tracked
        name passed bare into a call, stored, or aliased is an
        ownership transfer: the obligation moves with it.
        """
        if node is None:
            return
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                state = env.get(sub.id)
                if state is None:
                    continue
                if state.closed:
                    self._report(
                        sub.lineno,
                        f"{state.noun} {sub.id!r} ({state.origin} at line "
                        f"{state.line}) referenced after close "
                        "(use after free)",
                    )
            if isinstance(sub, ast.Call):
                for arg in list(sub.args) + [kw.value for kw in sub.keywords]:
                    if isinstance(arg, ast.Name) and arg.id in env:
                        env.pop(arg.id)  # ownership handed to the callee

    def _finish_path(self, env: _Env) -> None:
        """End-of-path obligations for every still-tracked variable."""
        for var, state in env.items():
            if state.origin == "opened" and not state.closed:
                self._report(
                    state.line,
                    f"writer {var!r} opened at line {state.line} is not "
                    "closed or aborted on every path (leaked temporaries); "
                    "use the context-manager form or add close()/abort()",
                )

    # -- statement execution ---------------------------------------------

    def _lifecycle_call(self, stmt: ast.stmt) -> Optional[Tuple[str, str, int]]:
        """``(var, method, line)`` for a bare lifecycle-method statement."""
        if not (isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Call)):
            return None
        call = stmt.value
        if (
            isinstance(call.func, ast.Attribute)
            and isinstance(call.func.value, ast.Name)
            and call.func.attr in ("close", "abort")
        ):
            return call.func.value.id, call.func.attr, stmt.lineno
        return None

    def _apply_lifecycle(self, env: _Env, var: str, method: str, line: int) -> None:
        state = env.get(var)
        if state is not None:
            env[var] = replace(state, closed=True)

    def _exec_stmt(self, stmt: ast.stmt, env: _Env) -> List[_Path]:
        lifecycle = self._lifecycle_call(stmt)
        if lifecycle is not None:
            self._apply_lifecycle(env, *lifecycle)
            return [(env, None)]

        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
            target = stmt.targets[0]
            value = stmt.value
            if isinstance(target, ast.Name):
                if isinstance(value, ast.Call):
                    origin = self._classify_ctor(value)
                    self._scan_uses(value, env)
                    if origin is not None:
                        env[target.id] = _SegState(origin, stmt.lineno)
                    else:
                        env.pop(target.id, None)  # rebound to something else
                    return [(env, None)]
                if isinstance(value, ast.Name) and value.id in env:
                    # Alias: two names, one obligation — stand down.
                    env.pop(value.id)
                    env.pop(target.id, None)
                    return [(env, None)]
                self._scan_uses(value, env)
                env.pop(target.id, None)
                return [(env, None)]
            # Store into a subscript/attribute: publishing a tracked
            # value transfers ownership to the receiving structure.
            if isinstance(value, ast.Name) and value.id in env:
                env.pop(value.id)
                return [(env, None)]
            self._scan_uses(value, env)
            self._scan_uses(target, env)
            return [(env, None)]

        if isinstance(stmt, (ast.Return, ast.Raise)):
            if isinstance(stmt, ast.Return) and isinstance(stmt.value, ast.Name):
                env.pop(stmt.value.id, None)  # ownership follows the return
            self._scan_uses(
                stmt.value if isinstance(stmt, ast.Return) else stmt.exc, env
            )
            # Obligations are NOT checked here: enclosing ``finally``
            # blocks still run on the way out and may discharge them.
            return [(env, "function")]

        if isinstance(stmt, (ast.Break, ast.Continue)):
            return [(env, "loop")]

        if isinstance(stmt, ast.If):
            self._scan_uses(stmt.test, env)
            return self._exec_block(stmt.body, dict(env)) + self._exec_block(
                stmt.orelse, dict(env)
            )

        if isinstance(stmt, (ast.For, ast.While, ast.AsyncFor)):
            if isinstance(stmt, ast.While):
                self._scan_uses(stmt.test, env)
            else:
                self._scan_uses(stmt.iter, env)
            # Zero or one abstract iteration covers the lifecycle
            # obligations without enumerating loop counts; break/continue
            # exits resume after the loop.
            once = self._exec_block(list(stmt.body) + list(stmt.orelse), dict(env))
            skip = self._exec_block(stmt.orelse, dict(env))
            return [
                (e, None if kind == "loop" else kind) for e, kind in once + skip
            ]

        if isinstance(stmt, ast.Try):
            after_body = self._exec_block(
                list(stmt.body) + list(stmt.orelse), dict(env)
            )
            # Handler paths start from the pre-state: the exception may
            # have fired before any body statement completed.
            handler_paths: List[_Path] = []
            for handler in stmt.handlers:
                handler_paths.extend(self._exec_block(handler.body, dict(env)))
            # Every exit — fall-through, return/raise, break — unwinds
            # through ``finally`` first; the exit kind survives it.
            merged: List[_Path] = []
            for path_env, kind in after_body + handler_paths:
                for out_env, out_kind in self._exec_block(stmt.finalbody, path_env):
                    merged.append((out_env, out_kind or kind))
            return merged

        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                self._scan_uses(item.context_expr, env)
            return self._exec_block(stmt.body, env)

        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            return [(env, None)]  # nested scopes are checked separately

        self._scan_uses(stmt, env)
        return [(env, None)]

    def _exec_block(self, stmts: List[ast.stmt], env: _Env) -> List[_Path]:
        paths: List[_Path] = [(env, None)]
        for stmt in stmts:
            nxt: List[_Path] = []
            for e, kind in paths:
                if kind is not None:
                    nxt.append((e, kind))  # already left this block
                else:
                    nxt.extend(self._exec_stmt(stmt, e))
            paths = nxt[:_MAX_PATHS]
        return paths

    def run(self) -> List[Tuple[int, str]]:
        """Execute the function; returns (line, message) findings."""
        body = getattr(self.func, "body", [])
        for env, _ in self._exec_block(list(body), {}):
            self._finish_path(env)
        return sorted(self.findings)


def calls_named(tree: ast.AST, name: str) -> bool:
    """True when ``tree`` calls ``name`` bare or as ``a.b.name``."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        base = node.func
        while isinstance(base, ast.Attribute):
            base = base.value
        if not isinstance(base, ast.Name):
            continue  # computed callee: nothing static to say
        func = node.func
        if (func.attr if isinstance(func, ast.Attribute) else func.id) == name:
            return True
    return False


def typestate_findings(
    rule: Rule, ctx: FileContext, checker: Type[_FunctionChecker]
) -> Iterator[Finding]:
    """Run ``checker`` over every function of ``ctx``; one finding per fault."""
    for node in ast.walk(ctx.tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for line, message in checker(node, node.name).run():
            yield Finding(
                path=str(ctx.path),
                line=line,
                col=1,
                rule_id=rule.id,
                message=f"in {node.name}: {message}",
            )


class WriterLifecycleRule(Rule):
    """RL016 — columnar writers are closed or aborted on every path.

    In every ``repro`` module that calls ``ColumnarWriter``, each
    function body runs through :class:`_FunctionChecker`, a
    path-sensitive abstract interpreter over the typestate
    ``opened -> closed``.  Branches, loops (zero-or-one abstract
    iterations), ``try``/``finally`` and early returns are enumerated
    path by path; a violation on *any* feasible path is reported.
    """

    id = "RL016"
    tag = "writer-lifecycle"
    description = "ColumnarWriter not closed or aborted on every path"
    scope = "modules calling `ColumnarWriter` (AST paths)"
    doc = (
        "Columnar-writer lifecycle typestate: on every path through a "
        "function, a bare `ColumnarWriter(...)` binding must reach "
        "`close()` or `abort()`, and nothing may use it afterwards (use "
        "after free).  A leaked writer leaves its staged `.tmp` sidecars "
        "next to the run file.  Transferring ownership — returning the "
        "writer, storing it, or passing it to another function — moves "
        "the obligation with it; the `with` form is never tracked."
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        """Typestate-check a module that builds a ColumnarWriter."""
        if ctx.in_package("repro") and calls_named(ctx.tree, "ColumnarWriter"):
            yield from typestate_findings(self, ctx, _FunctionChecker)
