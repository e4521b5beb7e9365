"""Project-wide dataflow analysis for repro-lint.

The per-file rules (RL001–RL003, RL006–RL008, RL011, RL012) reason about
one AST at a time.  The rules this module enables — fork-safety of pool workers (RL009),
immutability of canonical matrix fields (RL010) — need *whole-program*
facts: who calls whom across modules, what a function (and everything it
transitively calls) mutates, which classes own which fields.

This module builds that picture in three layers:

* :class:`ModuleInfo` — one per parsed file: the dotted module name, the
  import table (with relative imports resolved against the package
  position, so ``from ..obs.spans import span`` inside
  ``repro.parallel.pool`` maps ``span`` to ``repro.obs.spans.span``),
  module-level globals, module-level *resource* bindings (open handles,
  pools, RNGs), and a :class:`FunctionSummary` per function/method plus
  one ``<module>`` pseudo-summary for top-level code.
* :class:`FunctionSummary` — flow-insensitive effect summary of one
  function: calls made (with callable-argument descriptors, so a worker
  passed through ``functools.partial`` is still traceable), global
  reads/writes, environment reads, attribute/element mutations, and the
  local aliases needed to chase ``worker = partial(f, x)`` back to ``f``.
* :class:`FlowGraph` — the project: name resolution across import and
  re-export chains (bounded depth, so import cycles terminate), direct
  and transitive callees (cycle-safe BFS), and class lookups by name.

Everything here is a *summary*, not an interpreter: flow-insensitive,
path-insensitive, no inheritance resolution.  Rules built on it accept
that precision level and keep an allowlist escape hatch for the cases
static reasoning cannot see.

Nested functions and lambdas fold their effects into the enclosing
function's summary and are recorded as ``<nested>``/``<lambda>``
callable bindings — they are not independently callable across the
project (and not picklable, which RL009 exploits).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Set, Tuple

from .engine import FileContext

__all__ = [
    "CallSite",
    "Mutation",
    "EnvRead",
    "FunctionSummary",
    "ClassInfo",
    "ModuleInfo",
    "FlowGraph",
    "build_flow_graph",
    "dotted_name",
    "ARRAY_MUTATORS",
    "CONTAINER_MUTATORS",
]

#: ndarray methods that mutate their receiver in place.
ARRAY_MUTATORS: FrozenSet[str] = frozenset(
    {"sort", "fill", "put", "resize", "partition", "itemset", "setflags", "byteswap"}
)

#: Container methods that mutate their receiver in place.
CONTAINER_MUTATORS: FrozenSet[str] = frozenset(
    {
        "append",
        "extend",
        "insert",
        "remove",
        "add",
        "discard",
        "update",
        "setdefault",
        "pop",
        "popitem",
        "clear",
        "appendleft",
    }
)

_ALL_MUTATORS = ARRAY_MUTATORS | CONTAINER_MUTATORS

#: Module-level bindings of these callables are fork-unsafe resources:
#: they capture OS state (descriptors, process handles, RNG streams)
#: that must not be inherited silently across ``fork``.
_RESOURCE_KINDS = {
    "open": "handle",
    "get_pool": "pool",
    "Pool": "pool",
    "ThreadPool": "pool",
    "ProcessPoolExecutor": "pool",
    "ThreadPoolExecutor": "pool",
    "default_rng": "rng",
    "RandomState": "rng",
    "Random": "rng",
    "Generator": "rng",
    "PCG64": "rng",
    "SeedSequence": "rng",
    # Out-of-core columnar runs (repro.hypersparse.spill): writers hold
    # open descriptors, stores own spill directories, and memory maps
    # pin file pages — none may be inherited silently across fork, and
    # writer lifecycles are typestate-checked by RL016.
    "ColumnarWriter": "handle",
    "SpillStore": "handle",
    "memmap": "handle",
}

#: Decorators marking a method as a property (field-like attribute).
_PROPERTY_DECORATORS = {"property", "cached_property", "functools.cached_property"}

_MAX_RESOLVE_DEPTH = 10


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = dotted_name(node.value)
        return f"{base}.{node.attr}" if base else None
    return None


def _callable_descriptor(node: ast.AST) -> Optional[str]:
    """How an expression names a callable, for later resolution.

    Returns the dotted name for name/attribute expressions, the sentinel
    ``"<lambda>"`` for lambdas, and chases ``functools.partial(f, ...)``
    to ``f``'s descriptor.  Anything else (a computed callable) is None.
    """
    if isinstance(node, ast.Lambda):
        return "<lambda>"
    dotted = dotted_name(node)
    if dotted:
        return dotted
    if isinstance(node, ast.Call):
        fn = dotted_name(node.func)
        if fn in ("partial", "functools.partial") and node.args:
            return _callable_descriptor(node.args[0])
    return None


@dataclass(frozen=True)
class CallSite:
    """One call expression inside a function body."""

    raw: str  #: callee as written (``"np.sort"``, ``"self._merge"``)
    lineno: int
    col: int
    #: Callable descriptor per positional argument (None when the
    #: argument is not a recognizable callable expression).
    args: Tuple[Optional[str], ...] = ()


@dataclass(frozen=True)
class Mutation:
    """One in-place mutation of an attribute chain or container."""

    target: str  #: dotted receiver (``"out.vals"``, ``"self._keys"``)
    kind: str  #: ``"call:<method>"``, ``"subscript-assign"``, ``"augassign"``, ``"attr-assign"``
    lineno: int
    col: int


@dataclass(frozen=True)
class EnvRead:
    """One read of ``os.environ`` (key is None when not a literal)."""

    key: Optional[str]
    lineno: int
    col: int


@dataclass
class FunctionSummary:
    """Flow-insensitive effect summary of one function or method.

    Effects of nested functions and lambdas are folded in: they execute
    (if at all) within this function's dynamic extent, and RL-rule
    questions ("does anything reachable from here mutate a global?")
    want the conservative union.
    """

    module: str  #: dotted module name (``"repro.hypersparse.coo"``)
    qual: str  #: in-module qualname (``"foo"``, ``"Cls.meth"``, ``"<module>"``)
    name: str
    lineno: int
    cls: Optional[str] = None  #: enclosing class name for methods
    calls: List[CallSite] = field(default_factory=list)
    global_declared: Set[str] = field(default_factory=set)
    #: module-global name -> first line that writes (rebinds or mutates) it
    global_writes: Dict[str, int] = field(default_factory=dict)
    global_reads: Set[str] = field(default_factory=set)
    env_reads: List[EnvRead] = field(default_factory=list)
    mutations: List[Mutation] = field(default_factory=list)
    #: local name -> callable descriptor it was bound to (alias chasing)
    local_callables: Dict[str, str] = field(default_factory=dict)
    #: locals bound from a ``Cls.__new__(...)`` call (sanctioned
    #: construction sites for RL010's attribute-rebind check)
    new_locals: Set[str] = field(default_factory=set)
    #: every Name loaded anywhere in the body (global-read candidates)
    names_read: Set[str] = field(default_factory=set)
    #: parameters plus locally-bound names (shadow module globals)
    local_names: Set[str] = field(default_factory=set)

    @property
    def key(self) -> str:
        """Project-wide key: ``"<module>:<qual>"``."""
        return f"{self.module}:{self.qual}"


@dataclass
class ClassInfo:
    """Field and method inventory of one class definition."""

    module: str
    name: str
    lineno: int
    slots: Tuple[str, ...] = ()
    properties: Tuple[str, ...] = ()
    methods: Tuple[str, ...] = ()
    bases: Tuple[str, ...] = ()

    @property
    def key(self) -> str:
        """Project-wide key: ``"<module>:<ClassName>"``."""
        return f"{self.module}:{self.name}"

    @property
    def fields(self) -> FrozenSet[str]:
        """Declared storage: ``__slots__`` plus property names."""
        return frozenset(self.slots) | frozenset(self.properties)


@dataclass
class ModuleInfo:
    """Whole-module facts extracted from one parsed file."""

    name: str  #: dotted module name
    path: str  #: package-anchored posix path (``"repro/d4m/ops.py"``)
    file: str  #: real path as linted (finding anchor)
    is_package: bool = False
    #: local binding -> absolute dotted target (relative imports resolved)
    imports: Dict[str, str] = field(default_factory=dict)
    module_globals: Set[str] = field(default_factory=set)
    #: module-level resource bindings: name -> (kind, lineno)
    resources: Dict[str, Tuple[str, int]] = field(default_factory=dict)
    functions: Dict[str, FunctionSummary] = field(default_factory=dict)
    classes: Dict[str, ClassInfo] = field(default_factory=dict)


def _module_name(module_path: str) -> str:
    """Dotted module name from a package-anchored path."""
    p = module_path
    if p.endswith(".py"):
        p = p[: -len(".py")]
    if p.endswith("/__init__"):
        p = p[: -len("/__init__")]
    return p.replace("/", ".")


def _resolve_relative(module: ModuleInfo, level: int, target: Optional[str]) -> Optional[str]:
    """Absolute dotted base for a ``from``-import of the given level."""
    if level == 0:
        return target
    # The reference package: the module itself if it is a package
    # (__init__.py), else its parent; each further level strips one.
    parts = module.name.split(".")
    if not module.is_package:
        parts = parts[:-1]
    parts = parts[: len(parts) - (level - 1)]
    if len(parts) < 1 or (level > 1 and not parts):
        return None
    base = ".".join(parts)
    if not base:
        return None
    return f"{base}.{target}" if target else base


class _Summarizer(ast.NodeVisitor):
    """Collects a :class:`FunctionSummary` over one function body."""

    def __init__(self, summary: FunctionSummary) -> None:
        self.s = summary

    # -- helpers ---------------------------------------------------------

    def _bind_local(self, name: str) -> None:
        if name not in self.s.global_declared:
            self.s.local_names.add(name)

    def _record_target(self, target: ast.expr, lineno: int, col: int, aug: bool) -> None:
        if isinstance(target, ast.Name):
            if target.id in self.s.global_declared:
                self.s.global_writes.setdefault(target.id, lineno)
            else:
                self._bind_local(target.id)
            return
        if isinstance(target, ast.Attribute):
            dotted = dotted_name(target)
            if dotted:
                kind = "augassign" if aug else "attr-assign"
                self.s.mutations.append(Mutation(dotted, kind, lineno, col))
            return
        if isinstance(target, ast.Subscript):
            dotted = dotted_name(target.value)
            if dotted:
                kind = "augassign" if aug else "subscript-assign"
                self.s.mutations.append(Mutation(dotted, kind, lineno, col))
            return
        if isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._record_target(elt, lineno, col, aug)
        if isinstance(target, ast.Starred):
            self._record_target(target.value, lineno, col, aug)

    # -- statements ------------------------------------------------------

    def visit_Global(self, node: ast.Global) -> None:
        self.s.global_declared.update(node.names)

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._record_target(target, node.lineno, node.col_offset + 1, aug=False)
        if len(node.targets) == 1 and isinstance(node.targets[0], ast.Name):
            name = node.targets[0].id
            desc = _callable_descriptor(node.value)
            if desc:
                self.s.local_callables[name] = desc
            if isinstance(node.value, ast.Call):
                fn = dotted_name(node.value.func)
                if fn and fn.endswith(".__new__"):
                    self.s.new_locals.add(name)
        self.visit(node.value)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self._record_target(node.target, node.lineno, node.col_offset + 1, aug=False)
            self.visit(node.value)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._record_target(node.target, node.lineno, node.col_offset + 1, aug=True)
        self.visit(node.value)

    def visit_For(self, node: ast.For) -> None:
        self._record_target(node.target, node.lineno, node.col_offset + 1, aug=False)
        self.visit(node.iter)
        for stmt in node.body + node.orelse:
            self.visit(stmt)

    visit_AsyncFor = visit_For  # type: ignore[assignment]

    def visit_withitem(self, node: ast.withitem) -> None:
        if node.optional_vars is not None:
            self._record_target(
                node.optional_vars, node.context_expr.lineno, 0, aug=False
            )
        self.visit(node.context_expr)

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        # Nested def: not independently resolvable (and not picklable);
        # fold its effects in and remember the binding kind.
        self.s.local_callables[node.name] = "<nested>"
        self._bind_local(node.name)
        for arg in _all_args(node.args):
            self._bind_local(arg)
        for stmt in node.body:
            self.visit(stmt)
        for dec in node.decorator_list:
            self.visit(dec)

    visit_AsyncFunctionDef = visit_FunctionDef  # type: ignore[assignment]

    def visit_Lambda(self, node: ast.Lambda) -> None:
        for arg in _all_args(node.args):
            self._bind_local(arg)
        self.visit(node.body)

    def visit_comprehension(self, node: ast.comprehension) -> None:
        self._record_target(node.target, getattr(node.target, "lineno", 0), 0, aug=False)
        self.visit(node.iter)
        for if_ in node.ifs:
            self.visit(if_)

    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        if node.name:
            self._bind_local(node.name)
        for stmt in node.body:
            self.visit(stmt)

    # -- expressions -----------------------------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        raw = dotted_name(node.func) or ""
        if raw:
            args = tuple(_callable_descriptor(a) for a in node.args)
            self.s.calls.append(
                CallSite(raw, node.lineno, node.col_offset + 1, args)
            )
            if raw in ("os.getenv", "os.environ.get", "environ.get"):
                key = None
                if node.args and isinstance(node.args[0], ast.Constant):
                    if isinstance(node.args[0].value, str):
                        key = node.args[0].value
                self.s.env_reads.append(
                    EnvRead(key, node.lineno, node.col_offset + 1)
                )
            if isinstance(node.func, ast.Attribute):
                if node.func.attr in _ALL_MUTATORS:
                    target = dotted_name(node.func.value)
                    if target:
                        self.s.mutations.append(
                            Mutation(
                                target,
                                f"call:{node.func.attr}",
                                node.lineno,
                                node.col_offset + 1,
                            )
                        )
        self.generic_visit(node)

    def visit_Subscript(self, node: ast.Subscript) -> None:
        if isinstance(node.ctx, ast.Load):
            dotted = dotted_name(node.value)
            if dotted in ("os.environ", "environ"):
                key = None
                if isinstance(node.slice, ast.Constant) and isinstance(
                    node.slice.value, str
                ):
                    key = node.slice.value
                self.s.env_reads.append(
                    EnvRead(key, node.lineno, node.col_offset + 1)
                )
        self.generic_visit(node)

    def visit_Name(self, node: ast.Name) -> None:
        if isinstance(node.ctx, ast.Load):
            self.s.names_read.add(node.id)


def _all_args(args: ast.arguments) -> Iterator[str]:
    for group in (args.posonlyargs, args.args, args.kwonlyargs):
        for a in group:
            yield a.arg
    if args.vararg:
        yield args.vararg.arg
    if args.kwarg:
        yield args.kwarg.arg


def _summarize_function(
    node: ast.FunctionDef, module: str, qual: str, cls: Optional[str]
) -> FunctionSummary:
    summary = FunctionSummary(
        module=module,
        qual=qual,
        name=node.name,
        lineno=node.lineno,
        cls=cls,
    )
    visitor = _Summarizer(summary)
    for arg in _all_args(node.args):
        summary.local_names.add(arg)
    for stmt in node.body:
        visitor.visit(stmt)
    for dec in node.decorator_list:
        visitor.visit(dec)
    return summary


def _class_info(node: ast.ClassDef, module: str) -> ClassInfo:
    slots: Tuple[str, ...] = ()
    properties: List[str] = []
    methods: List[str] = []
    for stmt in node.body:
        if isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                if isinstance(target, ast.Name) and target.id == "__slots__":
                    if isinstance(stmt.value, (ast.Tuple, ast.List, ast.Set)):
                        slots = tuple(
                            e.value
                            for e in stmt.value.elts
                            if isinstance(e, ast.Constant) and isinstance(e.value, str)
                        )
                    elif isinstance(stmt.value, ast.Constant) and isinstance(
                        stmt.value.value, str
                    ):
                        slots = (stmt.value.value,)
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            methods.append(stmt.name)
            for dec in stmt.decorator_list:
                if (dotted_name(dec) or "") in _PROPERTY_DECORATORS:
                    properties.append(stmt.name)
    bases = tuple(filter(None, (dotted_name(b) for b in node.bases)))
    return ClassInfo(
        module=module,
        name=node.name,
        lineno=node.lineno,
        slots=slots,
        properties=tuple(properties),
        methods=tuple(methods),
        bases=bases,
    )


def _analyze_module(ctx: FileContext) -> ModuleInfo:
    name = _module_name(ctx.module)
    info = ModuleInfo(
        name=name,
        path=ctx.module,
        file=str(ctx.path),
        is_package=ctx.module.endswith("__init__.py"),
    )
    top = FunctionSummary(module=name, qual="<module>", name="<module>", lineno=1)
    top_visitor = _Summarizer(top)

    for stmt in ctx.tree.body:
        if isinstance(stmt, ast.Import):
            for alias in stmt.names:
                local = alias.asname or alias.name.split(".")[0]
                target = alias.name if alias.asname else alias.name.split(".")[0]
                info.imports[local] = target
        elif isinstance(stmt, ast.ImportFrom):
            base = _resolve_relative(info, stmt.level, stmt.module)
            if base is None:
                continue
            for alias in stmt.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                info.imports[local] = f"{base}.{alias.name}"
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            info.functions[stmt.name] = _summarize_function(
                stmt, name, stmt.name, cls=None
            )
            info.module_globals.discard(stmt.name)
        elif isinstance(stmt, ast.ClassDef):
            cls = _class_info(stmt, name)
            info.classes[stmt.name] = cls
            for member in stmt.body:
                if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    qual = f"{stmt.name}.{member.name}"
                    info.functions[qual] = _summarize_function(
                        member, name, qual, cls=stmt.name
                    )
        else:
            # Top-level executable code: globals, resources, effects.
            if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = (
                    stmt.targets
                    if isinstance(stmt, ast.Assign)
                    else [stmt.target]
                )
                for target in targets:
                    for node in ast.walk(target):
                        if isinstance(node, ast.Name) and isinstance(
                            node.ctx, ast.Store
                        ):
                            info.module_globals.add(node.id)
                value = stmt.value
                if (
                    value is not None
                    and isinstance(value, ast.Call)
                    and len(targets) == 1
                    and isinstance(targets[0], ast.Name)
                ):
                    fn = dotted_name(value.func) or ""
                    kind = _RESOURCE_KINDS.get(fn.rsplit(".", 1)[-1])
                    if kind:
                        info.resources[targets[0].id] = (kind, stmt.lineno)
            top_visitor.visit(stmt)

    info.functions["<module>"] = top

    # Second pass: classify global reads/writes now that the module's
    # global set is known.  A mutation of a module global counts as a
    # write even without a ``global`` declaration (no rebinding needed).
    for summary in info.functions.values():
        is_top = summary.qual == "<module>"
        for mut in summary.mutations:
            base = mut.target.split(".")[0]
            if base in info.module_globals and (
                is_top or base not in summary.local_names
            ):
                summary.global_writes.setdefault(base, mut.lineno)
        candidates = summary.names_read - summary.local_names
        summary.global_reads = candidates & info.module_globals
    return info


class FlowGraph:
    """The project: modules, functions, classes, and name resolution."""

    def __init__(self, modules: Dict[str, ModuleInfo]) -> None:
        self.modules = modules
        self.functions: Dict[str, FunctionSummary] = {}
        self.classes: Dict[str, ClassInfo] = {}
        for info in modules.values():
            for summary in info.functions.values():
                self.functions[summary.key] = summary
            for cls in info.classes.values():
                self.classes[cls.key] = cls

    # -- lookups ---------------------------------------------------------

    def module_of(self, key: str) -> Optional[ModuleInfo]:
        """The :class:`ModuleInfo` owning a function/class key."""
        return self.modules.get(key.partition(":")[0])

    def file_of(self, key: str) -> str:
        """Real file path behind a function/class key (finding anchor)."""
        info = self.module_of(key)
        return info.file if info else ""

    def classes_named(self, name: str) -> List[ClassInfo]:
        """Every class definition with the given bare name."""
        return [c for c in self.classes.values() if c.name == name]

    # -- name resolution -------------------------------------------------

    def resolve(self, module: str, raw: str, _depth: int = 0) -> Optional[str]:
        """Resolve a dotted name used in ``module`` to a project key.

        Returns a function key (``"mod:qual"``), a class key (check
        :attr:`classes`), or None for anything external or dynamic.
        Import and re-export chains are followed to a bounded depth, so
        cyclic imports cannot loop.
        """
        if not raw or _depth > _MAX_RESOLVE_DEPTH:
            return None
        info = self.modules.get(module)
        if info is None:
            return None
        head, _, rest = raw.partition(".")
        if not rest:
            if raw in info.functions:
                return f"{module}:{raw}"
            if raw in info.classes:
                return f"{module}:{raw}"
            if raw in info.imports:
                return self._resolve_absolute(info.imports[raw], _depth + 1)
            return None
        if head in info.classes:
            qual = f"{head}.{rest}"
            if qual in info.functions:
                return f"{module}:{qual}"
            return None
        if head in info.imports:
            return self._resolve_absolute(f"{info.imports[head]}.{rest}", _depth + 1)
        return None

    def _resolve_absolute(self, dotted: str, _depth: int) -> Optional[str]:
        if _depth > _MAX_RESOLVE_DEPTH:
            return None
        parts = dotted.split(".")
        for i in range(len(parts) - 1, 0, -1):
            mod = ".".join(parts[:i])
            info = self.modules.get(mod)
            if info is None:
                continue
            rest = parts[i:]
            if len(rest) == 1:
                n = rest[0]
                if n in info.functions:
                    return f"{mod}:{n}"
                if n in info.classes:
                    return f"{mod}:{n}"
                if n in info.imports:  # re-export (e.g. package __init__)
                    return self._resolve_absolute(info.imports[n], _depth + 1)
            elif len(rest) == 2:
                qual = f"{rest[0]}.{rest[1]}"
                if qual in info.functions:
                    return f"{mod}:{qual}"
                if rest[0] in info.imports:
                    return self._resolve_absolute(
                        f"{info.imports[rest[0]]}.{rest[1]}", _depth + 1
                    )
            return None
        return None

    def resolve_call(
        self, summary: FunctionSummary, raw: str, _depth: int = 0
    ) -> Optional[str]:
        """Resolve a callee as seen from inside ``summary``.

        Adds the function-local context :meth:`resolve` lacks:
        ``self.method``/``cls.method`` against the enclosing class, and
        local aliases (``worker = partial(f, x); submit(worker)``).
        The ``"<nested>"``/``"<lambda>"`` sentinels pass through for
        callers that care about binding kind.
        """
        if not raw or _depth > _MAX_RESOLVE_DEPTH:
            return None
        if raw in ("<nested>", "<lambda>"):
            return raw
        head, _, rest = raw.partition(".")
        if head in ("self", "cls") and summary.cls and rest and "." not in rest:
            qual = f"{summary.cls}.{rest}"
            info = self.modules.get(summary.module)
            if info and qual in info.functions:
                return f"{summary.module}:{qual}"
            return None
        if not rest and raw in summary.local_callables:
            return self.resolve_call(summary, summary.local_callables[raw], _depth + 1)
        return self.resolve(summary.module, raw)

    # -- call graph ------------------------------------------------------

    def callees(self, key: str) -> Set[str]:
        """Function keys directly called from ``key`` (classes -> __init__)."""
        summary = self.functions.get(key)
        if summary is None:
            return set()
        out: Set[str] = set()
        for site in summary.calls:
            resolved = self.resolve_call(summary, site.raw)
            if resolved is None or resolved in ("<nested>", "<lambda>"):
                continue
            if resolved in self.classes:
                init = f"{resolved.partition(':')[0]}:{resolved.partition(':')[2]}.__init__"
                if init in self.functions:
                    out.add(init)
                continue
            if resolved in self.functions:
                out.add(resolved)
        return out

    def transitive_callees(self, key: str) -> Set[str]:
        """Every function reachable from ``key`` (cycle-safe, excl. key)."""
        seen: Set[str] = set()
        frontier = [key]
        while frontier:
            current = frontier.pop()
            for callee in self.callees(current):
                if callee not in seen:
                    seen.add(callee)
                    frontier.append(callee)
        seen.discard(key)
        return seen


def build_flow_graph(contexts: Sequence[FileContext]) -> FlowGraph:
    """Analyze parsed contexts into a :class:`FlowGraph`.

    When two files map to the same dotted module name (a fixture tree
    next to the real one), the later context wins — lint runs target one
    tree at a time, and tests build graphs from fixture contexts only.
    """
    modules: Dict[str, ModuleInfo] = {}
    for ctx in sorted(contexts, key=lambda c: c.module):
        info = _analyze_module(ctx)
        modules[info.name] = info
    return FlowGraph(modules)
