"""The repro-lint rule catalogue (RL001–RL020).

Each rule encodes one of the domain invariants the reproduction's
correctness rests on; ``docs/STATIC_ANALYSIS.md`` is the user-facing
catalogue (its rule table is generated from the ``scope``/``doc``
attributes here — single source of truth).  Every rule is a per-file
AST check; RL016 and RL020 live in :mod:`repro.analysis.concurrency`
and :mod:`repro.analysis.service`.  Scoping (which packages a rule
patrols) lives here, suppression (``# lint: allow-<tag>``) lives in
the engine.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from .concurrency import WriterLifecycleRule
from .service import EngineLifecycleRule
from .engine import FileContext, Finding, Rule

__all__ = [
    "UnseededRandomRule",
    "DtypeDisciplineRule",
    "EntryLoopRule",
    "WallClockRule",
    "TimerDisciplineRule",
    "ResortRule",
    "DtypeWidthRule",
    "EnvKnobRule",
    "WriterLifecycleRule",
    "EngineLifecycleRule",
    "ALL_RULES",
    "rule_by_id",
]

#: Packages whose kernels must construct arrays with explicit dtypes.
_DTYPE_SCOPE = ("repro/hypersparse/", "repro/d4m/", "repro/traffic/")

# RL003's hot-module list and RL008's canonical scope are tree
# properties, not rule logic: they live in pyproject.toml's
# [tool.repro-lint] table and reach rules via ctx.config (see
# repro.analysis.config for the shipped defaults).

#: Packages whose kernels must be deterministic (no wall-clock reads).
_KERNEL_SCOPE = (
    "repro/experiments/",
    "repro/core/",
    "repro/synth/",
    "repro/stream/",
    "repro/traffic/",
)

#: Legacy module-level numpy RNG entry points (global hidden state).
_NP_RANDOM_FUNCS = frozenset(
    {
        "seed",
        "rand",
        "randn",
        "randint",
        "random",
        "random_sample",
        "ranf",
        "sample",
        "choice",
        "shuffle",
        "permutation",
        "uniform",
        "normal",
        "standard_normal",
        "poisson",
        "exponential",
        "binomial",
        "geometric",
        "lognormal",
        "pareto",
        "zipf",
        "bytes",
        "get_state",
        "set_state",
    }
)

#: Absolute-date reads whose values could leak into experiment results.
#: The ``time``-module clocks are not listed here — *every* time-module
#: clock read is RL007's territory (timer discipline), while RL006 keeps
#: watch over calendar timestamps entering deterministic kernels.
_WALL_CLOCK_SUFFIXES = (
    "datetime.now",
    "datetime.utcnow",
    "datetime.today",
    "date.today",
)

#: ``time``-module clock reads; all timing belongs to :mod:`repro.obs`.
_TIMER_SUFFIXES = (
    "time.time",
    "time.time_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.process_time",
    "time.process_time_ns",
    "time.thread_time",
    "time.thread_time_ns",
    "time.clock_gettime",
    "time.clock_gettime_ns",
    "time.localtime",
    "time.ctime",
    "time.gmtime",
)

#: The one package allowed to read the process clocks directly.
_TIMER_HOME = "repro/obs/"


def _dotted_name(node: ast.AST) -> Optional[str]:
    """Resolve an Attribute/Name chain to ``"a.b.c"``, else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _imported_names(tree: ast.Module) -> Dict[str, str]:
    """Map local names to the modules they import (``np`` -> ``numpy``)."""
    out: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = alias.name
        elif isinstance(node, ast.ImportFrom) and node.module:
            for alias in node.names:
                out[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    return out


class UnseededRandomRule(Rule):
    """RL001 — no unseeded randomness outside :mod:`repro.rand`.

    Flags the legacy ``np.random.*`` module-level API (a global, hidden
    RNG state), the stdlib ``random`` module, and ``np.random.default_rng()``
    called without a seed.  Explicitly seeded generators
    (``np.random.default_rng(seed)``) pass.  Counter-mode randomness from
    :mod:`repro.rand` is always preferred in library code.
    """

    id = "RL001"
    tag = "random"
    description = "unseeded or global-state randomness outside repro.rand"
    scope = "everywhere except `repro/rand.py`"
    doc = (
        "No unseeded randomness: flags legacy `np.random.*` calls (`seed`, "
        "`rand`, `randn`, `randint`, `choice`, `shuffle`, ...), argument-less "
        "`np.random.default_rng()`, stdlib `random.*` calls, and "
        "`from random/numpy.random import ...`.  Seeded `default_rng(seed)` "
        "is fine; the counter-based generators in `repro.rand` are the "
        "sanctioned source of randomness."
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        """Flag unseeded / global-state RNG calls and imports."""
        if ctx.is_module("repro/rand.py"):
            return
        imports = _imported_names(ctx.tree)
        uses_stdlib_random = imports.get("random") == "random"
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ImportFrom) and node.module in ("random", "numpy.random"):
                names = ", ".join(a.name for a in node.names)
                yield self.finding(
                    ctx,
                    node,
                    f"import of RNG functions from {node.module!r} ({names}); "
                    "use repro.rand or a seeded np.random.default_rng(seed)",
                )
                continue
            if not isinstance(node, ast.Call):
                continue
            name = _dotted_name(node.func)
            if name is None:
                continue
            np_random = name.startswith(("np.random.", "numpy.random."))
            if np_random and name.rsplit(".", 1)[1] in _NP_RANDOM_FUNCS:
                yield self.finding(
                    ctx,
                    node,
                    f"module-level RNG call {name}() uses hidden global state; "
                    "use repro.rand or a seeded np.random.default_rng(seed)",
                )
            elif np_random and name.endswith(".default_rng") and not (node.args or node.keywords):
                yield self.finding(
                    ctx,
                    node,
                    "default_rng() without a seed is irreproducible; pass an "
                    "explicit seed derived from the experiment config",
                )
            elif uses_stdlib_random and name.startswith("random."):
                yield self.finding(
                    ctx,
                    node,
                    f"stdlib {name}() is unseeded global-state randomness; "
                    "use repro.rand or a seeded np.random.default_rng(seed)",
                )


class DtypeDisciplineRule(Rule):
    """RL002 — explicit dtypes for array allocation in kernel packages.

    The hypersparse stack is a dtype contract: ``uint64`` coordinates,
    ``float64`` values.  Allocators that fall back to NumPy's defaults
    (``float64`` today, platform-``intp`` for ``arange``) make that
    contract implicit and fragile, so inside ``hypersparse/``, ``d4m/``
    and ``traffic/`` every ``np.zeros/ones/empty/full/arange`` must pass
    ``dtype=`` explicitly.
    """

    id = "RL002"
    tag = "dtype"
    description = "array allocation without an explicit dtype in kernel packages"
    scope = "`repro/hypersparse/`, `repro/d4m/`, `repro/traffic/`"
    doc = (
        "Explicit dtypes in kernel packages: `np.zeros`/`ones`/`empty`/"
        "`full`/`arange` must pass `dtype=` (or a positional dtype).  The "
        "paper's traffic matrices are `uint64` coordinates / `float64` "
        "values; platform-default dtypes are how that silently breaks."
    )

    #: allocator name -> number of positional args after which dtype is present
    _ALLOCATORS = {"zeros": 1, "ones": 1, "empty": 1, "full": 2, "arange": 3}

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        """Flag dtype-less allocator calls inside the kernel packages."""
        if not ctx.in_package(*_DTYPE_SCOPE):
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            name = _dotted_name(node.func)
            if name is None or "." not in name:
                continue
            root, _, func = name.partition(".")
            if root not in ("np", "numpy") or func not in self._ALLOCATORS:
                continue
            has_kw = any(kw.arg == "dtype" for kw in node.keywords)
            has_pos = len(node.args) > self._ALLOCATORS[func]
            if not has_kw and not has_pos:
                yield self.finding(
                    ctx,
                    node,
                    f"{name}() without an explicit dtype; coordinate arrays are "
                    "uint64 and value arrays float64 by contract",
                )


class EntryLoopRule(Rule):
    """RL003 — no per-entry Python loops in hot-path kernels.

    The hot-module list (``[tool.repro-lint] hot-modules``) names the
    modules every experiment's inner loop runs through; a Python-level
    ``for``/``while`` over entry triples turns an O(nnz) vectorized kernel
    into an interpreter-bound one.  Justified loops (e.g. over a fixed
    2x2 block grid) carry ``# lint: allow-loop``.
    """

    id = "RL003"
    tag = "loop"
    description = "Python for/while loop in a hot-path kernel module"
    scope = "hot modules (`[tool.repro-lint]`)"
    doc = (
        "No per-entry Python loops in hot-path modules.  `for`/`while` over "
        "matrix entries belongs in vectorized NumPy; structural loops (e.g. "
        "over the four blocks of a 2×2 grid) carry an explicit "
        "`# lint: allow-loop` escape. Comprehensions are not flagged."
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        """Flag for/while statements in the configured hot-path modules."""
        if not ctx.is_module(*ctx.config.hot_modules):
            return
        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.For, ast.AsyncFor, ast.While)):
                kind = "while" if isinstance(node, ast.While) else "for"
                yield self.finding(
                    ctx,
                    node,
                    f"Python {kind}-loop in hot-path module; vectorize with "
                    "sort/searchsorted/reduceat or mark '# lint: allow-loop' "
                    "with a justification",
                )


class WallClockRule(Rule):
    """RL006 — no calendar-timestamp reads inside experiment kernels.

    Experiment outputs must be a pure function of the seeded config;
    ``datetime.now()``-family values that reach results break
    re-runnability.  Trace/report headers obtain their stamp from
    :func:`repro.obs.wall_timestamp` instead.  The ``time``-module
    clocks are policed separately by RL007 (timer discipline).
    Intentional calendar reads carry ``# lint: allow-wallclock``.
    """

    id = "RL006"
    tag = "wallclock"
    description = "calendar-timestamp read inside an experiment kernel"
    scope = (
        "`repro/experiments/`, `repro/core/`, `repro/synth/`, "
        "`repro/stream/`, `repro/traffic/`"
    )
    doc = (
        "No calendar reads in experiment kernels: `datetime.now()`/"
        "`utcnow()`/`today()`, `date.today()` make results depend on when "
        "they ran.  Reports that genuinely need a run stamp use "
        "`repro.obs.wall_timestamp()`."
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        """Flag absolute-date calls in the deterministic-kernel packages."""
        if not ctx.in_package(*_KERNEL_SCOPE):
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            name = _dotted_name(node.func)
            if name is None:
                continue
            if any(name == s or name.endswith("." + s) for s in _WALL_CLOCK_SUFFIXES):
                yield self.finding(
                    ctx,
                    node,
                    f"wall-clock call {name}() in a deterministic kernel; derive "
                    "times from the experiment config, use "
                    "repro.obs.wall_timestamp() for report metadata, or mark "
                    "'# lint: allow-wallclock' with a justification",
                )


class TimerDisciplineRule(Rule):
    """RL007 — ``time``-module clocks only inside :mod:`repro.obs`.

    All wall/CPU timing flows through the observability layer — spans for
    traced stages, :func:`repro.obs.stopwatch` for reported durations —
    so traces account for every measured second and kernels stay free of
    scattered ad-hoc timers.  ``repro/obs/`` is the one sanctioned home
    for direct clock reads; anywhere else in the package a
    ``time.perf_counter()``/``time.time()``/... call is flagged.
    Justified exceptions carry ``# lint: allow-timer``.
    """

    id = "RL007"
    tag = "timer"
    description = "time-module clock read outside repro.obs"
    scope = "everywhere except `repro/obs/`"
    doc = (
        "Timer discipline: direct `time`-module clock reads (`time.time()`, "
        "`perf_counter()`, `monotonic()`, `process_time()`, ... and their "
        "`_ns` variants, including `from time import ...` aliases) belong in "
        "the observability layer.  Measure with `repro.obs` — "
        "`span()`/`@traced` for traced regions, `stopwatch()` for always-on "
        "durations — so timings land in one instrumented, reportable place."
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        """Flag time-module clock calls outside the observability package."""
        if ctx.in_package(_TIMER_HOME):
            return
        imports = _imported_names(ctx.tree)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            name = _dotted_name(node.func)
            if name is None:
                continue
            if "." not in name:
                # Resolve `from time import perf_counter` style aliases.
                name = imports.get(name, name)
            if any(name == s or name.endswith("." + s) for s in _TIMER_SUFFIXES):
                yield self.finding(
                    ctx,
                    node,
                    f"direct clock read {name}(); use repro.obs "
                    "(span/traced for traced stages, stopwatch() for "
                    "reported durations, wall_timestamp() for metadata) or "
                    "mark '# lint: allow-timer' with a justification",
                )


class ResortRule(Rule):
    """RL008 — no re-sorting of canonical data in ``hypersparse/``.

    Everything in the hypersparse package maintains the canonical-form
    invariant: keys sorted, unique, values aligned.  An ``np.argsort`` /
    ``np.lexsort`` over data that is already one-or-two canonical runs
    throws that invariant away and buys it back at ``O(n log n)`` — the
    exact cost :mod:`repro.hypersparse.merge` exists to avoid.  The
    sanctioned full-sort sites (canonicalization of arbitrary triples at
    construction, transpose, cross-axis reductions) carry
    ``# lint: allow-resort`` with a justification.  The patrolled
    package list is ``[tool.repro-lint] canonical-scope``.
    """

    id = "RL008"
    tag = "resort"
    description = "argsort/lexsort over canonical data in hypersparse kernels"
    scope = "canonical scope (`[tool.repro-lint]`)"
    doc = (
        "No re-sorting of canonical data: `np.argsort`/`np.lexsort` calls "
        "inside the hypersparse package are flagged.  Canonical-run "
        "unions/intersections go through the O(m+n) kernels in "
        "`repro.hypersparse.merge` (see [PERFORMANCE.md](PERFORMANCE.md)); a "
        "full sort is justified only where the input really is arbitrary "
        "(construction from raw triples, transpose, `mxm` product streams), "
        "and each such site carries `# lint: allow-resort`."
    )

    _SORTERS = ("argsort", "lexsort")

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        """Flag argsort/lexsort calls inside the canonical-scope packages."""
        if not ctx.in_package(*ctx.config.canonical_scope):
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            name = _dotted_name(node.func)
            if name is None or "." not in name:
                continue
            if name.rsplit(".", 1)[1] in self._SORTERS:
                yield self.finding(
                    ctx,
                    node,
                    f"{name}() re-sorts canonical data; already-sorted runs "
                    "combine via repro.hypersparse.merge "
                    "(merge_combine/intersect_sorted/in_sorted), or mark a "
                    "sanctioned canonicalization site '# lint: allow-resort' "
                    "with a justification",
                )


#: Explicitly narrowed dtypes: arithmetic at these widths silently
#: wraps/truncates packed 64-bit keys.
_NARROW_DTYPES = frozenset(
    {"int8", "int16", "int32", "uint8", "uint16", "uint32", "float16", "float32"}
)
_U64_NAMES = ("np.uint64", "numpy.uint64", "uint64")
#: BinOps whose result can exceed operand width (packed-key arithmetic).
_WIDENING_OPS = {ast.Mult: "*", ast.LShift: "<<", ast.Add: "+"}


def _dtype_of(node: ast.AST) -> Optional[str]:
    """The dtype a cast-like expression names (``"uint64"``, ``"int32"``...)."""
    name = _dotted_name(node)
    if name:
        return name.rsplit(".", 1)[-1]
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def _cast_dtype(node: ast.Call) -> Optional[str]:
    """The target dtype of ``x.astype(d)`` / ``np.int32(x)`` / ``dtype=d`` calls."""
    if (
        isinstance(node.func, ast.Attribute)
        and node.func.attr == "astype"
        and node.args
    ):
        # Structural, not name-based: the receiver may be any expression
        # (``(a * b).astype(...)``), which has no dotted name.
        return _dtype_of(node.args[0])
    fn = _dotted_name(node.func)
    if fn:
        last = fn.rsplit(".", 1)[-1]
        if last in _NARROW_DTYPES or last == "uint64":
            return last
    for kw in node.keywords:
        if kw.arg == "dtype":
            return _dtype_of(kw.value)
    return None


def _const_expr(node: ast.AST) -> bool:
    """True for literal constants and arithmetic over them (``2**32``)."""
    if isinstance(node, ast.Constant):
        return True
    if isinstance(node, ast.UnaryOp):
        return _const_expr(node.operand)
    if isinstance(node, ast.BinOp):
        return _const_expr(node.left) and _const_expr(node.right)
    return False


def _width_safe(node: ast.AST, safe_names: Set[str]) -> bool:
    """True when the expression's arithmetic evidently runs at uint64.

    Python int literals are arbitrary precision — safe on their own, but
    *neutral* as a NumPy operand: they adopt the array operand's dtype
    rather than widening it, so a constant cannot rescue an unsafe
    operand.
    """
    if _const_expr(node):
        return True
    if isinstance(node, ast.Name):
        return node.id in safe_names
    if isinstance(node, ast.UnaryOp):
        return _width_safe(node.operand, safe_names)
    if isinstance(node, ast.Call):
        return _cast_dtype(node) == "uint64"
    if isinstance(node, ast.BinOp):
        if isinstance(node.op, (ast.LShift, ast.RShift)):
            # The shift amount's width never widens the shifted value:
            # only the left operand decides the arithmetic width.
            return _width_safe(node.left, safe_names)
        left = _width_safe(node.left, safe_names)
        right = _width_safe(node.right, safe_names)
        if _const_expr(node.left):
            return right
        if _const_expr(node.right):
            return left
        return left or right
    return False


def _narrow_operand(node: ast.AST) -> Optional[str]:
    """The narrow dtype an operand is explicitly cast to, if any."""
    if isinstance(node, ast.UnaryOp):
        return _narrow_operand(node.operand)
    if isinstance(node, ast.Call):
        dtype = _cast_dtype(node)
        if dtype in _NARROW_DTYPES:
            return dtype
    return None


class DtypeWidthRule(Rule):
    """RL011 — packed-key arithmetic must run at uint64 width.

    The packed key ``(row << 32) | col`` and its multiplicative form
    ``row * 2**32 + col`` only survive if the shift/multiply itself runs
    in uint64.  Two silent-truncation shapes are flagged:

    * a uint64 cast applied *after* the arithmetic —
      ``np.uint64(r << 32)``, ``(r * 2**32 + c).astype(np.uint64)`` —
      where no operand is evidently uint64 already: the expression runs
      at the operands' native width (``int32`` indices, platform
      ``intp``...) and overflows *before* the widening cast;
    * a shift/multiply with an operand explicitly narrowed below 64 bits
      (``idx.astype(np.int32) << 32``).

    Width tracking is flow-insensitive: a local counts as uint64-safe
    when every assignment to it in the enclosing scope is evidently
    uint64 (module-level constants like ``_MIX1 = np.uint64(...)``
    included), which keeps the splitmix64 mixer and the sanctioned
    cast-operands-first packing idiom clean without annotations.

    The rule checks the *shape* of the arithmetic, not value ranges: the
    ranges are guarded where shapes are made (every matrix shape passes
    ``repro.hypersparse.coo.checked_shape``, so ``nrows * ncols <= 2^64``
    bounds every packed key), and the ``overflow`` sanitizer (RS001)
    re-checks the actual packed maximum at runtime.
    """

    id = "RL011"
    tag = "width"
    description = "shift/multiply that can overflow before its uint64 cast"
    scope = "`repro/`"
    doc = (
        "Dtype-width flow for packed keys: the 2^32-radix packing "
        "`key = row * 2**32 + col` (and its shift form) must happen in "
        "`uint64` *before* the widening arithmetic, not after.  Flags "
        "`.astype(np.uint64)` / `np.uint64(...)` applied to the *result* of "
        "a shift/multiply/add whose operands aren't evidently 64-bit, and "
        "explicitly narrowed operands (`.astype(np.int32)`, "
        "`dtype=np.uint32`) feeding a widening op — both are how keys "
        "silently truncate on 32-bit-default platforms."
    )

    def _safe_names(
        self, stmts: Sequence[ast.stmt], inherited: Set[str]
    ) -> Set[str]:
        """Names whose every assignment in this scope is width-safe."""
        assigned: Dict[str, bool] = {}
        for stmt in stmts:
            for node in _walk_scope(stmt):
                target: Optional[str] = None
                value: Optional[ast.AST] = None
                if isinstance(node, ast.Assign) and len(node.targets) == 1:
                    if isinstance(node.targets[0], ast.Name):
                        target, value = node.targets[0].id, node.value
                elif isinstance(node, ast.AnnAssign) and node.value is not None:
                    if isinstance(node.target, ast.Name):
                        target, value = node.target.id, node.value
                elif isinstance(node, (ast.For, ast.AsyncFor)):
                    for t in ast.walk(node.target):
                        if isinstance(t, ast.Name):
                            assigned[t.id] = False
                if target is not None and value is not None:
                    ok = _width_safe(value, inherited | {
                        n for n, good in assigned.items() if good
                    })
                    assigned[target] = assigned.get(target, True) and ok
        return inherited | {n for n, good in assigned.items() if good}

    def _check_scope(
        self, ctx: FileContext, stmts: Sequence[ast.stmt], inherited: Set[str]
    ) -> Iterator[Finding]:
        safe = self._safe_names(stmts, inherited)
        nested: List[Sequence[ast.stmt]] = []
        for stmt in stmts:
            for node in _walk_scope(stmt, nested):
                if isinstance(node, ast.BinOp) and type(node.op) in _WIDENING_OPS:
                    op = _WIDENING_OPS[type(node.op)]
                    for operand in (node.left, node.right):
                        dtype = _narrow_operand(operand)
                        if dtype is not None:
                            yield self.finding(
                                ctx,
                                node,
                                f"'{op}' on an operand explicitly narrowed to "
                                f"{dtype}; packed-key arithmetic needs uint64 "
                                "operands (cast before the arithmetic)",
                            )
                elif isinstance(node, ast.Call):
                    if _cast_dtype(node) != "uint64":
                        continue
                    inner = node.args[0] if node.args else None
                    if isinstance(node.func, ast.Attribute) and node.func.attr == "astype":
                        inner = node.func.value
                    if (
                        isinstance(inner, ast.BinOp)
                        and type(inner.op) in _WIDENING_OPS
                        and not _width_safe(inner, safe)
                    ):
                        op = _WIDENING_OPS[type(inner.op)]
                        yield self.finding(
                            ctx,
                            node,
                            f"uint64 cast applied after '{op}': the arithmetic "
                            "runs at the operands' native width and can "
                            "overflow before widening; cast the operands to "
                            "uint64 first",
                        )
        for body in nested:
            yield from self._check_scope(ctx, body, safe)

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        """Flag width-unsafe packed-key arithmetic, scope by scope."""
        if not ctx.in_package("repro/"):
            return
        yield from self._check_scope(ctx, ctx.tree.body, set())


def _walk_scope(
    stmt: ast.stmt, nested: Optional[List[Sequence[ast.stmt]]] = None
) -> Iterator[ast.AST]:
    """Walk a statement without descending into nested def/class bodies.

    Nested function and class bodies are their own width-tracking scopes;
    when ``nested`` is given their bodies are collected for recursion.
    """
    stack: List[ast.AST] = [stmt]
    root = True
    while stack:
        node = stack.pop()
        if not root and isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            if nested is not None:
                nested.append(node.body)
            stack.extend(node.decorator_list)
            continue
        root = False
        yield node
        stack.extend(ast.iter_child_nodes(node))


class EnvKnobRule(Rule):
    """RL012 — environment reads go through the knob registry.

    :mod:`repro.analysis.knobs` declares every ``REPRO_*`` environment
    variable the package responds to — name, type, default, owner — and
    is the single source the docs table is generated from.  A raw
    ``os.environ`` / ``os.getenv`` read anywhere else in the package is
    an undocumented knob; an ``env_flag``/``env_int``/``env_str``/
    ``env_list`` call with a key the registry does not declare is a
    typo'd or unregistered one.  Both are flagged.
    """

    id = "RL012"
    tag = "env"
    description = "os.environ read outside the knob registry, or undeclared knob"
    scope = "`repro/`"
    doc = (
        "Environment-knob registry: every `os.environ` / `os.getenv` read "
        "goes through the typed readers in `repro.analysis.knobs` "
        "(`env_flag`, `env_int`, `env_str`, `env_list`), and every key read "
        "must be declared in the `KNOBS` registry.  The registry is the "
        "single source of truth for the env-var table below."
    )

    _REGISTRY = "repro/analysis/knobs.py"
    _READERS = frozenset({"env_flag", "env_int", "env_str", "env_list", "env_raw"})

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        """Flag raw environment access and undeclared knob names."""
        if not ctx.in_package("repro/") or ctx.is_module(self._REGISTRY):
            return
        from .knobs import knob_names

        declared = knob_names()
        for node in ast.walk(ctx.tree):
            name = _dotted_name(node) if isinstance(node, ast.Attribute) else None
            if name is not None and name.endswith("os.environ") or name == "os.environ":
                yield self.finding(
                    ctx,
                    node,
                    "raw os.environ access; declare the variable in "
                    "repro.analysis.knobs.KNOBS and read it via "
                    "env_flag/env_int/env_str/env_list",
                )
                continue
            if not isinstance(node, ast.Call):
                continue
            fn = _dotted_name(node.func)
            if fn is None:
                continue
            if fn == "os.getenv" or fn.endswith(".os.getenv"):
                yield self.finding(
                    ctx,
                    node,
                    "os.getenv() bypasses the knob registry; declare the "
                    "variable in repro.analysis.knobs.KNOBS and read it via "
                    "env_flag/env_int/env_str/env_list",
                )
            elif fn.rsplit(".", 1)[-1] in self._READERS:
                if node.args and isinstance(node.args[0], ast.Constant):
                    key = node.args[0].value
                    if isinstance(key, str) and key not in declared:
                        yield self.finding(
                            ctx,
                            node,
                            f"knob {key!r} is not declared in "
                            "repro.analysis.knobs.KNOBS; register it (with "
                            "type, default and owner) before reading it",
                        )


#: Every shipped rule, in catalogue order.
ALL_RULES: Tuple[Rule, ...] = (
    UnseededRandomRule(),
    DtypeDisciplineRule(),
    EntryLoopRule(),
    WallClockRule(),
    TimerDisciplineRule(),
    ResortRule(),
    DtypeWidthRule(),
    EnvKnobRule(),
    WriterLifecycleRule(),
    EngineLifecycleRule(),
)


def rule_by_id(rule_id: str) -> Rule:
    """Look up a shipped rule by its ``RLxxx`` identifier."""
    for rule in ALL_RULES:
        if rule.id == rule_id:
            return rule
    raise KeyError(f"unknown rule id {rule_id!r}; known: {', '.join(r.id for r in ALL_RULES)}")
