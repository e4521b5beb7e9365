"""The repro-lint rule engine.

A deliberately small AST linter: every rule receives a parsed
:class:`FileContext` and yields :class:`Finding` objects.  The engine owns
the parts rules should not reimplement:

* file discovery (``.py`` files under the given paths, skipping caches);
* module-path normalization, so rules can scope themselves to package
  subtrees (``repro/hypersparse/...``) regardless of where the tree is
  checked out — the path is anchored at the last ``repro`` directory
  component, which also makes test fixture trees that mirror the package
  layout (``tests/analysis/fixtures/repro/...``) lintable;
* project configuration: the ``[tool.repro-lint]`` table from
  ``pyproject.toml`` (see :mod:`repro.analysis.config`) rides on every
  :class:`FileContext`, so tree-specific rule scope is data, not code;
* the allowlist escape hatch: a ``# lint: allow-<tag>`` comment on the
  flagged line (or the line directly above it) suppresses findings of
  every rule carrying that tag.  For decorated ``def``/``class``
  statements the comment may also sit above the decorator chain, and for
  findings inside a multi-line simple statement it may sit at (or above)
  the statement's first line.

Every rule is per-file: it sees one parsed file at a time, so a lint
run is one pass over the tree.

Rules never do I/O and never mutate the tree; the engine is pure apart
from reading source files, so it is trivially testable and safe to run
in CI and pre-commit hooks.
"""

from __future__ import annotations

import ast
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from .config import LintConfig

__all__ = [
    "Finding",
    "FileContext",
    "Rule",
    "LintResult",
    "lint_paths",
    "parse_contexts",
    "module_path",
]

#: Comment syntax suppressing findings: ``# lint: allow-<tag>``.
_ALLOW_RE = re.compile(r"#\s*lint:\s*allow-([A-Za-z0-9_-]+)")

#: Directory names never descended into during discovery.
_SKIP_DIRS = {"__pycache__", ".git", ".venv", "build", "dist", ".egg-info"}

#: Non-compound statements: an allow-comment at the statement's first
#: line covers findings anywhere in the statement's line span.
_SIMPLE_STMTS = (
    ast.Assign,
    ast.AnnAssign,
    ast.AugAssign,
    ast.Expr,
    ast.Return,
    ast.Raise,
    ast.Assert,
    ast.Delete,
    ast.Import,
    ast.ImportFrom,
)


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at a source location."""

    path: str
    line: int
    col: int
    rule_id: str
    message: str

    def format(self) -> str:
        """Render as the conventional ``path:line:col: ID message`` line."""
        return f"{self.path}:{self.line}:{self.col}: {self.rule_id} {self.message}"


class Rule:
    """Base class for per-file lint rules.

    Subclasses set the class attributes and implement :meth:`check`.

    Attributes
    ----------
    id:
        Stable identifier (``RL001``...), used in CLI selection and fix
        commit messages.
    tag:
        Allowlist tag: ``# lint: allow-<tag>`` suppresses this rule.
    description:
        One-line human description shown by ``repro lint --list-rules``.
    scope:
        Human-readable reach of the rule, rendered in the generated
        docs table (``docs/STATIC_ANALYSIS.md``).
    doc:
        Full "what it enforces" prose for the docs table; the table is
        generated from these attributes so it cannot drift from the
        code (a test pins the embedding).
    """

    id: str = "RL000"
    tag: str = "none"
    description: str = ""
    scope: str = ""
    doc: str = ""

    def check(self, ctx: "FileContext") -> Iterator[Finding]:
        """Yield findings for one parsed file."""
        raise NotImplementedError

    def finding(self, ctx: "FileContext", node: ast.AST, message: str) -> Finding:
        """Build a :class:`Finding` anchored at an AST node."""
        return Finding(
            path=str(ctx.path),
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            rule_id=self.id,
            message=message,
        )


@dataclass
class FileContext:
    """A parsed source file handed to every rule."""

    path: Path
    module: str  #: normalized posix path anchored at the package root
    tree: ast.Module
    lines: List[str]
    config: LintConfig = field(default_factory=LintConfig)
    _allow: Optional[Dict[int, Set[str]]] = field(default=None, repr=False)
    _anchors: Optional[Dict[int, int]] = field(default=None, repr=False)

    @property
    def allow(self) -> Dict[int, Set[str]]:
        """``{line_number: {tags}}`` of allowlist comments (1-based)."""
        if self._allow is None:
            self._allow = {}
            for i, text in enumerate(self.lines, start=1):
                tags = set(_ALLOW_RE.findall(text))
                if tags:
                    self._allow[i] = tags
        return self._allow

    @property
    def anchors(self) -> Dict[int, int]:
        """Extra suppression anchors: finding line -> statement anchor line.

        Two statement shapes put the natural comment position away from
        the line a finding lands on:

        * decorated ``def``/``class``: the finding sits on the ``def``
          line, but the comment belongs above the decorator chain — the
          anchor is the first decorator's line;
        * multi-line *simple* statements (a call broken over several
          lines, an annotated assignment with a long value): findings on
          continuation lines anchor to the statement's first line.

        Compound statements (``for``, ``with``, ``def`` bodies...) get no
        anchor for their body lines — a comment above a function must not
        blanket-suppress everything inside it.
        """
        if self._anchors is None:
            anchors: Dict[int, int] = {}
            for node in ast.walk(self.tree):
                if isinstance(
                    node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
                ):
                    if node.decorator_list:
                        anchors.setdefault(node.lineno, node.decorator_list[0].lineno)
                elif isinstance(node, _SIMPLE_STMTS):
                    end = node.end_lineno or node.lineno
                    for line in range(node.lineno + 1, end + 1):
                        anchors.setdefault(line, node.lineno)
            self._anchors = anchors
        return self._anchors

    def allowed(self, line: int, tag: str) -> bool:
        """True if ``tag`` is allowlisted at ``line`` or its anchors.

        A tag applies when the comment sits on the line itself, the line
        directly above, or — via :attr:`anchors` — the statement anchor
        line (or the line above it) for decorated defs and multi-line
        statements.
        """
        allow = self.allow
        if tag in allow.get(line, ()) or tag in allow.get(line - 1, ()):
            return True
        anchor = self.anchors.get(line)
        if anchor is None or anchor == line:
            return False
        return tag in allow.get(anchor, ()) or tag in allow.get(anchor - 1, ())

    def in_package(self, *prefixes: str) -> bool:
        """True when the module path starts with any of the given prefixes."""
        return any(self.module.startswith(p) for p in prefixes)

    def is_module(self, *names: str) -> bool:
        """True when the module path equals one of the given names exactly."""
        return self.module in names


@dataclass
class LintResult:
    """Outcome of a lint run: findings plus run metadata."""

    findings: List[Finding]
    files_checked: int
    rules_run: int
    errors: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when the tree is clean (no findings, no parse errors)."""
        return not self.findings and not self.errors

    def by_rule(self) -> Dict[str, List[Finding]]:
        """Findings grouped by rule id, insertion-ordered by rule."""
        out: Dict[str, List[Finding]] = {}
        for f in sorted(self.findings):
            out.setdefault(f.rule_id, []).append(f)
        return out


def module_path(path: Path) -> str:
    """Normalize a file path to a package-anchored posix string.

    The path is cut at the *last* directory component named ``repro`` so
    that ``src/repro/d4m/ops.py``, an installed
    ``site-packages/repro/d4m/ops.py`` and a test fixture
    ``tests/analysis/fixtures/repro/d4m/ops.py`` all normalize to
    ``repro/d4m/ops.py``.  Files outside any ``repro`` tree keep their
    full posix path.
    """
    parts = path.as_posix().split("/")
    anchors = [i for i, p in enumerate(parts[:-1]) if p == "repro"]
    if anchors:
        parts = parts[anchors[-1] :]
    return "/".join(parts)


def _iter_py_files(paths: Sequence[Path]) -> Iterator[Path]:
    seen = set()  # dedupe overlapping inputs (repeated paths, dir + file within it)
    for root in paths:
        if root.is_file():
            if root.suffix == ".py" and (r := root.resolve()) not in seen:
                seen.add(r)
                yield root
            continue
        for p in sorted(root.rglob("*.py")):
            if any(part in _SKIP_DIRS or part.endswith(".egg-info") for part in p.parts):
                continue
            if (r := p.resolve()) not in seen:
                seen.add(r)
                yield p


def _parse(path: Path, config: LintConfig) -> Tuple[Optional[FileContext], Optional[str]]:
    try:
        with tokenize.open(path) as fh:  # honours PEP 263 encoding declarations
            source = fh.read()
        tree = ast.parse(source, filename=str(path))
    except (SyntaxError, UnicodeDecodeError, OSError) as exc:
        return None, f"{path}: {exc}"
    return (
        FileContext(
            path=path,
            module=module_path(path),
            tree=tree,
            lines=source.splitlines(),
            config=config,
        ),
        None,
    )


def parse_contexts(
    paths: Iterable[Path],
    config: Optional[LintConfig] = None,
) -> Tuple[List[FileContext], List[str]]:
    """Parse every Python file under ``paths`` into file contexts.

    Returns ``(contexts, errors)``; unparsable files land in ``errors``
    rather than raising, so one bad file cannot hide the rest of the
    tree.
    """
    cfg = config if config is not None else LintConfig()
    contexts: List[FileContext] = []
    errors: List[str] = []
    for path in _iter_py_files([Path(p) for p in paths]):
        ctx, err = _parse(path, cfg)
        if ctx is None:
            errors.append(err or str(path))
        else:
            contexts.append(ctx)
    return contexts, errors


def lint_paths(
    paths: Iterable[Path],
    rules: Sequence[Rule],
    config: Optional[LintConfig] = None,
) -> LintResult:
    """Run ``rules`` over every Python file under ``paths``.

    Findings on allowlisted lines (``# lint: allow-<tag>``, see
    :meth:`FileContext.allowed`) are suppressed.  Unparsable files are
    reported as errors rather than raising.  ``config`` carries the
    ``[tool.repro-lint]`` table; defaults apply when omitted.
    """
    contexts, errors = parse_contexts(paths, config)
    findings: List[Finding] = []
    for ctx in contexts:
        for rule in rules:
            findings.extend(
                f for f in rule.check(ctx) if not ctx.allowed(f.line, rule.tag)
            )
    return LintResult(
        findings=sorted(findings),
        files_checked=len(contexts),
        rules_run=len(rules),
        errors=errors,
    )
