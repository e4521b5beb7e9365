"""Incremental lint runs (``repro lint --changed-only``).

The cache makes warm lint runs proportional to what changed while
keeping the *result* identical to a cold full run — that equivalence is
the contract CI asserts, so the cache can never be a source of missed
findings.  Two keying granularities make it sound:

* **Per-file rules** see one file at a time, and suppression comments
  live in the same file, so their post-suppression findings are a pure
  function of (file content, rule set, config).  They are cached per
  file, keyed on the content sha256.
* **Project rules** (RL009, RL010) reason over the whole-program flow
  graph: an edit in *any* file can change a worker's transitive effects.
  Their findings are therefore keyed on the flow graph's fingerprint —
  a hash over every (module, content-sha) pair — and are recomputed over
  the *full* tree the moment any file changes.  Coarse, but sound; the
  expensive per-file pass still skips every unchanged file.

Every run still parses all files: hashing and AST parsing are the cheap
part (rule evaluation dominates), and the parse is what proves the
fingerprint honest.  A cache written by a different rule set, config,
or format version is discarded wholesale rather than migrated.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Sequence

from .config import LintConfig
from .engine import (
    Finding,
    LintResult,
    ProjectRule,
    Rule,
    parse_contexts,
    run_file_rules,
    run_project_rules,
)

__all__ = ["DEFAULT_CACHE_FILE", "rules_fingerprint", "lint_paths_incremental"]

#: Default on-disk location, relative to the working directory.
DEFAULT_CACHE_FILE = Path(".repro-lint-cache.json")

_CACHE_VERSION = 7


def rules_fingerprint(rules: Sequence[Rule], config: LintConfig) -> str:
    """Hash of everything besides file contents that shapes findings.

    Rules that read inputs outside the linted tree (RL014's coverage
    manifest and the test suites it lists) contribute those inputs via
    :meth:`Rule.extra_fingerprint`, so editing a sanitizer test
    invalidates cached verdicts exactly like editing source does.
    """
    h = hashlib.sha256()
    h.update(f"v{_CACHE_VERSION}\n".encode())
    for rule in sorted(rules, key=lambda r: r.id):
        h.update(f"{rule.id}:{rule.tag}\n".encode())
        extra = getattr(rule, "extra_fingerprint", None)
        if callable(extra):
            h.update(f"{rule.id}+{extra(config)}\n".encode())
    h.update(",".join(config.hot_modules).encode())
    h.update(b"\n")
    h.update(",".join(config.canonical_scope).encode())
    h.update(b"\n")
    h.update(config.san_manifest.encode())
    return h.hexdigest()


def _finding_to_row(f: Finding) -> List[Any]:
    return [f.path, f.line, f.col, f.rule_id, f.message]


def _finding_from_row(row: Sequence[Any]) -> Finding:
    return Finding(
        path=str(row[0]),
        line=int(row[1]),
        col=int(row[2]),
        rule_id=str(row[3]),
        message=str(row[4]),
    )


def _load_cache(path: Path, fingerprint: str) -> Dict[str, Any]:
    """The cache dict, empty when missing/corrupt/for-another-rule-set."""
    try:
        data = json.loads(path.read_text())
    except (OSError, ValueError):
        return {}
    if not isinstance(data, dict) or data.get("rules") != fingerprint:
        return {}
    if not isinstance(data.get("files"), dict):
        return {}
    return data


def lint_paths_incremental(
    paths: Iterable[Path],
    rules: Sequence[Rule],
    config: Optional[LintConfig] = None,
    cache_file: Path = DEFAULT_CACHE_FILE,
) -> LintResult:
    """Like :func:`repro.analysis.engine.lint_paths`, reusing a cache.

    Reads ``cache_file`` (tolerating its absence or corruption), lints
    only what the cache cannot answer, and rewrites the cache to match
    the current tree — files that vanished fall out automatically.  The
    returned result is bit-identical to a cold :func:`lint_paths` run
    over the same tree.
    """
    cfg = config if config is not None else LintConfig()
    contexts, errors = parse_contexts(paths, cfg)
    fingerprint = rules_fingerprint(rules, cfg)
    cache = _load_cache(cache_file, fingerprint)
    cached_files: Dict[str, Any] = cache.get("files", {})

    file_rules = [r for r in rules if not isinstance(r, ProjectRule)]
    project_rules = [r for r in rules if isinstance(r, ProjectRule)]

    findings: List[Finding] = []
    new_files: Dict[str, Any] = {}
    for ctx in contexts:
        key = str(ctx.path)
        entry = cached_files.get(key)
        if (
            isinstance(entry, dict)
            and entry.get("sha256") == ctx.sha256
            and isinstance(entry.get("findings"), list)
        ):
            file_findings = [_finding_from_row(row) for row in entry["findings"]]
        else:
            file_findings = run_file_rules(ctx, file_rules)
        findings.extend(file_findings)
        new_files[key] = {
            "sha256": ctx.sha256,
            "findings": [_finding_to_row(f) for f in file_findings],
        }

    project_rows: List[Any] = []
    flow_fingerprint = ""
    if project_rules:
        from .flow import build_flow_graph

        graph = build_flow_graph(contexts)
        flow_fingerprint = graph.fingerprint
        if cache.get("flow_fingerprint") == flow_fingerprint and isinstance(
            cache.get("project_findings"), list
        ):
            project_findings = [
                _finding_from_row(row) for row in cache["project_findings"]
            ]
        else:
            project_findings = run_project_rules(graph, project_rules, contexts)
        findings.extend(project_findings)
        project_rows = [_finding_to_row(f) for f in project_findings]

    try:
        cache_file.write_text(
            json.dumps(
                {
                    "version": _CACHE_VERSION,
                    "rules": fingerprint,
                    "flow_fingerprint": flow_fingerprint,
                    "files": new_files,
                    "project_findings": project_rows,
                },
                indent=1,
            )
        )
    except OSError:
        pass  # a read-only checkout still lints, just never warms up

    return LintResult(
        findings=sorted(findings),
        files_checked=len(contexts),
        rules_run=len(rules),
        errors=errors,
    )
