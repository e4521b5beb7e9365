"""SARIF 2.1.0 output for repro-lint and repro-san.

SARIF (Static Analysis Results Interchange Format, OASIS) is the
interchange format GitHub code scanning ingests: uploading the log from
CI turns each finding into an inline annotation on the offending line of
a pull request.  This module emits the minimal schema-valid subset —
one run, the full rule catalogue as ``reportingDescriptor`` entries
(so the allowlist tag and help text travel with the log), one
``result`` per finding, and parse failures as tool-execution
notifications so a syntactically broken file fails visibly rather than
silently shrinking the result set.

File URIs are emitted as the relative posix form of the path exactly as
linted, which matches what code scanning expects when the linter runs
from the repository root (CI does).

The sanitizer runtime (:mod:`repro.analysis.sanitize`) reports into the
same format: :func:`sanitizer_sarif` renders recorded traps as a
``repro-san`` run (rules RS001-RS004), and :func:`merge_sarif` folds any
number of single-run logs into one multi-run log, so the static findings
and the dynamic traps of a CI pipeline land in a single upload.
"""

from __future__ import annotations

import json
from pathlib import PurePath
from typing import Any, Dict, List, Sequence

from .engine import LintResult, Rule

__all__ = [
    "to_sarif",
    "format_sarif",
    "sanitizer_sarif",
    "merge_sarif",
    "format_merged_sarif",
    "SARIF_VERSION",
    "SARIF_SCHEMA",
]

SARIF_VERSION = "2.1.0"
SARIF_SCHEMA = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)

_TOOL_URI = "https://github.com/paper-repro/repro/blob/main/docs/STATIC_ANALYSIS.md"


def _rule_descriptor(rule: Rule) -> Dict[str, Any]:
    return {
        "id": rule.id,
        "name": type(rule).__name__,
        "shortDescription": {"text": rule.description},
        "helpUri": _TOOL_URI,
        "defaultConfiguration": {"level": "error"},
        "properties": {
            "tags": ["repro-lint"],
            "suppressionComment": f"# lint: allow-{rule.tag}",
        },
    }


def to_sarif(result: LintResult, rules: Sequence[Rule]) -> Dict[str, Any]:
    """The lint result as a SARIF 2.1.0 log object (JSON-serializable).

    ``rules`` should be the rule set the run executed; every finding's
    ``ruleId`` must appear in it for the emitted ``ruleIndex`` links to
    hold (an unknown id falls back to an index-less result).
    """
    descriptors = [_rule_descriptor(r) for r in rules]
    index_of = {r.id: i for i, r in enumerate(rules)}
    results: List[Dict[str, Any]] = []
    for f in result.findings:
        entry: Dict[str, Any] = {
            "ruleId": f.rule_id,
            "level": "error",
            "message": {"text": f.message},
            "locations": [
                {
                    "physicalLocation": {
                        "artifactLocation": {"uri": PurePath(f.path).as_posix()},
                        "region": {"startLine": f.line, "startColumn": f.col},
                    }
                }
            ],
        }
        if f.rule_id in index_of:
            entry["ruleIndex"] = index_of[f.rule_id]
        results.append(entry)
    invocation: Dict[str, Any] = {"executionSuccessful": not result.errors}
    if result.errors:
        invocation["toolExecutionNotifications"] = [
            {"level": "error", "message": {"text": err}} for err in result.errors
        ]
    return {
        "$schema": SARIF_SCHEMA,
        "version": SARIF_VERSION,
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "repro-lint",
                        "informationUri": _TOOL_URI,
                        "rules": descriptors,
                    }
                },
                "invocations": [invocation],
                "columnKind": "unicodeCodePoints",
                "results": results,
            }
        ],
    }


def format_sarif(result: LintResult, rules: Sequence[Rule]) -> str:
    """Serialized SARIF log text (two-space indent, trailing newline)."""
    return json.dumps(to_sarif(result, rules), indent=2) + "\n"


#: Short descriptions for the sanitizer rule catalogue (RS001-RS004).
_SANITIZER_RULES = (
    ("RS001", "overflow", "uint64 wraparound in a packed-key kernel"),
    ("RS002", "mutate", "canonical buffer changed after construction"),
    ("RS003", "fork", "pool worker mutated its submitted input"),
    ("RS004", "float", "NaN/inf escaped a statistical fit kernel"),
)


def sanitizer_sarif(traps: Sequence[Any]) -> Dict[str, Any]:
    """Recorded sanitizer traps as a single-run SARIF 2.1.0 log.

    ``traps`` are :class:`repro.analysis.sanitize.Trap` records (duck
    typed on ``rule_id``/``message``/``path``/``line``/``count``).  The
    run's driver is ``repro-san``; each trap becomes one result, with
    collapsed repeat counts carried in ``occurrenceCount``.
    """
    descriptors = [
        {
            "id": rule_id,
            "name": f"san-{name}",
            "shortDescription": {"text": text},
            "helpUri": _TOOL_URI,
            "defaultConfiguration": {"level": "error"},
            "properties": {"tags": ["repro-san"], "sanitizer": name},
        }
        for rule_id, name, text in _SANITIZER_RULES
    ]
    index_of = {rule_id: i for i, (rule_id, _, _) in enumerate(_SANITIZER_RULES)}
    results: List[Dict[str, Any]] = []
    for trap in traps:
        entry: Dict[str, Any] = {
            "ruleId": trap.rule_id,
            "ruleIndex": index_of[trap.rule_id],
            "level": "error",
            "message": {"text": trap.message},
            "occurrenceCount": trap.count,
            "locations": [
                {
                    "physicalLocation": {
                        "artifactLocation": {"uri": PurePath(trap.path).as_posix()},
                        "region": {"startLine": max(trap.line, 1), "startColumn": 1},
                    }
                }
            ],
        }
        results.append(entry)
    return {
        "$schema": SARIF_SCHEMA,
        "version": SARIF_VERSION,
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "repro-san",
                        "informationUri": _TOOL_URI,
                        "rules": descriptors,
                    }
                },
                "invocations": [{"executionSuccessful": True}],
                "columnKind": "unicodeCodePoints",
                "results": results,
            }
        ],
    }


def merge_sarif(logs: Sequence[Dict[str, Any]]) -> Dict[str, Any]:
    """Fold SARIF logs into one multi-run log (runs concatenated in order).

    Each input must be a SARIF 2.1.0 log object; version skew or a
    missing ``runs`` list raises ``ValueError`` rather than emitting a
    log code scanning would reject.
    """
    runs: List[Dict[str, Any]] = []
    for i, log in enumerate(logs):
        version = log.get("version")
        if version != SARIF_VERSION:
            raise ValueError(
                f"log {i} has SARIF version {version!r}, expected {SARIF_VERSION}"
            )
        log_runs = log.get("runs")
        if not isinstance(log_runs, list):
            raise ValueError(f"log {i} has no 'runs' list")
        runs.extend(log_runs)
    return {"$schema": SARIF_SCHEMA, "version": SARIF_VERSION, "runs": runs}


def format_merged_sarif(logs: Sequence[Dict[str, Any]]) -> str:
    """Serialized merged log text (two-space indent, trailing newline)."""
    return json.dumps(merge_sarif(logs), indent=2) + "\n"
