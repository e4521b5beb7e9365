"""The declared environment-knob registry.

Every environment variable the package reads is declared here, once,
with its type, default and owning module.  Library code never touches
``os.environ`` directly (lint rule RL012): it calls the typed readers in
this module — :func:`env_flag`, :func:`env_int`, :func:`env_str`,
:func:`env_list` — which refuse undeclared names.  That buys three
things:

* a typo'd knob (``REPRO_TRCAE=1``) fails loudly instead of silently
  doing nothing;
* the full knob surface is enumerable — ``repro lint --knobs`` prints
  the registry as the markdown table embedded in
  ``docs/STATIC_ANALYSIS.md`` (a test pins the two together, so the
  docs cannot drift from the code);
* the static rule RL012 can verify, project-wide, that no module grew a
  private back-channel configuration path.

This module imports nothing from the rest of the package (stdlib only),
so every layer — including :mod:`repro.obs.spans`, itself a
leaf dependency — can read knobs without import cycles.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import List, Optional, Tuple

__all__ = [
    "Knob",
    "KNOBS",
    "knob_names",
    "declared",
    "env_raw",
    "env_flag",
    "env_int",
    "env_str",
    "env_list",
    "format_knob_table",
]

#: Values accepted as "on" for flag knobs.
_TRUTHY = ("1", "true", "yes", "on")


@dataclass(frozen=True)
class Knob:
    """One declared environment variable.

    Attributes
    ----------
    name:
        The environment variable, e.g. ``"REPRO_TRACE"``.
    kind:
        ``"flag"`` (truthy switch), ``"int"``, ``"str"`` or ``"list"``
        (comma-separated strings).
    default:
        Human-readable default shown in the docs table.
    description:
        One-line purpose, shown in the docs table.
    owner:
        Module that consumes the knob (anchored path, for the docs).
    """

    name: str
    kind: str
    default: str
    description: str
    owner: str


#: The registry: the single source of truth for the package's env surface.
KNOBS: Tuple[Knob, ...] = (
    Knob(
        "REPRO_TRACE",
        "flag",
        "off",
        "record spans/counters while running (see OBSERVABILITY.md)",
        "repro/obs/spans.py",
    ),
    Knob(
        "REPRO_PROCESSES",
        "int",
        "cpu count",
        "worker count for the persistent process pools (0 forces serial)",
        "repro/parallel/pool.py",
    ),
    Knob(
        "REPRO_MEM_BUDGET",
        "str",
        "(unset)",
        "accumulator memory ceiling (e.g. 512M, 4G); ladders spill to disk above it",
        "repro/hypersparse/spill.py",
    ),
    Knob(
        "REPRO_SAN",
        "list",
        "(empty)",
        "comma-separated sanitizers to arm at import (overflow,fork,float)",
        "repro/analysis/sanitize/runtime.py",
    ),
    Knob(
        "REPRO_DEBUG_INVARIANTS",
        "flag",
        "off",
        "validate canonical-form invariants at runtime",
        "repro/analysis/contracts.py",
    ),
    Knob(
        "REPRO_LOG2_NV",
        "int",
        "18",
        "log2 of the telescope window size N_V (the paper used 30)",
        "repro/experiments/common.py",
    ),
    Knob(
        "REPRO_SOURCES",
        "int",
        "scales with window",
        "synthetic source-population size",
        "repro/experiments/common.py",
    ),
    Knob(
        "REPRO_SEED",
        "int",
        "20220101",
        "master experiment seed",
        "repro/experiments/common.py",
    ),
)

_BY_NAME = {k.name: k for k in KNOBS}


def knob_names() -> frozenset:
    """The set of declared knob names."""
    return frozenset(_BY_NAME)


def declared(name: str) -> Knob:
    """The :class:`Knob` declared under ``name``; KeyError if undeclared."""
    try:
        return _BY_NAME[name]
    except KeyError:
        known = ", ".join(sorted(_BY_NAME))
        raise KeyError(
            f"undeclared environment knob {name!r}; declared knobs: {known} "
            "(add new knobs to repro.analysis.knobs.KNOBS)"
        ) from None


def env_raw(name: str) -> Optional[str]:
    """Raw declared-knob read: the stripped value, or None when unset/empty."""
    declared(name)
    raw = os.environ.get(name, "").strip()
    return raw or None


def env_flag(name: str) -> bool:
    """Truthy-flag read (``1``/``true``/``yes``/``on``, case-insensitive)."""
    raw = env_raw(name)
    return raw is not None and raw.lower() in _TRUTHY


def env_int(name: str) -> Optional[int]:
    """Integer read; None when unset, ValueError naming the knob when malformed."""
    raw = env_raw(name)
    if raw is None:
        return None
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"{name} must be an integer, got {raw!r}") from None


def env_str(name: str, default: str = "") -> str:
    """String read with a default for unset/empty values."""
    raw = env_raw(name)
    return default if raw is None else raw


def env_list(name: str) -> List[str]:
    """Comma-separated list read; empty list when unset."""
    raw = env_raw(name)
    if raw is None:
        return []
    return [p.strip() for p in raw.split(",") if p.strip()]


def format_knob_table() -> str:
    """The registry as a markdown table — the docs' env-var section.

    ``docs/STATIC_ANALYSIS.md`` embeds this table verbatim and a test
    asserts the embedding matches, so the registry is the single source
    for the documented environment surface.
    """
    header = "| Variable | Type | Default | Read by | Purpose |"
    rule = "|---|---|---|---|---|"
    rows = [
        f"| `{k.name}` | {k.kind} | {k.default} | `{k.owner}` | {k.description} |"
        for k in KNOBS
    ]
    return "\n".join([header, rule] + rows)
