"""Project configuration for repro-lint (``[tool.repro-lint]``).

Rule *logic* lives in :mod:`repro.analysis.rules`; rule *scope* that is a
property of this particular tree — which modules count as hot paths
(RL003), which package holds canonical-form data (RL008) — is
configuration, declared in ``pyproject.toml``::

    [tool.repro-lint]
    hot-modules = ["repro/hypersparse/ops.py", ...]
    canonical-scope = ["repro/hypersparse/"]

Unknown keys and wrong value types are hard errors (exit 2 from the
CLI), so a typo'd table cannot silently widen or narrow a rule's reach.
When no ``pyproject.toml`` is found — linting an installed package from
an arbitrary directory — the shipped defaults below apply; they match
the repository's own table.

Parsing uses :mod:`tomllib` (Python >= 3.11).  On 3.10, where the stdlib
has no TOML parser, the defaults apply and a note is attached to the
returned config; the CI lint job runs on a tomllib-capable interpreter.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Any, Dict, Optional, Tuple

__all__ = [
    "LintConfig",
    "ConfigError",
    "DEFAULT_HOT_MODULES",
    "DEFAULT_CANONICAL_SCOPE",
    "load_config",
    "find_pyproject",
]

#: Hot-path modules where per-entry Python loops are forbidden (RL003).
DEFAULT_HOT_MODULES: Tuple[str, ...] = (
    "repro/hypersparse/ops.py",
    "repro/hypersparse/coo.py",
    "repro/hypersparse/merge.py",
    "repro/d4m/ops.py",
)

#: Packages whose canonical-form data must never be re-sorted (RL008).
DEFAULT_CANONICAL_SCOPE: Tuple[str, ...] = ("repro/hypersparse/",)

#: ``pyproject.toml`` keys accepted in ``[tool.repro-lint]`` and the
#: :class:`LintConfig` fields they populate.
_KEYS = {
    "hot-modules": "hot_modules",
    "canonical-scope": "canonical_scope",
}


class ConfigError(ValueError):
    """A malformed ``[tool.repro-lint]`` table (bad key, type, or TOML)."""


@dataclass(frozen=True)
class LintConfig:
    """Resolved repro-lint configuration handed to every rule."""

    hot_modules: Tuple[str, ...] = DEFAULT_HOT_MODULES
    canonical_scope: Tuple[str, ...] = DEFAULT_CANONICAL_SCOPE
    #: Where the values came from (for diagnostics): ``"defaults"``,
    #: ``"<path to pyproject.toml>"`` or ``"defaults (no TOML parser)"``.
    source: str = field(default="defaults", compare=False)


def find_pyproject(start: Optional[Path] = None) -> Optional[Path]:
    """The nearest ``pyproject.toml`` at or above ``start`` (default cwd)."""
    here = (start or Path.cwd()).resolve()
    for candidate in [here, *here.parents]:
        p = candidate / "pyproject.toml"
        if p.is_file():
            return p
    return None


def _string_tuple(key: str, value: Any, source: str) -> Tuple[str, ...]:
    """Validate a config value as a list of strings (or one string)."""
    if isinstance(value, str):
        return (value,)
    if isinstance(value, (list, tuple)) and all(isinstance(v, str) for v in value):
        if not value:
            raise ConfigError(f"[tool.repro-lint] {key} in {source} must not be empty")
        return tuple(value)
    raise ConfigError(
        f"[tool.repro-lint] {key} in {source} must be a string or list of "
        f"strings, got {value!r}"
    )


def parse_table(table: Dict[str, Any], source: str) -> LintConfig:
    """Build a :class:`LintConfig` from a decoded ``[tool.repro-lint]`` table.

    Raises :class:`ConfigError` on unknown keys or wrong value types.
    """
    unknown = sorted(set(table) - set(_KEYS))
    if unknown:
        raise ConfigError(
            f"unknown [tool.repro-lint] key(s) in {source}: {', '.join(unknown)}; "
            f"known keys: {', '.join(sorted(_KEYS))}"
        )
    values: Dict[str, Any] = {"source": source}
    for key, attr in _KEYS.items():
        if key in table:
            values[attr] = _string_tuple(key, table[key], source)
    return LintConfig(**values)


def load_config(start: Optional[Path] = None) -> LintConfig:
    """Load ``[tool.repro-lint]`` from the nearest ``pyproject.toml``.

    Returns the shipped defaults when no ``pyproject.toml`` exists, the
    file carries no ``[tool.repro-lint]`` table, or the interpreter has
    no TOML parser (Python 3.10).  Malformed TOML or a malformed table
    raises :class:`ConfigError` with the offending path in the message.
    """
    pyproject = find_pyproject(start)
    if pyproject is None:
        return LintConfig()
    try:
        import tomllib
    except ImportError:  # pragma: no cover - Python 3.10 fallback
        return LintConfig(source="defaults (no TOML parser)")
    try:
        with open(pyproject, "rb") as fh:
            data = tomllib.load(fh)
    except tomllib.TOMLDecodeError as exc:
        raise ConfigError(f"malformed TOML in {pyproject}: {exc}") from None
    except OSError as exc:
        raise ConfigError(f"cannot read {pyproject}: {exc}") from None
    table = data.get("tool", {}).get("repro-lint")
    if table is None:
        return LintConfig()
    if not isinstance(table, dict):
        raise ConfigError(f"[tool.repro-lint] in {pyproject} must be a table")
    return parse_table(table, str(pyproject))


# The dataclass and _KEYS must stay in sync; guard it at import time so a
# new config field cannot be added without wiring its pyproject key.
assert set(_KEYS.values()) <= {f.name for f in fields(LintConfig)}
