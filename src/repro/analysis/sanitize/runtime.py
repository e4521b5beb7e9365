"""Sanitizer core: the trap log, arming state, and patch plumbing.

Each sanitizer module registers an ``(arm, disarm)`` pair here.  Arming
is idempotent per sanitizer and reference-free: :func:`disarm` restores
every patched binding, so tests can arm and disarm freely.  Traps are
*recorded*, never raised — a sanitized experiment runs to completion and
reports everything it hit, mirroring how AddressSanitizer-style runtimes
fail at the end rather than on first fault.  Identical traps (same
sanitizer, message, and source location) are collapsed into one record
with a count so a trap inside a hot loop cannot flood the log.

The module holds no NumPy or kernel imports of its own; the concrete
sanitizers (:mod:`.overflow`, :mod:`.fork`, :mod:`.floats`) import their targets lazily at arm time, keeping
``import repro`` cost unchanged when no sanitizer is requested.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Tuple

from ..knobs import env_list

__all__ = [
    "SANITIZER_NAMES",
    "RULE_IDS",
    "MAX_TRAPS",
    "Trap",
    "record_trap",
    "take_traps",
    "trap_count",
    "arm",
    "disarm",
    "armed",
    "sanitizers",
    "bootstrap",
    "caller_site",
    "fp_trap",
    "patch_everywhere",
]

#: The sanitizers ``REPRO_SAN`` accepts, in arming order (``overflow``
#: must patch the pristine kernels before ``fork`` wraps the pool).
SANITIZER_NAMES: Tuple[str, ...] = (
    "overflow",
    "fork",
    "float",
)

#: Rule ids, one per sanitizer (the dynamic counterpart of RLxxx).
RULE_IDS: Dict[str, str] = {
    "overflow": "RS001",
    "fork": "RS003",
    "float": "RS004",
}

#: Distinct trap sites retained before further recording is dropped (a
#: runaway sanitizer must not consume unbounded memory).
MAX_TRAPS = 1000

_ENV_SAN = "REPRO_SAN"


@dataclass(frozen=True)
class Trap:
    """One recorded sanitizer fault (or a collapsed run of identical ones).

    Attributes
    ----------
    sanitizer:
        Which sanitizer fired (a member of :data:`SANITIZER_NAMES`).
    message:
        Human-readable description of the fault.
    path:
        Source file of the nearest non-sanitizer caller frame.
    line:
        Line number within ``path``.
    count:
        How many identical faults this record stands for.
    """

    sanitizer: str
    message: str
    path: str
    line: int
    count: int = 1

    @property
    def rule_id(self) -> str:
        """The rule id this trap reports under (printed by :meth:`format`)."""
        return RULE_IDS[self.sanitizer]

    def format(self) -> str:
        """``path:line: RSxxx [sanitizer] message (xN)`` single-line form."""
        times = f" (x{self.count})" if self.count > 1 else ""
        return (
            f"{self.path}:{self.line}: {self.rule_id} "
            f"[{self.sanitizer}] {self.message}{times}"
        )


_traps: Dict[Tuple[str, str, str, int], int] = {}
_order: List[Tuple[str, str, str, int]] = []
_armed: List[str] = []
_undo: Dict[str, Callable[[], None]] = {}

#: Path fragments whose frames never count as the trap's source site.
_SKIP_FRAGMENTS = ("repro/analysis/sanitize/", "numpy/", "importlib/")

#: Exceptions to the skip list: the seeded-violation probes *are* the
#: faulting user code, even though they live inside the package.
_ALLOW_FRAGMENTS = ("repro/analysis/sanitize/fixtures.py",)


def caller_site(skip_extra: Iterable[str] = ()) -> Tuple[str, int]:
    """The nearest stack frame outside the sanitizer machinery.

    Walks outward past sanitizer, NumPy, and import frames (plus any
    ``skip_extra`` path fragments) so a trap points at the kernel call
    that misbehaved, not at the wrapper that noticed.
    """
    fragments = tuple(_SKIP_FRAGMENTS) + tuple(skip_extra)
    frame = sys._getframe(1)
    while frame is not None:
        filename = frame.f_code.co_filename.replace("\\", "/")
        if any(frag in filename for frag in _ALLOW_FRAGMENTS) or not any(
            frag in filename for frag in fragments
        ):
            return filename, frame.f_lineno
        frame = frame.f_back
    return "<unknown>", 0


def record_trap(
    sanitizer: str, message: str, site: Optional[Tuple[str, int]] = None
) -> None:
    """Record one sanitizer fault (collapsing repeats at the same site)."""
    if sanitizer not in RULE_IDS:
        raise ValueError(
            f"unknown sanitizer {sanitizer!r}; known: {', '.join(SANITIZER_NAMES)}"
        )
    path, line = site if site is not None else caller_site()
    key = (sanitizer, message, path, line)
    if key in _traps:
        _traps[key] += 1
    elif len(_order) < MAX_TRAPS:
        _traps[key] = 1
        _order.append(key)


def take_traps() -> List[Trap]:
    """Drain and return every recorded trap, in first-seen order."""
    out = [
        Trap(sanitizer=s, message=m, path=p, line=ln, count=_traps[(s, m, p, ln)])
        for (s, m, p, ln) in _order
    ]
    _traps.clear()
    _order.clear()
    return out


def trap_count() -> int:
    """Total faults recorded and not yet drained (repeats included)."""
    return sum(_traps.values())


def _registry() -> Dict[str, Callable[[], Callable[[], None]]]:
    """Import the sanitizer modules and map name -> arm function.

    Lazy so ``import repro`` never pays for sanitizer wiring; each arm
    function performs its patches and returns the matching undo.
    """
    from . import floats, fork, overflow

    return {
        "overflow": overflow.arm,
        "fork": fork.arm,
        "float": floats.arm,
    }


def arm(names: Iterable[str]) -> None:
    """Arm the named sanitizers (idempotent per name, order-normalized)."""
    requested = list(names)
    unknown = sorted(set(requested) - set(SANITIZER_NAMES))
    if unknown:
        raise ValueError(
            f"unknown sanitizer(s) {', '.join(unknown)}; "
            f"known: {', '.join(SANITIZER_NAMES)}"
        )
    registry = _registry()
    for name in SANITIZER_NAMES:  # canonical arming order
        if name in requested and name not in _armed:
            _undo[name] = registry[name]()
            _armed.append(name)


def disarm() -> None:
    """Disarm every armed sanitizer, restoring all patched bindings."""
    while _armed:
        name = _armed.pop()
        undo = _undo.pop(name, None)
        if undo is not None:
            undo()


def armed() -> Tuple[str, ...]:
    """The currently armed sanitizers, in arming order."""
    return tuple(_armed)


@contextmanager
def sanitizers(names: Iterable[str]) -> Iterator[None]:
    """Scope :func:`arm`/:func:`disarm` to a block (fully disarms after)."""
    previously = armed()
    arm(names)
    try:
        yield
    finally:
        disarm()
        if previously:
            arm(previously)


def bootstrap() -> None:
    """Arm the sanitizers named by ``REPRO_SAN`` (called at package import).

    Reading through the declared-knob registry means a typo'd variable
    name fails loudly; an unknown sanitizer *value* also raises, so CI
    cannot silently run un-sanitized.
    """
    names = env_list(_ENV_SAN)
    if names:
        arm(names)


def fp_trap(err: str, flag: int) -> None:
    """Shared ``np.seterrcall`` hook routing faults to their sanitizer.

    ``np.seterrcall`` holds a single handler process-wide, so the
    ``overflow`` and ``float`` sanitizers install this one dispatcher
    rather than clobbering each other: floating overflow reports as
    RS001, invalid operations as RS004.  Error classes neither sanitizer
    armed never reach the handler (their mode stays non-``call``).
    """
    sanitizer = "overflow" if "overflow" in err else "float"
    record_trap(
        sanitizer, f"floating-point fault ({err}, flag {flag}) under np.seterr"
    )


def patch_everywhere(original: Any, replacement: Any) -> Callable[[], None]:
    """Rebind ``original`` to ``replacement`` in every loaded repro module.

    ``from x import f`` copies bindings, so patching only the defining
    module misses consumers that imported the name directly.  This scans
    ``sys.modules`` for repro modules holding an attribute that *is*
    ``original`` and swaps each one, returning an undo closure that
    restores every binding it touched.
    """
    touched: List[Tuple[Any, str]] = []
    for mod_name, module in list(sys.modules.items()):
        if module is None or not mod_name.startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                touched.append((module, attr))

    def undo() -> None:
        for module, attr in touched:
            setattr(module, attr, original)

    return undo
