"""The ``mutate`` sanitizer (RS002): canonical buffers must stay frozen.

Kernel objects (:class:`~repro.hypersparse.coo.HyperSparseMatrix`,
:class:`~repro.hypersparse.coo.SparseVec`,
:class:`~repro.d4m.assoc.Assoc`) and published engine snapshots
(:class:`~repro.serve.snapshot.EngineSnapshot`) are immutable by
contract — rule RL010 proves no *source* statement mutates the kernel
objects, but aliasing through NumPy views can defeat any static check.  Armed, this sanitizer hooks every
construction (via :func:`repro.analysis.contracts.add_construct_hook`)
and

* flips ``writeable=False`` on each canonical buffer, turning an
  in-place write into an immediate ``ValueError`` at the offending
  statement, and
* fingerprints the buffers, so :func:`verify_frozen` can prove at any
  later point — typically the end of a ``repro san`` run — that no code
  path re-enabled the flag and wrote anyway, recording an RS002 trap
  per drifted object if one did.

Tracking holds the buffers only weakly and is bounded
(:data:`MAX_TRACKED` most recent constructions): an entry goes as soon
as one of its buffers is freed, so the sanitizer never keeps a dead
object's memory alive.  :func:`verify_frozen` therefore checks the
objects that are still alive; a scribbled object that dies first goes
unseen, while a plain in-place write still raises at the statement.
"""

from __future__ import annotations

import hashlib
import itertools
import weakref
from typing import Any, Callable, Dict, List, Tuple

import numpy as np

from ..contracts import add_construct_hook, remove_construct_hook
from .runtime import record_trap

__all__ = ["arm", "verify_frozen", "tracked_count", "MAX_TRACKED"]

#: Most recent constructions retained for end-of-run verification.
MAX_TRACKED = 4096

#: ``(description, weak buffer refs, digest)`` per live tracked
#: construction, oldest first.
_tracked: Dict[int, Tuple[str, Tuple["weakref.ref[np.ndarray]", ...], str]] = {}
_serial = itertools.count()

_BUFFER_ATTRS = {
    "matrix": ("_keys", "_rows", "_cols", "vals"),
    "vector": ("keys", "vals"),
    "assoc": ("row", "col", "val"),
}


def _buffers(kind: str, obj: Any) -> List[np.ndarray]:
    """The object's canonical ndarray buffers (lazy/absent ones skipped)."""
    if kind == "snapshot":
        from ...serve.snapshot import snapshot_buffers

        return list(snapshot_buffers(obj))
    out = []
    for attr in _BUFFER_ATTRS.get(kind, ()):
        arr = getattr(obj, attr, None)
        if isinstance(arr, np.ndarray):
            out.append(arr)
    return out


def _digest(buffers: Tuple[np.ndarray, ...]) -> str:
    """Content hash of the buffers (object-dtype arrays hash by repr)."""
    h = hashlib.sha256()
    for arr in buffers:
        h.update(str(arr.dtype).encode())
        h.update(str(arr.shape).encode())
        if arr.dtype.hasobject:
            h.update(repr(arr.tolist()).encode())
        else:
            h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def _on_construct(kind: str, obj: Any) -> None:
    """Freeze and fingerprint a freshly constructed kernel object."""
    buffers = tuple(_buffers(kind, obj))
    if not buffers:
        return
    for arr in buffers:
        arr.flags.writeable = False
    key = next(_serial)

    def forget(_ref: "weakref.ref[np.ndarray]") -> None:
        _tracked.pop(key, None)

    refs = tuple(weakref.ref(arr, forget) for arr in buffers)
    _tracked[key] = (f"{kind} {type(obj).__name__}", refs, _digest(buffers))
    # Keys are serial, so this keeps the MAX_TRACKED most recent
    # constructions with one atomic pop, whatever other threads insert.
    _tracked.pop(key - MAX_TRACKED, None)


def verify_frozen() -> int:
    """Re-hash every live tracked buffer set; record RS002 traps for drift.

    Returns the number of objects whose canonical buffers changed after
    construction.  The trap message names the object kind so the
    offending class is identifiable even long after the write happened.
    """
    drifted = 0
    for desc, refs, digest in tuple(_tracked.values()):
        buffers = tuple(arr for arr in (ref() for ref in refs) if arr is not None)
        if len(buffers) < len(refs):
            continue  # freed since the entries were listed
        if _digest(buffers) != digest:
            drifted += 1
            record_trap(
                "mutate",
                f"canonical buffer of a {desc} changed after construction "
                "(a write bypassed the writeable=False freeze)",
            )
    return drifted


def tracked_count() -> int:
    """Number of live constructions currently tracked for verification."""
    return len(_tracked)


def arm() -> Callable[[], None]:
    """Arm the mutate sanitizer; returns the undo closure."""
    _tracked.clear()
    add_construct_hook(_on_construct)

    def undo() -> None:
        remove_construct_hook(_on_construct)
        _tracked.clear()

    return undo
