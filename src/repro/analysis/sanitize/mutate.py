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

Tracking is bounded (:data:`MAX_TRACKED` most recent constructions) so
long runs cannot accumulate unbounded references.
"""

from __future__ import annotations

import hashlib
from collections import deque
from typing import Any, Callable, Deque, List, Tuple

import numpy as np

from ..contracts import add_construct_hook, remove_construct_hook
from .runtime import record_trap

__all__ = ["arm", "verify_frozen", "tracked_count", "MAX_TRACKED"]

#: Most recent constructions retained for end-of-run verification.
MAX_TRACKED = 4096

#: ``(description, buffers, digest)`` per tracked construction.
_tracked: Deque[Tuple[str, Tuple[np.ndarray, ...], str]] = deque(maxlen=MAX_TRACKED)

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
    _tracked.append((f"{kind} {type(obj).__name__}", buffers, _digest(buffers)))


def verify_frozen() -> int:
    """Re-hash every tracked buffer set; record RS002 traps for drift.

    Returns the number of objects whose canonical buffers changed after
    construction.  The trap message names the object kind so the
    offending class is identifiable even long after the write happened.
    """
    drifted = 0
    for desc, buffers, digest in _tracked:
        if _digest(buffers) != digest:
            drifted += 1
            record_trap(
                "mutate",
                f"canonical buffer of a {desc} changed after construction "
                "(a write bypassed the writeable=False freeze)",
            )
    return drifted


def tracked_count() -> int:
    """Number of constructions currently retained for verification."""
    return len(_tracked)


def arm() -> Callable[[], None]:
    """Arm the mutate sanitizer; returns the undo closure."""
    _tracked.clear()
    add_construct_hook(_on_construct)

    def undo() -> None:
        remove_construct_hook(_on_construct)
        _tracked.clear()

    return undo
