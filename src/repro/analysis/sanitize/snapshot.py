"""The ``snapshot`` sanitizer (RS006): published-snapshot integrity.

The streaming service (:mod:`repro.serve`) hands concurrent readers
frozen, epoch-numbered snapshots; rule RL019 proves the freeze happens
at the publish boundary and RL020 proves every acquire is matched by a
release.  Armed, this sanitizer cross-validates both proofs at runtime:

* every published snapshot is fingerprinted (SHA-256 over its canonical
  buffers, :func:`repro.serve.snapshot.snapshot_buffers`) and re-hashed
  each time a reader lease is released — any write that slipped past
  the read-only flags between publish and release records an RS006
  trap;
* the engine's lease lifecycle faults (release without a lease, close
  with leases outstanding) are promoted from silent no-ops to RS006
  traps;
* :func:`verify_released` asserts at end of run that no lease outlived
  its reader, the runtime analogue of RL020's per-path obligation.

Patching is confined to the engine class's own attributes, so disarming
restores the exact original bindings.
"""

from __future__ import annotations

import hashlib
from typing import Callable, Dict, Tuple

from .runtime import record_trap

__all__ = ["arm", "verify_released"]

#: Publish-time fingerprints: (engine id, epoch) -> (digest, snapshot).
#: Snapshot references are kept so end-of-run verification can re-hash.
_published: Dict[Tuple[int, int], Tuple[str, object]] = {}
#: Outstanding lease counts per (engine id, epoch).
_leases: Dict[Tuple[int, int], int] = {}
_armed = False

#: Eviction bound on the publish registry (long-running engines publish
#: unboundedly many epochs; old, fully-released epochs age out first).
MAX_TRACKED = 4096


def _snapshot_digest(snap) -> str:
    """Content hash over the snapshot's canonical buffers."""
    from ...serve.snapshot import snapshot_buffers

    h = hashlib.sha256()
    for arr in snapshot_buffers(snap):
        h.update(str(arr.dtype).encode())
        h.update(str(arr.shape).encode())
        h.update(arr.tobytes())
    return h.hexdigest()


def _check(key: Tuple[int, int]) -> None:
    entry = _published.get(key)
    if entry is None:
        return
    digest, snap = entry
    if _snapshot_digest(snap) != digest:
        record_trap(
            "snapshot",
            f"snapshot epoch {key[1]} buffers changed between publish and "
            "reader release (published snapshots are immutable; derive a "
            "new epoch instead of writing in place)",
        )
        # Re-fingerprint so one scribble is one trap, not one per reader.
        _published[key] = (_snapshot_digest(snap), snap)


def verify_released() -> int:
    """Trap every lease still outstanding; returns how many there were.

    Called at the end of a ``repro san`` / ``repro serve smoke`` run: a
    lease that survives its reader is a leak RL020's per-path proof
    could not see.  Silent when the sanitizer is not armed.
    """
    if not _armed:
        return 0
    leaked = 0
    for key, count in sorted(_leases.items()):
        if count > 0:
            leaked += count
            record_trap(
                "snapshot",
                f"{count} reader lease(s) on snapshot epoch {key[1]} never "
                "released (leak: acquire without matching release)",
            )
        _check(key)
    return leaked


def arm() -> Callable[[], None]:
    """Arm the snapshot sanitizer; returns the undo closure."""
    global _armed
    from ...serve import engine as serve_engine

    _published.clear()
    _leases.clear()
    cls = serve_engine.CorrelationEngine
    orig_publish = cls.publish
    orig_acquire = cls.acquire
    orig_release = cls.release
    orig_fault = serve_engine._lifecycle_fault

    def checked_publish(self):
        snap = orig_publish(self)
        while len(_published) >= MAX_TRACKED:
            _published.pop(next(iter(_published)))
        _published[(id(self), snap.epoch)] = (_snapshot_digest(snap), snap)
        return snap

    def checked_acquire(self):
        snap = orig_acquire(self)
        key = (id(self), snap.epoch)
        _leases[key] = _leases.get(key, 0) + 1
        return snap

    def checked_release(self, snap):
        key = (id(self), snap.epoch)
        _check(key)
        held = _leases.get(key, 0)
        if held > 0:
            _leases[key] = held - 1
        orig_release(self, snap)

    def trapping_fault(message: str) -> None:
        record_trap("snapshot", f"snapshot lifecycle fault: {message}")
        orig_fault(message)

    cls.publish = checked_publish
    cls.acquire = checked_acquire
    cls.release = checked_release
    serve_engine._lifecycle_fault = trapping_fault
    _armed = True

    def undo() -> None:
        global _armed
        cls.publish = orig_publish
        cls.acquire = orig_acquire
        cls.release = orig_release
        serve_engine._lifecycle_fault = orig_fault
        _published.clear()
        _leases.clear()
        _armed = False

    return undo
