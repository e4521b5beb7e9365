"""The repro sanitizer runtime (``repro san``, ``REPRO_SAN=...``).

The static rules in :mod:`repro.analysis.rules` prove properties of
source text; the sanitizers in this package cross-validate those proofs
at runtime by arming cheap dynamic checks around the same invariants:

``overflow`` (RS001)
    uint64 wraparound in the packed-key kernels.  NumPy wraps unsigned
    integer arithmetic silently, so the sanitizer re-derives each pack's
    true maximum in exact Python ints — cross-validating rule RL011 and
    the index-space check every matrix shape passes — and arms
    ``np.seterr`` for floating overflow.
``fork`` (RS003)
    worker-side mutation of inputs submitted to the process pool, which
    fork semantics silently discard.  Each submission is fingerprinted
    on both sides of the pool boundary.
``float`` (RS004)
    NaN/inf escaping the statistical fit kernels, plus invalid
    floating-point operations trapped via ``np.seterr``.

Arm sanitizers for a process with the declared knob
``REPRO_SAN=overflow,fork`` (read once at package import), with
:func:`arm`/:func:`disarm`, or scoped with the :func:`sanitizers`
context manager.  Traps are recorded, not raised: :func:`take_traps`
drains them, and ``repro san`` prints each one under its RSxxx rule id.
"""

from .runtime import (
    RULE_IDS,
    SANITIZER_NAMES,
    Trap,
    armed,
    arm,
    bootstrap,
    disarm,
    record_trap,
    sanitizers,
    take_traps,
    trap_count,
)

__all__ = [
    "RULE_IDS",
    "SANITIZER_NAMES",
    "Trap",
    "armed",
    "arm",
    "bootstrap",
    "disarm",
    "record_trap",
    "sanitizers",
    "take_traps",
    "trap_count",
]
