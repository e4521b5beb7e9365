"""The ``overflow`` sanitizer (RS001): uint64 wraparound in key packing.

NumPy wraps unsigned integer arithmetic silently — ``np.seterr`` has no
integer mode.  Packed keys are guarded twice before they are made:
rule RL011 keeps the packing arithmetic at uint64 width, and
:func:`repro.hypersparse.coo.checked_shape` keeps every matrix's index
space within ``2^64``.  This sanitizer cross-validates both at runtime:
it wraps the key-packing function of :mod:`repro.hypersparse.coo` so
each pack's true maximum is re-derived in exact Python ints (which
cannot wrap) from the actual runtime operands, and wraps the sort-pack
kernel ``_stable_sorted_with_order`` likewise, re-validating its
bit-length guard on every call.  Either wrapper records an RS001 trap
whenever the packed range leaves uint64.

Floating-point overflow is also armed (``np.seterr(over="call")``) so a
diverging fit or spectral kernel is caught by the same trap log.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List

import numpy as np

from .runtime import caller_site, fp_trap, patch_everywhere, record_trap

__all__ = ["arm", "U64_MAX"]

#: The uint64 ceiling the packed-key kernels must stay under.
U64_MAX = 2**64 - 1


def _peak_pack(rows: np.ndarray, cols: np.ndarray, ncols: int) -> int:
    """The exact maximum key ``_pack_keys`` would produce, as a Python int."""
    r, c = int(rows.max()), int(cols.max())
    if ncols & (ncols - 1) == 0:
        return (r << (ncols.bit_length() - 1)) | c
    return r * ncols + c


def _checked_pack_keys(orig: Callable[..., Any]) -> Callable[..., Any]:
    """Wrap the ``_pack_keys`` function with an exact range check."""

    def pack_keys(rows: np.ndarray, cols: np.ndarray, ncols: int) -> Any:
        if rows.size:
            peak = _peak_pack(rows, cols, int(ncols))
            if peak > U64_MAX:
                record_trap(
                    "overflow",
                    f"packed key maximum {peak} exceeds uint64 "
                    f"({U64_MAX}); the pack wrapped silently "
                    f"(ncols={int(ncols)}, max row {int(rows.max())}, "
                    f"max col {int(cols.max())})",
                    site=caller_site(),
                )
        return orig(rows, cols, ncols)

    return pack_keys


def _checked_stable_sort(orig: Callable[..., Any]) -> Callable[..., Any]:
    """Re-validate the bit-length guard of ``_stable_sorted_with_order``.

    The kernel's fast path packs ``(value << index_bits) | index``; its
    guard falls back to the stable argsort whenever the pack could leave
    64 bits.  No static rule judges that guard, so the sanitizer
    re-checks the *actual* packed maximum whenever the fast path is
    taken.
    """

    def stable_sorted_with_order(coord: np.ndarray, bound: int) -> Any:
        n = coord.size
        if n:
            shift = (n - 1).bit_length() if n > 1 else 1
            if not ((int(bound) - 1) >> (64 - shift)):
                peak = (int(coord.max()) << shift) | (n - 1)
                if peak > U64_MAX:
                    record_trap(
                        "overflow",
                        f"sort-pack maximum {peak} exceeds uint64: the "
                        f"bit-length guard admitted an overflowing pack "
                        f"(n={n}, bound={int(bound)}, max coord "
                        f"{int(coord.max())})",
                        site=caller_site(),
                    )
        return orig(coord, bound)

    return stable_sorted_with_order


def arm() -> Callable[[], None]:
    """Arm the overflow sanitizer; returns the undo closure.

    Both wrapped functions are swapped into every module-level binding
    that holds them, so ``from .coo import ...`` consumers see the
    checked versions too.
    """
    from ...hypersparse import coo

    undos: List[Callable[[], None]] = []

    orig_pack = coo._pack_keys
    undos.append(patch_everywhere(orig_pack, _checked_pack_keys(orig_pack)))

    orig_sort = coo._stable_sorted_with_order
    undos.append(patch_everywhere(orig_sort, _checked_stable_sort(orig_sort)))

    old_err: Dict[str, str] = np.seterr(over="call")
    old_call = np.seterrcall(fp_trap)

    def undo() -> None:
        np.seterrcall(old_call)
        np.seterr(**old_err)
        for u in reversed(undos):
            u()

    return undo
