"""The ``float`` sanitizer (RS004): NaN/inf must not escape fit kernels.

The statistical fits — :func:`repro.stats.zipf.fit_zipf_mandelbrot`,
:func:`repro.stats.heavy_tail.powerlaw_alpha_mle`,
:func:`repro.fits.fitting.fit_temporal` — sit at the end of every
experiment pipeline, so a non-finite value escaping one silently
poisons tables and shape checks downstream.  Armed, this sanitizer wraps
each fit kernel and scans its return value (floats, arrays, tuples and
dataclass-like attribute bags, recursively to a small depth) for NaN or
infinity, recording an RS004 trap naming the kernel and the offending
field.  ``np.seterr(invalid="call")`` is armed alongside so invalid
operations *inside* a fit (0/0, log of a negative) are trapped at the
operation even when the kernel would have masked them before returning.
"""

from __future__ import annotations

from functools import wraps
from typing import Any, Callable, Dict, List, Tuple

import numpy as np

from .runtime import caller_site, fp_trap, patch_everywhere, record_trap

__all__ = ["arm", "nonfinite_fields"]

#: ``(module, attribute)`` of every wrapped fit kernel.
_FIT_TARGETS: Tuple[Tuple[str, str], ...] = (
    ("repro.stats.zipf", "fit_zipf_mandelbrot"),
    ("repro.stats.heavy_tail", "powerlaw_alpha_mle"),
    ("repro.fits.fitting", "fit_temporal"),
)


def nonfinite_fields(value: Any, prefix: str = "result", depth: int = 3) -> List[str]:
    """Names of non-finite leaves inside a fit result (empty when clean)."""
    if isinstance(value, float):
        return [] if np.isfinite(value) else [prefix]
    if isinstance(value, np.ndarray):
        if value.dtype.kind == "f" and value.size and not np.isfinite(value).all():
            return [prefix]
        return []
    if depth <= 0:
        return []
    out: List[str] = []
    if isinstance(value, (list, tuple)):
        for i, sub in enumerate(value):
            out.extend(nonfinite_fields(sub, f"{prefix}[{i}]", depth - 1))
        return out
    fields = getattr(value, "__dataclass_fields__", None)
    if fields:
        for name in fields:
            out.extend(
                nonfinite_fields(getattr(value, name), f"{prefix}.{name}", depth - 1)
            )
    return out


def _guarded(name: str, orig: Callable[..., Any]) -> Callable[..., Any]:
    """Wrap a fit kernel with the non-finite escape check."""

    @wraps(orig)
    def fit(*args: Any, **kwargs: Any) -> Any:
        result = orig(*args, **kwargs)
        bad = nonfinite_fields(result)
        if bad:
            record_trap(
                "float",
                f"non-finite value escaped {name}: {', '.join(bad)}",
                site=caller_site(),
            )
        return result

    return fit


def arm() -> Callable[[], None]:
    """Arm the float sanitizer; returns the undo closure."""
    import importlib

    undos: List[Callable[[], None]] = []
    for mod_name, attr in _FIT_TARGETS:
        module = importlib.import_module(mod_name)
        orig = getattr(module, attr)
        undos.append(patch_everywhere(orig, _guarded(attr, orig)))

    old_err: Dict[str, str] = np.seterr(invalid="call")
    old_call = np.seterrcall(fp_trap)

    def undo() -> None:
        np.seterrcall(old_call)
        np.seterr(**old_err)
        for u in reversed(undos):
            u()

    return undo
