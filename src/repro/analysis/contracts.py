"""Runtime validation of the hypersparse canonical-form invariants.

The static rules in :mod:`repro.analysis.rules` catch invariant
violations you can see in source; this module catches the ones you
can't — a kernel that returns unsorted triples, duplicated coordinates,
or the wrong dtype.  Validation is **off by default** so hot paths stay
allocation-free; enable it with the environment flag::

    REPRO_DEBUG_INVARIANTS=1 python -m pytest tests/hypersparse

or programmatically via :func:`enable_invariants` /
:func:`debug_invariants`.  When disabled, the hooks compiled into
:class:`~repro.hypersparse.coo.HyperSparseMatrix`,
:class:`~repro.hypersparse.coo.SparseVec` and
:class:`~repro.d4m.assoc.Assoc` are a single predicate check;
:func:`validations_performed` counts actual validations so tests can
assert the default path does zero validation work.

This module deliberately imports nothing from the rest of the package
except :mod:`repro.obs.metrics` — itself free of repro imports — so the
kernel layers can depend on it without cycles (everything validated is
duck-typed on ``rows``/``cols``/``vals``/``shape``).  When observability
is on alongside invariant checking, each hook-triggered validation also
increments the ``invariant_checks`` counter, so traces show how much
debug work a run performed.
"""

from __future__ import annotations

from contextlib import contextmanager
from functools import wraps
from typing import Any, Callable, Iterator, TypeVar

import numpy as np

from ..obs.metrics import INVARIANT_CHECKS, inc
from .knobs import env_flag

__all__ = [
    "InvariantViolation",
    "invariants_enabled",
    "enable_invariants",
    "debug_invariants",
    "validations_performed",
    "reset_validation_count",
    "validate_matrix",
    "validate_vector",
    "validate_assoc",
    "check_matrix",
    "check_vector",
    "check_assoc",
    "checked",
]

_ENV_FLAG = "REPRO_DEBUG_INVARIANTS"

_enabled: bool = env_flag(_ENV_FLAG)
_validation_count: int = 0

F = TypeVar("F", bound=Callable[..., Any])


class InvariantViolation(AssertionError):
    """A canonical-form invariant does not hold.

    Subclasses ``AssertionError``: a violation is a programming error in
    a kernel, never a data error — user input problems raise
    ``ValueError``/``TypeError`` at construction instead.
    """


def invariants_enabled() -> bool:
    """True when runtime invariant validation is active."""
    return _enabled


def enable_invariants(on: bool = True) -> None:
    """Switch runtime validation on or off for the whole process."""
    global _enabled
    _enabled = bool(on)


@contextmanager
def debug_invariants(on: bool = True) -> Iterator[None]:
    """Context manager scoping :func:`enable_invariants` to a block."""
    global _enabled
    prev = _enabled
    _enabled = bool(on)
    try:
        yield
    finally:
        _enabled = prev


def validations_performed() -> int:
    """Number of full validations run since the last counter reset."""
    return _validation_count


def reset_validation_count() -> None:
    """Zero the validation counter (test isolation helper)."""
    global _validation_count
    _validation_count = 0


# -- validators (always run when called directly) ---------------------------


def _require(cond: bool, what: Any, detail: str) -> None:
    if not cond:
        raise InvariantViolation(f"{type(what).__name__} invariant violated: {detail}")


def validate_matrix(matrix: Any) -> Any:
    """Validate canonical sorted-COO form; returns the matrix.

    Checks, in order: dtype contract (``uint64`` coordinates, ``float64``
    values), shape agreement of the triple arrays, coordinates inside the
    matrix extent, and strictly increasing linearized ``(row, col)`` keys
    — which implies both sortedness and deduplication in one pass.
    """
    global _validation_count
    _validation_count += 1
    rows, cols, vals = matrix.rows, matrix.cols, matrix.vals
    _require(rows.dtype == np.uint64, matrix, f"rows dtype {rows.dtype} != uint64")
    _require(cols.dtype == np.uint64, matrix, f"cols dtype {cols.dtype} != uint64")
    _require(vals.dtype == np.float64, matrix, f"vals dtype {vals.dtype} != float64")
    _require(
        rows.shape == cols.shape == vals.shape and rows.ndim == 1,
        matrix,
        f"triple arrays disagree: rows {rows.shape}, cols {cols.shape}, vals {vals.shape}",
    )
    nrows, ncols = matrix.shape
    if rows.size:
        _require(
            int(rows.max()) < nrows and int(cols.max()) < ncols,
            matrix,
            f"coordinate outside shape {matrix.shape}",
        )
        keys = rows * np.uint64(ncols) + cols
        _require(
            bool(np.all(keys[1:] > keys[:-1])),
            matrix,
            "triples not in canonical order (unsorted or duplicated coordinates)",
        )
        # Matrices cache a packed-key view of the same canonical order
        # (duck-typed: absent on vectors/assocs).  If present it must
        # agree with rows/cols — the invariant the lazy dual
        # representation in repro.hypersparse.coo rests on.
        cached_keys = getattr(matrix, "_keys", None)
        if cached_keys is not None:
            _require(
                bool(np.array_equal(cached_keys, keys)),
                matrix,
                "cached packed-key view disagrees with rows/cols",
            )
    return matrix


def validate_vector(vec: Any) -> Any:
    """Validate a sparse vector: uint64 keys, float64 vals, sorted unique keys."""
    global _validation_count
    _validation_count += 1
    keys, vals = vec.keys, vec.vals
    _require(keys.dtype == np.uint64, vec, f"keys dtype {keys.dtype} != uint64")
    _require(vals.dtype == np.float64, vec, f"vals dtype {vals.dtype} != float64")
    _require(
        keys.shape == vals.shape and keys.ndim == 1,
        vec,
        f"keys {keys.shape} and vals {vals.shape} disagree",
    )
    if keys.size:
        _require(
            bool(np.all(keys[1:] > keys[:-1])),
            vec,
            "keys not strictly increasing (unsorted or duplicated)",
        )
    return vec


def validate_assoc(assoc: Any) -> Any:
    """Validate an associative array: sorted unique keys, coherent adjacency."""
    global _validation_count
    _validation_count += 1
    for name in ("row", "col"):
        arr = getattr(assoc, name)
        _require(arr.ndim == 1, assoc, f"{name} keys not 1-d")
        if arr.size > 1:
            _require(
                bool(np.all(arr[1:] > arr[:-1])),
                assoc,
                f"{name} keys not strictly increasing",
            )
    adj = assoc.adj
    validate_matrix(adj)
    _require(
        adj.shape[0] >= max(int(assoc.row.size), 1)
        and adj.shape[1] >= max(int(assoc.col.size), 1),
        assoc,
        f"adjacency shape {adj.shape} smaller than key space {assoc.shape}",
    )
    if assoc.val is not None and adj.nnz:
        codes = adj.vals
        _require(
            bool(np.all(codes >= 1.0)) and int(codes.max()) <= int(assoc.val.size),
            assoc,
            "string-value codes outside the value key table",
        )
    return assoc


# -- hooks (single predicate check when disabled) ---------------------------


def check_matrix(matrix: Any) -> Any:
    """Validate ``matrix`` iff invariant checking is enabled."""
    if _enabled:
        validate_matrix(matrix)
        inc(INVARIANT_CHECKS)
    return matrix


def check_vector(vec: Any) -> Any:
    """Validate ``vec`` iff invariant checking is enabled."""
    if _enabled:
        validate_vector(vec)
        inc(INVARIANT_CHECKS)
    return vec


def check_assoc(assoc: Any) -> Any:
    """Validate ``assoc`` iff invariant checking is enabled."""
    if _enabled:
        validate_assoc(assoc)
        inc(INVARIANT_CHECKS)
    return assoc


_VALIDATORS = {
    "matrix": validate_matrix,
    "vector": validate_vector,
    "assoc": validate_assoc,
}


def checked(kind: str = "matrix") -> Callable[[F], F]:
    """Decorator validating a function's return value when debugging is on.

    ``kind`` selects the validator: ``"matrix"``, ``"vector"`` or
    ``"assoc"``.  With invariants disabled the wrapper is a single
    predicate test, so it is safe on hot-path kernels::

        @checked("vector")
        def mxv(matrix, vec, semiring=PLUS_TIMES): ...
    """
    try:
        validator = _VALIDATORS[kind]
    except KeyError:
        raise ValueError(f"unknown contract kind {kind!r}; known: {sorted(_VALIDATORS)}")

    def decorate(fn: F) -> F:
        @wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            result = fn(*args, **kwargs)
            if _enabled and result is not None:
                validator(result)
                inc(INVARIANT_CHECKS)
            return result

        return wrapper  # type: ignore[return-value]

    return decorate
