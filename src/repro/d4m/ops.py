"""D4M idioms layered on :class:`~repro.d4m.assoc.Assoc`.

The honeyfarm pipeline stores enrichment metadata in the classic D4M
"exploded schema": a string value like ``intent = malicious`` becomes a
*column key* ``"intent|malicious"`` with numeric value 1.  That turns value
queries into column selections, and column-column correlation (``sqin``)
into co-occurrence counting.  These helpers implement the conversion both
ways plus small conveniences used throughout the correlation study.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..hypersparse.merge import intersect_sorted
from ..obs.metrics import ASSOC_JOIN_ROWS, inc
from ..obs.spans import annotate, traced
from .assoc import Assoc

__all__ = ["val2col", "col2type", "cat_values", "nnz_by_row", "row_overlap"]

#: Default field/value separator in exploded column keys.
SEP = "|"


@traced
def val2col(assoc: Assoc, separator: str = SEP) -> Assoc:
    """Explode a string-valued array into the ``field|value`` schema.

    Each entry ``A(r, field) = value`` becomes ``B(r, field|value) = 1``.
    Numeric-valued arrays are rejected — their values are measurements, not
    categories.
    """
    if not assoc.is_string_valued:
        raise TypeError("val2col requires a string-valued Assoc")
    rows, cols, vals = assoc.triples()
    if rows.size == 0:
        return Assoc.empty()
    exploded = np.char.add(np.char.add(cols.astype(np.str_), separator), vals.astype(np.str_))
    return Assoc(rows, exploded, np.ones(rows.size, dtype=np.float64))


@traced
def col2type(assoc: Assoc, separator: str = SEP) -> Assoc:
    """Collapse ``field|value`` columns back to a string-valued array.

    The inverse of :func:`val2col` for well-formed inputs: column keys are
    split on the *first* separator; entries in columns without a separator
    raise, since the value cannot be recovered.
    """
    rows, cols, _ = assoc.triples()
    if rows.size == 0:
        return Assoc.empty()
    cols = cols.astype(np.str_)
    pos = np.char.find(cols, separator)
    if np.any(pos < 0):
        bad = cols[pos < 0][0]
        raise ValueError(f"column key {bad!r} has no {separator!r} separator")
    fields = [c[:p] for c, p in zip(cols.tolist(), pos.tolist())]
    values = [c[p + 1 :] for c, p in zip(cols.tolist(), pos.tolist())]
    return Assoc(rows, fields, values, collision="max")


@traced
def cat_values(a: Assoc, b: Assoc, separator: str = ";") -> Assoc:
    """Union two string-valued arrays, concatenating values on collisions.

    Where only one array holds an entry, its value passes through; where
    both do, the result is ``a_value + separator + b_value``.  Used when
    merging enrichment snapshots from different honeyfarm months.
    """
    if not (a.is_string_valued and b.is_string_valued):
        raise TypeError("cat_values requires string-valued arrays")
    ra, ca, va = a.triples()
    rb, cb, vb = b.triples()
    if ra.size == 0:
        return b
    if rb.size == 0:
        return a
    # Join on (row, col) pairs through a composite key.  Canonical triples
    # have unique coordinate pairs, and the NUL separator cannot collide
    # with printable D4M keys, so the composites are unique.
    ka = np.char.add(np.char.add(ra.astype(np.str_), "\x00"), ca.astype(np.str_))
    kb = np.char.add(np.char.add(rb.astype(np.str_), "\x00"), cb.astype(np.str_))
    _, ia, ib = np.intersect1d(ka, kb, assume_unique=True, return_indices=True)
    inc(ASSOC_JOIN_ROWS, ia.size)
    annotate(joined=int(ia.size))
    # Object dtype sidesteps fixed-width string truncation on assignment.
    vals_a = va.astype(object)
    vals_a[ia] = vals_a[ia] + separator + vb[ib].astype(object)
    only_b = np.ones(rb.size, dtype=bool)
    only_b[ib] = False
    rows = np.concatenate([ra, rb[only_b]])
    cols = np.concatenate([ca, cb[only_b]])
    vals = np.concatenate([vals_a, vb[only_b].astype(object)])
    return Assoc(rows, cols, list(vals), collision="first")


def nnz_by_row(assoc: Assoc) -> Assoc:
    """Entry count per row key — ``sum(logical(A), axis=1)`` in D4M terms."""
    return assoc.logical().sum(axis=1)


@traced
def row_overlap(a: Assoc, b: Assoc) -> Tuple[np.ndarray, float]:
    """Shared row keys of two arrays and the overlap fraction of ``a``.

    Returns ``(common_row_keys, |common| / |rows(a)|)`` — the primitive the
    paper's correlation figures are built from: what fraction of telescope
    sources (rows of ``a``) also appear in the honeyfarm month (rows of
    ``b``).
    """
    ra = a.row_set()
    rb = b.row_set()
    # Row-key sets are canonical (sorted unique), so the join is a
    # searchsorted intersection — no concatenate-and-argsort.
    common, _, _ = intersect_sorted(ra, rb)
    inc(ASSOC_JOIN_ROWS, common.size)
    annotate(joined=int(common.size))
    frac = float(common.size) / float(ra.size) if ra.size else 0.0
    return common, frac
