"""Canonical-form-aware sorted-merge kernels.

Every matrix and vector in this package maintains the canonical-form
invariant: linearized ``(row, col)`` keys strictly increasing, values
aligned.  The construction path has to pay a full ``argsort`` to
*establish* that invariant over arbitrary triples — but the algebra
(``ewise_add``, hierarchical level merges, vector unions) combines
operands that are **already** two sorted unique runs, and re-sorting
them throws the invariant away.  This module is the fast path those
operations share:

* :func:`merge_combine` — union-combine two canonical runs with one
  *stable* sort of their concatenation: timsort finds the two ascending
  runs and merges them in ``O(m + n)``, with an ``O(n)`` short-circuit
  when both runs have identical keys;
* :func:`intersect_sorted` — sorted-run intersection with indices, the
  ``np.intersect1d`` replacement for canonical operands;
* :func:`in_sorted` — membership of queries in a sorted unique run, the
  ``np.isin`` replacement for canonical operands;
* :func:`kway_merge` — size-ordered fold of many runs (the
  :meth:`~repro.hypersparse.hierarchical.HierarchicalMatrix.total`
  collapse), always merging the two smallest pending runs so
  intermediate results stay as small as possible.

The kernels are exact: for any inputs they produce bit-identical keys
and values to the argsort path they replace (property-tested in
``tests/hypersparse/test_merge.py``).  Uses of the fast path are counted
by the ``merge_fastpath_hits`` counter; full argsort canonicalizations
(construction from arbitrary triples) count ``merge_fastpath_misses`` —
see :mod:`repro.obs.metrics` and ``docs/PERFORMANCE.md``.
"""

from __future__ import annotations

from bisect import insort
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from ..obs.metrics import MERGE_FASTPATH_HITS, inc

__all__ = ["merge_combine", "intersect_sorted", "in_sorted", "kway_merge"]

Run = Tuple[np.ndarray, np.ndarray]


def _identical_keys(keys_a: np.ndarray, keys_b: np.ndarray) -> bool:
    """Cheap test for byte-identical key runs (equal-size inputs only)."""
    if keys_a.size != keys_b.size:
        return False
    if keys_a.size == 0:
        return True
    # Endpoint probes reject almost every non-identical pair before the
    # full O(n) comparison is paid.
    if keys_a[0] != keys_b[0] or keys_a[-1] != keys_b[-1]:
        return False
    return bool(np.array_equal(keys_a, keys_b))


def merge_combine(
    keys_a: np.ndarray,
    vals_a: np.ndarray,
    keys_b: np.ndarray,
    vals_b: np.ndarray,
    op: np.ufunc = np.add,
    *,
    right_op: Optional[Callable[[np.ndarray], np.ndarray]] = None,
) -> Run:
    """Union-combine two canonical (strictly sorted, unique) key runs.

    Returns ``(keys, vals)`` with the union of both key sets in sorted
    order: keys present in both runs get ``op(a_value, b_value)``
    (operand order preserved, exactly like the stable-argsort +
    ``reduceat`` path); keys exclusive to one run pass their value
    through.  ``right_op``, when given, is applied to values exclusive
    to the *b* run — how subtraction passes ``-b`` through without
    materializing a negated operand.

    Output arrays may alias the inputs when one run is empty or both
    runs share identical keys; canonical containers are immutable so
    sharing is safe.  Otherwise the concatenated runs are stable-sorted
    (timsort merges the two ascending runs in linear time), so a shared
    key becomes an adjacent ``(a, b)`` pair combined as ``op(a, b)``.
    """
    if keys_b.size == 0:
        inc(MERGE_FASTPATH_HITS)
        return keys_a, vals_a
    if keys_a.size == 0:
        inc(MERGE_FASTPATH_HITS)
        return keys_b, (vals_b if right_op is None else right_op(vals_b))
    inc(MERGE_FASTPATH_HITS)
    if _identical_keys(keys_a, keys_b):
        return keys_a, np.asarray(op(vals_a, vals_b), dtype=np.float64)
    na = keys_a.size
    keys = np.concatenate((keys_a, keys_b))
    # Two canonical runs: the stable sort (timsort) gallops them together
    # in O(n); see docs/PERFORMANCE.md.
    order = np.argsort(keys, kind="stable")  # lint: allow-resort — O(n) run merge
    keys = keys[order]
    vals = np.concatenate((vals_a, vals_b), dtype=np.float64)
    vals = vals[order]
    # A key in both runs sorts as an adjacent (a, b) pair, a first by
    # stability; every other key occurs once.
    first = np.empty(keys.size, dtype=bool)
    first[0] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    if right_op is not None:
        b_only = first & (order >= na)
        vals[b_only] = right_op(vals[b_only])
    del order
    second = np.flatnonzero(~first)
    vals[second - 1] = op(vals[second - 1], vals[second])
    return keys[first], vals[first]


def intersect_sorted(
    keys_a: np.ndarray, keys_b: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Intersection of two canonical key runs, with operand indices.

    Returns ``(common, ia, ib)`` such that ``common == keys_a[ia] ==
    keys_b[ib]`` in sorted order — the same contract as
    ``np.intersect1d(..., assume_unique=True, return_indices=True)``
    without its internal concatenate-and-argsort.  The smaller run is
    searched into the larger.
    """
    if keys_a.size == 0 or keys_b.size == 0:
        empty_idx = np.zeros(0, dtype=np.intp)
        return np.zeros(0, dtype=keys_a.dtype), empty_idx, empty_idx
    if keys_b.size <= keys_a.size:
        idx = np.searchsorted(keys_a, keys_b)
        matched = keys_a[np.minimum(idx, keys_a.size - 1)] == keys_b
        ib = np.flatnonzero(matched)
        ia = idx[matched]
    else:
        idx = np.searchsorted(keys_b, keys_a)
        matched = keys_b[np.minimum(idx, keys_b.size - 1)] == keys_a
        ia = np.flatnonzero(matched)
        ib = idx[matched]
    return keys_a[ia], ia, ib


def in_sorted(sorted_keys: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """Boolean membership of ``queries`` in a canonical key run.

    The ``np.isin`` replacement for sorted unique haystacks: one binary
    search per query, no sorting.  ``queries`` may be in any order.
    Up to 64 keys, one vectorized compare per key is cheaper than a
    binary search per query (2.2 vs 10 ms for 21 keys and 2^18 queries).
    """
    if sorted_keys.size <= 64:
        out = np.zeros(queries.shape, dtype=bool)
        # lint: allow-loop — iterates at most 64 haystack keys, not entries
        for key in sorted_keys:
            out |= queries == key
        return out
    idx = np.searchsorted(sorted_keys, queries)
    return sorted_keys[np.minimum(idx, sorted_keys.size - 1)] == queries


def kway_merge(runs: Sequence[Run], op: np.ufunc = np.add) -> Run:
    """Fold many canonical runs into one, smallest pair first.

    Always merges the two smallest pending runs (a Huffman-style fold),
    so intermediate results stay as small as the key overlap allows —
    the collapse order for hierarchical-matrix ladders, where level
    sizes span orders of magnitude.  Returns an empty run for empty
    input.  With non-associative ``op`` semantics (floating-point
    rounding), the fold order is part of the contract: size-ordered,
    ties broken by input order.
    """
    pending: List[Run] = [r for r in runs if r[0].size]
    if not pending:
        return np.zeros(0, dtype=np.uint64), np.zeros(0, dtype=np.float64)
    pending.sort(key=lambda r: r[0].size)
    # lint: allow-loop — folds O(log n) ladder levels, never entries
    while len(pending) > 1:
        ka, va = pending.pop(0)
        kb, vb = pending.pop(0)
        insort(pending, merge_combine(ka, va, kb, vb, op), key=lambda r: r[0].size)
    return pending[0]
