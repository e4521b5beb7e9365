"""The D4M associative array.

An :class:`Assoc` is a sparse matrix whose rows and columns are *strings*
(sorted unique key arrays) and whose values are either numbers or strings.
String values are stored as 1-based codes into a third sorted unique key
array, exactly as in D4M, so that value comparison operators reduce to
integer comparisons on the adjacency matrix.

Algebra follows *Mathematics of Big Data* (Kepner & Jananthan):

* ``A + B`` — numeric union add over the union key space;
* ``A * B`` — element-wise multiply over the intersection;
* ``A & B`` / ``A | B`` — logical intersection / union (values become 1);
* ``A == v``, ``A >= v`` … — entry filtering, returning the matching
  sub-array;
* ``A[rowsel, colsel]`` — selection by key list, lexicographic range or
  ``":"``;
* ``A.transpose()``, ``A.sum(axis)``, ``A.sqin()``/``A.sqout()`` — the
  correlation workhorses (``A.T @ A`` and ``A @ A.T``).
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple, Union

import numpy as np

from ..analysis.contracts import check_assoc
from ..hypersparse import HyperSparseMatrix
from ..hypersparse.coo import FrozenSlots, SparseVec
from . import keys as K

__all__ = ["Assoc"]

Number = Union[int, float, np.integer, np.floating]

_NUMERIC_COLLISIONS = {
    "sum": np.add,
    "min": np.minimum,
    "max": np.maximum,
}


def _first_last_dedupe(
    codes_r: np.ndarray,
    codes_c: np.ndarray,
    vals: np.ndarray,
    ncols: int,
    keep: str,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Deduplicate coordinates keeping the first or last occurrence in input order."""
    lin = codes_r * np.uint64(max(ncols, 1)) + codes_c
    if keep == "last":
        lin = lin[::-1]
        vals = vals[::-1]
        codes_r = codes_r[::-1]
        codes_c = codes_c[::-1]
    order = np.argsort(lin, kind="stable")
    lin_s = lin[order]
    firsts = np.ones(lin_s.size, dtype=bool)
    firsts[1:] = lin_s[1:] != lin_s[:-1]
    sel = order[firsts]
    return codes_r[sel], codes_c[sel], vals[sel]


class Assoc(FrozenSlots):
    """Associative array with string keys and numeric or string values.

    Parameters
    ----------
    row, col:
        Parallel key sequences (scalars broadcast).  Anything stringifiable.
    val:
        Parallel values — all numeric, or all strings (scalar broadcasts).
        Omitted values default to 1.0 (a logical array).
    collision:
        How duplicate ``(row, col)`` entries combine: ``"sum"`` (numeric
        default), ``"min"``, ``"max"`` (string default), ``"first"``,
        ``"last"``.  For string values ``min``/``max`` are lexicographic.
    """

    __slots__ = ("row", "col", "val", "adj")

    def __init__(self, row=(), col=(), val=None, *, collision: Optional[str] = None):
        rk = K.as_key_array(row) if not _is_empty(row) else np.asarray([], dtype=np.str_)
        ck = K.as_key_array(col) if not _is_empty(col) else np.asarray([], dtype=np.str_)
        n = max(rk.size, ck.size)
        if rk.size not in (n, 1) or ck.size not in (n, 1):
            raise ValueError("row/col lengths must match (or be scalar)")
        if rk.size == 1 and n > 1:
            rk = np.repeat(rk, n)
        if ck.size == 1 and n > 1:
            ck = np.repeat(ck, n)

        string_vals = False
        if val is None:
            vv = np.ones(n, dtype=np.float64)
        elif isinstance(val, str):
            string_vals = True
            vk = K.as_key_array(val)
            vv = vk if vk.size == n else np.repeat(vk, n) if vk.size == 1 else vk
            if vv.size != n:
                raise ValueError("val length must match row/col")
        elif isinstance(val, (int, float, np.integer, np.floating)):
            vv = np.full(n, float(val), dtype=np.float64)
        else:
            arr = np.asarray(val)
            if arr.dtype.kind in ("U", "S", "O"):
                string_vals = True
                vv = K.as_key_array(list(arr))
            else:
                vv = arr.astype(np.float64)
            if vv.size != n:
                raise ValueError("val length must match row/col")

        self.row, rcodes = K.canonicalize(rk)
        self.col, ccodes = K.canonicalize(ck)
        nrows = max(int(self.row.size), 1)
        ncols = max(int(self.col.size), 1)

        if string_vals:
            self.val, vcodes = K.canonicalize(vv)
            matvals = (vcodes + 1).astype(np.float64)  # 1-based codes
            collision = collision or "max"
            if collision in ("min", "max"):
                acc = _NUMERIC_COLLISIONS[collision]
                self.adj = HyperSparseMatrix(
                    rcodes, ccodes, matvals, shape=(nrows, ncols), accumulate=acc
                )
            elif collision in ("first", "last"):
                r2, c2, v2 = _first_last_dedupe(rcodes, ccodes, matvals, ncols, collision)
                self.adj = HyperSparseMatrix(r2, c2, v2, shape=(nrows, ncols))
            else:
                raise ValueError(f"collision {collision!r} invalid for string values")
            self._condense_vals()
        else:
            self.val = None
            collision = collision or "sum"
            if collision in _NUMERIC_COLLISIONS:
                self.adj = HyperSparseMatrix(
                    rcodes,
                    ccodes,
                    vv,
                    shape=(nrows, ncols),
                    accumulate=_NUMERIC_COLLISIONS[collision],
                )
            elif collision in ("first", "last"):
                r2, c2, v2 = _first_last_dedupe(rcodes, ccodes, vv, ncols, collision)
                self.adj = HyperSparseMatrix(r2, c2, v2, shape=(nrows, ncols))
            else:
                raise ValueError(f"unknown collision {collision!r}")
        check_assoc(self)

    # -- internal constructors ---------------------------------------------

    @classmethod
    def _from_parts(
        cls,
        row: np.ndarray,
        col: np.ndarray,
        val: Optional[np.ndarray],
        adj: HyperSparseMatrix,
    ) -> "Assoc":
        out = cls.__new__(cls)
        out.row = row
        out.col = col
        out.val = val
        out.adj = adj
        return check_assoc(out)

    @classmethod
    def empty(cls) -> "Assoc":
        """The empty associative array."""
        return cls()

    @classmethod
    def from_sparsevec(
        cls,
        vec: SparseVec,
        col: str,
        *,
        key_format: Callable[[int], str] = str,
    ) -> "Assoc":
        """Lift a reduced hypersparse result into an associative array.

        This is the paper's CAIDA-side conversion: source-packet counts
        (``A_t 1``, a :class:`SparseVec` keyed by integer addresses) become a
        one-column ``Assoc`` with stringified addresses as row keys, ready
        to correlate against the honeyfarm's D4M data.
        """
        rows = [key_format(int(k)) for k in vec.keys]
        return cls(rows, col, vec.vals)

    def copy(self) -> "Assoc":
        """An independent, equally frozen deep copy."""
        return self._from_parts(
            self.row.copy(),
            self.col.copy(),
            None if self.val is None else self.val.copy(),
            self.adj.copy(),
        )

    # -- basic protocol ---------------------------------------------------

    @property
    def nnz(self) -> int:
        """Number of stored entries."""
        return self.adj.nnz

    @property
    def is_string_valued(self) -> bool:
        """True when this array stores string values (as 1-based codes)."""
        return self.val is not None

    @property
    def shape(self) -> Tuple[int, int]:
        """(number of row keys, number of column keys)."""
        return (int(self.row.size), int(self.col.size))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        kind = "str" if self.is_string_valued else "num"
        return f"Assoc({self.row.size}x{self.col.size}, nnz={self.nnz}, {kind})"

    def __len__(self) -> int:
        return self.nnz

    def __bool__(self) -> bool:
        return self.nnz > 0

    def triples(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Entry triples ``(row_keys, col_keys, values)`` in canonical order."""
        r, c, v = self.adj.find()
        rows = self.row[r.astype(np.int64)] if self.row.size else np.asarray([], dtype=np.str_)
        cols = self.col[c.astype(np.int64)] if self.col.size else np.asarray([], dtype=np.str_)
        if self.val is not None:
            vals = self.val[(v - 1).astype(np.int64)]
        else:
            vals = v
        return rows, cols, vals

    def to_dict(self) -> dict:
        """``{(row, col): value}`` — small arrays only."""
        rows, cols, vals = self.triples()
        return {
            (str(r), str(c)): (str(v) if self.val is not None else float(v))
            for r, c, v in zip(rows, cols, vals)
        }

    def get(self, row: str, col: str, default=None):
        """Single-entry lookup by key pair."""
        ri = np.searchsorted(self.row, str(row))
        ci = np.searchsorted(self.col, str(col))
        if (
            ri >= self.row.size
            or ci >= self.col.size
            or self.row[ri] != str(row)
            or self.col[ci] != str(col)
        ):
            return default
        v = self.adj[int(ri), int(ci)]
        if v == 0.0:
            return default
        return str(self.val[int(v) - 1]) if self.val is not None else float(v)

    def __eq__(self, other):
        if isinstance(other, Assoc):
            return (
                np.array_equal(self.row, other.row)
                and np.array_equal(self.col, other.col)
                and (
                    (self.val is None and other.val is None)
                    or (
                        self.val is not None
                        and other.val is not None
                        and np.array_equal(self.val, other.val)
                    )
                )
                and self.adj == other.adj
            )
        return self._compare(other, np.equal)

    def __ne__(self, other):
        if isinstance(other, Assoc):
            return not self.__eq__(other)
        return self._compare(other, np.not_equal)

    def __hash__(self):
        raise TypeError("Assoc is unhashable")

    def __gt__(self, other):
        return self._compare(other, np.greater)

    def __ge__(self, other):
        return self._compare(other, np.greater_equal)

    def __lt__(self, other):
        return self._compare(other, np.less)

    def __le__(self, other):
        return self._compare(other, np.less_equal)

    def _compare(self, scalar, op) -> "Assoc":
        """Filter entries by comparing values against a scalar.

        Returns the sub-array of matching entries (with their values) — the
        D4M idiom ``A == 'scanner'`` or ``A > 100``.
        """
        r, c, v = self.adj.find()
        if self.val is not None:
            if not isinstance(scalar, str):
                raise TypeError("string-valued Assoc compares against strings")
            # Compare through the value key space: find the scalar's position.
            target = np.searchsorted(self.val, scalar)
            present = target < self.val.size and self.val[target] == scalar
            if op in (np.equal, np.not_equal):
                if present:
                    mask = op(v, float(target + 1))
                else:
                    mask = (
                        np.zeros(v.size, dtype=bool)
                        if op is np.equal
                        else np.ones(v.size, dtype=bool)
                    )
            else:
                # Order comparisons compare the value strings directly.
                strings = self.val[(v - 1).astype(np.int64)]
                mask = op(strings, scalar)
        else:
            if isinstance(scalar, str):
                raise TypeError("numeric Assoc compares against numbers")
            mask = op(v, float(scalar))
        return self._select_entries(r[mask], c[mask], v[mask])

    def _select_entries(self, r: np.ndarray, c: np.ndarray, v: np.ndarray) -> "Assoc":
        """Build a condensed Assoc from a subset of internal entries."""
        if r.size == 0:
            return Assoc.empty() if self.val is None else Assoc._from_parts(
                np.asarray([], dtype=np.str_),
                np.asarray([], dtype=np.str_),
                np.asarray([], dtype=np.str_),
                HyperSparseMatrix(shape=(1, 1)),
            )
        urows, rcodes = np.unique(r, return_inverse=True)
        ucols, ccodes = np.unique(c, return_inverse=True)
        new_row = self.row[urows.astype(np.int64)]
        new_col = self.col[ucols.astype(np.int64)]
        adj = HyperSparseMatrix(
            rcodes,
            ccodes,
            v,
            shape=(max(new_row.size, 1), max(new_col.size, 1)),
        )
        out = self._from_parts(new_row, new_col, None if self.val is None else self.val, adj)
        if out.val is not None:
            out._condense_vals()
        return out

    def _condense_vals(self) -> None:
        """Drop unreferenced value keys and re-code the adjacency matrix."""
        if self.val is None or self.adj.nnz == 0:
            if self.val is not None and self.adj.nnz == 0:
                self.val = np.asarray([], dtype=np.str_)
            return
        codes = (self.adj.vals - 1).astype(np.int64)
        used = np.unique(codes)
        if used.size == self.val.size:
            return
        remap = np.zeros(self.val.size, dtype=np.int64)
        remap[used] = np.arange(used.size, dtype=np.int64)
        self.val = self.val[used]
        self.adj = self.adj.apply(lambda v: (remap[(v - 1).astype(np.int64)] + 1).astype(np.float64))

    # -- selection ---------------------------------------------------------

    def __getitem__(self, sel) -> "Assoc":
        if not isinstance(sel, tuple) or len(sel) != 2:
            raise TypeError("Assoc selection requires A[rowsel, colsel]")
        rsel, csel = sel
        rows = K.resolve_selector(rsel, self.row)
        cols = K.resolve_selector(csel, self.col)
        rcodes = K.recode(rows, self.row)
        ccodes = K.recode(cols, self.col)
        sub = self.adj.extract(rcodes, ccodes)
        r, c, v = sub.find()
        return self._select_entries(r, c, v)

    def select_rows(self, rsel) -> "Assoc":
        """Row selection shorthand: ``A.select_rows(keys) == A[keys, ':']``."""
        return self[rsel, ":"]

    def select_cols(self, csel) -> "Assoc":
        """Column selection shorthand."""
        return self[":", csel]

    # -- algebra --------------------------------------------------------------

    def logical(self) -> "Assoc":
        """Every entry replaced by numeric 1 — the D4M ``logical()``."""
        adj = self.adj.zero_norm()
        return self._from_parts(self.row, self.col, None, adj)

    def _align_union(self, other: "Assoc"):
        """Re-code both operands into the union key space."""
        row, ra, rb = K.union_keys(self.row, other.row)
        col, ca, cb = K.union_keys(self.col, other.col)
        shape = (max(row.size, 1), max(col.size, 1))
        a = _recode_matrix(self.adj, ra, ca, shape)
        b = _recode_matrix(other.adj, rb, cb, shape)
        return row, col, a, b

    def __add__(self, other) -> "Assoc":
        if isinstance(other, (int, float, np.integer, np.floating)):
            if self.is_string_valued:
                raise TypeError("cannot add a number to a string-valued Assoc")
            return self._from_parts(
                self.row, self.col, None, self.adj.apply(lambda v: v + float(other))
            )
        if not isinstance(other, Assoc):
            return NotImplemented
        a, b = self._coerce_numeric_pair(other)
        row, col, ma, mb = a._align_union(b)
        return Assoc._from_parts(row, col, None, ma.ewise_add(mb))

    __radd__ = __add__

    def __sub__(self, other) -> "Assoc":
        if isinstance(other, Assoc):
            a, b = self._coerce_numeric_pair(other)
            row, col, ma, mb = a._align_union(b)
            return Assoc._from_parts(row, col, None, ma.ewise_add(mb * -1.0))
        return self.__add__(-float(other))

    def __mul__(self, other) -> "Assoc":
        if isinstance(other, (int, float, np.integer, np.floating)):
            if self.is_string_valued:
                raise TypeError("cannot scale a string-valued Assoc")
            return self._from_parts(self.row, self.col, None, self.adj * float(other))
        if not isinstance(other, Assoc):
            return NotImplemented
        a, b = self._coerce_numeric_pair(other)
        row, col, ma, mb = a._align_union(b)
        return Assoc._from_parts(row, col, None, ma.ewise_mult(mb))._condensed()

    __rmul__ = __mul__

    def __and__(self, other: "Assoc") -> "Assoc":
        """Logical intersection: 1 where both arrays have an entry."""
        return (self.logical() * other.logical())._condensed()

    def __or__(self, other: "Assoc") -> "Assoc":
        """Logical union: 1 where either array has an entry."""
        a = self.logical()
        b = other.logical()
        row, col, ma, mb = a._align_union(b)
        union = ma.ewise_add(mb, np.maximum)
        return Assoc._from_parts(row, col, None, union)

    def _coerce_numeric_pair(self, other: "Assoc"):
        a = self.logical() if self.is_string_valued else self
        b = other.logical() if other.is_string_valued else other
        return a, b

    def _condensed(self) -> "Assoc":
        """Drop keys with no remaining entries."""
        r, c, v = self.adj.find()
        return self._select_entries(r, c, v)

    def transpose(self) -> "Assoc":
        """Swap rows and columns."""
        return self._from_parts(self.col, self.row, self.val, self.adj.transpose())

    @property
    def T(self) -> "Assoc":
        """Transpose shorthand (alias of :meth:`transpose`)."""
        return self.transpose()

    def sum(self, axis: int) -> "Assoc":
        """Sum entries along an axis.

        ``axis=1`` collapses columns (row totals, a ``nrows x 1`` array with
        column key ``"sum"``); ``axis=0`` collapses rows.  String-valued
        arrays are summed logically (entry counts).
        """
        a = self.logical() if self.is_string_valued else self
        if axis == 1:
            vec = a.adj.row_reduce()
            rows = self.row[vec.keys.astype(np.int64)]
            return Assoc(rows, "sum", vec.vals)
        if axis == 0:
            vec = a.adj.col_reduce()
            cols = self.col[vec.keys.astype(np.int64)]
            return Assoc("sum", cols, vec.vals)
        raise ValueError("axis must be 0 or 1")

    def sqin(self) -> "Assoc":
        """``A.T @ A`` — column-column correlation (shared rows weighted)."""
        a = self.logical() if self.is_string_valued else self
        adj = a.adj.transpose().mxm(a.adj)
        return Assoc._from_parts(self.col, self.col, None, adj)._condensed()

    def sqout(self) -> "Assoc":
        """``A @ A.T`` — row-row correlation (shared columns weighted)."""
        a = self.logical() if self.is_string_valued else self
        adj = a.adj.mxm(a.adj.transpose())
        return Assoc._from_parts(self.row, self.row, None, adj)._condensed()

    def matmul(self, other: "Assoc") -> "Assoc":
        """General associative-array multiply aligning on the inner key space."""
        a, b = self._coerce_numeric_pair(other)
        inner, ca, rb = K.union_keys(a.col, b.row)
        shape_a = (max(a.row.size, 1), max(inner.size, 1))
        shape_b = (max(inner.size, 1), max(b.col.size, 1))
        ma = _recode_matrix(a.adj, np.arange(max(a.row.size, 1), dtype=np.uint64), ca, shape_a)
        mb = _recode_matrix(b.adj, rb, np.arange(max(b.col.size, 1), dtype=np.uint64), shape_b)
        prod = ma.mxm(mb)
        return Assoc._from_parts(a.row, b.col, None, prod)._condensed()

    def __matmul__(self, other: "Assoc") -> "Assoc":
        return self.matmul(other)

    # -- conveniences -------------------------------------------------------------

    def row_set(self) -> np.ndarray:
        """Sorted unique row keys that actually hold entries."""
        r = self.adj.unique_rows()  # adjacency rows are pre-sorted
        return self.row[r.astype(np.int64)]

    def col_set(self) -> np.ndarray:
        """Sorted unique column keys that actually hold entries."""
        c = np.unique(self.adj.cols)
        return self.col[c.astype(np.int64)]


def _is_empty(x) -> bool:
    if isinstance(x, (str, int, float)):
        return False
    try:
        return len(x) == 0
    except TypeError:
        return False


def _recode_matrix(
    adj: HyperSparseMatrix,
    row_codes: np.ndarray,
    col_codes: np.ndarray,
    shape: Tuple[int, int],
) -> HyperSparseMatrix:
    """Map a matrix's coordinates through per-axis code tables."""
    r, c, v = adj.find()
    if r.size == 0:
        return HyperSparseMatrix(shape=shape)
    new_r = row_codes[r.astype(np.int64)]
    new_c = col_codes[c.astype(np.int64)]
    return HyperSparseMatrix(new_r, new_c, v, shape=shape)
