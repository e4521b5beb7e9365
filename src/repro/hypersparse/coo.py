"""Canonical sorted-COO hypersparse matrices and sparse vectors.

The paper stores telescope traffic as ``2^32 x 2^32`` GraphBLAS hypersparse
matrices: the index space is the full IPv4 plane but only ``O(N_V)`` entries
are present.  A dense — or even CSR — representation over that space is
impossible, so everything here works on *triples* ``(row, col, value)`` kept
in a canonical form:

* lexicographically sorted by ``(row, col)``,
* no duplicate coordinates (duplicates are combined on construction),
* ``float64`` values, ``uint64`` coordinates.

All kernels are vectorized NumPy: sorting, ``searchsorted`` joins and
``ufunc.reduceat`` run-combining.  No Python-level loop touches per-entry
data, per the HPC guidance of keeping hot paths inside compiled ufuncs.

Canonical form is also *exploited*, not just guaranteed: packed
``(row, col)`` keys are cached per instance (matrices are immutable, so
the cache never invalidates) and every union/intersection runs through
the :mod:`repro.hypersparse.merge` sorted-merge kernels instead of
re-sorting data that is already two canonical runs.  Matrices produced
by those kernels carry their keys forward and delinearize rows/columns
lazily, so merge chains (hierarchical accumulation) never round-trip
``(row, col) -> key -> (row, col)``.  See ``docs/PERFORMANCE.md``.

Immutability is enforced by the types, not by convention.
:class:`SparseVec`, :class:`HyperSparseMatrix` and
:class:`~repro.d4m.assoc.Assoc` derive from :class:`FrozenSlots`, which
stores every ndarray assigned to an attribute as a read-only view.  That
one guard covers each construction path: the public constructors, the
``cls.__new__`` fast paths, the lazily derived ``rows``/``cols``/``keys``,
``copy()`` and unpickling (pickle restores slots through ``setattr``), so
an in-place write into a canonical buffer raises ``ValueError`` wherever
it happens.  The one hole is aliasing through a caller's base array: a
public constructor that keeps a caller's array without copying freezes a
*view* of it, so the caller's own array stays writeable, and a write
through it changes the container.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional, Tuple, Union

import numpy as np

from ..analysis.contracts import check_matrix, check_vector
from ..obs.metrics import MERGE_FASTPATH_MISSES, inc
from .merge import in_sorted, intersect_sorted, merge_combine
from .semiring import PLUS_TIMES, Semiring

__all__ = ["HyperSparseMatrix", "SparseVec", "FrozenSlots", "IPV4_SPACE", "checked_shape"]

#: Size of the IPv4 address space; default matrix extent in the paper.
IPV4_SPACE = 2**32

ArrayLike = Union[np.ndarray, Iterable[int], Iterable[float]]


def _as_u64(a: ArrayLike) -> np.ndarray:
    """Coerce coordinates to a contiguous uint64 array.

    Negative or non-integral coordinates are programming errors and raise.
    """
    arr = np.asarray(a)
    if arr.dtype.kind == "f":
        if not np.all(arr == np.floor(arr)):
            raise ValueError("matrix coordinates must be integral")
        arr = arr.astype(np.uint64)
    elif arr.dtype.kind == "i":
        if arr.size and arr.min() < 0:
            raise ValueError("matrix coordinates must be non-negative")
        arr = arr.astype(np.uint64)
    elif arr.dtype.kind == "u":
        arr = arr.astype(np.uint64)
    else:
        raise TypeError(f"cannot use dtype {arr.dtype} as matrix coordinates")
    return np.ascontiguousarray(arr)


def _run_starts(sorted_arr: np.ndarray) -> np.ndarray:
    """Indices where each run of equal values begins (input pre-sorted)."""
    first = np.empty(sorted_arr.size, dtype=bool)
    first[0] = True
    np.not_equal(sorted_arr[1:], sorted_arr[:-1], out=first[1:])
    return np.flatnonzero(first)


def checked_shape(shape: Tuple[int, int]) -> Tuple[int, int]:
    """``shape`` as two ints, once its index space fits the packed keys.

    Every matrix coordinate ``(row, col)`` packs into one uint64 key
    (:func:`_pack_keys`), so both extents must be positive and
    ``nrows * ncols <= 2^64``; a larger space would wrap keys silently.
    Every code path that makes a shape calls this, so coordinates inside
    a shape always pack exactly.
    """
    nrows, ncols = int(shape[0]), int(shape[1])
    if nrows <= 0 or ncols <= 0:
        raise ValueError(f"shape extents must be positive, got {(nrows, ncols)}")
    if nrows * ncols > 2**64:
        raise ValueError(
            f"shape {(nrows, ncols)} has an index space larger than 2^64"
        )
    return nrows, ncols


def _pack_keys(rows: np.ndarray, cols: np.ndarray, ncols: int) -> np.ndarray:
    """Map (row, col) to a single uint64 key preserving lexicographic order.

    For power-of-two column extents (the ``2^32``-wide IPv4 plane — every
    matrix the paper builds) the multiply/add collapses to a shift/or,
    which also lets :func:`_unpack_keys` undo it with a shift/mask
    instead of 64-bit division.
    """
    if ncols & (ncols - 1) == 0:
        return (rows << np.uint64(ncols.bit_length() - 1)) | cols
    return rows * np.uint64(ncols) + cols


def _unpack_keys(keys: np.ndarray, ncols: int) -> Tuple[np.ndarray, np.ndarray]:
    """Invert :func:`_pack_keys`."""
    if ncols & (ncols - 1) == 0:
        shift = np.uint64(ncols.bit_length() - 1)
        return keys >> shift, keys & np.uint64(ncols - 1)
    ncols_u = np.uint64(ncols)
    return keys // ncols_u, keys % ncols_u


def _row_of(keys: np.ndarray, ncols: int) -> np.ndarray:
    """Row digits of packed keys: the first half of :func:`_unpack_keys`."""
    if ncols & (ncols - 1) == 0:
        return keys >> np.uint64(ncols.bit_length() - 1)
    return keys // np.uint64(ncols)


def _combine_duplicates(
    keys: np.ndarray, vals: np.ndarray, add: np.ufunc
) -> Tuple[np.ndarray, np.ndarray]:
    """Sort ``keys`` and combine values of equal keys with ``add``.

    Returns (unique sorted keys, combined values).  The canonicalization
    workhorse: the one sanctioned full sort, paid only where the input
    really is arbitrary (construction from raw triples, ``mxm`` product
    streams).  Operations whose operands are already canonical runs go
    through :func:`repro.hypersparse.merge.merge_combine` instead and
    never land here — the ``merge_fastpath_misses`` counter tracks how
    often this slow path still runs.
    """
    if keys.size == 0:
        return keys, vals
    inc(MERGE_FASTPATH_MISSES)
    order = np.argsort(keys, kind="stable")  # lint: allow-resort — canonicalization site
    keys = keys[order]
    vals = vals[order]
    starts = _run_starts(keys)
    return keys[starts], add.reduceat(vals, starts)


def _stable_sorted_with_order(
    coord: np.ndarray, bound: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Stable-sorted copy of ``coord`` plus the sorting permutation.

    When ``coord`` values (all ``< bound``) and the element indices
    together fit in 64 bits, pack ``(value << index_bits) | index`` and
    run one plain ``np.sort`` — about an order of magnitude faster than
    ``argsort(kind="stable")`` because no permutation array is threaded
    through the sort.  Index ties reproduce the stable order exactly.
    Falls back to the stable argsort when the packing would overflow.
    """
    n = coord.size
    shift = (n - 1).bit_length() if n > 1 else 1
    if n == 0 or (int(bound) - 1) >> (64 - shift):
        order = np.argsort(coord, kind="stable")  # lint: allow-resort — cross-axis reduce
        return coord[order], order
    shift_u = np.uint64(shift)
    # The bit-length guard above already fell back to the stable argsort
    # whenever this packing could overflow; the 2^63/2^64 boundary tests
    # pin the guard exactly, and the overflow sanitizer re-checks the
    # packed maximum at runtime.
    combined = (coord << shift_u) | np.arange(n, dtype=np.uint64)
    combined.sort()
    order = (combined & np.uint64((1 << shift) - 1)).astype(np.intp)
    return combined >> shift_u, order


def _count_duplicates(keys: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Sort ``keys`` and count multiplicities (the implicit-ones case).

    When every triple carries the default value 1 and duplicates combine
    with ``+`` — a batch of packets — the combined value of a coordinate
    is just its multiplicity.  That needs only the sorted *keys*: a plain
    ``np.sort`` beats the stable argsort of :func:`_combine_duplicates`
    because no permutation is materialized and no value array is gathered
    or reduced.  Counts are exact in float64 (integers far below 2^53).
    """
    if keys.size == 0:
        return keys, np.zeros(0, dtype=np.float64)
    inc(MERGE_FASTPATH_MISSES)
    keys = np.sort(keys)
    starts = _run_starts(keys)
    counts = np.diff(np.append(starts, keys.size)).astype(np.float64)
    return keys[starts], counts


class FrozenSlots:
    """Base of the canonical containers: every stored array is read-only.

    Each writeable ndarray assigned to an attribute is stored as a
    read-only view; arrays that are already read-only are stored as
    they are, so derived containers share frozen buffers freely.
    """

    __slots__ = ()

    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, np.ndarray) and value.flags.writeable:
            value = value.view()
            value.flags.writeable = False
        object.__setattr__(self, name, value)


class SparseVec(FrozenSlots):
    """A sparse vector keyed by uint64 indices.

    Produced by matrix row/column reductions: e.g. ``A.row_reduce()`` is the
    paper's ``A_t 1`` (packets from each source), keyed by the *original*
    (possibly anonymized) source addresses, so results survive permutation.
    """

    __slots__ = ("keys", "vals")

    def __init__(self, keys: ArrayLike, vals: ArrayLike, *, accumulate: np.ufunc = np.add):
        keys = _as_u64(keys)
        vals = np.ascontiguousarray(np.asarray(vals, dtype=np.float64))
        if keys.shape != vals.shape:
            raise ValueError("keys and vals must have identical shape")
        self.keys, self.vals = _combine_duplicates(keys, vals, accumulate)
        check_vector(self)

    # -- basic protocol ---------------------------------------------------

    @property
    def nnz(self) -> int:
        """Number of stored entries."""
        return int(self.keys.size)

    def __len__(self) -> int:
        return self.nnz

    def __iter__(self):
        return zip(self.keys.tolist(), self.vals.tolist())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SparseVec(nnz={self.nnz})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SparseVec):
            return NotImplemented
        return bool(
            self.keys.size == other.keys.size
            and np.array_equal(self.keys, other.keys)
            and np.array_equal(self.vals, other.vals)
        )

    def __hash__(self):  # value equality without a value hash
        raise TypeError("SparseVec is unhashable")

    def copy(self) -> "SparseVec":
        """An independent, equally frozen deep copy."""
        out = SparseVec.__new__(SparseVec)
        out.keys = self.keys.copy()
        out.vals = self.vals.copy()
        return out

    def get(self, key: int, default: float = 0.0) -> float:
        """Value stored at ``key`` or ``default`` if absent."""
        idx = np.searchsorted(self.keys, np.uint64(key))
        if idx < self.keys.size and self.keys[idx] == np.uint64(key):
            return float(self.vals[idx])
        return default

    def to_dict(self) -> dict:
        """Materialize as ``{key: value}`` (small vectors only)."""
        return {int(k): float(v) for k, v in zip(self.keys, self.vals)}

    # -- reductions --------------------------------------------------------

    def total(self) -> float:
        """Sum of all stored values."""
        return float(self.vals.sum()) if self.vals.size else 0.0

    def max(self) -> float:
        """Largest stored value (``d_max`` of the paper); 0 if empty."""
        return float(self.vals.max()) if self.vals.size else 0.0

    def min(self) -> float:
        """Smallest stored value; 0 if empty."""
        return float(self.vals.min()) if self.vals.size else 0.0

    def zero_norm(self) -> "SparseVec":
        """``|v|_0``: every stored value replaced by 1."""
        out = SparseVec.__new__(SparseVec)
        out.keys = self.keys
        out.vals = np.ones_like(self.vals)
        return out

    def prune(self, value: float = 0.0) -> "SparseVec":
        """Drop entries equal to ``value`` (explicit zeros by default)."""
        mask = self.vals != value
        out = SparseVec.__new__(SparseVec)
        out.keys = self.keys[mask]
        out.vals = self.vals[mask]
        return out

    # -- algebra ------------------------------------------------------------

    def ewise_add(self, other: "SparseVec", op: np.ufunc = np.add) -> "SparseVec":
        """Union combine: ``op`` where both present, pass-through elsewhere.

        Both operands are canonical sorted runs, so this is a two-run
        sorted merge — no re-sort.
        """
        out = SparseVec.__new__(SparseVec)
        out.keys, out.vals = merge_combine(self.keys, self.vals, other.keys, other.vals, op)
        return check_vector(out)

    def ewise_mult(self, other: "SparseVec", op: Callable = np.multiply) -> "SparseVec":
        """Intersection combine: entries present in *both* vectors."""
        common, ia, ib = intersect_sorted(self.keys, other.keys)
        out = SparseVec.__new__(SparseVec)
        out.keys = common
        out.vals = np.asarray(op(self.vals[ia], other.vals[ib]), dtype=np.float64)
        return check_vector(out)

    def __add__(self, other: "SparseVec") -> "SparseVec":
        return self.ewise_add(other, np.add)

    def __mul__(self, other):
        if isinstance(other, SparseVec):
            return self.ewise_mult(other, np.multiply)
        out = SparseVec.__new__(SparseVec)
        out.keys = self.keys
        out.vals = self.vals * float(other)
        return out

    __rmul__ = __mul__

    # -- selection -----------------------------------------------------------

    def select_keys(self, keys: ArrayLike) -> "SparseVec":
        """Restrict to the given key set (sparse intersection)."""
        want = np.unique(_as_u64(keys))
        common, ia, _ = intersect_sorted(self.keys, want)
        out = SparseVec.__new__(SparseVec)
        out.keys = common
        out.vals = self.vals[ia]
        return out

    def select_range(self, lo: float, hi: float) -> "SparseVec":
        """Keep entries with ``lo <= value < hi`` — the paper's degree bins."""
        mask = (self.vals >= lo) & (self.vals < hi)
        out = SparseVec.__new__(SparseVec)
        out.keys = self.keys[mask]
        out.vals = self.vals[mask]
        return out


class HyperSparseMatrix(FrozenSlots):
    """Hypersparse matrix in canonical sorted-COO form.

    Parameters
    ----------
    rows, cols:
        Entry coordinates; any integer dtype.  Duplicates are combined.
    vals:
        Entry values; coerced to float64.  If omitted, all entries are 1
        (each triple is a single packet).
    shape:
        Matrix extent; defaults to the full IPv4 plane ``(2^32, 2^32)``.
    accumulate:
        ufunc used to combine duplicate coordinates (default ``np.add`` —
        packets between the same pair sum, exactly the paper's ``A_t``).
    """

    __slots__ = ("_rows", "_cols", "vals", "shape", "_keys")

    def __init__(
        self,
        rows: ArrayLike = (),
        cols: ArrayLike = (),
        vals: Optional[ArrayLike] = None,
        *,
        shape: Tuple[int, int] = (IPV4_SPACE, IPV4_SPACE),
        accumulate: np.ufunc = np.add,
    ):
        rows = _as_u64(rows)
        cols = _as_u64(cols)
        implicit_ones = vals is None
        if implicit_ones:
            vals = None
        else:
            vals = np.ascontiguousarray(np.asarray(vals, dtype=np.float64))
            if not (rows.shape == cols.shape == vals.shape):
                raise ValueError("rows, cols, vals must have identical shape")
        if rows.shape != cols.shape:
            raise ValueError("rows, cols, vals must have identical shape")
        nrows, ncols = checked_shape(shape)
        if rows.size:
            if rows.max() >= np.uint64(nrows) or cols.max() >= np.uint64(ncols):
                raise ValueError("coordinate outside matrix shape")
        self.shape = (nrows, ncols)
        keys = self._linearize(rows, cols)
        if implicit_ones and accumulate is np.add:
            keys, vals = _count_duplicates(keys)
        else:
            if implicit_ones:
                vals = np.ones(rows.size, dtype=np.float64)
            keys, vals = _combine_duplicates(keys, vals, accumulate)
        # rows/cols delinearize lazily from the canonical keys on first
        # access; streaming construction feeding straight into merges
        # (hierarchical insert) never pays for the unpack.
        self._rows = None
        self._cols = None
        self._keys = keys
        self.vals = vals
        check_matrix(self)

    # -- construction helpers -------------------------------------------------

    def _linearize(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Pack (row, col) into uint64 keys for this matrix's shape."""
        return _pack_keys(rows, cols, self.shape[1])

    def _delinearize(self, keys: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        return _unpack_keys(keys, self.shape[1])

    # -- lazy canonical views --------------------------------------------------
    #
    # A matrix is defined by (keys, vals, shape); rows/cols and keys are
    # interchangeable views of the same canonical order.  Whichever side a
    # constructor provides is stored, the other is derived on first use and
    # cached — instances are immutable, so neither cache ever invalidates.

    @property
    def rows(self) -> np.ndarray:
        """Row coordinates in canonical order (lazily delinearized)."""
        if self._rows is None:
            self._rows, self._cols = self._delinearize(self._keys)
        return self._rows

    @property
    def cols(self) -> np.ndarray:
        """Column coordinates in canonical order (lazily delinearized)."""
        if self._cols is None:
            self._rows, self._cols = self._delinearize(self._keys)
        return self._cols

    @property
    def keys(self) -> np.ndarray:
        """Packed ``(row, col)`` keys, strictly increasing (lazily packed)."""
        if self._keys is None:
            self._keys = self._linearize(self._rows, self._cols)
        return self._keys

    @classmethod
    def _from_canonical(
        cls,
        rows: np.ndarray,
        cols: np.ndarray,
        vals: np.ndarray,
        shape: Tuple[int, int],
        keys: Optional[np.ndarray] = None,
    ) -> "HyperSparseMatrix":
        """Internal fast path: inputs already canonical (sorted, unique).

        ``keys`` may hand through an already-packed key array so later
        key consumers skip re-linearizing.
        """
        out = cls.__new__(cls)
        out._rows = rows
        out._cols = cols
        out.vals = vals
        out.shape = shape
        out._keys = keys
        return check_matrix(out)

    @classmethod
    def _from_keys(
        cls,
        keys: np.ndarray,
        vals: np.ndarray,
        shape: Tuple[int, int],
    ) -> "HyperSparseMatrix":
        """Internal fast path from packed canonical keys.

        Rows/columns are delinearized lazily on first access, so merge
        chains that only feed further merges never pay the
        key -> (row, col) -> key round trip.
        """
        out = cls.__new__(cls)
        out._rows = None
        out._cols = None
        out.vals = vals
        out.shape = shape
        out._keys = keys
        return check_matrix(out)

    @classmethod
    def from_triples(
        cls,
        triples: Iterable[Tuple[int, int, float]],
        *,
        shape: Tuple[int, int] = (IPV4_SPACE, IPV4_SPACE),
        accumulate: np.ufunc = np.add,
    ) -> "HyperSparseMatrix":
        """Build from an iterable of ``(row, col, value)`` tuples."""
        triples = list(triples)
        if not triples:
            return cls(shape=shape)
        rows, cols, vals = zip(*triples)
        return cls(rows, cols, vals, shape=shape, accumulate=accumulate)

    @classmethod
    def empty(cls, shape: Tuple[int, int] = (IPV4_SPACE, IPV4_SPACE)) -> "HyperSparseMatrix":
        """An all-zero matrix of the given shape."""
        return cls(shape=shape)

    def copy(self) -> "HyperSparseMatrix":
        """An independent, equally frozen deep copy (same cached views)."""
        out = HyperSparseMatrix.__new__(HyperSparseMatrix)
        out._rows = None if self._rows is None else self._rows.copy()
        out._cols = None if self._cols is None else self._cols.copy()
        out._keys = None if self._keys is None else self._keys.copy()
        out.vals = self.vals.copy()
        out.shape = self.shape
        return out

    # -- basic protocol ---------------------------------------------------------

    @property
    def nnz(self) -> int:
        """Number of stored entries (unique links in traffic terms)."""
        return int(self.vals.size)

    def find(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Return the canonical ``(rows, cols, vals)`` triple arrays."""
        return self.rows, self.cols, self.vals

    def __getitem__(self, ij: Tuple[int, int]) -> float:
        i, j = ij
        # Kernels are array-in/array-out; pack the one coordinate pair as
        # a length-1 array rather than relying on scalar broadcasting.
        key = self._linearize(
            np.asarray([i], dtype=np.uint64), np.asarray([j], dtype=np.uint64)
        )[0]
        keys = self.keys  # cached: one binary search per lookup, no re-packing
        idx = np.searchsorted(keys, key)
        if idx < keys.size and keys[idx] == key:
            return float(self.vals[idx])
        return 0.0

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, HyperSparseMatrix):
            return NotImplemented
        if self.shape != other.shape or self.nnz != other.nnz:
            return False
        if self._keys is not None and other._keys is not None:
            same_coords = np.array_equal(self._keys, other._keys)
        else:
            same_coords = np.array_equal(self.rows, other.rows) and np.array_equal(
                self.cols, other.cols
            )
        return bool(same_coords and np.array_equal(self.vals, other.vals))

    def __hash__(self):
        raise TypeError("HyperSparseMatrix is unhashable")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"HyperSparseMatrix(shape={self.shape}, nnz={self.nnz})"

    def to_dense(self, max_elements: int = 1 << 22) -> np.ndarray:
        """Materialize densely (guarded — test/debug helper only)."""
        n = self.shape[0] * self.shape[1]
        if n > max_elements:
            raise ValueError(
                f"refusing to densify {self.shape}: {n} elements > {max_elements}"
            )
        out = np.zeros(self.shape, dtype=np.float64)
        out[self.rows.astype(np.int64), self.cols.astype(np.int64)] = self.vals
        return out

    # -- structural ops ------------------------------------------------------

    def transpose(self) -> "HyperSparseMatrix":
        """Swap rows and columns (sources <-> destinations)."""
        out = HyperSparseMatrix.__new__(HyperSparseMatrix)
        out.shape = (self.shape[1], self.shape[0])
        keys = out._linearize(self.cols, self.rows)
        order = np.argsort(keys, kind="stable")  # lint: allow-resort — transpose site
        out._rows = self.cols[order]
        out._cols = self.rows[order]
        out._keys = keys[order]
        out.vals = self.vals[order]
        return check_matrix(out)

    @property
    def T(self) -> "HyperSparseMatrix":
        """Transpose shorthand (alias of :meth:`transpose`)."""
        return self.transpose()

    def _with_vals(self, vals: np.ndarray) -> "HyperSparseMatrix":
        """Same sparsity pattern, new values (shares coordinate arrays)."""
        out = HyperSparseMatrix.__new__(HyperSparseMatrix)
        out._rows = self._rows
        out._cols = self._cols
        out._keys = self._keys
        out.vals = vals
        out.shape = self.shape
        return check_matrix(out)

    def _masked(self, mask: np.ndarray) -> "HyperSparseMatrix":
        """Entry subset selected by a boolean mask over canonical order."""
        out = HyperSparseMatrix.__new__(HyperSparseMatrix)
        out._rows = None if self._rows is None else self._rows[mask]
        out._cols = None if self._cols is None else self._cols[mask]
        out._keys = None if self._keys is None else self._keys[mask]
        out.vals = self.vals[mask]
        out.shape = self.shape
        return check_matrix(out)

    def zero_norm(self) -> "HyperSparseMatrix":
        """``|A|_0`` — every stored value set to 1 (Table II's zero-norm)."""
        return self._with_vals(np.ones_like(self.vals))

    def prune(self, value: float = 0.0) -> "HyperSparseMatrix":
        """Drop stored entries equal to ``value``."""
        return self._masked(self.vals != value)

    def apply(self, fn: Callable[[np.ndarray], np.ndarray]) -> "HyperSparseMatrix":
        """Apply an element-wise function to stored values only."""
        vals = np.asarray(fn(self.vals), dtype=np.float64)
        if vals.shape != self.vals.shape:
            raise ValueError("apply() function changed the number of entries")
        return self._with_vals(vals)

    def permute(
        self,
        row_map: Callable[[np.ndarray], np.ndarray],
        col_map: Optional[Callable[[np.ndarray], np.ndarray]] = None,
    ) -> "HyperSparseMatrix":
        """Relabel coordinates through bijections (e.g. CryptoPAN).

        ``row_map``/``col_map`` are vectorized callables mapping uint64
        coordinate arrays to uint64 coordinate arrays.  The paper's Table II
        quantities are all invariant under such permutations — property-tested
        in ``tests/hypersparse/test_invariance.py``.
        """
        if col_map is None:
            col_map = row_map
        rows = _as_u64(row_map(self.rows))
        cols = _as_u64(col_map(self.cols))
        if rows.shape != self.rows.shape or cols.shape != self.cols.shape:
            raise ValueError("permutation maps must preserve entry count")
        return HyperSparseMatrix(rows, cols, self.vals, shape=self.shape)

    # -- element-wise algebra ---------------------------------------------------

    def ewise_add(
        self, other: "HyperSparseMatrix", op: np.ufunc = np.add
    ) -> "HyperSparseMatrix":
        """Union combine (GraphBLAS eWiseAdd): ``op`` where both stored.

        Both operands are canonical, so this is a two-run sorted merge on
        the cached packed keys — no argsort, and the result's rows/cols
        stay packed until someone asks for them.
        """
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch: {self.shape} vs {other.shape}")
        keys, vals = merge_combine(self.keys, self.vals, other.keys, other.vals, op)
        return self._from_keys(keys, vals, self.shape)

    def ewise_mult(
        self, other: "HyperSparseMatrix", op: Callable = np.multiply
    ) -> "HyperSparseMatrix":
        """Intersection combine (GraphBLAS eWiseMult)."""
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch: {self.shape} vs {other.shape}")
        common, ia, ib = intersect_sorted(self.keys, other.keys)
        vals = np.asarray(op(self.vals[ia], other.vals[ib]), dtype=np.float64)
        return self._from_keys(common, vals, self.shape)

    def __add__(self, other: "HyperSparseMatrix") -> "HyperSparseMatrix":
        return self.ewise_add(other, np.add)

    def __sub__(self, other: "HyperSparseMatrix") -> "HyperSparseMatrix":
        """Difference: ``op`` where both stored, ``-b`` passed through.

        Runs straight through the merge kernel with subtract semantics —
        no negated copy of ``other`` is materialized.
        """
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch: {self.shape} vs {other.shape}")
        keys, vals = merge_combine(
            self.keys, self.vals, other.keys, other.vals, np.subtract, right_op=np.negative
        )
        return self._from_keys(keys, vals, self.shape)

    def __mul__(self, other):
        if isinstance(other, HyperSparseMatrix):
            return self.ewise_mult(other, np.multiply)
        return self._with_vals(self.vals * float(other))

    __rmul__ = __mul__

    # -- matrix multiply ---------------------------------------------------------

    def mxm(
        self, other: "HyperSparseMatrix", semiring: Semiring = PLUS_TIMES
    ) -> "HyperSparseMatrix":
        """Sparse matrix-matrix multiply over a semiring.

        Implemented as a vectorized sort-merge join: ``self``'s columns are
        joined against ``other``'s rows with ``searchsorted``, products are
        expanded with ``repeat``, and duplicates combined with the semiring's
        additive monoid via ``reduceat``.
        """
        if self.shape[1] != other.shape[0]:
            raise ValueError(f"inner dimensions differ: {self.shape} x {other.shape}")
        out_shape = checked_shape((self.shape[0], other.shape[1]))
        if self.nnz == 0 or other.nnz == 0:
            return HyperSparseMatrix.empty(out_shape)

        # other is canonical: rows sorted. Locate, for each A entry, the run of
        # B entries whose row equals A's column.
        b_rows = other.rows
        lo = np.searchsorted(b_rows, self.cols, side="left")
        hi = np.searchsorted(b_rows, self.cols, side="right")
        counts = hi - lo
        keep = counts > 0
        if not np.any(keep):
            return HyperSparseMatrix.empty(out_shape)
        lo, counts = lo[keep], counts[keep]
        a_rows = self.rows[keep]
        a_vals = self.vals[keep]

        # Expand the join: entry t of A pairs with B entries lo[t]..lo[t]+counts[t).
        total = int(counts.sum())
        # b_index = lo repeated, plus an intra-run ramp.
        offsets = np.repeat(np.cumsum(counts) - counts, counts)
        ramp = np.arange(total, dtype=np.int64) - offsets
        b_index = np.repeat(lo, counts) + ramp
        out_rows = np.repeat(a_rows, counts)
        out_cols = other.cols[b_index]
        prods = np.asarray(
            semiring.mult(np.repeat(a_vals, counts), other.vals[b_index]),
            dtype=np.float64,
        )

        # The join emits products in arbitrary key order, so this is a
        # sanctioned canonicalization (counted as a merge-fastpath miss).
        keys = _pack_keys(out_rows, out_cols, out_shape[1])
        keys, vals = _combine_duplicates(keys, prods, semiring.add)
        return self._from_keys(keys, vals, out_shape)

    # -- reductions (Table II) -----------------------------------------------------

    def total(self) -> float:
        """Sum of all entries — the paper's valid-packet count ``N_V``."""
        return float(self.vals.sum()) if self.vals.size else 0.0

    def max_value(self) -> float:
        """Largest stored value — max link packets ``d_max``."""
        return float(self.vals.max()) if self.vals.size else 0.0

    def row_reduce(self, op: np.ufunc = np.add) -> SparseVec:
        """Reduce along columns: ``A 1`` — packets from each source.

        Canonical order sorts by row first, so rows arrive pre-sorted and
        the reduction needs no argsort.
        """
        return self._reduce(self.rows, op, presorted=True)

    def col_reduce(self, op: np.ufunc = np.add) -> SparseVec:
        """Reduce along rows: ``1^T A`` — packets to each destination."""
        return self._reduce(self.cols, op)

    def row_degree(self) -> SparseVec:
        """``|A|_0 1`` — source fan-out (unique destinations per source).

        Run-length counting on the already-sorted rows; no re-sort.
        """
        out = SparseVec.__new__(SparseVec)
        rows = self.rows
        if rows.size == 0:
            out.keys = np.zeros(0, dtype=np.uint64)
            out.vals = np.zeros(0, dtype=np.float64)
            return out
        starts = _run_starts(rows)
        out.keys = rows[starts]
        out.vals = np.diff(np.append(starts, rows.size)).astype(np.float64)
        return check_vector(out)

    def col_degree(self) -> SparseVec:
        """``1^T |A|_0`` — destination fan-in (unique sources per destination)."""
        out = SparseVec.__new__(SparseVec)
        if self.nnz == 0:
            out.keys = np.zeros(0, dtype=np.uint64)
            out.vals = np.zeros(0, dtype=np.float64)
            return out
        # A value sort is all that's needed — multiplicity counting never
        # looks at the permutation, so skip np.unique's argsort machinery.
        sorted_cols = np.sort(self.cols)
        starts = _run_starts(sorted_cols)
        out.keys = sorted_cols[starts]
        out.vals = np.diff(np.append(starts, sorted_cols.size)).astype(np.float64)
        return check_vector(out)

    def _reduce(self, coord: np.ndarray, op: np.ufunc, *, presorted: bool = False) -> SparseVec:
        out = SparseVec.__new__(SparseVec)
        if coord.size == 0:
            out.keys = np.zeros(0, dtype=np.uint64)
            out.vals = np.zeros(0, dtype=np.float64)
            return out
        if presorted:
            sorted_coord = coord
            sorted_vals = self.vals
        else:
            bound = max(self.shape)  # coord is rows or cols; both bounded
            sorted_coord, order = _stable_sorted_with_order(coord, bound)
            sorted_vals = self.vals[order]
        starts = _run_starts(sorted_coord)
        out.keys = sorted_coord[starts]
        out.vals = op.reduceat(sorted_vals, starts)
        return check_vector(out)

    def unique_rows(self) -> np.ndarray:
        """Sorted unique row coordinates (unique sources); rows are pre-sorted."""
        rows = self.rows
        if rows.size == 0:
            return rows
        return rows[_run_starts(rows)]

    def unique_cols(self) -> np.ndarray:
        """Sorted unique column coordinates (unique destinations)."""
        if self.nnz == 0:
            return self.cols
        sorted_cols = np.sort(self.cols)
        return sorted_cols[_run_starts(sorted_cols)]

    # -- selection ---------------------------------------------------------------

    def extract(
        self,
        rows: Optional[ArrayLike] = None,
        cols: Optional[ArrayLike] = None,
    ) -> "HyperSparseMatrix":
        """Sub-matrix on the given row/col key sets, keeping original indices.

        ``None`` selects everything along that axis.  This is how quadrants
        of the traffic matrix (Fig 1) are carved out of a single matrix.
        """
        mask = np.ones(self.nnz, dtype=bool)
        if rows is not None:
            want = np.unique(_as_u64(rows))
            mask &= in_sorted(want, self.rows)
        if cols is not None:
            want = np.unique(_as_u64(cols))
            mask &= in_sorted(want, self.cols)
        return self._masked(mask)

    def extract_range(
        self,
        row_range: Optional[Tuple[int, int]] = None,
        col_range: Optional[Tuple[int, int]] = None,
    ) -> "HyperSparseMatrix":
        """Sub-matrix with coordinates in half-open ranges ``[lo, hi)``.

        Contiguous address blocks (the telescope's /8 darkspace, an
        organization's netblock) are ranges in the IPv4 integer line, so this
        is the natural quadrant selector.
        """
        mask = np.ones(self.nnz, dtype=bool)
        if row_range is not None:
            lo, hi = np.uint64(row_range[0]), np.uint64(row_range[1])
            mask &= (self.rows >= lo) & (self.rows < hi)
        if col_range is not None:
            lo, hi = np.uint64(col_range[0]), np.uint64(col_range[1])
            mask &= (self.cols >= lo) & (self.cols < hi)
        return self._masked(mask)
