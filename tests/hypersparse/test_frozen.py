"""Canonical containers are read-only with no sanitizer armed.

``HyperSparseMatrix``, ``SparseVec`` and ``Assoc`` store every buffer as
a read-only array on every construction path, so an in-place write into
a canonical buffer raises ``ValueError`` at the write.
"""

import pickle
import re
from pathlib import Path

import numpy as np
import pytest

from repro.d4m import Assoc
from repro.hypersparse import HyperSparseMatrix, SparseVec
from repro.traffic.quantities import link_packets

SRC_REPRO = Path(__file__).resolve().parents[2] / "src" / "repro"


def _matrix() -> HyperSparseMatrix:
    return HyperSparseMatrix([3, 1, 2, 1], [0, 2, 1, 1], [1.0, 2.0, 3.0, 4.0], shape=(4, 4))


def _roundtrip(obj):
    return pickle.loads(pickle.dumps(obj))


def _matrix_buffers(m: HyperSparseMatrix) -> dict:
    # Reading rows and keys derives whichever side the construction
    # path left lazy, so both the stored and the derived arrays count.
    return {"rows": m.rows, "cols": m.cols, "keys": m.keys, "vals": m.vals}


def _vector_buffers(v: SparseVec) -> dict:
    return {"keys": v.keys, "vals": v.vals}


def _assoc_buffers(a: Assoc) -> dict:
    out = {"row": a.row, "col": a.col}
    if a.val is not None:
        out["val"] = a.val
    out.update({f"adj.{k}": arr for k, arr in _matrix_buffers(a.adj).items()})
    return out


def _assoc() -> Assoc:
    return Assoc(["r2", "r1", "r1"], ["c1", "c2", "c1"], ["x", "y", "x"])


CASES = {
    "matrix": lambda: _matrix_buffers(_matrix()),
    "matrix.keys-first": lambda: _matrix_buffers(_matrix() + _matrix()),
    "matrix.transpose": lambda: _matrix_buffers(_matrix().transpose()),
    "matrix._with_vals": lambda: _matrix_buffers(_matrix()._with_vals(np.ones(4))),
    "matrix._masked": lambda: _matrix_buffers(_matrix()._masked(np.array([1, 0, 1, 1], bool))),
    "matrix.mxm": lambda: _matrix_buffers(_matrix().mxm(_matrix())),
    "matrix.copy": lambda: _matrix_buffers(_matrix().copy()),
    "matrix.pickle": lambda: _matrix_buffers(_roundtrip(_matrix())),
    "vector": lambda: _vector_buffers(SparseVec([5, 1, 5], [1.0, 2.0, 3.0])),
    "vector.row_reduce": lambda: _vector_buffers(_matrix().row_reduce()),
    "vector.col_reduce": lambda: _vector_buffers(_matrix().col_reduce()),
    "vector.row_degree": lambda: _vector_buffers(_matrix().row_degree()),
    "vector.zero_norm": lambda: _vector_buffers(_matrix().row_reduce().zero_norm()),
    "vector.scaled": lambda: _vector_buffers(_matrix().row_reduce() * 2.0),
    "vector.link_packets": lambda: _vector_buffers(link_packets(_matrix())),
    "vector.copy": lambda: _vector_buffers(_matrix().row_reduce().copy()),
    "vector.pickle": lambda: _vector_buffers(_roundtrip(_matrix().row_reduce())),
    "assoc": lambda: _assoc_buffers(_assoc()),
    "assoc.numeric": lambda: _assoc_buffers(Assoc(["a", "b"], ["c", "c"], [1.0, 2.0])),
    "assoc.transpose": lambda: _assoc_buffers(_assoc().transpose()),
    "assoc.logical": lambda: _assoc_buffers(_assoc().logical()),
    "assoc.sqin": lambda: _assoc_buffers(_assoc().sqin()),
    "assoc.copy": lambda: _assoc_buffers(_assoc().copy()),
    "assoc.pickle": lambda: _assoc_buffers(_roundtrip(_assoc())),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_inplace_write_raises(case):
    buffers = CASES[case]()
    assert buffers
    for name, arr in buffers.items():
        assert not arr.flags.writeable, name
        with pytest.raises(ValueError, match="read-only"):
            arr[...] = arr.copy()


def test_caller_arrays_stay_writeable():
    rows = np.array([2, 1], dtype=np.uint64)
    cols = np.array([0, 3], dtype=np.uint64)
    vals = np.array([1.0, 2.0])
    m = HyperSparseMatrix(rows, cols, vals, shape=(4, 4))
    assert rows.flags.writeable and cols.flags.writeable and vals.flags.writeable
    rows[0] = 3  # the caller's own arrays are still theirs to write
    assert m[2, 0] == 1.0
    # An empty vector keeps the caller's arrays without copying: the
    # container holds a read-only view, the caller's array stays writeable.
    keys, kvals = np.zeros(0, dtype=np.uint64), np.zeros(0)
    v = SparseVec(keys, kvals)
    assert kvals.flags.writeable and not v.vals.flags.writeable


def test_no_source_thaws_a_buffer():
    # "Thaw then write" is the one way round the freeze; nothing in the
    # package may turn the writeable flag back on.
    thaw = re.compile(r"flags\.writeable\s*=\s*True|setflags\([^)]*write\s*=\s*(True|1)")
    offenders = [
        f"{path}:{n}"
        for path in sorted(SRC_REPRO.rglob("*.py"))
        for n, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if thaw.search(line)
    ]
    assert offenders == []
