"""D4M-style associative arrays.

The paper represents the GreyNoise honeyfarm data — source IPs with string
metadata — as D4M associative arrays, and converts reduced CAIDA results to
associative arrays to correlate the two.  This package is a NumPy
implementation of the D4M ``Assoc`` semantics (Kepner & Jananthan,
*Mathematics of Big Data*): a sparse matrix whose rows, columns and
(optionally) values are *strings*, with algebra that works on the union /
intersection of the key spaces.

The adjacency structure is itself stored as a
:class:`repro.hypersparse.HyperSparseMatrix`, so associative-array algebra
inherits the vectorized triple kernels.
"""

from .assoc import Assoc
from .ops import val2col, col2type, cat_values

__all__ = [
    "Assoc",
    "val2col",
    "col2type",
    "cat_values",
]
