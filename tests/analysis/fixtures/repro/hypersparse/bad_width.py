"""RL011 fixtures inside the packed-key kernels' package.

``cast_unproven`` is the one finding: a multiply whose operand widths are
unknown, cast to uint64 only after it ran.  ``cast_first`` is the
sanctioned form and stays silent.
"""

import numpy as np

__all__ = ["cast_unproven", "cast_first"]


def cast_unproven(a, b):
    """The multiply runs at the operands' native width, then widens."""
    return np.uint64(a * b)


def cast_first(a, b):
    """Operands widened before the multiply."""
    return a.astype(np.uint64) * b.astype(np.uint64)
