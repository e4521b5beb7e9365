"""Element-wise algebra and matrix multiply, against dense references."""

import numpy as np
import pytest

from repro.hypersparse import HyperSparseMatrix


def random_matrix(rng, shape=(20, 20), n=60, low=1, high=9):
    return HyperSparseMatrix(
        rng.integers(0, shape[0], n),
        rng.integers(0, shape[1], n),
        rng.integers(low, high, n).astype(float),
        shape=shape,
    )


class TestEwise:
    def test_add_union_semantics(self):
        a = HyperSparseMatrix([0, 1], [0, 1], [1.0, 2.0], shape=(4, 4))
        b = HyperSparseMatrix([1, 2], [1, 2], [10.0, 20.0], shape=(4, 4))
        c = a + b
        assert c[0, 0] == 1.0 and c[1, 1] == 12.0 and c[2, 2] == 20.0

    def test_add_matches_dense(self, rng):
        a, b = random_matrix(rng), random_matrix(rng)
        np.testing.assert_allclose((a + b).to_dense(), a.to_dense() + b.to_dense())

    def test_sub_matches_dense(self, rng):
        a, b = random_matrix(rng), random_matrix(rng)
        np.testing.assert_allclose((a - b).to_dense(), a.to_dense() - b.to_dense())

    def test_mult_intersection_semantics(self):
        a = HyperSparseMatrix([0, 1], [0, 1], [2.0, 3.0], shape=(4, 4))
        b = HyperSparseMatrix([1, 2], [1, 2], [5.0, 7.0], shape=(4, 4))
        c = a * b
        assert c.nnz == 1 and c[1, 1] == 15.0

    def test_ewise_add_with_max(self):
        a = HyperSparseMatrix([0], [0], [3.0], shape=(4, 4))
        b = HyperSparseMatrix([0], [0], [7.0], shape=(4, 4))
        assert a.ewise_add(b, np.maximum)[0, 0] == 7.0

    def test_ewise_mult_custom_op(self):
        a = HyperSparseMatrix([0], [0], [3.0], shape=(4, 4))
        b = HyperSparseMatrix([0], [0], [7.0], shape=(4, 4))
        assert a.ewise_mult(b, np.minimum)[0, 0] == 3.0

    def test_scalar_mult(self):
        a = HyperSparseMatrix([0], [0], [3.0], shape=(4, 4))
        assert (a * 2.0)[0, 0] == 6.0
        assert (0.5 * a)[0, 0] == 1.5

    def test_shape_mismatch_raises(self):
        a = HyperSparseMatrix(shape=(4, 4))
        b = HyperSparseMatrix(shape=(5, 5))
        with pytest.raises(ValueError):
            a + b
        with pytest.raises(ValueError):
            a * b

    def test_add_empty_identity(self, rng):
        a = random_matrix(rng)
        zero = HyperSparseMatrix.empty(a.shape)
        assert a + zero == a


class TestMxm:
    def test_matches_dense_plus_times(self, rng):
        for _ in range(10):
            a = random_matrix(rng, shape=(15, 12), n=40)
            b = random_matrix(rng, shape=(12, 18), n=40)
            np.testing.assert_allclose(
                a.mxm(b).to_dense(), a.to_dense() @ b.to_dense()
            )

    def test_inner_dimension_check(self):
        a = HyperSparseMatrix(shape=(4, 5))
        b = HyperSparseMatrix(shape=(4, 5))
        with pytest.raises(ValueError):
            a.mxm(b)

    def test_empty_operand(self, rng):
        a = random_matrix(rng)
        zero = HyperSparseMatrix.empty((20, 20))
        assert a.mxm(zero).nnz == 0
        assert zero.mxm(a).nnz == 0


class TestAlgebraLaws:
    def test_add_commutative(self, rng):
        a, b = random_matrix(rng), random_matrix(rng)
        assert a + b == b + a

    def test_add_associative(self, rng):
        a, b, c = (random_matrix(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)

    def test_mult_commutative(self, rng):
        a, b = random_matrix(rng), random_matrix(rng)
        assert a * b == b * a

    def test_transpose_distributes_over_add(self, rng):
        a, b = random_matrix(rng), random_matrix(rng)
        assert (a + b).T == a.T + b.T

    def test_mxm_transpose_identity(self, rng):
        a = random_matrix(rng, shape=(10, 12), n=30)
        b = random_matrix(rng, shape=(12, 9), n=30)
        assert a.mxm(b).T == b.T.mxm(a.T)
