import numpy as np
import pytest

from cocyclespan.errors import InputError
from cocyclespan.linalg import (SubspaceBasis, null_space, operator_norm, span_basis,
                                subspace_distance, wedge_power)


def random_invertible(rng, d):
    while True:
        A = rng.standard_normal((d, d))
        if abs(np.linalg.det(A)) > 1e-6:
            return A


class TestWedgePower:
    def test_identity(self):
        assert np.allclose(wedge_power(np.eye(3), 2), np.eye(3))

    def test_diagonal_minors(self):
        W = wedge_power(np.diag([2.0, 3.0, 5.0]), 2)
        # lexicographic pairs (01, 02, 12) -> minors 6, 10, 15
        assert np.allclose(W, np.diag([6.0, 10.0, 15.0]))

    def test_multiplicative_random_pair(self):
        rng = np.random.default_rng(7)
        A = random_invertible(rng, 3)
        B = random_invertible(rng, 3)
        lhs = wedge_power(A @ B, 2)
        rhs = wedge_power(A, 2) @ wedge_power(B, 2)
        assert np.abs(lhs - rhs).max() <= 1e-10 * max(1.0, np.abs(rhs).max())

    def test_multiplicativity_200_random(self):
        rng = np.random.default_rng(123)
        for i in range(200):
            d = int(rng.integers(2, 5))
            m = int(rng.integers(1, d))
            A = random_invertible(rng, d)
            B = random_invertible(rng, d)
            lhs = wedge_power(A @ B, m)
            rhs = wedge_power(A, m) @ wedge_power(B, m)
            scale = max(1.0, np.abs(rhs).max())
            assert np.abs(lhs - rhs).max() <= 1e-10 * scale, f"pair {i} (d={d}, m={m})"

    def test_norm_is_top_two_singular_values(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            d = int(rng.integers(2, 5))
            A = random_invertible(rng, d)
            s = np.linalg.svd(A, compute_uv=False)
            w = operator_norm(wedge_power(A, 2)) if d > 2 else abs(np.linalg.det(A))
            assert abs(w - s[0] * s[1]) <= 1e-10 * s[0] * s[1]

    def test_range_errors(self):
        with pytest.raises(InputError):
            wedge_power(np.eye(3), 3)
        with pytest.raises(InputError):
            wedge_power(np.eye(3), 0)


class TestSpanBasis:
    def test_duplicate_vector(self):
        b = span_basis([np.array([1.0, 0.0]), np.array([1.0, 0.0])])
        assert b.dim == 1

    def test_full_plane(self):
        b = span_basis([np.array([1.0, 0.0]), np.array([0.0, 1.0])])
        assert b.dim == 2

    def test_rank_tolerance(self):
        b = span_basis([np.array([1.0, 0.0]), np.array([1.0, 1e-12])])
        assert b.dim == 1

    def test_empty_needs_ambient(self):
        assert span_basis([], ambient=3).dim == 0
        with pytest.raises(InputError):
            span_basis([])

    def test_idempotent(self):
        rng = np.random.default_rng(17)
        vecs = [rng.standard_normal(5) for _ in range(3)]
        b1 = span_basis(vecs)
        b2 = span_basis([b1.basis[:, j] for j in range(b1.dim)])
        assert b1.dim == b2.dim
        assert subspace_distance(b1, b2) <= 1e-10

    def test_orthonormality_enforced(self):
        with pytest.raises(InputError):
            SubspaceBasis(ambient=2, dim=2, basis=np.array([[1.0, 1.0], [0.0, 1.0]]))


class TestNullSpace:
    # tall, square and wide matrices of each rank, the zero matrix included:
    # the rows are orthonormal, M maps each to about 0, and they fill the
    # complement of the row space, cols - rank of them
    @pytest.mark.parametrize("rows,cols", [(12, 4), (5, 5), (2, 6), (1, 3), (9, 9)])
    def test_orthonormal_rows_in_the_kernel_of_the_right_count(self, rows, cols):
        rng = np.random.default_rng(10 * rows + cols)
        for rank in range(min(rows, cols) + 1):
            M = rng.standard_normal((rows, rank)) @ rng.standard_normal((rank, cols))
            N = null_space(M)
            assert N.shape == (cols - rank, cols)
            assert np.abs(N @ N.T - np.eye(cols - rank)).max(initial=0.0) <= 1e-12
            assert np.abs(M @ N.T).max(initial=0.0) <= 1e-12 * max(1.0, np.abs(M).max())
            assert np.linalg.matrix_rank(np.concatenate([M, N])) == cols

    def test_rank_cut_is_relative(self):
        # a row 1e-12 times the other counts as dependent, as in `span_basis`
        assert null_space(np.array([[1.0, 0.0], [0.0, 1e-12]])).shape == (1, 2)
        assert null_space(np.array([[1.0, 0.0], [0.0, 1e-6]])).shape == (0, 2)


@pytest.mark.parametrize("call,message", [
    (lambda: span_basis([[1.0, 0.0], [1.0, 0.0, 0.0]]), "vectors have mixed ambient dimensions"),
    (lambda: span_basis([[1.0, 0.0]], ambient=3), "ambient mismatch"),
    (lambda: subspace_distance(span_basis([[1.0, 0.0]]), span_basis([[1.0, 0.0, 0.0]])),
     "subspaces live in different ambient spaces"),
])
def test_messages(call, message):
    with pytest.raises(InputError) as err:
        call()
    assert str(err.value) == message
