import numpy as np
import pytest
import scipy.linalg

from graphspde import (
    DataError,
    FactorizationError,
    NumericError,
    build_graph,
    cholesky_jittered,
    eigendecompose_symmetric,
    laplacian,
    matrix_function,
    pseudoinverse,
)


def _random_symmetric(rng, n):
    a = rng.standard_normal((n, n))
    return (a + a.T) / 2.0


class TestEigendecompose:
    def test_identity(self):
        dec = eigendecompose_symmetric(np.eye(3))
        np.testing.assert_allclose(dec.eigenvalues, [1.0, 1.0, 1.0])

    def test_two_path_spectrum(self):
        dec = eigendecompose_symmetric(np.array([[2.0, -2.0], [-2.0, 2.0]]))
        np.testing.assert_allclose(dec.eigenvalues, [0.0, 4.0], atol=1e-12)

    def test_three_path_spectrum(self):
        # oracle: characteristic polynomial of [[1,-1,0],[-1,2,-1],[0,-1,1]]
        # det(L - x I) = -x (x - 1)(x - 3)
        lap = laplacian(build_graph(["a", "b", "c"], [("a", "b", 1.0), ("b", "c", 1.0)]))
        dec = eigendecompose_symmetric(lap.matrix)
        np.testing.assert_allclose(dec.eigenvalues, [0.0, 1.0, 3.0], atol=1e-12)

    def test_orthonormal_basis_and_reconstruction(self):
        rng = np.random.default_rng(0)
        a = _random_symmetric(rng, 6)
        dec = eigendecompose_symmetric(a)
        np.testing.assert_allclose(dec.basis.T @ dec.basis, np.eye(6), atol=1e-8)
        np.testing.assert_allclose(dec.reconstruct(), a, atol=1e-8 * np.max(np.abs(a)))

    def test_asymmetric_rejected(self):
        with pytest.raises(DataError, match="not symmetric"):
            eigendecompose_symmetric(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_round_off_asymmetry_is_symmetrized_and_exact_symmetry_kept(self):
        # an exactly symmetric input is (a + a.T) / 2 bit for bit, so it goes to eigh as it is
        a = _random_symmetric(np.random.default_rng(4), 6)
        exact = eigendecompose_symmetric(a)
        for got, want in zip((exact.eigenvalues, exact.basis), np.linalg.eigh(a)):
            assert got.tobytes() == want.tobytes()
        skewed = a.copy()
        skewed[0, 1] += 1e-12
        dec = eigendecompose_symmetric(skewed)
        for got, want in zip((dec.eigenvalues, dec.basis), np.linalg.eigh((skewed + skewed.T) / 2.0)):
            assert got.tobytes() == want.tobytes()


class TestMatrixFunction:
    def test_identity_function_reconstructs(self):
        rng = np.random.default_rng(1)
        a = _random_symmetric(rng, 5)
        dec = eigendecompose_symmetric(a)
        np.testing.assert_allclose(matrix_function(dec, lambda x: x), a, atol=1e-8)

    def test_exp_on_zero_matrix(self):
        dec = eigendecompose_symmetric(np.array([[0.0]]))
        for t in (0.0, 0.5, 10.0):
            np.testing.assert_allclose(matrix_function(dec, lambda x: np.exp(-t * x)), [[1.0]])

    def test_reciprocal_on_shifted_triangle(self):
        g = build_graph(["a", "b", "c"], [("a", "b", 1.0), ("b", "c", 1.0), ("a", "c", 1.0)])
        shifted = laplacian(g).matrix + 4.0 * np.eye(3)  # spectrum {4, 7, 7}
        dec = eigendecompose_symmetric(shifted)
        inv = matrix_function(dec, lambda x: 1.0 / x)
        np.testing.assert_allclose(
            np.sort(np.linalg.eigvalsh(inv)), [1.0 / 7.0, 1.0 / 7.0, 1.0 / 4.0], atol=1e-12
        )

    def test_undefined_value_raises(self):
        dec = eigendecompose_symmetric(np.diag([0.0, 1.0]))
        with pytest.raises(NumericError, match="undefined"):
            matrix_function(dec, lambda x: x**-1.0)

    def test_exp_matches_scaling_and_squaring(self):
        # independent oracle: scipy's Pade scaling-and-squaring expm
        rng = np.random.default_rng(2)
        for _ in range(10):
            a = _random_symmetric(rng, 6)
            dec = eigendecompose_symmetric(a)
            np.testing.assert_allclose(
                matrix_function(dec, np.exp), scipy.linalg.expm(a), atol=1e-8
            )

    def test_composition(self):
        rng = np.random.default_rng(3)
        a = _random_symmetric(rng, 5)
        dec = eigendecompose_symmetric(a)
        f_of_g = matrix_function(dec, lambda x: np.exp(np.sin(x)))
        inner = matrix_function(dec, np.sin)
        outer = matrix_function(eigendecompose_symmetric(inner), np.exp)
        np.testing.assert_allclose(f_of_g, outer, atol=1e-8)


class TestPseudoinverse:
    def test_zero_matrix(self):
        np.testing.assert_allclose(pseudoinverse(np.array([[0.0]])), [[0.0]])

    def test_identity(self):
        np.testing.assert_allclose(pseudoinverse(np.eye(3)), np.eye(3))

    def test_rank_one_two_path(self):
        a = np.array([[2.0, -2.0], [-2.0, 2.0]])
        expected = np.array([[0.125, -0.125], [-0.125, 0.125]])
        np.testing.assert_allclose(pseudoinverse(a), expected, atol=1e-12)
        # independent oracle: numpy's SVD-based pinv
        np.testing.assert_allclose(pseudoinverse(a), np.linalg.pinv(a), atol=1e-12)

    def test_moore_penrose_identities(self):
        rng = np.random.default_rng(4)
        for _ in range(8):
            base = rng.standard_normal((6, 3))
            a = base @ base.T  # symmetric, rank <= 3
            plus = pseudoinverse(a)
            np.testing.assert_allclose(a @ plus @ a, a, atol=1e-8)
            np.testing.assert_allclose(plus @ a @ plus, plus, atol=1e-8)
            np.testing.assert_allclose(a @ plus, (a @ plus).T, atol=1e-8)
            np.testing.assert_allclose(plus @ a, (plus @ a).T, atol=1e-8)


class TestCholeskyJittered:
    def test_identity_no_jitter(self):
        factor, jitter = cholesky_jittered(np.eye(2))
        np.testing.assert_allclose(factor, np.eye(2))
        assert jitter == 0.0

    def test_hand_checkable_factor(self):
        a = np.array([[4.0, 2.0], [2.0, 2.0]])
        factor, jitter = cholesky_jittered(a)
        np.testing.assert_allclose(factor, [[2.0, 0.0], [1.0, 1.0]])
        assert jitter == 0.0

    def test_singular_psd_needs_small_jitter(self):
        a = np.array([[1.0, 1.0], [1.0, 1.0]])
        factor, jitter = cholesky_jittered(a)
        assert 0.0 < jitter <= 1e-2
        np.testing.assert_allclose(factor @ factor.T, a, atol=1e-6 * np.max(np.abs(a)) + jitter)

    def test_indefinite_matrix_raises(self):
        with pytest.raises(FactorizationError):
            cholesky_jittered(np.array([[1.0, 0.0], [0.0, -5.0]]))

    @pytest.mark.parametrize("a", [
        np.array([[4.0, 2.0], [2.0, 2.0]]),  # jitter 0
        np.array([[1.0, 1.0], [1.0, 1.0]]),  # climbs the ladder
        np.asfortranarray([[4.0, 2.0], [2.0, 2.0]]),
    ])
    def test_input_is_not_mutated(self, a):
        before = a.copy()
        cholesky_jittered(a)
        np.testing.assert_array_equal(a, before)
