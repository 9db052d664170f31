import numpy as np
import pytest

from stokesmg.sparse import DenseFactorization, SingularMatrixError, from_triplets


def test_dense_solve_identity_and_diagonal():
    b = np.array([2.0, 4.0])
    np.testing.assert_array_equal(DenseFactorization(np.eye(2)).solve(b), b)
    np.testing.assert_allclose(
        DenseFactorization(np.diag([2.0, 4.0])).solve(b), [1.0, 1.0], rtol=1e-15
    )


def test_dense_solve_spd_residual():
    rng = np.random.default_rng(6)
    m = rng.standard_normal((20, 20))
    m = m @ m.T + 20 * np.eye(20)
    b = rng.standard_normal(20)
    x = DenseFactorization(m).solve(b)
    assert np.abs(m @ x - b).max() <= 1e-10 * np.abs(b).max()


def test_factorization_residual_invariant():
    rng = np.random.default_rng(7)
    for _ in range(5):
        m = rng.standard_normal((30, 30))
        fact = DenseFactorization(m)
        b = rng.standard_normal(30)
        x = fact.solve(b)
        norm_m = np.abs(m).sum(axis=1).max()
        assert np.abs(m @ x - b).max() <= 1e-10 * (
            norm_m * np.abs(x).max() + np.abs(b).max()
        )


def test_factorization_handles_badly_scaled_blocks():
    # block scales spanning ten orders of magnitude, as in the saddle
    # matrix at large reaction coefficients
    rng = np.random.default_rng(8)
    a = rng.standard_normal((8, 8))
    a = a @ a.T + 8 * np.eye(8)
    b = rng.standard_normal((3, 8))
    m = np.block([[1e10 * a, b.T], [b, np.zeros((3, 3))]])
    fact = DenseFactorization(m)
    x = fact.solve(rng.standard_normal(11))
    assert np.all(np.isfinite(x))


def test_singular_matrix_raises():
    with pytest.raises(SingularMatrixError):
        DenseFactorization(np.array([[1.0, 1.0], [1.0, 1.0]]))
    with pytest.raises(SingularMatrixError):
        DenseFactorization(np.zeros((3, 3)))


def test_dense_solve_shape_checks():
    with pytest.raises(ValueError):
        DenseFactorization(np.ones((2, 3)))
    with pytest.raises(ValueError):
        DenseFactorization(np.eye(3)).solve(np.ones(4))


def test_from_triplets_sums_duplicates():
    m = from_triplets(2, 2, [0, 0, 1], [1, 1, 0], [2.0, 3.0, 1.0])
    np.testing.assert_array_equal(m.toarray(), [[0.0, 5.0], [1.0, 0.0]])

