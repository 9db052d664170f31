import multiprocessing
import sys
import threading

import numpy as np
import pytest
import scipy.sparse as sp

from stokesmg import sparse
from stokesmg.sparse import (
    DenseFactorization,
    SingularMatrixError,
    block_diagonal,
    matvec_add,
)

from conftest import force_split_products, from_triplets, transfer_blocks


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


@pytest.mark.parametrize("matrix", [np.full((2, 2), np.nan),
                                    [[1.0, np.inf], [0.0, 1.0]]])
def test_non_finite_matrix_raises(matrix):
    # neither may factor into a solve that returns NaN
    with pytest.raises(ValueError, match="non-finite"):
        DenseFactorization(matrix)


def test_dense_solve_shape_checks():
    with pytest.raises(ValueError):
        DenseFactorization(np.ones((2, 3)))
    with pytest.raises(ValueError):
        DenseFactorization(np.eye(3)).solve(np.ones(4))


def test_from_triplets_sums_duplicates():
    m = from_triplets(2, 2, [0, 0, 1], [1, 1, 0], [2.0, 3.0, 1.0])
    np.testing.assert_array_equal(m.toarray(), [[0.0, 5.0], [1.0, 0.0]])


def test_block_diagonal_matches_scipy():
    rng = np.random.default_rng(12)
    blocks = [sp.random(m, n, density=0.4, format="csr", random_state=rng)
              for m, n in ((3, 5), (4, 2), (1, 3))]
    assert all(b.indices.dtype == np.int32 for b in blocks)
    got = block_diagonal(*blocks)
    want = sp.block_diag(blocks, format="csr")
    assert got.format == "csr" and got.shape == want.shape == (8, 10)
    for a, b in ((got.indptr, want.indptr), (got.indices, want.indices),
                 (got.data, want.data)):
        assert np.array_equal(a, b)
    assert got.indptr.dtype == got.indices.dtype == np.int32


def cycle_matrices(system, coarse, transfer):
    """The matrices the cycle multiplies by: K and its row blocks (CSR
    views), B^T and the restriction (CSC views), and the prolongation; and
    a velocity restriction and pressure prolongation sliced from them."""
    P_u, P_p = transfer_blocks(transfer, system.n_u, coarse.n_u)
    return {
        "K": system.K, "velocity_rows": system.velocity_rows, "B": system.B,
        "Bt": system.Bt, "R": transfer.R, "P": transfer.P, "R_u": P_u.T,
        "P_p": P_p,
    }


@pytest.mark.parametrize("name", ["K", "velocity_rows", "B", "Bt", "R_u",
                                  "P_p", "R", "P"])
@pytest.mark.parametrize("k", [None, 3])
def test_matvec_add_matches_matmul(systems3_beta1, transfers3, name, k):
    # matvec_add calls scipy's private kernels, so it is pinned to `@`
    mat = cycle_matrices(systems3_beta1[2], systems3_beta1[1],
                         transfers3[2])[name]
    assert mat.format == ("csc" if name in ("Bt", "R_u", "R") else "csr")
    rng = np.random.default_rng(9)
    tail = () if k is None else (k,)
    x = rng.standard_normal((mat.shape[1],) + tail)
    want = mat @ x
    # from zero: the very kernel `@` calls, so bit-equal
    out = np.zeros((mat.shape[0],) + tail)
    assert matvec_add(mat, x, out) is out
    assert np.array_equal(out, want)
    # from a nonzero start: accumulated onto it
    start = rng.standard_normal(out.shape)
    got = matvec_add(mat, x, start.copy())
    scale = np.abs(start) + abs(mat) @ np.abs(x)
    assert np.all(np.abs(got - (start + want)) <= 1e-14 * scale)


def test_matvec_add_on_a_transposed_block_input(systems3_beta1):
    # an x that is not C-contiguous is read correctly
    mat = systems3_beta1[2].K
    x = np.random.default_rng(10).standard_normal((3, mat.shape[1])).T
    assert np.array_equal(matvec_add(mat, x, np.zeros((mat.shape[0], 3))),
                          mat @ x)


def test_matvec_add_writes_into_a_strided_vector(systems3_beta1):
    mat = systems3_beta1[2].B
    x = np.random.default_rng(11).standard_normal(mat.shape[1])
    base = np.full(2 * mat.shape[0], 7.0)
    base[::2] = 0.0
    matvec_add(mat, x, base[::2])
    assert np.array_equal(base[::2], mat @ x)
    assert np.all(base[1::2] == 7.0)


def test_matvec_add_rejects_bad_outputs(systems3_beta1):
    mat = systems3_beta1[1].K
    n = mat.shape[0]
    with pytest.raises(ValueError, match="C-contiguous"):
        matvec_add(mat, np.ones((n, 2)), np.zeros((n, 2), order="F"))
    with pytest.raises(ValueError):
        matvec_add(mat, np.ones(n), np.zeros(n, dtype=np.float32))
    for x, out in ((np.ones(n - 1), np.zeros(n)),
                   (np.ones(n), np.zeros(n + 1)),
                   (np.ones((n, 2)), np.zeros((n, 3))),
                   (np.ones((n, 2, 2)), np.zeros((n, 2, 2)))):
        with pytest.raises(ValueError):
            matvec_add(mat, x, out)


def test_matvec_add_reads_an_integer_x(systems3_beta1):
    mat = systems3_beta1[1].K
    x = np.arange(mat.shape[1])
    assert np.array_equal(matvec_add(mat, x, np.zeros(mat.shape[0])),
                          mat @ x.astype(float))


def split_cases(mat, rng):
    """(name, x, out) inputs for a product: a vector, an (n, 3) block, an
    integer x, a nonzero start and a strided out."""
    m, n = mat.shape
    base = np.full(2 * m, 7.0)
    base[::2] = 0.0
    return [
        ("vector", rng.standard_normal(n), np.zeros(m)),
        ("block", rng.standard_normal((n, 3)), np.zeros((m, 3))),
        ("integer x", rng.integers(-9, 10, n), np.zeros(m)),
        ("nonzero start", rng.standard_normal(n), rng.standard_normal(m)),
        ("strided out", rng.standard_normal(n), base[::2]),
    ]


@pytest.mark.parametrize("name", ["K", "velocity_rows", "B", "M", "M_P",
                                  "P"])
def test_split_product_is_bitwise_serial(systems3_beta1, transfers3,
                                         monkeypatch, name):
    # each half sums its rows in the serial order, so a split product is
    # the serial one to the bit, and `@`'s from a zero start
    system = systems3_beta1[3]
    mat = {"K": system.K, "velocity_rows": system.velocity_rows,
           "B": system.B, "M": system.M, "M_P": system.M_P,
           "P": transfers3[3].P}[name]
    assert mat.format == "csr"
    for case, x, start in split_cases(mat, np.random.default_rng(13)):
        want = start + mat @ x.astype(float)
        monkeypatch.setattr(sparse, "_SPLIT_NNZ", mat.nnz + 1)
        serial = matvec_add(mat, x, start.copy())
        force_split_products(monkeypatch)
        out = start.copy() if case != "strided out" else start
        assert matvec_add(mat, x, out) is out
        assert np.array_equal(out, serial), case
        if case != "nonzero start":
            assert np.array_equal(out, want), case
        if case == "strided out":
            assert np.all(out.base[1::2] == 7.0)
    assert sparse._worker is not None


def test_split_product_rejects_a_float32_out(systems3_beta1, monkeypatch):
    force_split_products(monkeypatch)
    mat = systems3_beta1[2].K
    out = np.zeros(mat.shape[0], dtype=np.float32)
    with pytest.raises(ValueError, match="float64"):
        matvec_add(mat, np.ones(mat.shape[1]), out)
    assert not out.any()


def test_one_usable_core_starts_no_worker(systems3_beta1, monkeypatch):
    force_split_products(monkeypatch)
    monkeypatch.setattr(sparse, "_usable_cores", lambda: 1)
    monkeypatch.setattr(sparse, "_worker", None)
    threads = threading.active_count()
    mat = systems3_beta1[3].K
    x = np.random.default_rng(14).standard_normal(mat.shape[1])
    assert np.array_equal(matvec_add(mat, x, np.zeros(mat.shape[0])),
                          mat @ x)
    assert sparse._worker is None
    assert threading.active_count() == threads


def split_product_in_child(mat, x, want):
    # a fork copies the parent's worker object but not its thread: the
    # child must start a worker of its own
    fresh = sparse._worker is None
    got = matvec_add(mat, x, np.zeros(mat.shape[0]))
    sys.exit(0 if fresh and sparse._worker is not None
             and np.array_equal(got, want) else 1)


def test_split_product_in_a_forked_child(systems3_beta1, monkeypatch):
    try:
        context = multiprocessing.get_context("fork")
    except ValueError:
        pytest.skip("no fork start method on this platform")
    force_split_products(monkeypatch)
    mat = systems3_beta1[3].K
    x = np.random.default_rng(15).standard_normal(mat.shape[1])
    want = mat @ x
    assert np.array_equal(matvec_add(mat, x, np.zeros(mat.shape[0])), want)
    assert sparse._worker is not None
    child = context.Process(target=split_product_in_child,
                            args=(mat, x, want))
    child.start()
    child.join(timeout=60)
    if child.is_alive():
        child.kill()
        child.join()
        pytest.fail("a split product in a forked child did not finish")
    assert child.exitcode == 0
