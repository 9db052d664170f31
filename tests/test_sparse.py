import gc
import multiprocessing
import sys
import threading

import numpy as np
import pytest
import scipy.sparse as sp

from stokesmg import sparse
from stokesmg.sparse import (
    DenseFactorization,
    Product,
    SingularMatrixError,
    block_diagonal,
    packed_from_blocks,
)
from stokesmg.transfer import prolongate, restrict

from conftest import (force_split_products, from_triplets, prolongation,
                      restriction, run_python, thread_idents,
                      transfer_blocks)


def test_runs_load_neither_scipy_linalg_nor_sparse_linalg():
    # importing either maps scipy's own BLAS next to numpy's, which cost
    # about 10 MB of every run's resident memory
    code = (
        "import sys\n"
        "from stokesmg import bench\n"
        "from stokesmg.multigrid import CycleConfig, Multigrid\n"
        "from stokesmg.smoother import SmootherConfig\n"
        "cache = bench._HierarchyCache(3)\n"
        "systems = cache.systems(1.0, 3)\n"
        "u, p = cache.target(3)\n"
        "x_star = systems[3].join(u, p)\n"
        "rhs = bench.manufactured_rhs(systems[3], (u, p))\n"
        "for kind in ('normal_equation', 'uzawa'):\n"
        "    for cycle in ('V', 'W'):\n"
        "        config = CycleConfig(SmootherConfig(kind=kind), cycle)\n"
        "        mg = Multigrid(systems, cache.transfers, config)\n"
        "        assert mg.solve(3, rhs, x_star).converged\n"
        "bench.main(['--table', 'nu-sweep', '--max-level', '3'])\n"
        "print([name for name in ('scipy.linalg', 'scipy.sparse.linalg')\n"
        "       if name in sys.modules])\n"
    )
    assert run_python(code).splitlines()[-1] == "[]"


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
    # invertible, but with an rcond of about 1e-16
    with pytest.raises(SingularMatrixError, match="rcond"):
        DenseFactorization(np.array([[1.0, 1.0], [1.0, 1.0 + 2.0 ** -50]]))


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


def test_packed_blocks_read_int8_classes_without_wrapping():
    # 128 classes of 6 x 4 tables: class 127's first table row is row 762
    # of the stacked tables, past what an int8 product holds
    rng = np.random.default_rng(0)
    high, low = rng.integers(-9, 10, size=(2, 128, 6, 4))
    classes = rng.permutation(128).astype(np.int8)
    rows = rng.integers(0, 20, size=(128, 6)).astype(np.int32)
    cols = rng.integers(0, 30, size=(128, 4)).astype(np.int32)
    got = packed_from_blocks(20, 30, rows, cols, high * 2 ** 16 + low,
                             classes)
    r = np.broadcast_to(rows[:, :, None], (128, 6, 4)).ravel()
    c = np.broadcast_to(cols[:, None, :], (128, 6, 4)).ravel()
    for half, tables in zip(got, (high, low)):
        want = from_triplets(20, 30, r, c, tables[classes].ravel())
        np.testing.assert_array_equal(half.toarray(), want.toarray())


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
        "Bt": system.Bt, "R": restriction(transfer),
        "P": prolongation(transfer), "R_u": P_u.T, "P_p": P_p,
    }


@pytest.mark.parametrize("name", ["K", "velocity_rows", "B", "Bt", "R_u",
                                  "P_p", "R", "P"])
@pytest.mark.parametrize("k", [None, 3])
def test_matvec_add_matches_matmul(systems3_beta1, transfers3, name, k):
    # a product calls scipy's private kernels, so it is pinned to `@`
    mat = cycle_matrices(systems3_beta1[2], systems3_beta1[1],
                         transfers3[2])[name]
    assert mat.format == ("csc" if name in ("Bt", "R_u", "R") else "csr")
    rng = np.random.default_rng(9)
    tail = () if k is None else (k,)
    x = rng.standard_normal((mat.shape[1],) + tail)
    want = mat @ x
    # from zero: the very kernel `@` calls, so bit-equal
    out = np.zeros((mat.shape[0],) + tail)
    assert Product(mat)(x, out) is out
    assert np.array_equal(out, want)
    # from a nonzero start: accumulated onto it
    start = rng.standard_normal(out.shape)
    got = Product(mat)(x, start.copy())
    scale = np.abs(start) + abs(mat) @ np.abs(x)
    assert np.all(np.abs(got - (start + want)) <= 1e-14 * scale)


def test_matvec_add_on_a_transposed_block_input(systems3_beta1):
    # an x that is not C-contiguous is read correctly
    mat = systems3_beta1[2].K
    x = np.random.default_rng(10).standard_normal((3, mat.shape[1])).T
    assert np.array_equal(Product(mat)(x, np.zeros((mat.shape[0], 3))),
                          mat @ x)


def test_matvec_add_writes_into_a_strided_vector(systems3_beta1):
    mat = systems3_beta1[2].B
    x = np.random.default_rng(11).standard_normal(mat.shape[1])
    base = np.full(2 * mat.shape[0], 7.0)
    base[::2] = 0.0
    Product(mat)(x, base[::2])
    assert np.array_equal(base[::2], mat @ x)
    assert np.all(base[1::2] == 7.0)


def test_matvec_add_rejects_bad_outputs(systems3_beta1):
    mat = systems3_beta1[1].K
    n = mat.shape[0]
    with pytest.raises(ValueError, match="C-contiguous"):
        Product(mat)(np.ones((n, 2)), np.zeros((n, 2), order="F"))
    with pytest.raises(ValueError):
        Product(mat)(np.ones(n), np.zeros(n, dtype=np.float32))
    for x, out in ((np.ones(n - 1), np.zeros(n)),
                   (np.ones(n), np.zeros(n + 1)),
                   (np.ones((n, 2)), np.zeros((n, 3))),
                   (np.ones((n, 2, 2)), np.zeros((n, 2, 2)))):
        with pytest.raises(ValueError):
            Product(mat)(x, out)


def test_matvec_add_reads_an_integer_x(systems3_beta1):
    mat = systems3_beta1[1].K
    x = np.arange(mat.shape[1])
    assert np.array_equal(Product(mat)(x, np.zeros(mat.shape[0])),
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
           "B": system.B, "M": system.space.M, "M_P": system.M_P,
           "P": prolongation(transfers3[3])}[name]
    assert mat.format == "csr"
    for case, x, start in split_cases(mat, np.random.default_rng(13)):
        want = start + mat @ x.astype(float)
        monkeypatch.setattr(sparse, "_SPLIT_NNZ", mat.nnz + 1)
        serial = Product(mat)(x, start.copy())
        force_split_products(monkeypatch)
        out = start.copy() if case != "strided out" else start
        assert Product(mat)(x, out) is out
        assert np.array_equal(out, serial), case
        if case != "nonzero start":
            assert np.array_equal(out, want), case
        if case == "strided out":
            assert np.all(out.base[1::2] == 7.0)
    assert sparse._worker is not None


@pytest.mark.parametrize("name", ["K", "R"])
def test_block_product_runs_serially(systems3_beta1, transfers3,
                                     monkeypatch, name):
    # a block is one call of the block kernel, never split, even where a
    # vector product with the same matrix would be: it starts no worker,
    # and each of its columns is that column's vector product to the bit
    mat = {"K": systems3_beta1[3].K, "R": restriction(transfers3[3])}[name]
    product = {"K": systems3_beta1[3].products.K,
               "R": transfers3[3].products.R}[name]
    rng = np.random.default_rng(18)
    x = rng.standard_normal((mat.shape[1], 3))
    start = rng.standard_normal((mat.shape[0], 3))
    columns = [Product(mat)(x[:, j].copy(), start[:, j].copy())
               for j in range(3)]
    force_split_products(monkeypatch)
    before = thread_idents()
    for block in (Product(mat)(x, start.copy()), product(x, start.copy())):
        for j in range(3):
            assert np.array_equal(block[:, j], columns[j])
    assert sparse._worker is None
    assert thread_idents() <= before


def test_split_product_rejects_a_float32_out(systems3_beta1, monkeypatch):
    force_split_products(monkeypatch)
    mat = systems3_beta1[2].K
    out = np.zeros(mat.shape[0], dtype=np.float32)
    with pytest.raises(ValueError, match="float64"):
        Product(mat)(np.ones(mat.shape[1]), out)
    assert not out.any()


def test_one_usable_core_starts_no_worker(systems3_beta1, monkeypatch):
    force_split_products(monkeypatch)
    monkeypatch.setattr(sparse, "_usable_cores", lambda: 1)
    monkeypatch.setattr(sparse, "_worker", None)
    before = thread_idents()
    mat = systems3_beta1[3].K
    x = np.random.default_rng(14).standard_normal(mat.shape[1])
    assert np.array_equal(Product(mat)(x, np.zeros(mat.shape[0])),
                          mat @ x)
    assert sparse._worker is None
    assert thread_idents() <= before


def test_a_raising_worker_part_raises_in_the_caller(systems3_beta1,
                                                   monkeypatch):
    # the worker hands its part's exception to the caller, which raises it
    # once its own parts are done, and the worker goes on serving
    force_split_products(monkeypatch)
    mat = systems3_beta1[3].K
    product, caller = Product(mat), threading.get_ident()
    x = np.random.default_rng(20).standard_normal(mat.shape[1])
    ran = []

    def body(product, x, out):
        ran.append(threading.get_ident() == caller)
        if not ran[-1]:
            raise RuntimeError("worker part")
        product(x, out)

    with pytest.raises(RuntimeError, match="worker part"):
        product.run(body, x, np.zeros(mat.shape[0]))
    assert sorted(ran) == [False, True]
    assert np.array_equal(product(x, np.zeros(mat.shape[0])), mat @ x)


def test_a_dropped_worker_ends_its_thread(monkeypatch):
    force_split_products(monkeypatch)
    before = thread_idents()
    assert sparse._get_worker() is not None
    (thread,) = [t for t in threading.enumerate() if t.ident not in before]
    # not through monkeypatch, which would keep the worker to restore it
    sparse._worker = None
    gc.collect()
    thread.join(timeout=60)
    assert not thread.is_alive()


def split_product_in_child(mat, x, want):
    # a fork copies the parent's worker object but not its thread: the
    # child must start a worker of its own
    fresh = sparse._worker is None
    got = Product(mat)(x, np.zeros(mat.shape[0]))
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
    assert np.array_equal(Product(mat)(x, np.zeros(mat.shape[0])), want)
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


def bound_products(system, transfer):
    """(matrix, bound product) of every product a cycle makes on a level:
    the system's K, velocity rows, B, B^T and the error norm's masses
    diag(M, M, M_P), the transfer's P and R."""
    pairs = {name: (getattr(system, name), getattr(system.products, name))
             for name in ("K", "velocity_rows", "B", "Bt")}
    M = system.space.M
    pairs["mass"] = (block_diagonal(M, M, system.M_P), system.mass_product)
    pairs["P"] = (prolongation(transfer), transfer.products.P)
    pairs["R"] = (restriction(transfer), transfer.products.R)
    return pairs


@pytest.mark.parametrize("cores", [2, 1])
def test_bound_products_equal_matvec_add(systems3_beta1, transfers3,
                                         monkeypatch, cores):
    # every product split wherever it can be, on the worker thread, or,
    # on one usable core, none: a bound product is the serial product of a
    # fresh Product to the bit, and both are `@`'s from a zero start; so is
    # a CSR block diagonal that is not a transfer, diag(M, M, M_P)
    system = systems3_beta1[3]
    pairs = bound_products(system, transfers3[3])
    blocks = (system.space.M, system.space.M, system.M_P)
    pairs["diag(M, M, M_P)"] = (block_diagonal(*blocks), Product(*blocks))
    rng = np.random.default_rng(16)
    cases = {name: split_cases(mat, rng) for name, (mat, _) in pairs.items()}
    serial = {name: [Product(mat)(x, start.copy())
                     for _, x, start in cases[name]]
              for name, (mat, _) in pairs.items()}
    force_split_products(monkeypatch)
    if cores == 1:
        monkeypatch.setattr(sparse, "_usable_cores", lambda: 1)
        monkeypatch.setattr(sparse, "_worker", None)
    for name, (mat, product) in pairs.items():
        for (case, x, start), want in zip(cases[name], serial[name]):
            got = product(x, start.copy())
            assert np.array_equal(got, want), (name, case)
            assert np.array_equal(Product(mat)(x, start.copy()), want)
            if case not in ("nonzero start", "strided out"):
                assert np.array_equal(got, mat @ x.astype(float))
    if cores == 1:
        assert sparse._worker is None
        return
    # the transfers' worker takes P's first velocity block, which R's
    # columns up to where that block ends multiply; B^T's every column
    # writes both velocity components, so it has no such place and, a CSC
    # product, runs serially; a single CSR matrix's worker takes the first
    # half of its rows, a block diagonal's its first block
    n_first = prolongation(transfers3[3]).shape[0] - system.n_p
    assert pairs["R"][1]._parts[0][1] == slice(0, n_first // 2)
    assert pairs["P"][1]._parts[0][2] == slice(0, n_first // 2)
    assert pairs["Bt"][1]._parts is None
    K = system.K
    assert pairs["K"][1]._parts[0][2] == slice(
        0, np.searchsorted(K.indptr, K.nnz // 2))
    n = system.space.M.shape[0]
    for name in ("mass", "diag(M, M, M_P)"):
        assert pairs[name][1]._parts[0][1:] == (slice(0, n),) * 2
    assert sparse._worker is not None


def first_row(view, base):
    """The row of base at which view, a view of its rows, begins."""
    start = (view.__array_interface__["data"][0]
             - base.__array_interface__["data"][0])
    return start // base.strides[0]


@pytest.mark.parametrize("path", ["serial", "split", "block"])
def test_a_row_phase_hands_each_body_its_parts_product(
    systems3_beta1, transfers3, monkeypatch, path
):
    # run(body, x, out) calls body(product, x', out') for each part, x'
    # cut to the part's columns and out' to its rows; product(x', out')
    # adds exactly those rows of mat @ x into out' and writes no other
    # row; run returns nothing, and the parts' rows cover out once
    monkeypatch.setattr(sparse, "_worker", None)
    if path == "split":
        force_split_products(monkeypatch)
    tail = (3,) if path == "block" else ()
    rng = np.random.default_rng(21)
    for name, (mat, bound) in bound_products(
            systems3_beta1[3], transfers3[3]).items():
        x = rng.standard_normal((mat.shape[1],) + tail)
        want = mat @ x
        out, calls = np.zeros(want.shape), []

        def body(product, x_part, out_part):
            calls.append((product, first_row(x_part, x), x_part.shape[0],
                          first_row(out_part, out), out_part.shape[0]))
            product(x_part, out_part)

        assert bound.run(body, x, out) is None
        assert np.array_equal(out, want), name
        parts = bound._parts if path == "split" else None
        assert len(calls) == (len(parts) if parts else 1), name
        covered = np.zeros(mat.shape[0], dtype=int)
        for product, col, n_cols, row, n_rows in calls:
            rows, cols = slice(row, row + n_rows), slice(col, col + n_cols)
            covered[rows] += 1
            # from zeros, the part's rows of mat @ x to the bit, in a
            # buffer whose other rows it leaves as they were
            buffer = np.full(want.shape, 7.0)
            buffer[rows] = 0.0
            product(x[cols], buffer[rows])
            assert np.array_equal(buffer[rows], want[rows]), name
            assert np.all(np.delete(buffer, np.r_[rows], axis=0) == 7.0)
            # and onto what the rows hold: it adds
            product(x[cols], buffer[rows])
            assert np.allclose(buffer[rows], 2.0 * want[rows], rtol=1e-14,
                               atol=1e-14 * np.abs(want).max())
        assert np.all(covered == 1), name
    assert (sparse._worker is not None) == (path == "split")


@pytest.fixture(scope="module")
def transfer6():
    """The level-5 to level-6 transfer, and level 6's interior nodes."""
    from stokesmg.assembly import TaylorHoodSpace
    from stokesmg.mesh import build_hierarchy
    from stokesmg.transfer import build_prolongation

    meshes = build_hierarchy(6)
    fine = TaylorHoodSpace(meshes[6])
    return build_prolongation(TaylorHoodSpace(meshes[5]), fine), fine.n_interior


@pytest.mark.parametrize("cores", [2, 1])
def test_level6_restriction_splits_between_velocity_components(
    transfer6, monkeypatch, cores
):
    # at level 6 R holds 446 403 entries, past the split size as it is:
    # its columns split where P's first velocity block ends, and each half
    # writes its own coarse rows, so the product is the serial one
    transfer, n_interior = transfer6
    R, product = restriction(transfer), transfer.products.R
    assert R.nnz >= sparse._SPLIT_NNZ
    rng = np.random.default_rng(17)
    monkeypatch.setattr(sparse, "_usable_cores", lambda: cores)
    monkeypatch.setattr(sparse, "_worker", None)
    for tail in ((), (3,)):
        x = rng.standard_normal((R.shape[1],) + tail)
        start = rng.standard_normal((R.shape[0],) + tail)
        want = start.copy()
        sparse._MATVEC["csc"][len(tail)](
            *R.shape, *tail, R.indptr, R.indices, R.data, x.ravel(),
            want.reshape(-1))
        assert np.array_equal(product(x, start.copy()), want)
        assert np.array_equal(Product(R)(x, start.copy()), want)
        assert np.array_equal(product(x, np.zeros(want.shape)), R @ x)
    assert product._parts[0][1] == slice(0, n_interior)
    assert (sparse._worker is None) == (cores == 1)


@pytest.mark.parametrize("cores", [2, 1])
def test_level6_transfers_make_one_handoff(transfer6, monkeypatch, cores):
    # P_2 is applied per velocity component: at level 6 the worker takes
    # the first component and the caller the rest, one handoff per
    # transfer, and both transfers are the one matrix P's and P^T's
    # products to the bit
    transfer, n_interior = transfer6
    P = prolongation(transfer)
    monkeypatch.setattr(sparse, "_usable_cores", lambda: cores)
    monkeypatch.setattr(sparse, "_worker", None)
    submits = []
    original = sparse._get_worker

    class Counting:
        def __init__(self, worker):
            self.worker = worker

        def submit(self, *args):
            submits.append(args[0])
            return self.worker.submit(*args)

    def counting():
        worker = original()
        return None if worker is None else Counting(worker)

    monkeypatch.setattr(sparse, "_get_worker", counting)
    rng = np.random.default_rng(19)
    xc = rng.standard_normal(transfer.n_coarse)
    rf = rng.standard_normal(transfer.n_fine)
    with monkeypatch.context() as serial:
        serial.setattr(sparse, "_SPLIT_NNZ", P.nnz + 1)
        want_p = Product(P)(xc, np.zeros(transfer.n_fine))
        want_r = Product(P.T)(rf, np.zeros(transfer.n_coarse))
    assert submits == []
    assert np.array_equal(prolongate(transfer, xc), want_p)
    assert np.array_equal(restrict(transfer, rf), want_r)
    assert np.array_equal(want_p, P @ xc)
    assert np.array_equal(want_r, P.T @ rf)
    assert len(submits) == (2 if cores == 2 else 0)
    assert (sparse._worker is None) == (cores == 1)


def test_restriction_halves_write_disjoint_coarse_rows(transfers3):
    # R's product trusts its blocks: R's columns of the first, the
    # worker's, may write only rows below every row its other columns write
    for transfer in transfers3[1:]:
        R, first = restriction(transfer), transfer.products.R._parts[0]
        cut = first[1].stop
        assert 0 < cut < R.shape[1]
        rows = [R[:, :cut].tocoo().row, R[:, cut:].tocoo().row]
        assert rows[0].max() < rows[1].min()
        assert rows[0].max() < first[2].stop


@pytest.mark.parametrize("bound", [True, False], ids=["bound", "matvec_add"])
def test_products_reject_input_of_the_wrong_length(systems3_beta1, bound):
    # the kernels would read and write past the ends of such arrays; a
    # system's bound products, or a Product bound for one call
    for name in ("K", "Bt"):
        mat = getattr(systems3_beta1[2], name)
        product = (getattr(systems3_beta1[2].products, name) if bound
                   else lambda x, out, mat=mat: Product(mat)(x, out))
        m, n = mat.shape
        for x, out in ((np.ones(n - 1), np.zeros(m)),
                       (np.ones(n + 1), np.zeros(m)),
                       (np.ones(n), np.zeros(m - 1)),
                       (np.ones(n), np.zeros(m + 1)),
                       (np.ones((n, 2)), np.zeros((m, 3))),
                       (np.ones((n, 2)), np.zeros(m)),
                       (np.ones(n), np.zeros((m, 1))),
                       (np.ones((n, 2)), np.zeros((m, 2), order="F")),
                       (np.ones((n, 2, 2)), np.zeros((m, 2, 2)))):
            untouched = out.copy()
            with pytest.raises(ValueError):
                product(x, out)
            assert np.array_equal(out, untouched)
