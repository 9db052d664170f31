import collections
import dataclasses
import functools

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

from conftest import force_split_products, thread_idents, velocity_pressure
from stokesmg import smoother, sparse
from stokesmg.assembly import ProblemParams, SaddleSystem, build_system
from stokesmg.multigrid import Hierarchy, triple_norm
from stokesmg.smoother import (
    DEFAULT_SIGMA_UZAWA,
    DEFAULT_TAU_NORMAL,
    DEFAULT_TAU_UZAWA,
    ScalingOperator,
    SmootherConfig,
    build_scaling,
    damping_margins,
    estimate_spectral_radius,
    normal_equation_step,
    smoother_step,
    uzawa_step,
)


UZAWA = SmootherConfig(kind="uzawa", tau=0.8, sigma=0.8)
NORMAL = SmootherConfig(tau=0.35)


def uzawa_block_apply_inverse(system, w, r):
    """Apply the inverse of the Uzawa sweep's block matrix C to a vector;
    equal to the update produced by one sweep from x = 0 with rhs = r."""
    r_u, r_p = velocity_pressure(system, r)
    s_u, s_p = velocity_pressure(system, w)
    dp_ = s_p * (system.B @ (s_u * r_u) - r_p)
    du_ = s_u * (r_u - system.Bt @ dp_)
    return system.join(du_, dp_)


def system_from_blocks(A, B, M_P, params, space=None):
    """SaddleSystem whose saddle matrix is assembled from given blocks."""
    K = sp.bmat([[A, B.T], [B, None]], format="csr")
    return SaddleSystem(K=K, M_P=M_P, params=params, space=space)


def make_fixture_system(n=6, A=None):
    """Decoupled toy system: identity velocity block, empty divergence."""
    return system_from_blocks(
        A=sp.identity(n, format="csr") if A is None else A,
        B=sp.csr_matrix((1, n)),
        M_P=sp.identity(1, format="csr"),
        params=ProblemParams(beta=0.0),
    )


def unit_scaling(n_u, n_p):
    return ScalingOperator(d_u=np.ones(n_u), d_p=np.ones(n_p))


def test_config_defaults():
    # the fields keep what was given; damping is what the smoother runs with
    cfg = SmootherConfig()
    assert cfg.kind == "normal_equation"
    assert cfg.damping[0] == DEFAULT_TAU_NORMAL
    assert cfg.damping[1] is None
    uz = SmootherConfig(kind="uzawa")
    assert uz.damping[0] == DEFAULT_TAU_UZAWA
    assert uz.damping[1] == DEFAULT_SIGMA_UZAWA
    assert cfg.tau is cfg.sigma is uz.tau is uz.sigma is None
    assert SmootherConfig(kind="uzawa", tau=0.5).damping == (
        0.5, DEFAULT_SIGMA_UZAWA)
    assert SmootherConfig(tau=0.3).damping == (0.3, None)


def test_replaced_kind_takes_its_own_defaults():
    # a config derived for another smoother carries no default of the
    # first: the normal-equation smoother gets its own tau and no sigma
    uz = SmootherConfig(kind="uzawa")
    normal = dataclasses.replace(uz, kind="normal_equation")
    assert normal.damping == (DEFAULT_TAU_NORMAL, None)
    assert dataclasses.replace(normal, kind="uzawa").damping == (
        DEFAULT_TAU_UZAWA, DEFAULT_SIGMA_UZAWA)
    # a damping that was given is carried
    assert dataclasses.replace(SmootherConfig(kind="uzawa", tau=0.5),
                               kind="normal_equation").damping == (0.5, None)
    with pytest.raises(ValueError, match="sigma"):
        dataclasses.replace(SmootherConfig(kind="uzawa", sigma=0.5),
                            kind="normal_equation")


def test_config_validation():
    with pytest.raises(ValueError):
        SmootherConfig(kind="jacobi")
    with pytest.raises(ValueError):
        SmootherConfig(kind="uzawa", sigma=0.0)
    with pytest.raises(ValueError):
        SmootherConfig(tau=-0.1)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_config_rejects_non_finite_damping(value):
    # `tau <= 0` is false for NaN, and a non-finite damping makes a solve
    # stop non-finite after one cycle
    for kind in ("normal_equation", "uzawa"):
        with pytest.raises(ValueError, match="tau must be positive and finite"):
            SmootherConfig(kind=kind, tau=value)
    with pytest.raises(ValueError, match="sigma must be positive and finite"):
        SmootherConfig(kind="uzawa", sigma=value)


@pytest.mark.parametrize("sigma", [0.5, np.nan])
def test_normal_equation_config_rejects_a_sigma(sigma):
    # sigma damps the Uzawa pressure update; the normal-equation sweep
    # has none to take
    with pytest.raises(ValueError, match="sigma"):
        SmootherConfig(kind="normal_equation", sigma=sigma)


def test_scaling_diagonals_are_views_of_one_array(systems3_beta1):
    sc = build_scaling(systems3_beta1[2])
    assert sc.d_u.base is sc.d_full and sc.d_p.base is sc.d_full
    assert sc.d_u.size + sc.d_p.size == sc.d_full.size
    assert np.array_equal(sc.d_full, np.concatenate([sc.d_u, sc.d_p]))


def test_natural_scaling_diagonals(systems3_beta1):
    system = systems3_beta1[1]
    sc = build_scaling(system)
    np.testing.assert_array_equal(sc.d_u, system.A.diagonal())
    dense = system.B.toarray() @ np.diag(1.0 / sc.d_u) @ system.B.toarray().T
    assert np.abs(sc.d_p - np.diag(dense)).max() <= 1e-12 * np.abs(dense).max()


def test_scaling_rejects_broken_diagonal():
    system = make_fixture_system(
        A=sp.csr_matrix(np.diag([1.0, 0.0, 1.0, 1.0, 1.0, 1.0]))
    )
    with pytest.raises(ValueError):
        build_scaling(system)


def test_normal_step_fixed_point_and_tau_zero(systems3_beta1):
    rng = np.random.default_rng(0)
    system = systems3_beta1[1]
    w = build_scaling(system).weights(NORMAL)
    x = rng.standard_normal(system.n)
    rhs = system.apply(x)
    out = normal_equation_step(system, w, x, rhs)
    assert np.abs(out - x).max() <= 1e-13 * np.abs(x).max()
    # zero weights, as tau = 0 gives
    rhs2 = rng.standard_normal(system.n)
    assert np.array_equal(
        normal_equation_step(system, np.zeros(system.n), x, rhs2), x)


def test_normal_step_matches_dense_oracle(systems3_beta1):
    rng = np.random.default_rng(1)
    system = systems3_beta1[1]
    sc = build_scaling(system)
    x = rng.standard_normal(system.n)
    rhs = rng.standard_normal(system.n)
    got = normal_equation_step(system, sc.weights(NORMAL), x, rhs)
    dense = system.dense()
    d = np.concatenate([sc.d_u, sc.d_p])
    oracle = x + 0.35 * (dense @ ((rhs - dense @ x) / d)) / d
    assert np.abs(got - oracle).max() <= 1e-12 * np.abs(oracle).max()


def test_uzawa_fixed_point(systems3_beta1):
    rng = np.random.default_rng(2)
    system = systems3_beta1[2]
    w = build_scaling(system).weights(UZAWA)
    x = rng.standard_normal(system.n)
    rhs = system.apply(x)
    out = uzawa_step(system, w, x, rhs)
    assert np.abs(out - x).max() <= 1e-12 * np.abs(x).max()


@pytest.mark.parametrize("level", [1, 2, 3])
def test_uzawa_equals_compact_block_form(systems3_beta1, level):
    rng = np.random.default_rng(3 + level)
    system = systems3_beta1[level]
    sc = build_scaling(system)
    tau, sigma = 0.8, 0.8
    x = rng.standard_normal(system.n)
    rhs = rng.standard_normal(system.n)
    got = uzawa_step(system, sc.weights(UZAWA), x, rhs)
    B = system.B.toarray()
    C = np.block([
        [np.diag(sc.d_u / tau), B.T],
        [B, tau * B @ np.diag(1.0 / sc.d_u) @ B.T - np.diag(sc.d_p / sigma)],
    ])
    oracle = x + np.linalg.solve(C, rhs - system.dense() @ x)
    assert np.abs(got - oracle).max() <= 1e-11 * np.abs(oracle).max()


def reference_uzawa_step(system, scaling, tau, sigma, x, rhs):
    """The three substeps as written in the module docstring, with both
    velocity residuals computed in full."""
    n_u = system.n_u
    u, p = x[:n_u], x[n_u:]
    f, g = rhs[:n_u], rhs[n_u:]
    A, B = system.A.toarray(), system.B.toarray()
    u_half = u + tau * (f - A @ u - B.T @ p) / scaling.d_u
    p_new = p - sigma * (g - B @ u_half) / scaling.d_p
    u_new = u + tau * (f - A @ u - B.T @ p_new) / scaling.d_u
    return np.concatenate([u_new, p_new])


@pytest.mark.parametrize("beta", [0.0, 1.0, 1e10])
@pytest.mark.parametrize("level", [1, 2, 3])
def test_uzawa_matches_three_substep_reference(systems3_by_beta, level, beta):
    rng = np.random.default_rng(10 + level)
    system = systems3_by_beta[beta][level]
    sc = build_scaling(system)
    x = rng.standard_normal(system.n)
    rhs = rng.standard_normal(system.n)
    got = uzawa_step(system, sc.weights(UZAWA), x, rhs)
    oracle = reference_uzawa_step(system, sc, 0.8, 0.8, x, rhs)
    assert np.abs(got - oracle).max() <= 1e-12 * np.abs(oracle).max()


@pytest.mark.parametrize("beta", [0.0, 1e10])
@pytest.mark.parametrize("level", [1, 2, 3])
def test_sweeps_on_a_block_match_column_sweeps(systems3_by_beta, level, beta):
    # an (n, 4) block of iterates is swept column by column, each diagonal
    # scaling its rows
    rng = np.random.default_rng(20 + level)
    system = systems3_by_beta[beta][level]
    sc = build_scaling(system)
    x = rng.standard_normal((system.n, 4))
    rhs = rng.standard_normal((system.n, 4))
    for step in (
        lambda x, r: normal_equation_step(system, sc.weights(NORMAL), x, r),
        lambda x, r: uzawa_step(system, sc.weights(UZAWA), x, r),
    ):
        block = step(x, rhs)
        columns = np.column_stack([step(x[:, j], rhs[:, j]) for j in range(4)])
        assert block.shape == x.shape
        assert np.abs(block - columns).max() <= 1e-15 * np.abs(columns).max()


@pytest.mark.parametrize("kind", ["normal_equation", "uzawa"])
def test_smoother_step_leaves_inputs_untouched(systems3_beta1, kind):
    rng = np.random.default_rng(11)
    system = systems3_beta1[2]
    w = build_scaling(system).weights(SmootherConfig(kind=kind))
    x = rng.standard_normal(system.n)
    rhs = rng.standard_normal(system.n)
    x_before, rhs_before = x.copy(), rhs.copy()
    out = smoother_step(system, w, kind, x, rhs)
    assert np.array_equal(x, x_before) and np.array_equal(rhs, rhs_before)
    assert not np.shares_memory(out, x) and not np.shares_memory(out, rhs)


@pytest.mark.parametrize("beta", [0.0, 1.0, 1e10])
def test_uzawa_update_is_block_inverse_of_residual(systems3_by_beta, beta):
    rng = np.random.default_rng(12)
    system = systems3_by_beta[beta][3]
    w = build_scaling(system).weights(UZAWA)
    x = rng.standard_normal(system.n)
    rhs = rng.standard_normal(system.n)
    update = uzawa_step(system, w, x, rhs) - x
    delta = uzawa_block_apply_inverse(system, w, rhs - system.apply(x))
    assert np.abs(update - delta).max() <= 1e-12 * np.abs(delta).max()


@pytest.fixture
def matvec_counts(monkeypatch):
    """Products made with every bound product (sparse.Product), keyed by
    the product's id: its calls, and its row phases (Product.run) whose
    bodies call their part's product, each phase once however many parts
    it runs; a system's products are system.products."""
    counts = collections.Counter()
    run = sparse.Product.run

    def counting(bound, body, x, out, *args):
        made = []

        def counted(product, *rest):
            def counted_product(*a):
                made.append(True)
                product(*a)

            body(counted_product, *rest)

        run(bound, counted, x, out, *args)
        counts[id(bound)] += any(made)

    monkeypatch.setattr(sparse.Product, "run", counting)
    return counts


def saddle_product_counts(counts, system):
    """Products with (K, [A, B^T], B^T, B), and whether there were others."""
    products = system.products
    mats = (products.K, products.velocity_rows, products.Bt, products.B)
    got = tuple(counts[id(m)] for m in mats)
    return got, sum(counts.values()) == sum(got)


def test_uzawa_sweep_matvec_count(systems3_beta1, matvec_counts):
    # one product each with K's velocity rows [A, B^T], with B and with B^T
    system = systems3_beta1[2]
    w = build_scaling(system).weights(UZAWA)
    rng = np.random.default_rng(13)
    x = rng.standard_normal(system.n)
    rhs = rng.standard_normal(system.n)
    uzawa_step(system, w, x, rhs)
    assert saddle_product_counts(matvec_counts, system) == ((0, 1, 1, 1),
                                                            True)


def test_normal_sweep_and_residual_matvec_counts(systems3_beta1,
                                                 matvec_counts):
    # a residual is one product with K; a normal-equation sweep is two
    system = systems3_beta1[2]
    w = build_scaling(system).weights(NORMAL)
    rng = np.random.default_rng(13)
    x = rng.standard_normal(system.n)
    rhs = rng.standard_normal(system.n)
    system.residual(x, rhs)
    assert saddle_product_counts(matvec_counts, system) == ((1, 0, 0, 0),
                                                            True)
    matvec_counts.clear()
    normal_equation_step(system, w, x, rhs)
    assert saddle_product_counts(matvec_counts, system) == ((2, 0, 0, 0),
                                                            True)


@pytest.mark.parametrize("kind, counts", [("normal_equation", (2, 0, 0, 0)),
                                          ("uzawa", (0, 1, 1, 1))])
def test_sweep_from_zeros_makes_every_product_of_a_sweep(
    systems3_beta1, matvec_counts, kind, counts
):
    # a coarse correction's first sweep starts from zeros and takes the one
    # path of every sweep: no product is skipped for the zero iterate
    system = systems3_beta1[2]
    w = build_scaling(system).weights(SmootherConfig(kind=kind))
    rhs = np.random.default_rng(15).standard_normal(system.n)
    smoother_step(system, w, kind, np.zeros(system.n), rhs)
    assert saddle_product_counts(matvec_counts, system) == (counts, True)


@pytest.fixture(scope="module")
def systems4_by_beta():
    hierarchy = Hierarchy(4)
    return {beta: hierarchy.systems(beta, 4) for beta in (0.0, 1.0, 1e10)}


@pytest.mark.parametrize("shape", [(), (3,)], ids=["vector", "block"])
@pytest.mark.parametrize("beta", [0.0, 1.0, 1e10])
@pytest.mark.parametrize("level", [1, 2, 3, 4])
@pytest.mark.parametrize("kind", ["normal_equation", "uzawa"])
def test_sweep_from_x_is_x_plus_the_residual_sweep_from_zeros(
    systems4_by_beta, kind, level, beta, shape
):
    # a sweep is a linear iteration, S(x, rhs) = x + S(0, rhs - K x): the
    # identity by which a coarse correction, started from zeros, corrects
    # the iterate
    system = systems4_by_beta[beta][level]
    w = build_scaling(system).weights(SmootherConfig(kind=kind))
    rng = np.random.default_rng(level)
    x = rng.standard_normal((system.n,) + shape)
    rhs = rng.standard_normal((system.n,) + shape)
    got = smoother_step(system, w, kind, x, rhs)
    want = x + smoother_step(system, w, kind, np.zeros(rhs.shape),
                             system.residual(x, rhs))
    assert got.shape == want.shape
    assert np.all(np.isfinite(got))
    assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


@pytest.mark.parametrize("start", ["x", "zeros"])
@pytest.mark.parametrize("shape", [(), (3,)], ids=["vector", "block"])
@pytest.mark.parametrize("beta", [0.0, 1e10])
@pytest.mark.parametrize("level", [1, 2, 3, 4])
def test_normal_sweep_is_the_closed_form_with_divisions(
    systems4_by_beta, level, beta, shape, start
):
    # multiplying by W = sqrt(tau) / D on both sides of K is the step
    # x + tau D^-1 K D^-1 (rhs - K x) as written, also from the zeros a
    # coarse correction starts from
    system = systems4_by_beta[beta][level]
    sc = build_scaling(system)
    rng = np.random.default_rng(30 + level)
    x = rng.standard_normal((system.n,) + shape)
    rhs = rng.standard_normal((system.n,) + shape)
    if start == "zeros":
        x = np.zeros(x.shape)
    d = sc.d_full if not shape else sc.d_full[:, None]
    K = system.K
    got = normal_equation_step(system, sc.weights(NORMAL), x, rhs)
    want = x + 0.35 * (K @ ((rhs - K @ x) / d)) / d
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


@pytest.mark.parametrize("start", ["x", "zeros"])
@pytest.mark.parametrize("kind", ["normal_equation", "uzawa"])
def test_sweeps_give_the_same_bits_serially_and_split(
    systems3_beta1, monkeypatch, kind, start
):
    # a split product makes the serial kernel's additions in the same
    # order, so a sweep of split products keeps every bit, from an iterate
    # and from a coarse correction's zeros
    system = systems3_beta1[3]
    w = build_scaling(system).weights(SmootherConfig(kind=kind))
    rng = np.random.default_rng(40)
    x = rng.standard_normal(system.n)
    if start == "zeros":
        x = np.zeros(system.n)
    rhs = rng.standard_normal(system.n)
    serial = smoother_step(system, w, kind, x, rhs)
    force_split_products(monkeypatch)
    split = smoother_step(system, w, kind, x, rhs)
    assert split.tobytes() == serial.tobytes()
    assert sparse._worker is not None


def row_phases(system, x, rhs):
    """Every row-owned phase a cycle runs on a level, by name: both sweeps,
    the residual and, for a vector x, the error norm's mass product with
    its dots."""
    phases = {}
    for kind in ("normal_equation", "uzawa"):
        w = build_scaling(system).weights(SmootherConfig(kind=kind))
        phases[kind] = functools.partial(smoother_step, system, w, kind, x,
                                         rhs)
    phases["residual"] = functools.partial(system.residual, x, rhs)
    if x.ndim == 1:
        phases["error norm"] = lambda: np.float64(triple_norm(x, system))
    return phases


def test_residual_and_error_norm_give_the_same_bits_serially_and_split(
    systems3_beta1, monkeypatch
):
    # each core initializes, multiplies and subtracts its own rows: the
    # residual and the error norm, whose dots the caller sums over its
    # split mass product, keep every bit
    system = systems3_beta1[3]
    rng = np.random.default_rng(41)
    x, rhs = rng.standard_normal(system.n), rng.standard_normal(system.n)
    phases = row_phases(system, x, rhs)
    serial = {name: phases[name]().tobytes()
              for name in ("residual", "error norm")}
    force_split_products(monkeypatch)
    assert system.mass_product._parts is not None
    for name, want in serial.items():
        assert phases[name]().tobytes() == want, name
    assert sparse._worker is not None
    assert serial["residual"] == (rhs - system.K @ x).tobytes()


@pytest.mark.parametrize("cores, tail", [(2, (3,)), (1, ()), (1, (3,))],
                         ids=["block", "one core", "block on one core"])
def test_row_phases_run_inline_for_blocks_and_on_one_core(
    systems3_beta1, monkeypatch, cores, tail
):
    # an (n, k) block, or any phase on one usable core, is one part run on
    # this thread by the same body: the serial bits, and no thread started
    system = systems3_beta1[3]
    rng = np.random.default_rng(42)
    x = rng.standard_normal((system.n,) + tail)
    rhs = rng.standard_normal((system.n,) + tail)
    phases = row_phases(system, x, rhs)
    want = {name: phase().tobytes() for name, phase in phases.items()}
    force_split_products(monkeypatch)
    monkeypatch.setattr(sparse, "_usable_cores", lambda: cores)
    before = thread_idents()
    for name, phase in phases.items():
        assert phase().tobytes() == want[name], name
    assert sparse._worker is None
    assert thread_idents() <= before


def three_block_apply(system, x):
    """The saddle operator as three block products."""
    A, B = system.A, system.B
    u, p = velocity_pressure(system, x)
    return np.concatenate([A @ u + B.T @ p, B @ u])


def three_block_uzawa_step(system, w, x, rhs):
    """The Uzawa sweep with its first residual from A and B^T apart."""
    s_u, s_p = velocity_pressure(system, w)
    A, B = system.A, system.B
    u, p = velocity_pressure(system, x)
    f, g = velocity_pressure(system, rhs)
    r_u = f - (A @ u + B.T @ p)
    dp = s_p * (B @ (u + s_u * r_u) - g)
    return np.concatenate([u + s_u * (r_u - B.T @ dp), p + dp])


@pytest.mark.parametrize("beta", [0.0, 1.0, 1e10])
@pytest.mark.parametrize("level", [1, 2, 3])
def test_saddle_products_match_three_block_formulas(systems3_by_beta, level,
                                                    beta):
    rng = np.random.default_rng(14 + level)
    system = systems3_by_beta[beta][level]
    sc = build_scaling(system)
    x = rng.standard_normal(system.n)
    rhs = rng.standard_normal(system.n)
    Kx = three_block_apply(system, x)
    d = sc.d_full
    r = rhs - Kx
    pairs = [
        (system.apply(x), Kx),
        (system.residual(x, rhs), r),
        (normal_equation_step(system, sc.weights(NORMAL), x, rhs),
         x + 0.35 * three_block_apply(system, r / d) / d),
        (uzawa_step(system, sc.weights(UZAWA), x, rhs),
         three_block_uzawa_step(system, sc.weights(UZAWA), x, rhs)),
    ]
    for got, want in pairs:
        assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max()


def test_uzawa_block_inverse_helper(systems3_beta1):
    rng = np.random.default_rng(4)
    system = systems3_beta1[1]
    sc = build_scaling(system)
    r = rng.standard_normal(system.n)
    delta = uzawa_block_apply_inverse(system, sc.weights(UZAWA), r)
    B = system.B.toarray()
    C = np.block([
        [np.diag(sc.d_u / 0.8), B.T],
        [B, 0.8 * B @ np.diag(1.0 / sc.d_u) @ B.T - np.diag(sc.d_p / 0.8)],
    ])
    assert np.abs(C @ delta - r).max() <= 1e-11 * np.abs(r).max()


def test_uzawa_decoupled_pressure_update():
    system = make_fixture_system()
    w = unit_scaling(6, 1).weights(UZAWA)
    rng = np.random.default_rng(5)
    x = rng.standard_normal(7)
    rhs = np.concatenate([rng.standard_normal(6), [0.0]])
    out = uzawa_step(system, w, x, rhs)
    assert out[-1] == x[-1]
    rhs[-1] = 2.0
    out = uzawa_step(system, w, x, rhs)
    assert out[-1] != x[-1]


@pytest.mark.parametrize("kind", ["normal_equation", "uzawa"])
def test_smoothers_are_linear_iterations(systems3_beta1, kind):
    rng = np.random.default_rng(6)
    system = systems3_beta1[2]
    w = build_scaling(system).weights(SmootherConfig(kind=kind))
    x = rng.standard_normal(system.n)
    y = rng.standard_normal(system.n)
    rhs = rng.standard_normal(system.n)
    lhs = smoother_step(system, w, kind, x, rhs) - smoother_step(
        system, w, kind, y, rhs
    )
    rhs_zero = smoother_step(system, w, kind, x - y, np.zeros(system.n))
    assert np.abs(lhs - rhs_zero).max() <= 1e-12 * max(1.0, np.abs(lhs).max())


def test_spectral_radius_identity_fixture():
    system = make_fixture_system()
    sc = unit_scaling(6, 1)
    assert estimate_spectral_radius(system, sc) == pytest.approx(
        1.0, rel=1e-10
    )


def test_spectral_radius_homogeneity(systems3_beta1, monkeypatch):
    monkeypatch.setattr(smoother, "_POWER_TOL", 1e-6)
    system = systems3_beta1[1]
    sc = build_scaling(system)
    rho = estimate_spectral_radius(system, sc)
    scaled = system_from_blocks(
        A=(3.0 * system.A).tocsr(),
        B=(3.0 * system.B).tocsr(),
        M_P=system.M_P,
        params=system.params,
        space=system.space,
    )
    rho9 = estimate_spectral_radius(scaled, sc)
    assert rho9 == pytest.approx(9.0 * rho, rel=1e-4)


def test_spectral_radius_warns_on_iteration_cap(systems3_beta1, monkeypatch):
    monkeypatch.setattr(smoother, "_POWER_TOL", 1e-14)
    monkeypatch.setattr(smoother, "_POWER_MAX_ITER", 3)
    system = systems3_beta1[2]
    sc = build_scaling(system)
    with pytest.warns(UserWarning, match="best estimate"):
        rho = estimate_spectral_radius(system, sc)
    assert np.isfinite(rho) and rho > 0


@pytest.mark.parametrize("level", [1, 2])
def test_damping_margins_match_dense_eigenvalues(systems3_beta1, level):
    system = systems3_beta1[level]
    sc = build_scaling(system)
    uzawa = SmootherConfig(kind="uzawa", tau=0.5, sigma=0.25)
    margins = damping_margins(system, sc, uzawa)
    # Uzawa: generalized eigenvalues of (A, Du) and (B Du^-1 B^T, Dp)
    B = system.B.toarray()
    lam_a = scipy.linalg.eigh(system.A.toarray(), np.diag(sc.d_u),
                              eigvals_only=True)[-1]
    lam_s = scipy.linalg.eigh((B / sc.d_u) @ B.T, np.diag(sc.d_p),
                              eigvals_only=True)[-1]
    want = {"tau*lambda_velocity": 0.5 * lam_a,
            "tau*sigma*lambda_schur": 0.5 * 0.25 * lam_s}
    assert list(margins) == list(want)
    for name, (value, holds) in margins.items():
        assert value == pytest.approx(want[name], rel=1e-12)
        assert holds == (value <= 1.0)

    # normal equation: the power iteration's estimate, which approaches
    # the dense rho(D^-1 A D^-1 A) from below (up to rounding)
    normal = SmootherConfig(tau=0.3)
    (name, (value, holds)), = damping_margins(system, sc, normal).items()
    assert name == "tau*rho(D^-1 A D^-1 A)"
    assert value == 0.3 * estimate_spectral_radius(system, sc)
    s = 1.0 / np.sqrt(sc.d_full)
    lam = np.linalg.eigvalsh(s[:, None] * system.dense() * s[None, :])
    rho = np.abs(lam).max() ** 2
    assert value <= 0.3 * rho * (1.0 + 1e-12)
    assert holds == (value < 2.0)


def test_damping_conditions_reported(spaces3, capsys):
    # the inequalities are diagnostics: report the margins, require only
    # well-defined positive eigenvalues (they do hold for the defaults on
    # these levels; see the benchmark's --check-damping output)
    for k in (1, 2, 3):
        for beta in (0.0, 1e4):
            system = build_system(spaces3[k], ProblemParams(beta=beta))
            sc = build_scaling(system)
            res = damping_margins(system, sc, SmootherConfig(kind="uzawa"))
            assert list(res) == ["tau*lambda_velocity",
                                 "tau*sigma*lambda_schur"]
            assert all(value > 0 for value, _ in res.values())
            print(f"damping level={k} beta={beta:g}: {res}")
