import collections

import numpy as np
import pytest
import scipy.sparse as sp

from stokesmg import assembly, smoother
from stokesmg.assembly import ProblemParams, SaddleSystem, build_system
from stokesmg.smoother import (
    DEFAULT_SIGMA_UZAWA,
    DEFAULT_TAU_NORMAL,
    DEFAULT_TAU_UZAWA,
    ScalingOperator,
    SmootherConfig,
    build_scaling,
    check_damping_conditions,
    estimate_spectral_radius,
    normal_equation_step,
    smoother_step,
    uzawa_step,
)
from stokesmg.sparse import matvec_add


def uzawa_block_apply_inverse(system, scaling, tau, sigma, r):
    """Apply the inverse of the Uzawa sweep's block matrix C to a vector;
    equal to the update produced by one sweep from x = 0 with rhs = r."""
    r_u, r_p = system.split(r)
    s_u, s_p = scaling.damped_reciprocals(tau, sigma)
    dp_ = s_p * (system.B @ (s_u * r_u) - r_p)
    du_ = s_u * (r_u - system.Bt @ dp_)
    return system.join(du_, dp_)


def system_from_blocks(A, B, M, M_P, params, h, space=None):
    """SaddleSystem whose saddle matrix is assembled from given blocks."""
    K = sp.bmat([[A, B.T], [B, None]], format="csr")
    return SaddleSystem(K=K, M=M, M_P=M_P, params=params, h=h, space=space)


def make_fixture_system(n=6, A=None):
    """Decoupled toy system: identity velocity block, empty divergence."""
    return system_from_blocks(
        A=sp.identity(n, format="csr") if A is None else A,
        B=sp.csr_matrix((1, n)),
        M=sp.identity(n // 2, format="csr"),
        M_P=sp.identity(1, format="csr"),
        params=ProblemParams(beta=0.0),
        h=1.0,
    )


def unit_scaling(n_u, n_p):
    return ScalingOperator(d_u=np.ones(n_u), d_p=np.ones(n_p))


def test_config_defaults():
    cfg = SmootherConfig()
    assert cfg.kind == "normal_equation"
    assert cfg.tau == DEFAULT_TAU_NORMAL
    assert cfg.sigma is None
    uz = SmootherConfig(kind="uzawa")
    assert uz.tau == DEFAULT_TAU_UZAWA
    assert uz.sigma == DEFAULT_SIGMA_UZAWA


def test_config_validation():
    with pytest.raises(ValueError):
        SmootherConfig(kind="jacobi")
    with pytest.raises(ValueError):
        SmootherConfig(kind="uzawa", sigma=0.0)
    with pytest.raises(ValueError):
        SmootherConfig(tau=-0.1)


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
    sc = build_scaling(system)
    x = rng.standard_normal(system.n)
    rhs = system.apply(x)
    out = normal_equation_step(system, sc, 0.35, x, rhs)
    assert np.abs(out - x).max() <= 1e-13 * np.abs(x).max()
    rhs2 = rng.standard_normal(system.n)
    assert np.array_equal(normal_equation_step(system, sc, 0.0, x, rhs2), x)


def test_normal_step_matches_dense_oracle(systems3_beta1):
    rng = np.random.default_rng(1)
    system = systems3_beta1[1]
    sc = build_scaling(system)
    x = rng.standard_normal(system.n)
    rhs = rng.standard_normal(system.n)
    got = normal_equation_step(system, sc, 0.35, x, rhs)
    dense = system.dense()
    d = np.concatenate([sc.d_u, sc.d_p])
    oracle = x + 0.35 * (dense @ ((rhs - dense @ x) / d)) / d
    assert np.abs(got - oracle).max() <= 1e-12 * np.abs(oracle).max()


def test_uzawa_fixed_point(systems3_beta1):
    rng = np.random.default_rng(2)
    system = systems3_beta1[2]
    sc = build_scaling(system)
    x = rng.standard_normal(system.n)
    rhs = system.apply(x)
    out = uzawa_step(system, sc, 0.8, 0.8, x, rhs)
    assert np.abs(out - x).max() <= 1e-12 * np.abs(x).max()


@pytest.mark.parametrize("level", [1, 2, 3])
def test_uzawa_equals_compact_block_form(systems3_beta1, level):
    rng = np.random.default_rng(3 + level)
    system = systems3_beta1[level]
    sc = build_scaling(system)
    tau, sigma = 0.8, 0.8
    x = rng.standard_normal(system.n)
    rhs = rng.standard_normal(system.n)
    got = uzawa_step(system, sc, tau, sigma, x, rhs)
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
    got = uzawa_step(system, sc, 0.8, 0.8, x, rhs)
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
        lambda x, r: normal_equation_step(system, sc, 0.35, x, r),
        lambda x, r: uzawa_step(system, sc, 0.8, 0.8, x, r),
    ):
        block = step(x, rhs)
        columns = np.column_stack([step(x[:, j], rhs[:, j]) for j in range(4)])
        assert block.shape == x.shape
        assert np.abs(block - columns).max() <= 1e-15 * np.abs(columns).max()


@pytest.mark.parametrize("kind", ["normal_equation", "uzawa"])
def test_smoother_step_leaves_inputs_untouched(systems3_beta1, kind):
    rng = np.random.default_rng(11)
    system = systems3_beta1[2]
    sc = build_scaling(system)
    x = rng.standard_normal(system.n)
    rhs = rng.standard_normal(system.n)
    x_before, rhs_before = x.copy(), rhs.copy()
    out = smoother_step(system, sc, SmootherConfig(kind=kind), x, rhs)
    assert np.array_equal(x, x_before) and np.array_equal(rhs, rhs_before)
    assert not np.shares_memory(out, x) and not np.shares_memory(out, rhs)


@pytest.mark.parametrize("beta", [0.0, 1.0, 1e10])
def test_uzawa_update_is_block_inverse_of_residual(systems3_by_beta, beta):
    rng = np.random.default_rng(12)
    system = systems3_by_beta[beta][3]
    sc = build_scaling(system)
    x = rng.standard_normal(system.n)
    rhs = rng.standard_normal(system.n)
    update = uzawa_step(system, sc, 0.8, 0.8, x, rhs) - x
    delta = uzawa_block_apply_inverse(system, sc, 0.8, 0.8,
                                      rhs - system.apply(x))
    assert np.abs(update - delta).max() <= 1e-12 * np.abs(delta).max()


@pytest.fixture
def matvec_counts(monkeypatch):
    """Calls of sparse.matvec_add per matrix, keyed by the matrix's id,
    from the modules whose sweeps and residuals call it."""
    counts = collections.Counter()

    def counting(mat, x, out):
        counts[id(mat)] += 1
        return matvec_add(mat, x, out)

    for module in (assembly, smoother):
        monkeypatch.setattr(module, "matvec_add", counting)
    return counts


def saddle_product_counts(counts, system):
    """Products with (K, [A, B^T], B^T, B), and whether there were others."""
    mats = (system.K, system.velocity_rows, system.Bt, system.B)
    got = tuple(counts[id(m)] for m in mats)
    return got, sum(counts.values()) == sum(got)


def test_uzawa_sweep_matvec_count(systems3_beta1, matvec_counts):
    # one product each with K's velocity rows [A, B^T], with B and with B^T
    system = systems3_beta1[2]
    sc = build_scaling(system)
    rng = np.random.default_rng(13)
    x = rng.standard_normal(system.n)
    rhs = rng.standard_normal(system.n)
    uzawa_step(system, sc, 0.8, 0.8, x, rhs)
    assert saddle_product_counts(matvec_counts, system) == ((0, 1, 1, 1),
                                                            True)


def test_normal_sweep_and_residual_matvec_counts(systems3_beta1,
                                                 matvec_counts):
    # a residual is one product with K; a normal-equation sweep is two
    system = systems3_beta1[2]
    sc = build_scaling(system)
    rng = np.random.default_rng(13)
    x = rng.standard_normal(system.n)
    rhs = rng.standard_normal(system.n)
    system.residual(x, rhs)
    assert saddle_product_counts(matvec_counts, system) == ((1, 0, 0, 0),
                                                            True)
    matvec_counts.clear()
    normal_equation_step(system, sc, 0.35, x, rhs)
    assert saddle_product_counts(matvec_counts, system) == ((2, 0, 0, 0),
                                                            True)


def three_block_apply(system, x):
    """The saddle operator as three block products."""
    A, B = system.A, system.B
    u, p = system.split(x)
    return np.concatenate([A @ u + B.T @ p, B @ u])


def three_block_uzawa_step(system, scaling, tau, sigma, x, rhs):
    """The Uzawa sweep with its first residual from A and B^T apart."""
    s_u, s_p = scaling.damped_reciprocals(tau, sigma)
    A, B = system.A, system.B
    u, p = system.split(x)
    f, g = system.split(rhs)
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
        (normal_equation_step(system, sc, 0.35, x, rhs),
         x + 0.35 * three_block_apply(system, r / d) / d),
        (uzawa_step(system, sc, 0.8, 0.8, x, rhs),
         three_block_uzawa_step(system, sc, 0.8, 0.8, x, rhs)),
    ]
    for got, want in pairs:
        assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max()


def test_damped_reciprocals_are_memoized(systems3_beta1):
    sc = build_scaling(systems3_beta1[1])
    s_u, s_p = sc.damped_reciprocals(0.8, 0.7)
    np.testing.assert_array_equal(s_u, 0.8 / sc.d_u)
    np.testing.assert_array_equal(s_p, 0.7 / sc.d_p)
    assert sc.damped_reciprocals(0.8, 0.7)[0] is s_u
    assert sc.damped_reciprocals(0.5, 0.7)[0] is not s_u


def test_uzawa_block_inverse_helper(systems3_beta1):
    rng = np.random.default_rng(4)
    system = systems3_beta1[1]
    sc = build_scaling(system)
    r = rng.standard_normal(system.n)
    delta = uzawa_block_apply_inverse(system, sc, 0.8, 0.8, r)
    B = system.B.toarray()
    C = np.block([
        [np.diag(sc.d_u / 0.8), B.T],
        [B, 0.8 * B @ np.diag(1.0 / sc.d_u) @ B.T - np.diag(sc.d_p / 0.8)],
    ])
    assert np.abs(C @ delta - r).max() <= 1e-11 * np.abs(r).max()


def test_uzawa_decoupled_pressure_update():
    system = make_fixture_system()
    sc = unit_scaling(6, 1)
    rng = np.random.default_rng(5)
    x = rng.standard_normal(7)
    rhs = np.concatenate([rng.standard_normal(6), [0.0]])
    out = uzawa_step(system, sc, 0.8, 0.8, x, rhs)
    assert out[-1] == x[-1]
    rhs[-1] = 2.0
    out = uzawa_step(system, sc, 0.8, 0.8, x, rhs)
    assert out[-1] != x[-1]


@pytest.mark.parametrize("kind", ["normal_equation", "uzawa"])
def test_smoothers_are_linear_iterations(systems3_beta1, kind):
    rng = np.random.default_rng(6)
    system = systems3_beta1[2]
    sc = build_scaling(system)
    cfg = SmootherConfig(kind=kind)
    x = rng.standard_normal(system.n)
    y = rng.standard_normal(system.n)
    rhs = rng.standard_normal(system.n)
    lhs = smoother_step(system, sc, cfg, x, rhs) - smoother_step(
        system, sc, cfg, y, rhs
    )
    rhs_zero = smoother_step(system, sc, cfg, x - y, np.zeros(system.n))
    assert np.abs(lhs - rhs_zero).max() <= 1e-12 * max(1.0, np.abs(lhs).max())


def test_spectral_radius_identity_fixture():
    system = make_fixture_system()
    sc = unit_scaling(6, 1)
    assert estimate_spectral_radius(system, sc) == pytest.approx(
        1.0, rel=1e-10
    )


def test_spectral_radius_homogeneity(systems3_beta1):
    system = systems3_beta1[1]
    sc = build_scaling(system)
    rho = estimate_spectral_radius(system, sc, tol=1e-6)
    scaled = system_from_blocks(
        A=(3.0 * system.A).tocsr(),
        B=(3.0 * system.B).tocsr(),
        M=system.M,
        M_P=system.M_P,
        params=system.params,
        h=system.h,
        space=system.space,
    )
    rho9 = estimate_spectral_radius(scaled, sc, tol=1e-6)
    assert rho9 == pytest.approx(9.0 * rho, rel=1e-4)


def test_spectral_radius_warns_on_iteration_cap(systems3_beta1):
    system = systems3_beta1[2]
    sc = build_scaling(system)
    with pytest.warns(UserWarning, match="best estimate"):
        rho = estimate_spectral_radius(system, sc, tol=1e-14, max_iter=3)
    assert np.isfinite(rho) and rho > 0


def test_damping_conditions_reported(spaces3, capsys):
    # the inequalities are diagnostics: report the margins, require only
    # well-defined positive eigenvalues (they do hold for the defaults on
    # these levels; see the benchmark's --check-damping output)
    for k in (1, 2, 3):
        for beta in (0.0, 1e4):
            system = build_system(spaces3[k], ProblemParams(beta=beta))
            sc = build_scaling(system)
            res = check_damping_conditions(system, sc, 0.8, 0.8)
            assert res["lambda_velocity"] > 0
            assert res["lambda_schur"] > 0
            print(
                f"damping level={k} beta={beta:g}: "
                f"tau*lam_A={0.8 * res['lambda_velocity']:.3f} "
                f"tau*sigma*lam_S={0.64 * res['lambda_schur']:.3f} "
                f"ok=({res['velocity_ok']}, {res['schur_ok']})"
            )
