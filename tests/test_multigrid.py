import numpy as np
import pytest

from stokesmg.assembly import ProblemParams, build_system, manufactured_rhs
from stokesmg.multigrid import CycleConfig, Multigrid, NormOperator, triple_norm
from stokesmg.smoother import SmootherConfig, build_scaling

from conftest import eval_p2_function


def make_mg(systems, transfers, level, **kwargs):
    cfg = kwargs.pop("config", None) or CycleConfig(
        smoother=SmootherConfig(), cycle="W", nu_pre=3, nu_post=3
    )
    return Multigrid(
        systems[: level + 1], transfers[: level + 1], cfg, **kwargs
    )


@pytest.fixture(scope="module")
def manufactured2(spaces3_module, systems3_module):
    from stokesmg.assembly import l2_project
    from stokesmg.bench import exact_pressure, exact_velocity

    u_star, p_star = l2_project(spaces3_module[2], exact_velocity, exact_pressure)
    system = systems3_module[2]
    x_star = system.join(u_star, p_star)
    rhs = manufactured_rhs(system, (u_star, p_star))
    return x_star, rhs


@pytest.fixture(scope="module")
def spaces3_module(spaces3):
    return spaces3


@pytest.fixture(scope="module")
def systems3_module(systems3_beta1):
    return systems3_beta1


def test_config_validation():
    with pytest.raises(ValueError):
        CycleConfig(cycle="F")
    with pytest.raises(ValueError):
        CycleConfig(nu_pre=-1)


def test_cycle_on_unbuilt_level(systems3_beta1, transfers3):
    mg = make_mg(systems3_beta1, transfers3, 2)
    with pytest.raises(ValueError):
        mg.mg_cycle(3, np.zeros(1), np.zeros(1))


def test_zero_residual_cycle_without_smoothing(systems3_beta1, transfers3):
    rng = np.random.default_rng(0)
    system = systems3_beta1[2]
    cfg = CycleConfig(smoother=SmootherConfig(), cycle="W", nu_pre=0, nu_post=0)
    mg = make_mg(systems3_beta1, transfers3, 2, config=cfg)
    x = rng.standard_normal(system.n)
    rhs = system.apply(x)
    out = mg.mg_cycle(2, x, rhs)
    projected = mg.project_pressure(2, x)
    assert np.abs(out - projected).max() <= 1e-9 * np.abs(x).max()


def test_coarse_solve_contracts(systems3_beta1, transfers3):
    rng = np.random.default_rng(1)
    mg = make_mg(systems3_beta1, transfers3, 1)
    s0 = systems3_beta1[0]
    # consistency on a mean-zero-pressure solution
    x = rng.standard_normal(s0.n)
    x = mg.project_pressure(0, x)
    z = mg.coarse_solve(s0.apply(x))
    assert np.abs(z - x).max() <= 1e-10 * max(1.0, np.abs(x).max())
    # zero maps to zero
    assert np.abs(mg.coarse_solve(np.zeros(s0.n))).max() == 0.0
    # compatible random right-hand side: residual at solver precision
    rhs = rng.standard_normal(s0.n)
    g = rhs[s0.n_u:]
    rhs[s0.n_u:] = g - g.mean()
    z = mg.coarse_solve(rhs)
    res = rhs - s0.apply(z)
    assert np.abs(res).max() <= 1e-11 * max(1.0, np.abs(rhs).max())
    with pytest.raises(ValueError):
        mg.coarse_solve(np.zeros(3))


def test_two_grid_matches_dense_oracle(systems3_beta1, transfers3):
    rng = np.random.default_rng(2)
    s1, s0 = systems3_beta1[1], systems3_beta1[0]
    T = transfers3[1]
    cfg = CycleConfig(
        smoother=SmootherConfig(), cycle="two_grid", nu_pre=2, nu_post=0
    )
    mg = make_mg(systems3_beta1, transfers3, 1, config=cfg)
    x0 = rng.standard_normal(s1.n)
    rhs = rng.standard_normal(s1.n)
    got = mg.mg_cycle(1, x0, rhs)

    sc = build_scaling(s1, "natural_diag")
    d = np.concatenate([sc.d_u, sc.d_p])
    dense1 = s1.dense()
    x = x0.copy()
    for _ in range(2):
        r = rhs - dense1 @ x
        x = x + 0.35 * (dense1 @ (r / d)) / d
    P = np.zeros((s1.n, s0.n))
    P[: s1.n_u, : s0.n_u] = T.P_u.toarray()
    P[s1.n_u:, s0.n_u:] = T.P_p.toarray()
    rc = P.T @ (rhs - dense1 @ x)
    n0 = s0.n
    aug = np.zeros((n0 + 1, n0 + 1))
    aug[:n0, :n0] = s0.dense()
    c = np.concatenate([np.zeros(s0.n_u), s0.M_P @ np.ones(s0.n_p)])
    aug[:n0, n0] = c
    aug[n0, :n0] = c
    z = np.linalg.solve(aug, np.concatenate([rc, [0.0]]))[:n0]
    x = x + P @ z
    w = s1.M_P @ np.ones(s1.n_p)
    u_, p_ = s1.split(x)
    oracle = s1.join(u_, p_ - (w @ p_) / w.sum())
    assert np.abs(got - oracle).max() <= 1e-10 * max(1.0, np.abs(oracle).max())


@pytest.mark.parametrize("kind", ["normal_equation", "uzawa"])
def test_cycle_is_affine_linear(systems3_beta1, transfers3, kind):
    rng = np.random.default_rng(3)
    system = systems3_beta1[2]
    cfg = CycleConfig(smoother=SmootherConfig(kind=kind), cycle="W",
                      nu_pre=2, nu_post=2)
    mg = make_mg(systems3_beta1, transfers3, 2, config=cfg)
    x = rng.standard_normal(system.n)
    y = rng.standard_normal(system.n)
    rhs = rng.standard_normal(system.n)
    lhs = mg.mg_cycle(2, x, rhs) - mg.mg_cycle(2, y, rhs)
    zero_rhs = mg.mg_cycle(2, x - y, np.zeros(system.n))
    assert np.abs(lhs - zero_rhs).max() <= 1e-11 * max(1.0, np.abs(lhs).max())


def test_exact_solution_is_cycle_fixed_point(
    systems3_module, transfers3, manufactured2
):
    x_star, rhs = manufactured2
    mg = make_mg(systems3_module, transfers3, 2)
    out = mg.mg_cycle(2, x_star.copy(), rhs)
    op = mg.norm_operator(2)
    assert triple_norm(out - x_star, op) <= 1e-10 * triple_norm(x_star, op)


def test_solve_at_exact_solution_reports_zero(
    systems3_module, transfers3, manufactured2
):
    x_star, rhs = manufactured2
    mg = make_mg(systems3_module, transfers3, 2)
    report = mg.solve(2, rhs, x_star, x0=x_star.copy())
    assert report.n == 0
    assert report.q == 0.0
    assert report.converged


def test_solve_converges_and_reports_rate(
    systems3_module, transfers3, manufactured2
):
    x_star, rhs = manufactured2
    mg = make_mg(systems3_module, transfers3, 2)
    report = mg.solve(2, rhs, x_star)
    assert report.converged
    assert report.n == len(report.history) - 1
    err0, errn = report.history[0], report.history[-1]
    assert errn <= 1e-9 * err0
    assert report.q == pytest.approx((errn / err0) ** (1.0 / report.n), rel=1e-12)


def test_vcycle_converges(systems3_module, transfers3, manufactured2):
    x_star, rhs = manufactured2
    cfg = CycleConfig(smoother=SmootherConfig(), cycle="V", nu_pre=3, nu_post=3)
    mg = make_mg(systems3_module, transfers3, 2, config=cfg)
    report = mg.solve(2, rhs, x_star)
    assert report.converged


def test_divergence_is_reported_not_raised(
    systems3_module, transfers3, manufactured2
):
    x_star, rhs = manufactured2
    cfg = CycleConfig(smoother=SmootherConfig(kind="uzawa"), cycle="W",
                      nu_pre=1, nu_post=1)
    mg = make_mg(systems3_module, transfers3, 2, config=cfg)
    report = mg.solve(2, rhs, x_star)
    assert not report.converged
    assert report.n <= 200


@pytest.mark.parametrize("exit_path", ["converged", "max_iter", "diverged"])
def test_solve_returns_final_iterate(systems3_module, transfers3,
                                     manufactured2, exit_path):
    x_star, rhs = manufactured2
    nu = 1 if exit_path == "diverged" else 3
    cfg = CycleConfig(smoother=SmootherConfig(kind="uzawa"), cycle="W",
                      nu_pre=nu, nu_post=nu)
    mg = make_mg(systems3_module, transfers3, 2, config=cfg)
    x0 = np.zeros_like(x_star)
    report = mg.solve(2, rhs, x_star, x0=x0,
                      max_iter=2 if exit_path == "max_iter" else 200)
    assert report.converged == (exit_path == "converged")
    if exit_path == "max_iter":
        assert report.n == 2
    if exit_path == "diverged":
        assert report.history[-1] > 1e6 * report.history[0]
    assert report.x.shape == x_star.shape and report.x is not x0
    assert not np.any(x0)
    op = mg.norm_operator(2)
    assert triple_norm(report.x - x_star, op) == report.history[-1]


def test_solve_at_exact_solution_returns_start_copy(
    systems3_module, transfers3, manufactured2
):
    x_star, rhs = manufactured2
    mg = make_mg(systems3_module, transfers3, 2)
    x0 = x_star.copy()
    report = mg.solve(2, rhs, x_star, x0=x0)
    assert report.n == 0 and report.x is not x0
    assert np.array_equal(report.x, x_star)


def test_pressure_mean_projection_flag(systems3_module, transfers3,
                                       manufactured2):
    x_star, rhs = manufactured2
    mg = make_mg(systems3_module, transfers3, 2, project_pressure_mean=False)
    rng = np.random.default_rng(4)
    x = rng.standard_normal(systems3_module[2].n)
    out = mg.mg_cycle(2, x, rhs)
    # without projection a single cycle generally leaves a nonzero
    # weighted pressure mean
    w = systems3_module[2].M_P @ np.ones(systems3_module[2].n_p)
    assert abs(w @ out[systems3_module[2].n_u:]) > 0


@pytest.mark.parametrize("cycle,expected_coarse_solves", [("V", 1), ("W", 2)])
def test_cycle_recursion_counts(systems3_beta1, transfers3, cycle,
                                expected_coarse_solves):
    # at level 2 every recursive visit of level 1 triggers exactly one
    # exact level-0 solve, so counting them counts the corrections
    cfg = CycleConfig(smoother=SmootherConfig(), cycle=cycle,
                      nu_pre=1, nu_post=1)
    mg = make_mg(systems3_beta1, transfers3, 2, config=cfg)
    calls = []
    original = mg._exact_solve

    def counting(level, rhs):
        calls.append(level)
        return original(level, rhs)

    mg._exact_solve = counting
    rng = np.random.default_rng(6)
    system = systems3_beta1[2]
    mg.mg_cycle(2, rng.standard_normal(system.n), rng.standard_normal(system.n))
    assert calls == [0] * expected_coarse_solves


def test_triple_norm_properties(systems3_beta1):
    system = systems3_beta1[1]
    op = NormOperator(M_U=system.M_U, M_P=system.M_P, h=system.h,
                      beta=system.params.beta)
    assert triple_norm(np.zeros(system.n), op) == 0.0
    rng = np.random.default_rng(5)
    x = rng.standard_normal(system.n)
    assert triple_norm(3.5 * x, op) == pytest.approx(
        3.5 * triple_norm(x, op), rel=1e-13
    )


def test_triple_norm_beta_zero_velocity_matches_quadrature(spaces3):
    # with beta = 0 and no pressure the norm is h^-1 times the L2 norm of
    # the velocity field; cross-check against exact integration of an
    # interpolated quadratic polynomial on level 1
    import sympy

    space = spaces3[1]
    system = build_system(space, ProblemParams(beta=0.0))
    X, Y = sympy.symbols("x y")
    f = X * (1 - X) * 2 + X * Y  # quadratic, interpolated exactly
    f_np = sympy.lambdify((X, Y), f, "numpy")
    coeff = np.asarray(
        f_np(space.p2_coords[:, 0], space.p2_coords[:, 1]), dtype=float
    )
    # zero out boundary values to land in the constrained space
    coeff[space.p2_on_boundary] = 0.0

    # exact L2 norm of the FE function via symbolic integration per triangle
    total = 0.0
    coords = space.p2_coords
    for t in range(space.level.n_triangles):
        nodes = space.tri_p2[t]
        mono = [1, X, Y, X**2, X * Y, Y**2]
        V = sympy.Matrix(
            [[sympy.sympify(m).subs({X: coords[n][0], Y: coords[n][1]})
              for m in mono] for n in nodes]
        )
        cloc = V.solve(sympy.Matrix([coeff[n] for n in nodes]))
        fh = sum(cloc[k] * mono[k] for k in range(6))
        verts = space.level.vertex_coords[space.level.tri_vertices[t]]
        s, r = sympy.symbols("s r")
        xm = verts[0][0] + (verts[1][0] - verts[0][0]) * s + (verts[2][0] - verts[0][0]) * r
        ym = verts[0][1] + (verts[1][1] - verts[0][1]) * s + (verts[2][1] - verts[0][1]) * r
        det = abs(
            (verts[1][0] - verts[0][0]) * (verts[2][1] - verts[0][1])
            - (verts[2][0] - verts[0][0]) * (verts[1][1] - verts[0][1])
        )
        val = sympy.integrate(
            sympy.integrate((fh.subs({X: xm, Y: ym})) ** 2, (r, 0, 1 - s)),
            (s, 0, 1),
        ) * det
        total += float(val)

    u = np.concatenate([coeff[space.interior_nodes],
                        np.zeros(space.n_interior)])
    x = system.join(u, np.zeros(system.n_p))
    op = NormOperator(M_U=system.M_U, M_P=system.M_P, h=system.h, beta=0.0)
    expect = np.sqrt(total) / system.h
    assert triple_norm(x, op) == pytest.approx(expect, abs=1e-10 * expect)


def test_robustness_envelope_small_levels(spaces3, transfers3):
    # iteration rates stay inside loose envelopes over levels 2-3 and a
    # wide beta range (coarse-scale version of the benchmark tables)
    from stokesmg.assembly import l2_project
    from stokesmg.bench import exact_pressure, exact_velocity

    worst = {"normal_equation": 0.0, "uzawa": 0.0}
    targets = {
        k: l2_project(spaces3[k], exact_velocity, exact_pressure)
        for k in (2, 3)
    }
    for beta in (0.0, 1e2, 1e6, 1e10):
        params = ProblemParams(beta=beta)
        systems = [build_system(s, params) for s in spaces3]
        for kind in worst:
            cfg = CycleConfig(smoother=SmootherConfig(kind=kind), cycle="W",
                              nu_pre=3, nu_post=3)
            for k in (2, 3):
                mg = Multigrid(systems[: k + 1], transfers3[: k + 1], cfg)
                u_star, p_star = targets[k]
                rhs = manufactured_rhs(systems[k], (u_star, p_star))
                report = mg.solve(k, rhs, systems[k].join(u_star, p_star))
                assert report.converged, (kind, beta, k)
                worst[kind] = max(worst[kind], report.q)
    assert worst["normal_equation"] <= 0.85
    assert worst["uzawa"] <= 0.45
