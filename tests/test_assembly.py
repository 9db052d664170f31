from math import factorial

import numpy as np
import pytest

from stokesmg.assembly import (
    ProblemParams,
    TaylorHoodSpace,
    build_system,
    composite_rule,
    conical_rule,
    degree4_rule,
    l2_project,
    manufactured_rhs,
    p2_reference_gradients,
    p2_values,
)
from stokesmg.mesh import MeshLevel, build_hierarchy

from conftest import eval_p2_function

# Reference-element matrices from exact symbolic integration of the
# quadratic/linear bases over the unit right triangle (frozen oracle).
P2_STIFFNESS_REF = np.array(
    [
        [6, 1, 1, 0, -4, -4],
        [1, 3, 0, 0, 0, -4],
        [1, 0, 3, 0, -4, 0],
        [0, 0, 0, 16, -8, -8],
        [-4, 0, -4, -8, 16, 0],
        [-4, -4, 0, -8, 0, 16],
    ]
) / 6.0
P2_MASS_REF = np.array(
    [
        [6, -1, -1, -4, 0, 0],
        [-1, 6, -1, 0, -4, 0],
        [-1, -1, 6, 0, 0, -4],
        [-4, 0, 0, 32, 16, 16],
        [0, -4, 0, 16, 32, 16],
        [0, 0, -4, 16, 16, 32],
    ]
) / 360.0
P1_MASS_REF = np.array([[2, 1, 1], [1, 2, 1], [1, 1, 2]]) / 24.0


def monomial_integral(p, q):
    # integral of x^p y^q over the unit right triangle
    return factorial(p) * factorial(q) / factorial(p + q + 2)


@pytest.mark.parametrize("rule_factory", [degree4_rule, lambda: conical_rule(5)])
def test_quadrature_exact_to_stated_degree(rule_factory):
    rule = rule_factory()
    assert rule.weights.sum() == pytest.approx(0.5, abs=1e-14)
    xs, ys = rule.points[:, 1], rule.points[:, 2]
    for p in range(rule.degree + 1):
        for q in range(rule.degree + 1 - p):
            got = np.sum(rule.weights * xs**p * ys**q)
            assert got == pytest.approx(monomial_integral(p, q), abs=1e-14)


def test_composite_rule_refines_weights():
    rule = composite_rule(degree4_rule(), 2)
    assert rule.points.shape[0] == 16 * 6
    assert rule.weights.sum() == pytest.approx(0.5, abs=1e-14)
    xs = rule.points[:, 1]
    assert np.sum(rule.weights * xs**4) == pytest.approx(
        monomial_integral(4, 0), abs=1e-14
    )


def test_reference_stiffness_matches_symbolic_oracle():
    rule = degree4_rule()
    grads = p2_reference_gradients(rule.points)
    got = np.einsum("q,qid,qjd->ij", rule.weights, grads, grads)
    assert np.abs(got - P2_STIFFNESS_REF).max() <= 1e-12


def test_reference_masses_match_symbolic_oracle():
    rule = degree4_rule()
    vals = p2_values(rule.points)
    got = np.einsum("q,qi,qj->ij", rule.weights, vals, vals)
    assert np.abs(got - P2_MASS_REF).max() <= 1e-14
    got1 = np.einsum("q,qi,qj->ij", rule.weights, rule.points, rule.points)
    assert np.abs(got1 - P1_MASS_REF).max() <= 1e-15


def test_p1_local_mass_scales_with_area():
    # one physical triangle of area 1/2 placed inside the unit square
    level = MeshLevel(0, np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
                      np.array([[0, 1, 2]]))
    space = TaylorHoodSpace(level)
    m = space.M_P.toarray()
    assert np.abs(m - P1_MASS_REF).max() <= 1e-15


@pytest.fixture(scope="module")
def space2():
    return TaylorHoodSpace(build_hierarchy(2)[2])


@pytest.fixture(scope="module")
def system2(space2):
    return build_system(space2, ProblemParams(beta=1.0))


def test_params_validation():
    assert ProblemParams(beta=0.0).beta == 0.0
    with pytest.raises(ValueError):
        ProblemParams(beta=-1.0)


def test_space_dof_counts(space2):
    lv = space2.level
    assert space2.n_p2 == lv.n_vertices + lv.n_edges
    assert space2.n_pressure == lv.n_vertices
    assert space2.n_velocity == 2 * space2.n_interior
    boundary = np.flatnonzero(space2.p2_on_boundary)
    assert np.intersect1d(space2.interior_nodes, boundary).size == 0
    assert space2.interior_nodes.size + boundary.size == space2.n_p2


def test_A_symmetric_positive(space2):
    a0 = build_system(space2, ProblemParams(beta=0.0)).A
    assert np.abs((a0 - a0.T).toarray()).max() <= 1e-13 * np.abs(a0.toarray()).max()
    rng = np.random.default_rng(0)
    for _ in range(5):
        x = rng.standard_normal(a0.shape[0])
        assert x @ (a0 @ x) > 0


def test_A_linear_in_beta(space2):
    a0 = build_system(space2, ProblemParams(beta=0.0)).A
    system4 = build_system(space2, ProblemParams(beta=1e4))
    a4, m = system4.A, system4.M_U
    diff = (a4 - a0 - 1e4 * m).toarray()
    assert np.abs(diff).max() <= 1e-9 * np.abs(a4.toarray()).max()


def test_A_dominates_beta_mass(space2):
    beta = 37.0
    system = build_system(space2, ProblemParams(beta=beta))
    a, m = system.A, system.M_U
    rng = np.random.default_rng(1)
    for _ in range(10):
        x = rng.standard_normal(a.shape[0])
        assert x @ (a @ x) >= beta * (x @ (m @ x)) - 1e-12


def test_beta_independent_blocks_assembled_once_per_space(monkeypatch):
    # systems for several beta and the L2 projection all reuse the blocks
    # the space assembled on first use
    from stokesmg import assembly
    from stokesmg.bench import exact_pressure, exact_velocity

    calls = {"_scalar_p2_matrices": 0, "_divergence_blocks": 0}
    for name in calls:
        def counted(*args, _name=name, _original=getattr(assembly, name)):
            calls[_name] += 1
            return _original(*args)
        monkeypatch.setattr(assembly, name, counted)
    space = TaylorHoodSpace(build_hierarchy(2)[2])
    for beta in (0.0, 1.0, 1e10):
        build_system(space, ProblemParams(beta=beta))
    l2_project(space, exact_velocity, exact_pressure)
    assert calls == {"_scalar_p2_matrices": 1, "_divergence_blocks": 1}


def test_systems_share_beta_independent_blocks(space2):
    s0 = build_system(space2, ProblemParams(beta=0.0))
    s1 = build_system(space2, ProblemParams(beta=1e4))
    assert s0.B is s1.B and s0.M_U is s1.M_U and s0.M_P is s1.M_P
    assert s0.A is not s1.A


def test_B_kernel_contains_constants(system2):
    ones = np.ones(system2.n_p)
    assert np.abs(system2.Bt @ ones).max() <= 1e-12


def test_B_zero_velocity(system2):
    assert np.abs(system2.B @ np.zeros(system2.n_u)).max() == 0.0


def test_divergence_moments_match_symbolic_oracle():
    # interpolate the rotational field (y, -x) at interior nodes (zero at
    # boundary nodes) and compare B @ u against exact per-element symbolic
    # integration of div(u_h) * psi_i
    import sympy

    space = TaylorHoodSpace(build_hierarchy(1)[1])
    system = build_system(space, ProblemParams(beta=0.0))
    coords = space.p2_coords
    ux = np.zeros(space.n_p2)
    uy = np.zeros(space.n_p2)
    idx = space.interior_nodes
    ux[idx] = coords[idx, 1]
    uy[idx] = -coords[idx, 0]
    u = np.concatenate([ux[idx], uy[idx]])
    got = system.B @ u

    X, Y = sympy.symbols("x y")
    oracle = np.zeros(space.n_pressure)
    for t in range(space.level.n_triangles):
        nodes = space.tri_p2[t]
        pts = [sympy.Matrix(coords[n]) for n in nodes]
        # quadratic basis on this triangle via exact interpolation
        mono = [1, X, Y, X**2, X * Y, Y**2]
        V = sympy.Matrix(
            [[m.subs({X: p[0], Y: p[1]}) if hasattr(m, "subs") else m
              for m in mono] for p in pts]
        )
        Vinv = V.inv()
        div_uh = 0
        for loc in range(6):
            basis = sum(Vinv[k, loc] * mono[k] for k in range(6))
            div_uh += ux[nodes[loc]] * sympy.diff(basis, X)
            div_uh += uy[nodes[loc]] * sympy.diff(basis, Y)
        verts = coords[space.level.tri_vertices[t]]
        s, r = sympy.symbols("s r")
        xm = verts[0][0] + (verts[1][0] - verts[0][0]) * s + (verts[2][0] - verts[0][0]) * r
        ym = verts[0][1] + (verts[1][1] - verts[0][1]) * s + (verts[2][1] - verts[0][1]) * r
        det = sympy.Rational(1, 1) * abs(
            (verts[1][0] - verts[0][0]) * (verts[2][1] - verts[0][1])
            - (verts[2][0] - verts[0][0]) * (verts[1][1] - verts[0][1])
        )
        lam = [1 - s - r, s, r]
        for i, vert in enumerate(space.level.tri_vertices[t]):
            integrand = (div_uh.subs({X: xm, Y: ym}) * lam[i]).expand()
            val = sympy.integrate(
                sympy.integrate(integrand, (r, 0, 1 - s)), (s, 0, 1)
            ) * det
            oracle[vert] += float(val)
    assert np.abs(got - oracle).max() <= 1e-12


def test_mass_matrices_positive_definite():
    for k in (1, 2):
        system = build_system(
            TaylorHoodSpace(build_hierarchy(k)[k]), ProblemParams(beta=0.0)
        )
        for m in (system.M_U, system.M_P):
            dense = m.toarray()
            assert np.abs(dense - dense.T).max() <= 1e-15
            assert np.linalg.eigvalsh(dense).min() > 0
        ones = np.ones(system.n_p)
        assert ones @ (system.M_P @ ones) == pytest.approx(1.0, abs=1e-12)


def test_assembly_independent_of_triangle_order(space2):
    lv = space2.level
    rng = np.random.default_rng(2)
    perm = rng.permutation(lv.n_triangles)
    shuffled_level = MeshLevel(
        lv.level_index, lv.vertex_coords, lv.tri_vertices[perm]
    )
    shuffled = TaylorHoodSpace(shuffled_level)
    # edge numbering is derived from sorted vertex pairs, so it is
    # identical and the matrices must agree entrywise
    s1 = build_system(space2, ProblemParams(beta=1.0))
    s2 = build_system(shuffled, ProblemParams(beta=1.0))
    a1, a2 = s1.A.toarray(), s2.A.toarray()
    assert np.abs(a1 - a2).max() <= 1e-13 * np.abs(a1).max()
    b1, b2 = s1.B.toarray(), s2.B.toarray()
    assert np.abs(b1 - b2).max() <= 1e-13 * max(1.0, np.abs(b1).max())


def test_project_reproduces_discrete_function(space2):
    rng = np.random.default_rng(3)
    coeff_x = np.zeros(space2.n_p2)
    coeff_y = np.zeros(space2.n_p2)
    coeff_x[space2.interior_nodes] = rng.standard_normal(space2.n_interior)
    coeff_y[space2.interior_nodes] = rng.standard_normal(space2.n_interior)
    p_coeff = rng.standard_normal(space2.n_pressure)

    def u_exact(x, y):
        return (
            eval_p2_function(space2, coeff_x, x, y),
            eval_p2_function(space2, coeff_y, x, y),
        )

    def p_exact(x, y):
        # linear pressure via vertex coefficients of the linear basis
        full = np.zeros(space2.n_p2)
        full[: space2.n_pressure] = p_coeff
        # quadratic representation of a linear function: edge values are
        # endpoint means
        lv = space2.level
        full[space2.n_pressure:] = 0.5 * (
            p_coeff[lv.edge_vertices[:, 0]] + p_coeff[lv.edge_vertices[:, 1]]
        )
        return eval_p2_function(space2, full, x, y)

    u_star, p_star = l2_project(space2, u_exact, p_exact)
    expect_u = np.concatenate(
        [coeff_x[space2.interior_nodes], coeff_y[space2.interior_nodes]]
    )
    assert np.abs(u_star - expect_u).max() <= 1e-10
    # pressure is reproduced up to the mean shift
    w = space2.M_P @ np.ones(space2.n_pressure)
    shifted = p_coeff - (w @ p_coeff) / w.sum()
    assert np.abs(p_star - shifted).max() <= 1e-10
    assert abs(w @ p_star) <= 1e-12


def test_project_zero_is_zero(space2):
    zero2 = lambda x, y: (np.zeros_like(x), np.zeros_like(x))
    zero1 = lambda x, y: np.zeros_like(x)
    u_star, p_star = l2_project(space2, zero2, zero1)
    assert np.abs(u_star).max() == 0.0
    assert np.abs(p_star).max() == 0.0


def test_projection_two_quadrature_consistency_smooth(space2):
    u = lambda x, y: (np.sin(np.pi * x) * np.sin(np.pi * y),
                      x * y * (1 - x) * (1 - y))
    p = lambda x, y: np.cos(np.pi * x) * y
    ua, pa = l2_project(space2, u, p)
    ub, pb = l2_project(space2, u, p, rule=composite_rule(conical_rule(5), 2))
    assert np.abs(ua - ub).max() <= 1e-9
    assert np.abs(pa - pb).max() <= 1e-9


def test_projection_two_quadrature_consistency_kinked(space2):
    # the benchmark solution has gradient kinks on two circles, so a fixed
    # rule carries O(1e-3) moment error on crossing elements; the two
    # quadratures must stay within that envelope and converge under
    # subdivision
    from stokesmg.bench import exact_pressure, exact_velocity

    base = conical_rule(5)
    proj = {
        s: l2_project(space2, exact_velocity, exact_pressure,
                      rule=base if s == 0 else composite_rule(base, s))
        for s in (0, 1, 3)
    }
    d0 = max(np.abs(proj[0][0] - proj[3][0]).max(),
             np.abs(proj[0][1] - proj[3][1]).max())
    d1 = max(np.abs(proj[1][0] - proj[3][0]).max(),
             np.abs(proj[1][1] - proj[3][1]).max())
    assert d0 <= 5e-3
    assert d1 <= d0 / 4


def test_manufactured_rhs_zero(system2):
    rhs = manufactured_rhs(
        system2, (np.zeros(system2.n_u), np.zeros(system2.n_p))
    )
    assert np.abs(rhs).max() == 0.0


def test_manufactured_rhs_dimension_check(system2):
    with pytest.raises(ValueError):
        manufactured_rhs(system2, (np.zeros(3), np.zeros(system2.n_p)))


def test_manufactured_rhs_recovered_by_dense_solve():
    # level-1 saddle system solved densely (with the pressure mean pinned)
    # must recover the manufactured solution
    space = TaylorHoodSpace(build_hierarchy(1)[1])
    system = build_system(space, ProblemParams(beta=1.0))
    rng = np.random.default_rng(4)
    u_star = rng.standard_normal(system.n_u)
    p_star = rng.standard_normal(system.n_p)
    w = system.M_P @ np.ones(system.n_p)
    p_star -= (w @ p_star) / w.sum()
    rhs = manufactured_rhs(system, (u_star, p_star))

    n = system.n
    aug = np.zeros((n + 1, n + 1))
    aug[:n, :n] = system.dense()
    c = np.concatenate([np.zeros(system.n_u), w])
    aug[:n, n] = c
    aug[n, :n] = c
    sol = np.linalg.solve(aug, np.concatenate([rhs, [0.0]]))[:n]
    x_star = system.join(u_star, p_star)
    assert np.abs(sol - x_star).max() <= 1e-9

    g = rhs[system.n_u:]
    assert abs(np.ones(system.n_p) @ g) <= 1e-11
