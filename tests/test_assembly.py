import dataclasses
import tracemalloc
from fractions import Fraction
from itertools import product
from math import factorial

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from stokesmg.assembly import (
    _MASS360,
    _P1_MASS24,
    ProblemParams,
    QuadratureRule,
    TaylorHoodSpace,
    _assemble_packed,
    _local_tables,
    _mass_cg,
    _moment_vectors,
    build_system,
    conical_rule,
    l2_project,
    manufactured_rhs,
    p1_values,
    p2_values,
)
from stokesmg.mesh import CHILD_VERTEX_BARYCENTRIC, MeshLevel, build_hierarchy
from stokesmg.sparse import block_diagonal, interleave

from conftest import eval_p2_function, float_blocks, from_triplets

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


def degree4_rule():
    """Symmetric 6-point rule, exact through degree 4: exact for every
    bilinear form of the Taylor-Hood pair (the quadratic-mass integrand
    has degree 4), so it serves as the quadrature oracle of the integer
    tables."""
    a1, w1 = 0.816847572980459, 0.109951743655322
    a2, w2 = 0.108103018168070, 0.223381589678011
    points, weights = [], []
    for a, w in ((a1, w1), (a2, w2)):
        b = 0.5 * (1.0 - a)
        points += [[a, b, b], [b, a, b], [b, b, a]]
        weights += [w, w, w]
    return QuadratureRule(4, np.array(points), 0.5 * np.array(weights))


def p2_reference_gradients(points):
    """Gradients of the quadratic basis w.r.t. reference coordinates
    (x, y) = (lambda_1, lambda_2); shape (..., 6, 2)."""
    l0, l1, l2 = points[..., 0], points[..., 1], points[..., 2]
    g = np.empty(points.shape[:-1] + (6, 2))
    g[..., 0, 0] = 1.0 - 4.0 * l0
    g[..., 0, 1] = 1.0 - 4.0 * l0
    g[..., 1, 0] = 4.0 * l1 - 1.0
    g[..., 1, 1] = 0.0
    g[..., 2, 0] = 0.0
    g[..., 2, 1] = 4.0 * l2 - 1.0
    g[..., 3, 0] = 4.0 * l2
    g[..., 3, 1] = 4.0 * l1
    g[..., 4, 0] = -4.0 * l2
    g[..., 4, 1] = 4.0 * (l0 - l2)
    g[..., 5, 0] = 4.0 * (l0 - l1)
    g[..., 5, 1] = -4.0 * l1
    return g


def monomial_integral(p, q):
    # integral of x^p y^q over the unit right triangle
    return factorial(p) * factorial(q) / factorial(p + q + 2)


@pytest.mark.parametrize("rule_factory", [degree4_rule, lambda: conical_rule()])
def test_quadrature_exact_to_stated_degree(rule_factory):
    rule = rule_factory()
    assert rule.weights.sum() == pytest.approx(0.5, abs=1e-14)
    xs, ys = rule.points[:, 1], rule.points[:, 2]
    for p in range(rule.degree + 1):
        for q in range(rule.degree + 1 - p):
            got = np.sum(rule.weights * xs**p * ys**q)
            assert got == pytest.approx(monomial_integral(p, q), abs=1e-14)


def test_conical_rule_jacobi_nodes_are_scipys():
    # the tabulated Gauss-Jacobi nodes and weights are scipy's, bit for
    # bit, so the L2 projection does not change with the tabulation
    from scipy.special import roots_jacobi

    from stokesmg.assembly import _JACOBI5_NODES, _JACOBI5_WEIGHTS

    for got, want in zip((_JACOBI5_NODES, _JACOBI5_WEIGHTS),
                         roots_jacobi(5, 1.0, 0.0)):
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def composite_rule(rule, splits=1):
    """Quadrature oracle: the rule applied on the 4**splits congruent
    sub-triangles of the reference triangle.  Sharper on non-smooth
    integrands; an independent cross-check of single-panel quadrature."""
    points, weights = rule.points, rule.weights
    for _ in range(splits):
        points = np.concatenate(
            [points @ bary for bary in CHILD_VERTEX_BARYCENTRIC]
        )
        weights = np.tile(0.25 * weights, 4)
    return QuadratureRule(rule.degree, points, weights)


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


@pytest.mark.parametrize("beta", [float("nan"), float("inf")])
def test_params_reject_non_finite_beta(beta):
    with pytest.raises(ValueError, match="finite"):
        ProblemParams(beta=beta)


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
    # the space assembled on first use: one packed assembly for K_s and
    # M_s, one for D_x and D_y, one for M_P
    from stokesmg import assembly
    from stokesmg.bench import exact_pressure, exact_velocity

    calls = []
    original = assembly._assemble_packed

    def counted(*args):
        calls.append(args[-2:])  # the shape of the matrices assembled
        return original(*args)

    monkeypatch.setattr(assembly, "_assemble_packed", counted)
    space = TaylorHoodSpace(build_hierarchy(2)[2])
    for beta in (0.0, 1.0, 1e10):
        build_system(space, ProblemParams(beta=beta))
    l2_project(space, exact_velocity, exact_pressure)
    n, n_p = space.n_interior, space.n_pressure
    assert sorted(calls) == sorted([(n, n), (n_p, n), (n_p, n_p)])


def _traced_peak(build):
    """build() and the peak bytes numpy allocated while it ran."""
    tracemalloc.start()
    try:
        out = build()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_blocks_set_up_within_a_multiple_of_what_they_keep():
    # each pair of blocks is summed from one int32 CSR laid out straight
    # from the element blocks, with no coordinate triplets, so set-up peaks
    # at a bounded multiple of what the space keeps, its int16 stiffness
    # and B included (level 5: 1.8x and 3.9x)
    space = TaylorHoodSpace(build_hierarchy(5)[5])
    # inputs shared with other blocks
    space._element_classes, space.M_P

    (K, M), peak = _traced_peak(lambda: space.scalar_blocks)
    kept = K.data.nbytes + M.data.nbytes + K.indices.nbytes + K.indptr.nbytes
    assert K.indices is M.indices and K.indptr is M.indptr
    assert peak <= 2.5 * kept

    B, peak = _traced_peak(lambda: space.B)
    assert peak <= 4.5 * (B.data.nbytes + B.indices.nbytes + B.indptr.nbytes)


def _jacobians(space):
    """Per-triangle inverse Jacobians (2x2) and |det J| in floating point,
    the geometry of the quadrature oracles."""
    p = space.level.vertex_coords[space.level.tri_vertices]
    jac = np.stack([p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]], axis=2)
    det = jac[:, 0, 0] * jac[:, 1, 1] - jac[:, 0, 1] * jac[:, 1, 0]
    inv = np.empty_like(jac)
    inv[:, 0, 0] = jac[:, 1, 1]
    inv[:, 0, 1] = -jac[:, 0, 1]
    inv[:, 1, 0] = -jac[:, 1, 0]
    inv[:, 1, 1] = jac[:, 0, 0]
    inv /= det[:, None, None]
    return inv, det


def _quadrature_loop_locals(space, rule):
    """Reference local matrices: physical gradients at every quadrature
    point, accumulated point by point.  Returns the per-triangle scalar
    stiffness and mass (T, 6, 6), D_x and D_y (2, T, 3, 6) and pressure
    mass (T, 3, 3)."""
    inv, det = _jacobians(space)
    vals = p2_values(rule.points)
    pvals = p1_values(rule.points)
    grads = p2_reference_gradients(rule.points)
    k_loc = np.zeros((space.level.n_triangles, 6, 6))
    m_loc = np.zeros_like(k_loc)
    b_loc = np.zeros((2, space.level.n_triangles, 3, 6))
    p_loc = np.zeros((space.level.n_triangles, 3, 3))
    for q in range(rule.weights.size):
        pg = np.einsum("ie,ted->tid", grads[q], inv)
        w = rule.weights[q] * det
        k_loc += w[:, None, None] * np.einsum("tid,tjd->tij", pg, pg)
        m_loc += w[:, None, None] * np.outer(vals[q], vals[q])
        p_loc += w[:, None, None] * np.outer(pvals[q], pvals[q])
        for d in range(2):
            b_loc[d] += (w[:, None, None] * pvals[q][:, None]
                         * pg[:, None, :, d])
    return k_loc, m_loc, b_loc, p_loc


def _assemble_locals(space, k_loc, m_loc, b_loc):
    """Interior K, M and B summed in floating point from local matrices
    over all quadratic nodes, laid out the way the space lays them out."""
    nodes, n = space.tri_p2, space.n_p2
    rows = np.broadcast_to(nodes[:, :, None], k_loc.shape).ravel()
    cols = np.broadcast_to(nodes[:, None, :], k_loc.shape).ravel()
    prows = np.broadcast_to(
        space.level.tri_vertices[:, :, None], b_loc[0].shape
    ).ravel()
    vcols = np.broadcast_to(nodes[:, None, :], b_loc[0].shape).ravel()
    idx = space.interior_nodes
    K, M = (from_triplets(n, n, rows, cols, loc.ravel())[idx][:, idx]
            for loc in (k_loc, m_loc))
    Dx, Dy = (from_triplets(space.n_pressure, n, prows, vcols, loc.ravel())
              for loc in b_loc)
    return K, M, sp.hstack([Dx[:, idx], Dy[:, idx]], format="csr")


def _pressure_mass_from_locals(space, p_loc):
    tv = space.level.tri_vertices
    rows = np.broadcast_to(tv[:, :, None], p_loc.shape).ravel()
    cols = np.broadcast_to(tv[:, None, :], p_loc.shape).ravel()
    return from_triplets(space.n_pressure, space.n_pressure, rows, cols,
                         p_loc.ravel())


@pytest.mark.parametrize("level", range(5))
def test_blocks_match_quadrature_loop_oracle(level):
    # the quadrature loop's local matrices, times 6, 360 / l^2, 6 / l and
    # 24 / l^2, are the integer tables the space sums for each triangle
    space = TaylorHoodSpace(build_hierarchy(level)[level])
    ell, classes, adj = space._element_classes
    k6, d6 = _local_tables(adj)
    k_loc, m_loc, b_loc, p_loc = _quadrature_loop_locals(space,
                                                         degree4_rule())
    integer = []
    for loc, factor, table in (
            (k_loc, 6.0, k6[classes]),
            (m_loc, 360.0 / ell ** 2, _MASS360),
            (b_loc, 6.0 / ell, np.moveaxis(d6[classes], 1, 0)),
            (p_loc, 24.0 / ell ** 2, _P1_MASS24)):
        scaled = factor * loc
        assert np.abs(scaled - table).max() <= 1e-12
        integer.append(np.rint(scaled))
    # the stored blocks are those integers summed, here in floating point
    # (exact), then divided by 6, 360, 6 and 24 and scaled by l^0, l^2, l
    # and l^2: bitwise, with nothing stored where both sums of a shared
    # pattern vanish; the space keeps 6 K_s and (6 / l) B as the integers
    K6, M360, B6 = _assemble_locals(space, *integer[:3])
    P24 = _pressure_mass_from_locals(space, integer[3])
    blocks = float_blocks(space)
    for got, want in ((space.scalar_blocks[0], K6), (space.B, B6),
                      (blocks.K_s, K6 / 6.0),
                      (blocks.M_s, M360 / 360.0 * ell ** 2),
                      (blocks.B, B6 / 6.0 * ell),
                      (space.M_P, P24 / 24.0 * ell ** 2)):
        assert got.shape == want.shape
        assert (got != want).nnz == 0
    for mat in (K6, M360, B6, P24):
        mat.eliminate_zeros()
    assert (_stored(blocks.K_s) == _stored(blocks.M_s)
            == _stored(K6) | _stored(M360))
    assert _stored(blocks.B) == _stored(B6)
    assert _stored(space.M_P) == _stored(P24)


def _exact_blocks(space):
    """Interior K_s, M_s, D_x and D_y and the pressure mass in rational
    arithmetic, as dicts {(row, column): value}.  Node coordinates are
    dyadic, so they convert to fractions exactly, and the quadratic basis
    is integrated exactly with the integral of l0^a l1^b l2^c over
    T = 2|T| a! b! c! / (a+b+c+2)!.
    """
    def integral(*exps):  # over T, divided by 2|T|
        return Fraction(factorial(exps[0]) * factorial(exps[1])
                        * factorial(exps[2]), factorial(sum(exps) + 2))

    def mul(f, g):
        out = {}
        for (ea, ca), (eb, cb) in product(f.items(), g.items()):
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, 0) + ca * cb
        return out

    def ref_integral(f):
        return sum(c * integral(*e) for e, c in f.items())

    def unit(k, power=1):
        return tuple(power if i == k else 0 for i in range(3))

    # local nodes 0-2 at vertices, 3+i at the midpoint opposite vertex i,
    # as polynomials {exponents of (l0, l1, l2): coefficient}
    phi = [{unit(i, 2): 2, unit(i): -1} for i in range(3)]
    phi += [{tuple(int(k != i) for k in range(3)): 4} for i in range(3)]
    dphi = [[{e[:k] + (e[k] - 1,) + e[k + 1:]: c * e[k]
              for e, c in f.items() if e[k]} for k in range(3)]
            for f in phi]
    mass = [[ref_integral(mul(f, g)) for g in phi] for f in phi]
    p1_mass = [[ref_integral(mul({unit(i): 1}, {unit(j): 1}))
                for j in range(3)] for i in range(3)]
    # stiff[i][j][k][l] = integral of d_k phi_i d_l phi_j; div[i][j][k] =
    # integral of l_i d_k phi_j (derivatives with respect to l_k)
    stiff = [[[[ref_integral(mul(dk, dl)) for dl in dphi[j]]
               for dk in dphi[i]] for j in range(6)] for i in range(6)]
    div = [[[ref_integral(mul({unit(i): 1}, dk)) for dk in dphi[j]]
            for j in range(6)] for i in range(3)]

    K, M, Dx, Dy, P = {}, {}, {}, {}, {}
    coords = space.level.vertex_coords
    number = space.interior_number
    for t, verts in enumerate(space.level.tri_vertices):
        (x0, y0), (x1, y1), (x2, y2) = (
            (Fraction(x), Fraction(y)) for x, y in coords[verts])
        det = (x1 - x0) * (y2 - y0) - (x2 - x0) * (y1 - y0)  # 2|T|
        g1 = ((y2 - y0) / det, (x0 - x2) / det)
        g2 = ((y0 - y1) / det, (x1 - x0) / det)
        grads = [(-g1[0] - g2[0], -g1[1] - g2[1]), g1, g2]
        gram = [[a[0] * b[0] + a[1] * b[1] for b in grads] for a in grads]
        nodes = [number[n] for n in space.tri_p2[t]]
        for i, j in product(range(6), repeat=2):
            if max(nodes[i], nodes[j]) == space.n_interior:
                continue
            key = (nodes[i], nodes[j])
            k_ij = sum(gram[k][l] * stiff[i][j][k][l]
                       for k, l in product(range(3), repeat=2))
            K[key] = K.get(key, 0) + det * k_ij
            M[key] = M.get(key, 0) + det * mass[i][j]
        for i, j in product(range(3), range(6)):
            if nodes[j] == space.n_interior:
                continue
            key = (verts[i], nodes[j])
            for D, d in ((Dx, 0), (Dy, 1)):
                d_ij = sum(grads[k][d] * div[i][j][k] for k in range(3))
                D[key] = D.get(key, 0) + det * d_ij
        for i, j in product(range(3), repeat=2):
            key = (verts[i], verts[j])
            P[key] = P.get(key, 0) + det * p1_mass[i][j]
    return K, M, Dx, Dy, P


def _stored(mat):
    coo = mat.tocoo()
    return set(zip(coo.row.tolist(), coo.col.tolist()))


def _nonzero(exact, column_shift=0):
    return {(i, j + column_shift) for (i, j), v in exact.items() if v != 0}


@pytest.mark.parametrize("level", [0, 1, 2])
def test_stored_patterns_are_exact_nonzeros(level):
    space = TaylorHoodSpace(build_hierarchy(level)[level])
    K, M, Dx, Dy, P = _exact_blocks(space)
    blocks = float_blocks(space)
    assert _stored(blocks.K_s) == _stored(blocks.M_s) == (_nonzero(K)
                                                          | _nonzero(M))
    assert _stored(blocks.stiffness) == _nonzero(K)
    assert _stored(blocks.B) == _nonzero(Dx) | _nonzero(Dy, space.n_interior)
    assert _stored(space.M_P) == _nonzero(P)
    # every stored value is the exact one, correctly rounded
    divergence = {**Dx, **{(i, j + space.n_interior): v
                           for (i, j), v in Dy.items()}}
    for mat, exact in ((blocks.K_s, K), (blocks.M_s, M),
                       (blocks.stiffness, K), (blocks.B, divergence),
                       (space.M_P, P)):
        coo = mat.tocoo()
        want = np.array([float(exact[key]) for key in
                         zip(coo.row.tolist(), coo.col.tolist())])
        assert np.array_equal(coo.data.view(np.uint64), want.view(np.uint64))


# Entries of the floating-point assembly at most this times their
# Cauchy-Schwarz scale are rounding residue of exact zeros and were dropped.
_ZERO_TOL = 2.0 ** -42


def _symmetric(a):
    return 0.5 * (a + a.T)


def _scalar_p2_matrices(space, rule):
    """Floating-point scalar stiffness and mass on interior quadratic
    nodes: quadrature-summed reference tensors contracted with
    per-triangle geometry, G = |det J| J^-1 J^-T, as G00 S00 + G11 S11 +
    G01 (S01 + S10) for S[e, f]_ij = sum_q w_q d_e phi_i d_f phi_j, and
    |det J| times the reference mass."""
    inv, det = _jacobians(space)
    w = rule.weights
    vals = p2_values(rule.points)
    grads = p2_reference_gradients(rule.points)
    s = np.einsum("q,qie,qjf->efij", w, grads, grads)
    g00 = det * (inv[:, 0, 0] ** 2 + inv[:, 0, 1] ** 2)
    g11 = det * (inv[:, 1, 0] ** 2 + inv[:, 1, 1] ** 2)
    g01 = det * (inv[:, 0, 0] * inv[:, 1, 0] + inv[:, 0, 1] * inv[:, 1, 1])
    k_loc = g00[:, None, None] * _symmetric(s[0, 0])
    k_loc += g11[:, None, None] * _symmetric(s[1, 1])
    k_loc += g01[:, None, None] * _symmetric(s[0, 1] + s[1, 0])
    m_ref = _symmetric(np.einsum("q,qi,qj->ij", w, vals, vals))
    return k_loc, det[:, None, None] * m_ref


def _divergence_blocks(space, rule):
    """Floating-point D_x and D_y local blocks, (|det J| J^-1[:, d]) @ D
    for the reference tensor D[e]_ij = sum_q w_q psi_i d_e phi_j."""
    inv, det = _jacobians(space)
    grads = p2_reference_gradients(rule.points)
    d_ref = np.einsum("q,qi,qje->eij", rule.weights, p1_values(rule.points),
                      grads).reshape(2, 18)
    return np.stack([((det[:, None] * inv[:, :, d]) @ d_ref).reshape(-1, 3, 6)
                     for d in range(2)])


def _float_path_blocks(space):
    """K_s, M_s, the stiffness on its own nonzeros and B as floating-point
    assembly stored them: summed from the quadrature tensors' local
    matrices, with the entries at most _ZERO_TOL of their Cauchy-Schwarz
    scale dropped (from K_s and M_s where both are negligible)."""
    rule = degree4_rule()
    K, M, B = _assemble_locals(space, *_scalar_p2_matrices(space, rule),
                               _divergence_blocks(space, rule))

    def negligible(mat, row_scale, col_scale):
        coo = mat.tocoo()
        return np.abs(coo.data) <= (_ZERO_TOL * row_scale[coo.row]
                                    * col_scale[coo.col])

    def kept(mat, keep):
        coo = mat.tocoo()
        return sp.csr_matrix((coo.data[keep], (coo.row[keep], coo.col[keep])),
                             shape=mat.shape)

    k, m = np.sqrt(K.diagonal()), np.sqrt(M.diagonal())
    k_zero, m_zero = negligible(K, k, k), negligible(M, m, m)
    stiffness = kept(K, ~k_zero)
    K.data[k_zero] = 0.0
    M.data[m_zero] = 0.0
    both = ~(k_zero & m_zero)
    K_s, M_s = kept(K, both), kept(M, both)
    p = np.sqrt(space.M_P.diagonal())
    return K_s, M_s, stiffness, kept(B, ~negligible(B, p, np.tile(k, 2)))


@pytest.mark.parametrize("level", range(7))
def test_saddle_patterns_match_float_path(level):
    # integer sums store exactly the entries that the floating-point
    # assembly kept after dropping its rounding residue, for every beta,
    # at values a few ulps from that assembly's
    space = TaylorHoodSpace(build_hierarchy(level)[level])
    K_s, M_s, stiffness, B = _float_path_blocks(space)
    blocks = float_blocks(space)
    for got, want in zip((blocks.K_s, blocks.M_s, blocks.stiffness, blocks.B),
                         (K_s, M_s, stiffness, B)):
        assert np.array_equal(got.indptr, want.indptr)
        assert np.array_equal(got.indices, want.indices)
        assert np.all(np.abs(got.data - want.data)
                      <= 64 * np.spacing(np.abs(want.data)))
    for beta in (0.0, 1.0, 1e10):
        A_s = _pattern(stiffness if beta == 0.0 else K_s)
        want = sp.bmat([[block_diagonal(A_s, A_s), _pattern(B).T],
                        [_pattern(B), None]], format="csr")
        got = build_system(space, ProblemParams(beta=beta)).K
        assert got.nnz == want.nnz
        assert (_pattern(got) != want).nnz == 0


def test_assembly_rejects_vertices_off_the_lattice():
    # moving one interior vertex by a third of the leg length leaves
    # the coordinates no multiples of it: no block can be assembled
    level = build_hierarchy(2)[2]
    coords = level.vertex_coords.copy()
    coords[np.flatnonzero(~level.vertex_on_boundary)[3]] += 2.0 ** -3 / 3
    space = TaylorHoodSpace(MeshLevel(2, coords, level.tri_vertices))
    for block in ("scalar_blocks", "B", "M_P"):
        with pytest.raises(ValueError, match="multiples"):
            getattr(space, block)


def test_assembly_rejects_clockwise_triangles():
    level = build_hierarchy(2)[2]
    tris = level.tri_vertices.copy()
    tris[5, [1, 2]] = tris[5, [2, 1]]
    space = TaylorHoodSpace(MeshLevel(2, level.vertex_coords, tris))
    for block in ("scalar_blocks", "B", "M_P"):
        with pytest.raises(ValueError, match="non-counterclockwise"):
            getattr(space, block)


@pytest.mark.parametrize("m", [63, 64])
def test_assembly_rejects_tables_too_large_to_pack(m):
    # E = J / l = [[m, m - 1], [1, 1]] has determinant 1, but 6 K_s then
    # has a diagonal entry 8 (G00 + G01 + G11) above 2^15 / 2, too large
    # to sum over the two triangles at an edge
    level = MeshLevel(0, np.array([[0.0, 0.0], [m, 1.0], [m - 1.0, 1.0]]),
                      np.array([[0, 1, 2]]))
    with pytest.raises(ValueError, match="too large"):
        TaylorHoodSpace(level).scalar_blocks


@pytest.mark.parametrize("sign", [1, -1])
def test_packed_sums_raise_before_int16_could_overflow(sign):
    # the check admits tables up to (2^15 - 1) / (most triangles at a
    # node): their int16 sums are exact at the node where the most
    # triangles meet, in both halves of the packed values; one more
    # raises before anything is summed
    space = TaylorHoodSpace(build_hierarchy(2)[2])
    tv, n = space.level.tri_vertices, space.n_pressure
    count = np.bincount(tv.ravel()).max()
    largest = (2 ** 15 - 1) // count
    shape = (len(space._element_classes[2]), 3, 3)
    table = np.full(shape, sign * largest)
    high, low = _assemble_packed(space, table, -table, tv, tv, n, n)
    rows = np.broadcast_to(tv[:, :, None], (len(tv), 3, 3)).ravel()
    cols = np.broadcast_to(tv[:, None, :], (len(tv), 3, 3)).ravel()
    triangles = from_triplets(n, n, rows, cols, np.ones(rows.size))
    assert high.data.dtype == low.data.dtype == np.int16
    assert (high != sign * largest * triangles).nnz == 0
    assert (low != -sign * largest * triangles).nnz == 0
    assert np.abs(high.data).max() == count * largest
    table = np.full(shape, sign * (largest + 1))
    with pytest.raises(ValueError, match="too large"):
        _assemble_packed(space, table, -table, tv, tv, n, n)


def test_space_keeps_set_up_blocks_as_int16_and_node_tables_as_int32():
    space = TaylorHoodSpace(build_hierarchy(2)[2])
    for beta in (0.0, 1.0):
        build_system(space, ProblemParams(beta=beta))
    K6, M_s = space.scalar_blocks
    for values in (K6.data, space.B.data, space._bt_values):
        assert values.dtype == np.int16
    level = space.level
    for table in (level.tri_vertices, level.tri_edges, level.edge_vertices,
                  level.parent_triangle, space.tri_p2, space.interior_nodes,
                  space.interior_number):
        assert table.dtype == np.int32
    # the only float64 arrays the space holds are what a solve reads, the
    # masses, and its node coordinates: no float copy of K_s, of the
    # stiffness at beta = 0, of B or of B^T's values
    held = []

    def collect(value):
        if isinstance(value, np.ndarray):
            held.append(value)
        elif sp.issparse(value):
            held.extend((value.data, value.indices, value.indptr))
        elif isinstance(value, (tuple, list)):
            for item in value:
                collect(item)
        elif isinstance(value, dict):
            collect(list(value.values()))

    collect([v for k, v in vars(space).items() if k != "level"])
    floats = {id(a) for a in held if a.dtype == np.float64}
    assert floats == {id(M_s.data), id(space.M_P.data), id(space.p2_coords)}


def test_level5_space_and_two_systems_hold_at_most_16_5_mb():
    # a level-5 space, its mesh and its beta = 0 and beta = 1 systems hold
    # 15.9 MB, 19.7 MB when the space kept float64 copies of K_s, B and
    # B^T's values, the beta = 0 stiffness and int64 node tables
    tracemalloc.start()
    try:
        space = TaylorHoodSpace(build_hierarchy(5)[5])
        systems = [build_system(space, ProblemParams(beta=beta))
                   for beta in (0.0, 1.0)]
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(systems) == 2
    assert held <= 16.5e6


@pytest.mark.parametrize("level", range(5))
def test_velocity_blocks_exactly_symmetric(level):
    space = TaylorHoodSpace(build_hierarchy(level)[level])
    systems = [build_system(space, ProblemParams(beta=beta))
               for beta in (0.0, 1.0, 1e10)]
    for m in [systems[0].M_U] + [s.A for s in systems]:
        assert (m != m.T).nnz == 0


def test_systems_share_beta_independent_blocks(space2):
    s0 = build_system(space2, ProblemParams(beta=0.0))
    s1 = build_system(space2, ProblemParams(beta=1e4))
    assert s0.M is s1.M is space2.scalar_blocks[1] and s0.M_P is s1.M_P
    assert not np.shares_memory(s0.K.data, s1.K.data)
    # each B is a view of its own K's pressure rows, holding the space's B
    B = float_blocks(space2).B
    for s in (s0, s1):
        assert np.shares_memory(s.B.data, s.K.data)
        assert np.array_equal(s.B.indptr, B.indptr)
        assert np.array_equal(s.B.indices, B.indices)
        assert np.array_equal(s.B.data, B.data)


def test_systems_share_saddle_pattern(space2):
    # every beta > 0 shares one pattern, beta = 0 the smaller other one
    s0, t0 = (build_system(space2, ProblemParams(beta=0.0)) for _ in range(2))
    s1, s4 = (build_system(space2, ProblemParams(beta=b)) for b in (1.0, 1e4))
    for a, b in ((s0, t0), (s1, s4)):
        assert a.K.indices is b.K.indices
        assert a.K.indptr is b.K.indptr
    assert s0.K.nnz < s1.K.nnz


@pytest.fixture(scope="module")
def spaces5():
    return [TaylorHoodSpace(lv) for lv in build_hierarchy(5)]


def _pattern(m):
    out = m.copy()
    out.data = np.ones(m.nnz)
    return out


@pytest.mark.parametrize("beta", [0.0, 1.0, 1e10])
@pytest.mark.parametrize("level", range(6))
def test_saddle_matrix_matches_block_oracle(spaces5, level, beta):
    space = spaces5[level]
    blocks = float_blocks(space)
    K_s, M_s, B = blocks.K_s, blocks.M_s, blocks.B
    # A on the pattern the scalar blocks share, explicit zeros included
    A_s = K_s.copy()
    A_s.data = K_s.data + beta * M_s.data
    want = sp.bmat([[block_diagonal(A_s, A_s), B.T], [B, None]], format="csr")
    got = build_system(space, ProblemParams(beta=beta)).K
    assert got.shape == want.shape
    assert (got != want).nnz == 0
    # K stores the oracle's entries, less those where K_s is zero at
    # beta = 0, and no others
    zeros = K_s.copy()
    zeros.data = (K_s.data == 0.0) * float(beta == 0.0)
    zeros.eliminate_zeros()
    dropped = sp.block_diag([block_diagonal(zeros, zeros),
                             sp.csr_matrix((B.shape[0],) * 2)])
    assert (_pattern(got) != _pattern(want) - dropped).nnz == 0


def _concatenated_saddle_data(space, beta):
    """K's data written with A's scalar values first concatenated once per
    velocity component, then interleaved with B^T's over all velocity
    rows."""
    _, indices, from_a = space.saddle_pattern(beta)
    blocks = float_blocks(space)
    a = (blocks.stiffness.data if beta == 0.0
         else blocks.K_s.data + beta * blocks.M_s.data)
    data = np.empty(indices.size)
    interleave(from_a, np.concatenate([a, a]), blocks.bt_values,
               out=data[: from_a.size])
    data[from_a.size:] = blocks.B.data
    return data


@pytest.mark.parametrize("beta", [0.0, 1.0, 1e10])
@pytest.mark.parametrize("level", range(5))
def test_saddle_data_matches_concatenated_formula(spaces5, level, beta):
    space = spaces5[level]
    got = build_system(space, ProblemParams(beta=beta)).K.data
    want = _concatenated_saddle_data(space, beta)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("beta, bound", [(0.0, 1.3), (1.0, 1.75)])
def test_build_system_peaks_within_a_multiple_of_its_data(spaces5, beta,
                                                          bound):
    # A's scalar values go into each velocity component's rows in turn,
    # not concatenated for both first, and the integer numerators are
    # scaled in K's data: level 5 peaks at 1.12x K's data at beta = 0 and
    # 1.39x at beta > 0 (1.64x and 2.11x when concatenated)
    space = spaces5[5]
    build_system(space, ProblemParams(beta=beta))  # blocks and pattern
    system, peak = _traced_peak(
        lambda: build_system(space, ProblemParams(beta=2.0 * beta)))
    assert peak <= bound * system.K.data.nbytes


@pytest.fixture(scope="module")
def loop_oracles3():
    spaces = [TaylorHoodSpace(lv) for lv in build_hierarchy(3)]
    return [(s, _assemble_locals(s, *_quadrature_loop_locals(
        s, degree4_rule())[:3])) for s in spaces]


@settings(max_examples=40, deadline=None)
@given(level=st.integers(0, 3),
       beta=st.one_of(st.just(0.0), st.floats(0.0, 1e10)),
       seed=st.integers(0, 2**32 - 1))
def test_apply_matches_loop_oracle_property(loop_oracles3, level, beta, seed):
    space, (K_s, M_s, B) = loop_oracles3[level]
    A_s = K_s + beta * M_s
    want = sp.bmat([[block_diagonal(A_s, A_s), B.T], [B, None]],
                   format="csr")
    system = build_system(space, ProblemParams(beta=beta))
    x = np.random.default_rng(seed).standard_normal(system.n)
    # to roundoff of |K||x| over the velocity rows and the pressure rows
    err = np.abs(system.apply(x) - want @ x)
    bound = abs(want) @ np.abs(x)
    for rows in system.split(np.arange(system.n)):
        assert err[rows].max() <= 1e-14 * bound[rows].max()
    # B^T 1 = 0, read off K's pressure columns, to roundoff of each row
    ones = system.join(np.zeros(system.n_u), np.ones(system.n_p))
    assert np.all(np.abs(system.apply(ones))
                  <= 1e-14 * (abs(system.K) @ ones))


def test_systems_share_transposed_divergence(space2):
    # every system's B^T is B transposed, read from its own K's memory
    B = float_blocks(space2).B
    for beta in (0.0, 1e4):
        s = build_system(space2, ProblemParams(beta=beta))
        assert np.abs((s.Bt - B.T).toarray()).max() == 0.0
        assert np.shares_memory(s.Bt.data, s.K.data)
        assert np.shares_memory(s.Bt.indices, s.K.indices)
    # a system with a divergence block of its own transposes that block
    s0 = build_system(space2, ProblemParams(beta=0.0))
    scaled = dataclasses.replace(s0, B=2.0 * s0.B)
    assert np.abs((scaled.Bt - 2.0 * B.T).toarray()).max() == 0.0
    assert np.shares_memory(scaled.Bt.data, scaled.K.data)
    # and its saddle matrix is rebuilt around that block
    x = np.random.default_rng(4).standard_normal(s0.n)
    u, p = s0.split(x)
    want = np.concatenate([s0.A @ u + 2.0 * (B.T @ p), 2.0 * (B @ u)])
    assert np.abs(scaled.apply(x) - want).max() <= 1e-14 * np.abs(want).max()


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


def _project_with_rule(space, u_exact, p_exact, rule):
    """l2_project with its moments taken by the given quadrature rule."""
    b_ux, b_uy, b_p = _moment_vectors(space, u_exact, p_exact, rule)
    idx, M, M_P = space.interior_nodes, space.scalar_blocks[1], space.M_P
    u_star = np.concatenate([_mass_cg(M, b_ux[idx]), _mass_cg(M, b_uy[idx])])
    p_star = _mass_cg(M_P, b_p)
    w = M_P @ np.ones(space.n_pressure)
    return u_star, p_star - (w @ p_star) / w.sum()


def test_projection_two_quadrature_consistency_smooth(space2):
    u = lambda x, y: (np.sin(np.pi * x) * np.sin(np.pi * y),
                      x * y * (1 - x) * (1 - y))
    p = lambda x, y: np.cos(np.pi * x) * y
    ua, pa = l2_project(space2, u, p)
    ub, pb = _project_with_rule(space2, u, p,
                                composite_rule(conical_rule(), 2))
    assert np.abs(ua - ub).max() <= 1e-9
    assert np.abs(pa - pb).max() <= 1e-9


def test_projection_two_quadrature_consistency_kinked(space2):
    # the benchmark solution has gradient kinks on two circles, so a fixed
    # rule carries O(1e-3) moment error on crossing elements; the two
    # quadratures must stay within that envelope and converge under
    # subdivision
    from stokesmg.bench import exact_pressure, exact_velocity

    proj = {
        s: _project_with_rule(space2, exact_velocity, exact_pressure,
                              composite_rule(conical_rule(), s))
        for s in (1, 3)
    }
    proj[0] = l2_project(space2, exact_velocity, exact_pressure)
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
