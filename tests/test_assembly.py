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
    ProblemParams,
    QuadratureRule,
    TaylorHoodSpace,
    _divergence_blocks,
    _scalar_p2_matrices,
    build_system,
    conical_rule,
    degree4_rule,
    l2_project,
    manufactured_rhs,
    p1_values,
    p2_reference_gradients,
    p2_values,
)
from stokesmg.mesh import CHILD_VERTEX_BARYCENTRIC, MeshLevel, build_hierarchy
from stokesmg.sparse import from_triplets, interleave, two_component

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


def _traced_peak(build):
    """build() and the peak bytes numpy allocated while it ran."""
    tracemalloc.start()
    try:
        out = build()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_blocks_set_up_within_a_multiple_of_what_they_keep():
    # each pair of blocks writes its kept triplets once, into one complex
    # array, so set-up peaks at a bounded multiple of what the space keeps
    # (level 5: 5.0x and 9.0x; 6.4x and 12.1x when every triplet was
    # copied by boolean indexing before the conversion)
    space = TaylorHoodSpace(build_hierarchy(5)[5])
    space._geometry, space.M_P  # inputs shared with other blocks

    (K, M), peak = _traced_peak(lambda: space.scalar_blocks)
    kept = K.data.nbytes + M.data.nbytes + K.indices.nbytes + K.indptr.nbytes
    assert K.indices is M.indices and K.indptr is M.indptr
    assert peak <= 5.5 * kept

    B, peak = _traced_peak(lambda: space.B)
    assert peak <= 10.5 * (B.data.nbytes + B.indices.nbytes
                           + B.indptr.nbytes)


def _quadrature_loop_blocks(space, rule):
    """Reference assembly: physical gradients at every quadrature point,
    local matrices accumulated point by point; returns the interior K, M
    and B the way the space lays them out."""
    inv, det = space._geometry
    vals = p2_values(rule.points)
    pvals = p1_values(rule.points)
    grads = p2_reference_gradients(rule.points)
    k_loc = np.zeros((space.level.n_triangles, 6, 6))
    m_loc = np.zeros_like(k_loc)
    b_loc = np.zeros((2, space.level.n_triangles, 3, 6))
    for q in range(rule.weights.size):
        pg = np.einsum("ie,ted->tid", grads[q], inv)
        w = rule.weights[q] * det
        k_loc += w[:, None, None] * np.einsum("tid,tjd->tij", pg, pg)
        m_loc += w[:, None, None] * np.outer(vals[q], vals[q])
        for d in range(2):
            b_loc[d] += (w[:, None, None] * pvals[q][:, None]
                         * pg[:, None, :, d])

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


@pytest.mark.parametrize("level", range(5))
def test_blocks_match_quadrature_loop_oracle(level):
    space = TaylorHoodSpace(build_hierarchy(level)[level])
    rule = degree4_rule()
    K, M = _scalar_p2_matrices(space, rule)
    Dx, Dy = _divergence_blocks(space, rule)
    converted = (K, M, sp.hstack([Dx, Dy], format="csr"))
    stored = (*space.scalar_blocks, space.B)
    want = _quadrature_loop_blocks(space, rule)
    # Cauchy-Schwarz scales sqrt(a_ii a_jj) of each block's entries
    k, m, p = (np.sqrt(a.diagonal()) for a in (K, M, space.M_P))
    scales = ((k, k), (m, m), (p, np.tile(k, 2)))
    for a, kept, b, (row, col) in zip(converted, stored, want, scales):
        # as converted from triplets: the oracle's pattern and values
        assert a.shape == kept.shape == b.shape
        assert np.array_equal(a.indptr, b.indptr)
        assert np.array_equal(a.indices, b.indices)
        scale = np.abs(b.data).max()
        assert np.abs(a.data - b.data).max() <= 1e-15 * scale
        # as the space stores them: the entries kept agree with the oracle,
        # and every entry dropped or stored as zero is roundoff
        assert abs(kept - b.multiply(_pattern(kept))).max() <= 1e-15 * scale
        dropped = (a - kept).tocoo()
        assert np.all(np.abs(dropped.data)
                      <= 1e-15 * row[dropped.row] * col[dropped.col])


def _exact_blocks(space):
    """Interior K_s, M_s, D_x and D_y in rational arithmetic, as dicts
    {(row, column): value}.  Node coordinates are dyadic, so they convert
    to fractions exactly, and the quadratic basis is integrated exactly
    with the integral of l0^a l1^b l2^c over T = 2|T| a! b! c! / (a+b+c+2)!.
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
    # stiff[i][j][k][l] = integral of d_k phi_i d_l phi_j; div[i][j][k] =
    # integral of l_i d_k phi_j (derivatives with respect to l_k)
    stiff = [[[[ref_integral(mul(dk, dl)) for dl in dphi[j]]
               for dk in dphi[i]] for j in range(6)] for i in range(6)]
    div = [[[ref_integral(mul({unit(i): 1}, dk)) for dk in dphi[j]]
            for j in range(6)] for i in range(3)]

    K, M, Dx, Dy = {}, {}, {}, {}
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
            if nodes[i] < 0 or nodes[j] < 0:
                continue
            key = (nodes[i], nodes[j])
            k_ij = sum(gram[k][l] * stiff[i][j][k][l]
                       for k, l in product(range(3), repeat=2))
            K[key] = K.get(key, 0) + det * k_ij
            M[key] = M.get(key, 0) + det * mass[i][j]
        for i, j in product(range(3), range(6)):
            if nodes[j] < 0:
                continue
            key = (verts[i], nodes[j])
            for D, d in ((Dx, 0), (Dy, 1)):
                d_ij = sum(grads[k][d] * div[i][j][k] for k in range(3))
                D[key] = D.get(key, 0) + det * d_ij
    return K, M, Dx, Dy


def _stored(mat):
    coo = mat.tocoo()
    return set(zip(coo.row.tolist(), coo.col.tolist()))


def _nonzero(exact, column_shift=0):
    return {(i, j + column_shift) for (i, j), v in exact.items() if v != 0}


@pytest.mark.parametrize("level", [1, 2])
def test_stored_patterns_are_exact_nonzeros(level):
    space = TaylorHoodSpace(build_hierarchy(level)[level])
    K, M, Dx, Dy = _exact_blocks(space)
    K_s, M_s = space.scalar_blocks
    assert _stored(K_s) == _stored(M_s) == _nonzero(K) | _nonzero(M)
    assert _stored(space.stiffness) == _nonzero(K)
    assert _stored(space.B) == _nonzero(Dx) | _nonzero(Dy, space.n_interior)
    # the stored values are those of the exact blocks to quadrature accuracy
    for mat, exact in ((K_s, K), (M_s, M)):
        dense = mat.toarray()
        scale = np.abs(dense).max()
        for (i, j), v in exact.items():
            assert abs(dense[i, j] - float(v)) <= 1e-12 * scale


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
    for s in (s0, s1):
        assert np.shares_memory(s.B.data, s.K.data)
        assert np.array_equal(s.B.indptr, space2.B.indptr)
        assert np.array_equal(s.B.indices, space2.B.indices)
        assert np.array_equal(s.B.data, space2.B.data)


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
    return [TaylorHoodSpace(lv) for lv in build_hierarchy(5).levels]


def _pattern(m):
    out = m.copy()
    out.data = np.ones(m.nnz)
    return out


@pytest.mark.parametrize("beta", [0.0, 1.0, 1e10])
@pytest.mark.parametrize("level", range(6))
def test_saddle_matrix_matches_block_oracle(spaces5, level, beta):
    space = spaces5[level]
    K_s, M_s = space.scalar_blocks
    B = space.B
    # A on the pattern the scalar blocks share, explicit zeros included
    A_s = K_s.copy()
    A_s.data = K_s.data + beta * M_s.data
    want = sp.bmat([[two_component(A_s), B.T], [B, None]], format="csr")
    got = build_system(space, ProblemParams(beta=beta)).K
    assert got.shape == want.shape
    assert (got != want).nnz == 0
    # K stores the oracle's entries, less those where K_s is zero at
    # beta = 0, and no others
    zeros = K_s.copy()
    zeros.data = (K_s.data == 0.0) * float(beta == 0.0)
    zeros.eliminate_zeros()
    dropped = sp.block_diag([two_component(zeros),
                             sp.csr_matrix((B.shape[0],) * 2)])
    assert (_pattern(got) != _pattern(want) - dropped).nnz == 0


def _concatenated_saddle_data(space, beta):
    """K's data written with A's scalar values first concatenated once per
    velocity component, then interleaved with B^T's over all velocity
    rows."""
    K_s, M_s = space.scalar_blocks
    a = space.stiffness.data if beta == 0.0 else K_s.data + beta * M_s.data
    _, indices, from_a = space.saddle_pattern(beta)
    data = np.empty(indices.size)
    interleave(from_a, np.concatenate([a, a]), space._bt_values,
               out=data[: from_a.size])
    data[from_a.size:] = space.B.data
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
    # not concatenated for both first: level 5 peaks at 1.05x K's data at
    # beta = 0 and 1.39x at beta > 0 (1.64x and 2.11x when concatenated)
    space = spaces5[5]
    build_system(space, ProblemParams(beta=beta))  # blocks and pattern
    system, peak = _traced_peak(
        lambda: build_system(space, ProblemParams(beta=2.0 * beta)))
    assert peak <= bound * system.K.data.nbytes


@pytest.fixture(scope="module")
def loop_oracles3():
    spaces = [TaylorHoodSpace(lv) for lv in build_hierarchy(3).levels]
    return [(s, _quadrature_loop_blocks(s, degree4_rule())) for s in spaces]


@settings(max_examples=40, deadline=None)
@given(level=st.integers(0, 3),
       beta=st.one_of(st.just(0.0), st.floats(0.0, 1e10)),
       seed=st.integers(0, 2**32 - 1))
def test_apply_matches_loop_oracle_property(loop_oracles3, level, beta, seed):
    space, (K_s, M_s, B) = loop_oracles3[level]
    want = sp.bmat([[two_component(K_s + beta * M_s), B.T], [B, None]],
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
    for beta in (0.0, 1e4):
        s = build_system(space2, ProblemParams(beta=beta))
        assert np.abs((s.Bt - space2.B.T).toarray()).max() == 0.0
        assert np.shares_memory(s.Bt.data, s.K.data)
        assert np.shares_memory(s.Bt.indices, s.K.indices)
    # a system with a divergence block of its own transposes that block
    s0 = build_system(space2, ProblemParams(beta=0.0))
    scaled = dataclasses.replace(s0, B=2.0 * s0.B)
    assert np.abs((scaled.Bt - 2.0 * space2.B.T).toarray()).max() == 0.0
    assert np.shares_memory(scaled.Bt.data, scaled.K.data)
    # and its saddle matrix is rebuilt around that block
    x = np.random.default_rng(4).standard_normal(s0.n)
    u, p = s0.split(x)
    want = np.concatenate([s0.A @ u + 2.0 * (space2.B.T @ p),
                           2.0 * (space2.B @ u)])
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
