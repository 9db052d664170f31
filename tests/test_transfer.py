import numpy as np
import pytest
import scipy.sparse as sp

from stokesmg import sparse
from stokesmg.assembly import TaylorHoodSpace
from stokesmg.mesh import MeshLevel, build_hierarchy, refine
from stokesmg.transfer import (
    _W_P1,
    _W_P2,
    build_prolongation,
    prolongate,
    restrict,
)

from conftest import (edge_vertices, eval_p2_function, p2_coords,
                      prolongation, restriction, transfer_blocks)


def test_embedding_reproduces_coarse_functions(spaces3, transfers3):
    # prolongated coefficients must equal the coarse FE function evaluated
    # at the fine nodes (independent brute-force evaluator)
    rng = np.random.default_rng(0)
    coarse, fine = spaces3[1], spaces3[2]
    T = transfers3[2]
    coeff = np.zeros(coarse.n_p2)
    coeff[coarse.interior_nodes] = rng.standard_normal(coarse.n_interior)
    fine_coords = p2_coords(fine)[fine.interior_nodes]
    fine_vals = eval_p2_function(
        coarse, coeff, fine_coords[:, 0], fine_coords[:, 1],
    )
    got = prolongation(T)[: fine.n_interior, : coarse.n_interior] @ coeff[
        coarse.interior_nodes
    ]
    assert np.abs(got - fine_vals).max() <= 1e-13


def test_pressure_embedding_reproduces_linear_functions(spaces3, transfers3):
    coarse, fine = spaces3[0], spaces3[1]
    T = transfers3[1]
    # a linear function is reproduced exactly by its vertex values
    f = lambda c: 2.0 * c[:, 0] - 0.7 * c[:, 1] + 0.25
    P_p = transfer_blocks(T, fine.n_velocity, coarse.n_velocity)[1]
    got = P_p @ f(coarse.level.vertex_coords)
    assert np.abs(got - f(fine.level.vertex_coords)).max() <= 1e-14


def test_pressure_embedding_preserves_constants_exactly(spaces3,
                                                       transfers3):
    for T, coarse, fine in zip(transfers3[1:], spaces3, spaces3[1:]):
        P_p = transfer_blocks(T, fine.n_velocity, coarse.n_velocity)[1]
        ones = np.ones(P_p.shape[1])
        assert np.array_equal(P_p @ ones, np.ones(P_p.shape[0]))


def test_midpoint_row_is_half_half(spaces3, transfers3):
    coarse, fine = spaces3[0], spaces3[1]
    T = transfers3[1]
    nv = coarse.level.n_vertices
    P_p = transfer_blocks(T, fine.n_velocity, coarse.n_velocity)[1]
    ends = edge_vertices(coarse.level)
    for e in range(coarse.level.n_edges):
        row = P_p[nv + e].toarray().ravel()
        nz = np.flatnonzero(row)
        assert sorted(nz) == sorted(ends[e])
        np.testing.assert_array_equal(row[nz], [0.5, 0.5])


def test_row_sparsity_bounds(spaces3, transfers3):
    for T, coarse, fine in zip(transfers3[1:], spaces3, spaces3[1:]):
        P_u, P_p = transfer_blocks(T, fine.n_velocity, coarse.n_velocity)
        assert np.diff(P_u.indptr).max() <= 6
        assert np.diff(P_p.indptr).max() <= 3


def test_prolongate_restrict_zero(spaces3, transfers3):
    T = transfers3[1]
    assert np.abs(prolongate(T, np.zeros(T.n_coarse))).max() == 0.0
    assert np.abs(restrict(T, np.zeros(T.n_fine))).max() == 0.0


def test_adjoint_identity(transfers3):
    rng = np.random.default_rng(1)
    T = transfers3[2]
    xc = rng.standard_normal(T.n_coarse)
    yf = rng.standard_normal(T.n_fine)
    lhs = prolongate(T, xc) @ yf
    rhs = xc @ restrict(T, yf)
    assert abs(lhs - rhs) <= 1e-13 * max(1.0, abs(rhs))


def test_restrictions_are_views_of_prolongations(transfers3):
    # R is the transpose of P; the restriction's blocks are stored in the
    # memory of P_2 and P_1, and are multiplied as CSC matrices
    for T in transfers3[1:]:
        assert restriction(T).format == "csc"
        for (vector, _, args, _, _), mat in zip(T.products.R._blocks,
                                                (T.P2, T.P2, T.P1)):
            assert vector is sparse._MATVEC["csc"][0]
            assert args[:2] == mat.shape[::-1]
            indptr, indices, data = args[2:]
            for a, b in ((data, mat.data), (indices, mat.indices),
                         (indptr, mat.indptr)):
                assert np.shares_memory(a, b)
        assert np.abs((restriction(T) - prolongation(T).T).toarray()
                      ).max() == 0.0


def test_velocity_components_share_one_P2(transfers3):
    # P_2 is held once: both velocity components' blocks of the
    # prolongation and of the restriction read its arrays
    for T in transfers3[1:]:
        for product in (T.products.P, T.products.R):
            x_block, y_block, p_block = (block[2] for block in product._blocks)
            assert all(a is b for a, b in zip(x_block[2:], y_block[2:]))
            assert x_block[2] is T.P2.indptr and p_block[2] is T.P1.indptr
        held = {id(v) for v in vars(T).values() if sp.issparse(v)}
        assert held == {id(T.P2), id(T.P1)}


def test_dimension_checks(transfers3):
    T = transfers3[1]
    with pytest.raises(ValueError):
        prolongate(T, np.zeros(T.n_coarse + 1))
    with pytest.raises(ValueError):
        restrict(T, np.zeros(T.n_fine - 1))


def test_non_nested_spaces_rejected(spaces3):
    with pytest.raises(ValueError):
        build_prolongation(spaces3[0], spaces3[2])
    with pytest.raises(ValueError):
        build_prolongation(spaces3[1], spaces3[0])


def test_a_fine_level_not_refined_from_the_coarse_one_is_rejected(spaces3):
    # the refinement of level 1 with its vertices renumbered has level 2's
    # counts, and level 2's own mesh rebuilt directly has its tables; the
    # embedding of neither is the coarse space's
    coarse, fine = spaces3[1], spaces3[2]
    level = coarse.level
    perm = np.random.default_rng(5).permutation(level.n_vertices)
    renumbered = MeshLevel(1, level.vertex_coords[perm],
                           np.argsort(perm)[level.tri_vertices])
    for mesh in (refine(renumbered),
                 MeshLevel(2, fine.level.vertex_coords,
                           fine.level.tri_vertices)):
        assert (mesh.n_vertices, mesh.n_triangles) == (
            fine.level.n_vertices, fine.level.n_triangles)
        with pytest.raises(ValueError, match="uniform refinement"):
            build_prolongation(coarse, TaylorHoodSpace(mesh))


def test_galerkin_identity_all_blocks(spaces3, transfers3, systems3_beta1):
    for k in (1, 2, 3):
        T = transfers3[k]
        fine, coarse = systems3_beta1[k], systems3_beta1[k - 1]
        P_u, P_p = transfer_blocks(T, fine.n_u, coarse.n_u)
        blocks = [
            (P_u, P_u, fine.A, coarse.A),
            (P_p, P_u, fine.B, coarse.B),
            (P_u, P_u, fine.M_U, coarse.M_U),
            (P_p, P_p, fine.M_P, coarse.M_P),
        ]
        for row_p, col_p, mat_f, mat_c in blocks:
            got = row_p.T @ mat_f @ col_p
            err = np.abs((got - mat_c).toarray()).max()
            assert err <= 1e-10 * np.abs(mat_f.toarray()).max()


def test_prolongation_full_column_rank(spaces3, transfers3, systems3_beta1):
    for k in (1, 2):
        fine = systems3_beta1[k]
        P_u, P_p = transfer_blocks(transfers3[k], fine.n_u,
                                   systems3_beta1[k - 1].n_u)
        gram = (P_u.T @ fine.M_U @ P_u).toarray()
        assert np.linalg.eigvalsh(gram).min() > 0
        gram_p = (P_p.T @ fine.M_P @ P_p).toarray()
        assert np.linalg.eigvalsh(gram_p).min() > 0


def test_restriction_annihilates_coarse_orthogonal_residuals(
    spaces3, transfers3, systems3_beta1
):
    # a fine residual of the form r = A_f P e has restriction P^T A_f P e =
    # A_c e; check consistency of restrict against the Galerkin product
    rng = np.random.default_rng(2)
    k = 2
    T = transfers3[k]
    fine, coarse = systems3_beta1[k], systems3_beta1[k - 1]
    e = rng.standard_normal(coarse.n)
    r = fine.apply(prolongate(T, e))
    got = restrict(T, r)
    expect = coarse.apply(e)
    assert np.abs(got - expect).max() <= 1e-10 * max(1.0, np.abs(expect).max())


def _embedding_by_pair_dedupe(fine_nodes, coarse_nodes, weights, n_fine,
                              n_coarse):
    """Reference embedding: every (child, fine node, coarse node) triplet,
    deduplicated on (row, col), first occurrence kept.  fine_nodes is
    (4, T_c, a), coarse_nodes the parents' (T_c, b) node table."""
    rows, cols, vals = [], [], []
    for j in range(4):
        shape = (fine_nodes.shape[1], weights.shape[1], weights.shape[2])
        rows.append(np.broadcast_to(fine_nodes[j][:, :, None], shape).ravel())
        cols.append(np.broadcast_to(coarse_nodes[:, None, :], shape).ravel())
        vals.append(np.broadcast_to(weights[j][None, :, :], shape).ravel())
    rows, cols, vals = map(np.concatenate, (rows, cols, vals))
    _, first = np.unique(rows * n_coarse + cols, return_index=True)
    out = sp.coo_matrix(
        (vals[first], (rows[first], cols[first])), shape=(n_fine, n_coarse)
    ).tocsr()
    out.eliminate_zeros()
    return out


def _same_csr(a, b):
    return (
        a.shape == b.shape
        and np.array_equal(a.indptr, b.indptr)
        and np.array_equal(a.indices, b.indices)
        and np.array_equal(a.data, b.data)
    )


def test_prolongation_matches_pair_dedupe_oracle():
    spaces = [TaylorHoodSpace(lv) for lv in build_hierarchy(5)]
    for coarse, fine in zip(spaces, spaces[1:]):
        t = build_prolongation(coarse, fine)
        tc = coarse.level.n_triangles
        child_ids = 4 * np.arange(tc)[None, :] + np.arange(4)[:, None]
        P2 = _embedding_by_pair_dedupe(
            fine.tri_p2[child_ids], coarse.tri_p2, _W_P2,
            fine.n_p2, coarse.n_p2,
        )
        P2 = P2[fine.interior_nodes][:, coarse.interior_nodes]
        P_p = _embedding_by_pair_dedupe(
            fine.level.tri_vertices[child_ids], coarse.level.tri_vertices,
            _W_P1, fine.level.n_vertices, coarse.level.n_vertices,
        )
        assert _same_csr(prolongation(t),
                         sp.block_diag([P2, P2, P_p], format="csr"))


@pytest.mark.parametrize("tail", [(), (3,)])
def test_transfers_apply_each_block_bitwise(tail):
    # prolongate and restrict equal the products with P_2, P_2 and P_1 and
    # their transposes, block by block, to the bit
    spaces = [TaylorHoodSpace(lv) for lv in build_hierarchy(4)]
    rng = np.random.default_rng(13)
    for coarse, fine in zip(spaces, spaces[1:]):
        T = build_prolongation(coarse, fine)
        P2 = prolongation(T)[: fine.n_interior, : coarse.n_interior]
        P1 = transfer_blocks(T, fine.n_velocity, coarse.n_velocity)[1]
        n = coarse.n_interior
        x = rng.standard_normal((T.n_coarse,) + tail)
        want = np.concatenate([P @ part for P, part in
                               zip((P2, P2, P1), np.split(x, [n, 2 * n]))])
        assert np.array_equal(prolongate(T, x), want)
        n = fine.n_interior
        y = rng.standard_normal((T.n_fine,) + tail)
        want = np.concatenate([P.T @ part for P, part in
                               zip((P2, P2, P1), np.split(y, [n, 2 * n]))])
        assert np.array_equal(restrict(T, y), want)
