import numpy as np
import pytest

from stokesmg.assembly import TaylorHoodSpace
from stokesmg.mesh import build_hierarchy
from stokesmg.transfer import build_prolongation, prolongate, restrict

from conftest import eval_p2_function


def test_embedding_reproduces_coarse_functions(spaces3, transfers3):
    # prolongated coefficients must equal the coarse FE function evaluated
    # at the fine nodes (independent brute-force evaluator)
    rng = np.random.default_rng(0)
    coarse, fine = spaces3[1], spaces3[2]
    T = transfers3[2]
    coeff = np.zeros(coarse.n_p2)
    coeff[coarse.interior_nodes] = rng.standard_normal(coarse.n_interior)
    fine_vals = eval_p2_function(
        coarse, coeff,
        fine.p2_coords[fine.interior_nodes, 0],
        fine.p2_coords[fine.interior_nodes, 1],
    )
    got = T.P_u[: fine.n_interior, : coarse.n_interior] @ coeff[
        coarse.interior_nodes
    ]
    assert np.abs(got - fine_vals).max() <= 1e-13


def test_pressure_embedding_reproduces_linear_functions(spaces3, transfers3):
    coarse, fine = spaces3[0], spaces3[1]
    T = transfers3[1]
    # a linear function is reproduced exactly by its vertex values
    f = lambda c: 2.0 * c[:, 0] - 0.7 * c[:, 1] + 0.25
    got = T.P_p @ f(coarse.level.vertex_coords)
    assert np.abs(got - f(fine.level.vertex_coords)).max() <= 1e-14


def test_pressure_embedding_preserves_constants_exactly(transfers3):
    for T in transfers3[1:]:
        ones = np.ones(T.P_p.shape[1])
        assert np.array_equal(T.P_p @ ones, np.ones(T.P_p.shape[0]))


def test_midpoint_row_is_half_half(spaces3, transfers3):
    coarse, fine = spaces3[0], spaces3[1]
    T = transfers3[1]
    nv = coarse.level.n_vertices
    for e in range(coarse.level.n_edges):
        row = T.P_p[nv + e].toarray().ravel()
        nz = np.flatnonzero(row)
        assert sorted(nz) == sorted(coarse.level.edge_vertices[e])
        np.testing.assert_array_equal(row[nz], [0.5, 0.5])


def test_row_sparsity_bounds(transfers3):
    for T in transfers3[1:]:
        assert np.diff(T.P_u.indptr).max() <= 6
        assert np.diff(T.P_p.indptr).max() <= 3


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


def test_galerkin_identity_all_blocks(spaces3, transfers3, systems3_beta1):
    for k in (1, 2, 3):
        T = transfers3[k]
        fine, coarse = systems3_beta1[k], systems3_beta1[k - 1]
        blocks = [
            (T.P_u, T.P_u, fine.A, coarse.A),
            (T.P_p, T.P_u, fine.B, coarse.B),
            (T.P_u, T.P_u, fine.M_U, coarse.M_U),
            (T.P_p, T.P_p, fine.M_P, coarse.M_P),
        ]
        for row_p, col_p, mat_f, mat_c in blocks:
            got = row_p.T @ mat_f @ col_p
            err = np.abs((got - mat_c).toarray()).max()
            assert err <= 1e-10 * np.abs(mat_f.toarray()).max()


def test_prolongation_full_column_rank(spaces3, transfers3, systems3_beta1):
    for k in (1, 2):
        T = transfers3[k]
        gram = (T.P_u.T @ systems3_beta1[k].M_U @ T.P_u).toarray()
        assert np.linalg.eigvalsh(gram).min() > 0
        gram_p = (T.P_p.T @ systems3_beta1[k].M_P @ T.P_p).toarray()
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
