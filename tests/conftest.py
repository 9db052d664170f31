from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp

from stokesmg import sparse
from stokesmg.assembly import ProblemParams, TaylorHoodSpace, build_system
from stokesmg.mesh import build_hierarchy
from stokesmg.transfer import build_prolongation


@pytest.fixture(scope="session")
def hierarchy3():
    return build_hierarchy(3)


@pytest.fixture(scope="session")
def spaces3(hierarchy3):
    return [TaylorHoodSpace(lv) for lv in hierarchy3]


@pytest.fixture(scope="session")
def transfers3(spaces3):
    return [None] + [
        build_prolongation(spaces3[k - 1], spaces3[k])
        for k in range(1, len(spaces3))
    ]


@pytest.fixture(scope="session")
def systems3_beta1(spaces3):
    params = ProblemParams(beta=1.0)
    return [build_system(s, params) for s in spaces3]


@pytest.fixture(scope="session")
def systems3_by_beta(spaces3, systems3_beta1):
    by_beta = {1.0: systems3_beta1}
    for beta in (0.0, 1e10):
        params = ProblemParams(beta=beta)
        by_beta[beta] = [build_system(s, params) for s in spaces3]
    return by_beta


def force_split_products(monkeypatch):
    """Make sparse.matvec_add split every CSR product over two threads,
    whatever its size and however many cores this process may use."""
    monkeypatch.setattr(sparse, "_SPLIT_NNZ", 0)
    monkeypatch.setattr(sparse, "_usable_cores", lambda: 2)


def from_triplets(nrows, ncols, rows, cols, values):
    """CSR matrix summed in floating point from coordinate triplets: the
    float assembly oracle for the package's packed integer assembly."""
    mat = sp.coo_matrix(
        (np.asarray(values, dtype=float), (rows, cols)), shape=(nrows, ncols)
    )
    out = mat.tocsr()
    out.sum_duplicates()
    return out


def float_blocks(space):
    """The blocks a space keeps as exact integers for set-up, in floating
    point, scaled as build_system scales them, and its mass M_s:
    K_s = 6 K_s / 6, the stiffness on its own nonzeros,
    B = (6 / l) B / 6 * l, and B^T's values in saddle-pattern order (None
    until the space has built a saddle pattern)."""
    ell = space._element_classes[0]
    K6, M_s = space.scalar_blocks
    K_s = sp.csr_matrix((K6.data / 6.0, K6.indices, K6.indptr),
                        shape=K6.shape)
    stiffness = K_s.copy()
    stiffness.eliminate_zeros()
    B6, bt6 = space.B, space._bt_values
    B = sp.csr_matrix((B6.data / 6.0 * ell, B6.indices, B6.indptr),
                      shape=B6.shape)
    return SimpleNamespace(
        K_s=K_s, M_s=M_s, stiffness=stiffness, B=B,
        bt_values=None if bt6 is None else bt6 / 6.0 * ell,
    )


def transfer_blocks(transfer, n_u_fine, n_u_coarse):
    """The velocity and pressure prolongations (P_u, P_p), sliced out of a
    transfer's block-diagonal P given the fine and coarse velocity
    sizes."""
    P = transfer.P
    return P[:n_u_fine, :n_u_coarse], P[n_u_fine:, n_u_coarse:]


def locate_barycentric(space, x, y):
    """Brute-force point location: triangle index and barycentric
    coordinates of each query point.  Test-only helper, independent of the
    package's transfer/assembly internals."""
    pts = np.stack([np.ravel(x), np.ravel(y)], axis=1)
    verts = space.level.vertex_coords[space.level.tri_vertices]  # (T,3,2)
    tri = np.full(pts.shape[0], -1)
    bary = np.zeros((pts.shape[0], 3))
    for t in range(verts.shape[0]):
        p0, p1, p2 = verts[t]
        mat = np.array([[p1[0] - p0[0], p2[0] - p0[0]],
                        [p1[1] - p0[1], p2[1] - p0[1]]])
        rel = pts - p0
        lam12 = np.linalg.solve(mat, rel.T).T
        lam0 = 1.0 - lam12.sum(axis=1)
        lam = np.column_stack([lam0, lam12])
        inside = np.all(lam >= -1e-12, axis=1) & (tri < 0)
        tri[inside] = t
        bary[inside] = lam[inside]
    assert np.all(tri >= 0), "point outside the mesh"
    return tri, bary


def eval_p2_function(space, coeffs, x, y):
    """Evaluate a scalar quadratic FE function (coefficients over all
    quadratic nodes) at arbitrary points, with locally coded shape
    functions."""
    tri, lam = locate_barycentric(space, x, y)
    l0, l1, l2 = lam[:, 0], lam[:, 1], lam[:, 2]
    shapes = np.column_stack([
        l0 * (2 * l0 - 1), l1 * (2 * l1 - 1), l2 * (2 * l2 - 1),
        4 * l1 * l2, 4 * l2 * l0, 4 * l0 * l1,
    ])
    nodes = space.tri_p2[tri]
    vals = np.sum(coeffs[nodes] * shapes, axis=1)
    return vals.reshape(np.shape(x))
