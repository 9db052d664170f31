import os
import subprocess
import sys
import threading
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp

import stokesmg
from stokesmg import sparse
from stokesmg.assembly import (_ROWS, _divergence_numerators,
                               _scalar_numerators, _scalar_values)
from stokesmg.mesh import _edges_from_triangles
from stokesmg.multigrid import Hierarchy


@pytest.fixture(scope="session")
def hierarchy3():
    """The one level stack up to level 3 that the fixtures below share:
    each beta's systems keep every level's velocity mass."""
    return Hierarchy(3)


@pytest.fixture(scope="session")
def spaces3(hierarchy3):
    return hierarchy3.spaces


@pytest.fixture(scope="session")
def transfers3(hierarchy3):
    return hierarchy3.transfers


@pytest.fixture(scope="session")
def systems3_beta1(hierarchy3):
    return hierarchy3.systems(1.0, 3)


@pytest.fixture(scope="session")
def systems3_by_beta(hierarchy3):
    return {beta: hierarchy3.systems(beta, 3) for beta in (1.0, 0.0, 1e10)}


def velocity_pressure(system, x):
    """The velocity and pressure blocks (u, p) of a system's stacked
    vector or (n, k) block, as views."""
    return x[: system.n_u], x[system.n_u:]


def prolongation(transfer):
    """A transfer's prolongation diag(P_2, P_2, P_1) as one CSR matrix."""
    return sp.block_diag((transfer.P2, transfer.P2, transfer.P1),
                         format="csr")


def restriction(transfer):
    """A transfer's restriction, the transpose of its prolongation: CSC."""
    return prolongation(transfer).T


def force_split_products(monkeypatch):
    """Make every product that can split (sparse.Product) split over two
    threads, whatever its size and however many cores this process may
    use.  The worker it starts is the test's own and is dropped after it,
    so later tests see only the worker their own core count gives."""
    monkeypatch.setattr(sparse, "_SPLIT_NNZ", 0)
    monkeypatch.setattr(sparse, "_usable_cores", lambda: 2)
    monkeypatch.setattr(sparse, "_worker", None)


def thread_idents():
    """The idents of the threads alive now.  A test compares them before
    and after a call, not their count: the workers of executors earlier
    tests dropped exit whenever they do."""
    return {thread.ident for thread in threading.enumerate()}


def run_python(code, **env):
    """Standard output of a new interpreter that runs code with the given
    environment variables set, importing the stokesmg these tests do."""
    path = [os.path.dirname(os.path.dirname(stokesmg.__file__)),
            os.environ.get("PYTHONPATH")]
    env = {**os.environ, **env,
           "PYTHONPATH": os.pathsep.join(filter(None, path))}
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, timeout=600)
    assert result.returncode == 0, result.stderr
    return result.stdout


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
    """The blocks a pass of build_systems lays out its saddle patterns
    from (SetUpBlocks), exact integers, in floating point, scaled as
    build_system scales them: K_s = 6 K_s / 6 and
    M_s = 360 M_s / l^2 / 360 * l^2 on their shared pattern, the stiffness
    on its own nonzeros, B = (6 / l) B / 6 * l, and B^T's values in
    saddle-pattern order."""
    ell = space._element_classes[0]
    K6, M360 = _scalar_numerators(space)
    K_s, M_s = (sp.csr_matrix((mat.data / d * s, mat.indices, mat.indptr),
                              shape=mat.shape)
                for mat, d, s in ((K6, 6.0, 1.0), (M360, 360.0, ell ** 2)))
    stiffness = K_s.copy()
    stiffness.eliminate_zeros()
    B6 = _divergence_numerators(space)
    B = sp.csr_matrix((B6.data / 6.0 * ell, B6.indices, B6.indptr),
                      shape=B6.shape)
    return SimpleNamespace(
        K_s=K_s, M_s=M_s, stiffness=stiffness, B=B,
        bt_values=B6.T.tocsr().data / 6.0 * ell,
    )


def masked_saddle_data(space, blocks, beta):
    """K's data for beta, written from a pass's SetUpBlocks as a masked
    double loop: for each velocity component in turn, each block of _ROWS
    scalar rows computes A's values again and writes them and B^T's
    through boolean masks; then B's values.  The reference writer for
    build_system, which computes each block's values once."""
    indptr, indices, from_a = blocks.saddle_pattern(beta)
    scale = 6.0 / space._element_classes[0]
    data = np.zeros(indices.size)
    n_s, bt, bt_rows = space.n_interior, blocks.bt, blocks.bt_rows
    for first in (0, n_s):
        for start in range(0, n_s, _ROWS):
            stop = min(start + _ROWS, n_s)
            rows = slice(indptr[first + start], indptr[first + stop])
            out, to_a = data[rows], from_a[rows]
            out[to_a] = _scalar_values(blocks, beta, start, stop)
            out[~to_a] = np.divide(
                bt[bt_rows[first + start]:bt_rows[first + stop]], scale)
    np.divide(blocks.b, scale, out=data[from_a.size:])
    return data


def triangle_areas(level):
    """Signed triangle areas of a mesh level; positive for counterclockwise
    triangles."""
    p = level.vertex_coords[level.tri_vertices]
    d1, d2 = p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]
    return 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])


def edge_vertices(level):
    """The (E, 2) edge table of a mesh level, v0 < v1, in the numbering of
    its tri_edges: the mesh derives it and does not keep it."""
    return _edges_from_triangles(level.tri_vertices)[0]


def edge_midpoints(level):
    """Midpoint coordinates of a mesh level's edges, by the formula the
    mesh used when it kept them: 0.5 (x_v0 + x_v1)."""
    ends = edge_vertices(level)
    return 0.5 * (level.vertex_coords[ends[:, 0]]
                  + level.vertex_coords[ends[:, 1]])


def p2_coords(space):
    """Coordinates of a space's quadratic nodes: the mesh vertices, then
    the edge midpoints."""
    return np.vstack([space.level.vertex_coords,
                      edge_midpoints(space.level)])


def p2_on_boundary(space):
    """Whether each quadratic node of a space is on the boundary: its
    level's vertex flags, then its edge flags."""
    level = space.level
    return np.concatenate([level.vertex_on_boundary, level.edge_on_boundary])


def transfer_blocks(transfer, n_u_fine, n_u_coarse):
    """The velocity and pressure prolongations (P_u, P_p), sliced out of a
    transfer's block-diagonal P given the fine and coarse velocity
    sizes."""
    P = prolongation(transfer)
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
