"""Taylor-Hood assembly: quadratic velocity, linear pressure.

Velocity components live on vertices plus edge midpoints (two scalar dofs
per node, stored component-blocked: all x-dofs, then all y-dofs), pressure
on vertices.  Homogeneous Dirichlet conditions are imposed by eliminating
every velocity dof on a boundary node, so the velocity blocks act on
interior nodes only.  The pressure keeps its full coefficient space; the
zero-mean constraint is enforced by explicit projection elsewhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .mesh import MeshLevel
from .sparse import (
    csc_view,
    csr_view,
    from_triplets,
    interleave,
    matvec_add,
    merge_rows,
    paired_from_triplets,
    row_block,
    select_entries,
    two_component,
)

# An entry of K_s, M_s or B is zero to working precision, and dropped, when
# it is at most this times its Cauchy-Schwarz scale: sqrt(a_ii a_jj) for the
# Gram matrices K_s and M_s, sqrt((M_P)_ii (K_s)_jj) for B.  On the
# criss-cross meshes the dropped entries are rounding residue of exact zeros
# (at most 7.1e-16 of that scale, levels 0-6), and every kept one is at least
# 4.8e-2 of it.
_ZERO_TOL = 2.0 ** -42


@dataclass(frozen=True)
class QuadratureRule:
    """Barycentric points and weights on the reference triangle.

    Weights sum to the reference-triangle area 1/2; integrals over a
    physical triangle scale by |det J|.
    """

    degree: int
    points: np.ndarray
    weights: np.ndarray


def degree4_rule():
    """Symmetric 6-point rule, exact through degree 4.

    Exact for every bilinear form assembled here (the quadratic-mass
    integrand has degree 4).
    """
    a1, w1 = 0.816847572980459, 0.109951743655322
    a2, w2 = 0.108103018168070, 0.223381589678011
    points, weights = [], []
    for a, w in ((a1, w1), (a2, w2)):
        b = 0.5 * (1.0 - a)
        points += [[a, b, b], [b, a, b], [b, b, a]]
        weights += [w, w, w]
    return QuadratureRule(4, np.array(points), 0.5 * np.array(weights))


def conical_rule(n=5):
    """Conical product rule with n^2 points, exact through degree 2n - 1.

    Gauss-Legendre x Gauss-Jacobi tensor rule collapsed onto the triangle.
    Used for moments of non-polynomial functions (the benchmark's exact
    solution has kink circles), where machine-precision nodes matter more
    than point economy; tabulated symmetric rules of this order are only
    accurate to their printed digits.
    """
    from scipy.special import roots_jacobi

    xg, wg = np.polynomial.legendre.leggauss(n)
    u, wu = 0.5 * (xg + 1.0), 0.5 * wg
    xj, wj = roots_jacobi(n, 1.0, 0.0)
    v, wv = 0.5 * (xj + 1.0), 0.25 * wj

    uu, vv = np.meshgrid(u, v, indexing="ij")
    x = (uu * (1.0 - vv)).ravel()
    y = vv.ravel()
    weights = np.outer(wu, wv).ravel()
    points = np.stack([1.0 - x - y, x, y], axis=1)
    return QuadratureRule(2 * n - 1, points, weights)


def p2_values(points):
    """Quadratic basis values; local nodes 0-2 at vertices, 3+i at the
    midpoint of the edge opposite vertex i."""
    l0, l1, l2 = points[..., 0], points[..., 1], points[..., 2]
    return np.stack(
        [
            l0 * (2.0 * l0 - 1.0),
            l1 * (2.0 * l1 - 1.0),
            l2 * (2.0 * l2 - 1.0),
            4.0 * l1 * l2,
            4.0 * l2 * l0,
            4.0 * l0 * l1,
        ],
        axis=-1,
    )


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


def p1_values(points):
    """Linear basis values are the barycentric coordinates themselves."""
    return np.asarray(points)


@dataclass(frozen=True)
class ProblemParams:
    """Reaction coefficient of the generalized Stokes operator
    (proportional to the inverse time-step length); beta = 0 gives the
    stationary Stokes problem."""

    beta: float = 0.0

    def __post_init__(self):
        if self.beta < 0.0:
            raise ValueError(f"beta must be nonnegative, got {self.beta}")


class TaylorHoodSpace:
    """Node bookkeeping and beta-independent matrices for the
    quadratic/linear pair on one mesh level."""

    def __init__(self, level: MeshLevel):
        self.level = level
        nv, ne = level.n_vertices, level.n_edges
        self.n_p2 = nv + ne
        self.p2_coords = np.vstack([level.vertex_coords, level.edge_midpoints])
        self.p2_on_boundary = np.concatenate(
            [level.vertex_on_boundary, level.edge_on_boundary]
        )
        # Global quadratic nodes of each triangle, matching the local basis
        # ordering of p2_values.
        self.tri_p2 = np.hstack([level.tri_vertices, nv + level.tri_edges])
        self.interior_nodes = np.flatnonzero(~self.p2_on_boundary)
        self.n_interior = self.interior_nodes.size
        # interior index of every quadratic node, -1 on the boundary
        self.interior_number = np.full(self.n_p2, -1, dtype=np.int32)
        self.interior_number[self.interior_nodes] = np.arange(
            self.n_interior, dtype=np.int32
        )
        self.n_pressure = nv
        self.n_velocity = 2 * self.n_interior
        self._saddle_patterns = {}
        # B^T's values in the order K's velocity rows hold them, set with a
        # saddle pattern: all of B^T that build_system needs
        self._bt_values = None

    @cached_property
    def _geometry(self):
        """Per-triangle inverse Jacobians (2x2) and |det J| = 2 * area."""
        p = self.level.vertex_coords[self.level.tri_vertices]
        jac = np.stack([p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]], axis=2)
        det = jac[:, 0, 0] * jac[:, 1, 1] - jac[:, 0, 1] * jac[:, 1, 0]
        if np.any(det <= 0.0):
            raise ValueError("mesh contains non-counterclockwise triangles")
        inv = np.empty_like(jac)
        inv[:, 0, 0] = jac[:, 1, 1]
        inv[:, 0, 1] = -jac[:, 0, 1]
        inv[:, 1, 0] = -jac[:, 1, 0]
        inv[:, 1, 1] = jac[:, 0, 0]
        inv /= det[:, None, None]
        return inv, det

    def physical_quad_points(self, rule, triangles=slice(None)):
        """Quadrature points mapped to the given triangles (all by
        default), shape (T, nq, 2)."""
        verts = self.level.vertex_coords[self.level.tri_vertices[triangles]]
        return rule.points @ verts

    # The beta-independent blocks and the saddle patterns are built once per
    # space, on first use, and shared by every SaddleSystem built on it.

    @cached_property
    def scalar_blocks(self):
        """Scalar stiffness K and mass M on interior quadratic nodes,
        sharing one index pattern: the entries where either is nonzero.
        Entries zero to working precision are set to exact zeros, and
        dropped where both matrices have one."""
        K, M = _scalar_p2_matrices(self, degree4_rule())
        k_zero, m_zero = (_negligible(a, np.sqrt(a.diagonal()))
                          for a in (K, M))
        K.data[k_zero] = 0.0
        M.data[m_zero] = 0.0
        return select_entries(~(k_zero & m_zero), K, M)

    @cached_property
    def stiffness(self):
        """The scalar stiffness on its own nonzeros: A's scalar block at
        beta = 0."""
        K_s = self.scalar_blocks[0]
        return select_entries(K_s.data != 0.0, K_s)[0]

    @cached_property
    def B(self):
        """Divergence block [D_x, D_y]: rows are pressure dofs, columns
        interior velocity dofs in component-blocked order; entries zero to
        working precision are dropped."""
        row_scale = np.sqrt(self.M_P.diagonal())
        col_scale = np.sqrt(self.scalar_blocks[0].diagonal())
        Dx, Dy = (select_entries(~_negligible(D, row_scale, col_scale), D)[0]
                  for D in _divergence_blocks(self, degree4_rule()))
        indptr, from_x = merge_rows(Dx.indptr, Dy.indptr)
        return csr_view(
            interleave(from_x, Dx.data, Dy.data),
            interleave(from_x, Dx.indices, Dy.indices + self.n_interior),
            indptr, (self.n_pressure, self.n_velocity),
        )

    def saddle_pattern(self, beta):
        """(indptr, indices, from_a) of K = [[A, B^T], [B, 0]] for
        A = K_s + beta M_s, shared by the systems of every beta > 0.  The
        systems of beta = 0 share a second pattern, on which A holds the
        stiffness's nonzeros only.  Each is built on first use.

        A has its scalar pattern twice, so the layout follows from the row
        counts of A, B^T and B, with no sort: velocity row i holds A's row
        i, then B^T's; from_a marks A's entries among the velocity rows'
        entries.  B^T is transposed from B for the layout, and only its
        values are kept.  Every system's K holds these index arrays, so
        nothing may change them in place.
        """
        stiffness_only = beta == 0.0
        if stiffness_only not in self._saddle_patterns:
            A_s = self.stiffness if stiffness_only else self.scalar_blocks[0]
            self._saddle_patterns[stiffness_only] = self._saddle_layout(A_s)
        return self._saddle_patterns[stiffness_only]

    def _saddle_layout(self, A_s):
        n_s, n_u = self.n_interior, self.n_velocity
        B = self.B
        Bt = B.T.tocsr()
        self._bt_values = Bt.data
        a_indptr = np.concatenate([A_s.indptr, A_s.indptr[1:] + A_s.nnz])
        velocity_indptr, from_a = merge_rows(a_indptr, Bt.indptr)
        indices = np.empty(from_a.size + B.nnz, dtype=A_s.indices.dtype)
        interleave(from_a, np.concatenate([A_s.indices, A_s.indices + n_s]),
                   Bt.indices + n_u, out=indices[: from_a.size])
        indices[from_a.size:] = B.indices
        indptr = np.concatenate([velocity_indptr, B.indptr[1:] + from_a.size])
        return indptr, indices, from_a

    @cached_property
    def M_P(self):
        """Pressure mass matrix on all vertex dofs."""
        rule = degree4_rule()
        pvals = p1_values(rule.points)
        m_loc = np.einsum("q,qi,qj->ij", rule.weights, pvals, pvals)
        m_all = self._geometry[1][:, None, None] * m_loc[None, :, :]
        tv = self.level.tri_vertices
        rows = np.broadcast_to(tv[:, :, None], m_all.shape).ravel()
        cols = np.broadcast_to(tv[:, None, :], m_all.shape).ravel()
        return from_triplets(
            self.n_pressure, self.n_pressure, rows, cols, m_all.ravel()
        )


def _negligible(mat, row_scale, col_scale=None):
    """Mask of mat's entries with |a_ij| <= _ZERO_TOL row_scale[i]
    col_scale[j] (col_scale defaults to row_scale)."""
    if col_scale is None:
        col_scale = row_scale
    bound = np.repeat(_ZERO_TOL * row_scale, np.diff(mat.indptr))
    bound *= col_scale[mat.indices]
    return np.abs(mat.data) <= bound


def _symmetric(a):
    """Exactly symmetric part of a square reference matrix."""
    return 0.5 * (a + a.T)


def _scalar_p2_matrices(space, rule):
    """Scalar stiffness and mass on interior quadratic nodes, converted
    from one set of triplets and sharing their index arrays.  The triplets
    of two interior nodes are written once, as the complex values
    stiffness + i mass, each local array freed as soon as it is copied.

    Local matrices come from quadrature-summed reference tensors contracted
    with per-triangle geometry: with G = |det J| J^-1 J^-T, the stiffness is
    G00 S00 + G11 S11 + G01 (S01 + S10) for S[e, f]_ij = sum_q w_q
    d_e phi_i d_f phi_j, and the mass is |det J| times the reference mass.
    Every term is an elementwise product with a symmetrized reference
    matrix, so each local matrix, and hence K and M, is exactly symmetric.
    """
    inv, det = space._geometry
    w = rule.weights
    vals = p2_values(rule.points)                # (nq, 6)
    grads = p2_reference_gradients(rule.points)  # (nq, 6, 2)
    s = np.einsum("q,qie,qjf->efij", w, grads, grads)
    s00, s11 = _symmetric(s[0, 0]), _symmetric(s[1, 1])
    s01 = _symmetric(s[0, 1] + s[1, 0])
    m_ref = _symmetric(np.einsum("q,qi,qj->ij", w, vals, vals))

    g00 = det * (inv[:, 0, 0] ** 2 + inv[:, 0, 1] ** 2)
    g11 = det * (inv[:, 1, 0] ** 2 + inv[:, 1, 1] ** 2)
    g01 = det * (inv[:, 0, 0] * inv[:, 1, 0] + inv[:, 0, 1] * inv[:, 1, 1])

    # boundary nodes number -1: only triplets of two interior nodes are kept
    nodes = space.interior_number[space.tri_p2]
    keep = (nodes[:, :, None] >= 0) & (nodes[:, None, :] >= 0)
    rows = np.broadcast_to(nodes[:, :, None], keep.shape)[keep]
    cols = np.broadcast_to(nodes[:, None, :], keep.shape)[keep]
    pair = np.empty(rows.size, dtype=complex)
    k_loc = g00[:, None, None] * s00
    k_loc += g11[:, None, None] * s11
    k_loc += g01[:, None, None] * s01
    pair.real = k_loc[keep]
    del k_loc
    pair.imag = (det[:, None, None] * m_ref)[keep]
    n = space.n_interior
    return paired_from_triplets(n, n, rows, cols, pair)


def _divergence_blocks(space, rule):
    """Pressure-row matrices D_x, D_y over interior quadratic columns, with
    D_d[i, j] = integral of (d-derivative of velocity basis j) * pressure
    basis i, converted from one set of triplets, written once as the complex
    values D_x + i D_y, and sharing their index arrays.

    Local blocks are (|det J| J^-1[:, d]) @ D for the reference tensor
    D[e]_ij = sum_q w_q psi_i d_e phi_j.
    """
    inv, det = space._geometry
    pvals = p1_values(rule.points)               # (nq, 3)
    grads = p2_reference_gradients(rule.points)  # (nq, 6, 2)
    d_ref = np.einsum("q,qi,qje->eij", rule.weights, pvals, grads)
    d_ref = d_ref.reshape(2, 18)

    # boundary nodes number -1: only triplets of interior columns are kept
    nodes = space.interior_number[space.tri_p2]
    keep = np.broadcast_to(nodes[:, None, :] >= 0, (det.size, 3, 6))
    prows = np.broadcast_to(
        space.level.tri_vertices[:, :, None], keep.shape
    )[keep]
    vcols = np.broadcast_to(nodes[:, None, :], keep.shape)[keep]
    pair = np.empty(vcols.size, dtype=complex)
    for d, part in enumerate((pair.real, pair.imag)):
        part[...] = ((det[:, None] * inv[:, :, d]) @ d_ref).reshape(
            keep.shape)[keep]
    return paired_from_triplets(space.n_pressure, space.n_interior, prows,
                                vcols, pair)


@dataclass
class SaddleSystem:
    """One level's saddle operator K = [[A, B^T], [B, 0]], stored as a
    single CSR matrix, plus the masses entering norms.  A system built by
    build_system stores no entry of K that is zero to working precision:
    at beta = 0, A holds the stiffness's nonzeros only.

    M is the scalar velocity mass; the velocity mass M_U applies it to each
    component.  The solver applies K, its velocity rows [A, B^T], B and
    B^T; A and M_U are built on request, for diagnostics and tests.  B is
    a view of K's pressure rows, and B^T a CSC view of B's arrays, so
    neither holds memory of its own.  A system given another B
    (dataclasses.replace(system, B=...)) rebuilds K around it, so a
    replacement of K itself passes B=None to take the new K's rows.
    """

    K: sp.csr_matrix
    M: sp.csr_matrix
    M_P: sp.csr_matrix
    params: ProblemParams
    h: float
    space: TaylorHoodSpace | None = None
    B: sp.csr_matrix | None = None

    def __post_init__(self):
        # plain attributes: split runs several times per smoothing sweep
        self.n, self.n_p = self.K.shape[0], self.M_P.shape[0]
        self.n_u = self.n - self.n_p
        B = self.B
        if B is not None and not np.may_share_memory(B.data, self.K.data):
            self.K = sp.bmat([[self.A, B.T], [B, None]], format="csr")
        self.B = row_block(self.K, self.n_u, self.n, self.n_u)

    @cached_property
    def velocity_rows(self):
        """[A, B^T]: K's velocity rows, sharing its arrays."""
        return row_block(self.K, 0, self.n_u, self.n)

    @cached_property
    def Bt(self):
        """B^T as a CSC view of B's arrays, and so of K's pressure rows:
        no copy."""
        B = self.B
        return csc_view(B.data, B.indices, B.indptr, B.shape[::-1])

    @property
    def A(self):
        """Velocity block, copied out of K."""
        return self.K[: self.n_u, : self.n_u].tocsr()

    @property
    def M_U(self):
        """Velocity mass matrix (both components)."""
        return two_component(self.M)

    def split(self, x):
        return x[: self.n_u], x[self.n_u:]

    def join(self, u, p):
        return np.concatenate([u, p])

    def apply(self, x):
        """Saddle operator matvec."""
        return matvec_add(self.K, x, np.zeros((self.n,) + x.shape[1:]))

    def residual(self, x, rhs):
        r = self.apply(x)
        np.subtract(rhs, r, out=r)
        return r

    def dense(self):
        """Dense saddle matrix; meant for small levels and test oracles."""
        return self.K.toarray()


def build_system(space, params):
    """SaddleSystem of one level.  K's data is written on the space's saddle
    pattern for beta: A = K_s + beta M_s on both velocity components (the
    stiffness's nonzeros alone at beta = 0), then the values of the space's
    B^T and B."""
    K_s, M_s = space.scalar_blocks
    beta = params.beta
    a = space.stiffness.data if beta == 0.0 else K_s.data + beta * M_s.data
    indptr, indices, from_a = space.saddle_pattern(beta)
    data = np.empty(indices.size)
    # each velocity component's rows take A's scalar values once,
    # interleaved with the B^T values of those rows
    half, bt = indptr[space.n_interior], space._bt_values
    for rows, bt_rows in ((slice(0, half), bt[: half - a.size]),
                          (slice(half, from_a.size), bt[half - a.size:])):
        interleave(from_a[rows], a, bt_rows, out=data[rows])
    data[from_a.size:] = space.B.data
    n = indptr.size - 1
    return SaddleSystem(
        K=csr_view(data, indices, indptr, (n, n)), M=M_s, M_P=space.M_P,
        params=params, h=space.level.h, space=space,
    )


def _mass_cg(M, b, rtol=1e-13):
    """Jacobi-preconditioned CG; mass matrices are uniformly
    well-conditioned so this converges in a few dozen iterations at any
    level."""
    if not np.any(b):
        return np.zeros_like(b)
    precond = spla.LinearOperator(
        M.shape, matvec=lambda v, d=1.0 / M.diagonal(): d * v
    )
    x, info = spla.cg(M, b, rtol=rtol, atol=0.0, M=precond, maxiter=500)
    if info != 0:
        raise RuntimeError(f"mass-matrix CG did not converge (info={info})")
    return x


# Triangles per block of exact-field evaluations in _moment_vectors: the
# fields allocate several (triangles, quadrature points) temporaries, which
# set the peak memory of l2_project (12.5 MB at level 6 with this block,
# 32 MB with blocks of 16 384 triangles).
_MOMENT_BLOCK = 4096


def _moment_vectors(space, u_exact, p_exact, rule):
    """Load vectors of the exact fields against all basis functions."""
    det = space._geometry[1]
    vals2 = p2_values(rule.points)  # (nq, 6)
    vals1 = p1_values(rule.points)  # (nq, 3)
    n_tri = det.size
    loc_ux, loc_uy = np.empty((n_tri, 6)), np.empty((n_tri, 6))
    loc_p = np.empty((n_tri, 3))
    for start in range(0, n_tri, _MOMENT_BLOCK):
        block = slice(start, start + _MOMENT_BLOCK)
        points = space.physical_quad_points(rule, block)  # (b, nq, 2)
        wdet = rule.weights[None, :] * det[block, None]   # (b, nq)
        x, y = points[..., 0], points[..., 1]
        ux, uy = u_exact(x, y)
        loc_ux[block] = (wdet * ux) @ vals2
        loc_uy[block] = (wdet * uy) @ vals2
        loc_p[block] = (wdet * p_exact(x, y)) @ vals1

    def scatter(nodes, local, n):
        return np.bincount(nodes.ravel(), weights=local.ravel(), minlength=n)

    p2_nodes, p1_nodes = space.tri_p2, space.level.tri_vertices
    return (
        scatter(p2_nodes, loc_ux, space.n_p2),
        scatter(p2_nodes, loc_uy, space.n_p2),
        scatter(p1_nodes, loc_p, space.n_pressure),
    )


def l2_project(space, u_exact, p_exact, rule=None):
    """L2-project exact velocity/pressure fields onto the discrete pair.

    The velocity is projected onto the zero-trace space directly (interior
    dofs are the only unknowns); the pressure projection is shifted so its
    weighted mean 1^T M_P p vanishes.  Returns (u_star, p_star) with the
    component-blocked interior velocity layout.
    """
    rule = rule or conical_rule(5)
    b_ux, b_uy, b_p = _moment_vectors(space, u_exact, p_exact, rule)

    idx = space.interior_nodes
    M = space.scalar_blocks[1]
    u_star = np.concatenate([_mass_cg(M, b_ux[idx]), _mass_cg(M, b_uy[idx])])

    M_P = space.M_P
    p_star = _mass_cg(M_P, b_p)
    w = M_P @ np.ones(space.n_pressure)
    p_star -= (w @ p_star) / w.sum()
    return u_star, p_star


def manufactured_rhs(system, x_star):
    """Right-hand side whose exact discrete solution is x_star = (u*, p*)."""
    u_star, p_star = x_star
    if u_star.shape[0] != system.n_u or p_star.shape[0] != system.n_p:
        raise ValueError(
            f"solution blocks ({u_star.shape[0]}, {p_star.shape[0]}) do not "
            f"match system blocks ({system.n_u}, {system.n_p})"
        )
    return system.apply(system.join(u_star, p_star))
