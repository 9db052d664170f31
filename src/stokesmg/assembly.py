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

from .mesh import CHILD_VERTEX_BARYCENTRIC, MeshLevel
from .sparse import from_triplets


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


def composite_rule(rule, splits=1):
    """Apply a rule on the 4**splits congruent sub-triangles of the
    reference triangle.  Sharper on non-smooth integrands; handy as an
    independent cross-check of single-panel quadrature."""
    points, weights = rule.points, rule.weights
    for _ in range(splits):
        points = np.concatenate(
            [points @ bary for bary in CHILD_VERTEX_BARYCENTRIC]
        )
        weights = np.tile(0.25 * weights, 4)
    return QuadratureRule(rule.degree, points, weights)


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
        self.n_pressure = nv
        # Full-space velocity dof indices that survive boundary elimination,
        # component-blocked: [x at interior nodes, y at interior nodes].
        self.interior_velocity_map = np.concatenate(
            [self.interior_nodes, self.n_p2 + self.interior_nodes]
        )
        self.n_velocity = 2 * self.n_interior

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

    def physical_quad_points(self, rule):
        """Quadrature points mapped to every triangle, shape (T, nq, 2)."""
        verts = self.level.vertex_coords[self.level.tri_vertices]
        return np.einsum("qk,tkd->tqd", rule.points, verts)

    # The beta-independent blocks are assembled once per space, on first
    # use, and shared by every SaddleSystem built on it.

    @cached_property
    def scalar_blocks(self):
        """Scalar stiffness K and mass M on interior quadratic nodes."""
        K, M = _scalar_p2_matrices(self, degree4_rule())
        idx = self.interior_nodes
        return K[idx][:, idx].tocsr(), M[idx][:, idx].tocsr()

    @cached_property
    def B(self):
        """Divergence block: rows are pressure dofs, columns interior
        velocity dofs in component-blocked order."""
        Dx, Dy = _divergence_blocks(self, degree4_rule())
        idx = self.interior_nodes
        return sp.hstack([Dx[:, idx], Dy[:, idx]], format="csr")

    @cached_property
    def M_U(self):
        """Velocity mass matrix on interior dofs (both components)."""
        M = self.scalar_blocks[1]
        return sp.block_diag([M, M], format="csr")

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


def _scalar_p2_matrices(space, rule):
    """Scalar stiffness and mass over all quadratic nodes."""
    inv, det = space._geometry
    nq = rule.weights.size
    vals = p2_values(rule.points)          # (nq, 6)
    grads = p2_reference_gradients(rule.points)  # (nq, 6, 2)

    k_loc = np.zeros((space.level.n_triangles, 6, 6))
    m_loc = np.zeros_like(k_loc)
    for q in range(nq):
        pg = np.einsum("ie,ted->tid", grads[q], inv)  # physical gradients
        w = rule.weights[q] * det
        k_loc += w[:, None, None] * np.einsum("tid,tjd->tij", pg, pg)
        m_loc += w[:, None, None] * np.outer(vals[q], vals[q])

    nodes = space.tri_p2
    rows = np.broadcast_to(nodes[:, :, None], k_loc.shape).ravel()
    cols = np.broadcast_to(nodes[:, None, :], k_loc.shape).ravel()
    K = from_triplets(space.n_p2, space.n_p2, rows, cols, k_loc.ravel())
    M = from_triplets(space.n_p2, space.n_p2, rows, cols, m_loc.ravel())
    return K, M


def _divergence_blocks(space, rule):
    """Pressure-row matrices D_x, D_y over all quadratic columns, with
    D_d[i, j] = integral of (d-derivative of velocity basis j) * pressure
    basis i."""
    inv, det = space._geometry
    nq = rule.weights.size
    pvals = p1_values(rule.points)               # (nq, 3)
    grads = p2_reference_gradients(rule.points)  # (nq, 6, 2)

    bx_loc = np.zeros((space.level.n_triangles, 3, 6))
    by_loc = np.zeros_like(bx_loc)
    for q in range(nq):
        pg = np.einsum("ie,ted->tid", grads[q], inv)
        w = rule.weights[q] * det
        bx_loc += w[:, None, None] * pvals[q][:, None] * pg[:, None, :, 0]
        by_loc += w[:, None, None] * pvals[q][:, None] * pg[:, None, :, 1]

    prows = np.broadcast_to(
        space.level.tri_vertices[:, :, None], bx_loc.shape
    ).ravel()
    vcols = np.broadcast_to(space.tri_p2[:, None, :], bx_loc.shape).ravel()
    Dx = from_triplets(space.n_pressure, space.n_p2, prows, vcols, bx_loc.ravel())
    Dy = from_triplets(space.n_pressure, space.n_p2, prows, vcols, by_loc.ravel())
    return Dx, Dy


@dataclass
class SaddleSystem:
    """Assembled blocks of one level: [[A, B^T], [B, 0]] plus the mass
    matrices entering norms and scalings."""

    A: sp.csr_matrix
    B: sp.csr_matrix
    M_U: sp.csr_matrix
    M_P: sp.csr_matrix
    params: ProblemParams
    h: float
    space: TaylorHoodSpace

    @cached_property
    def Bt(self):
        return self.B.T.tocsr()

    @property
    def n_u(self):
        return self.A.shape[0]

    @property
    def n_p(self):
        return self.B.shape[0]

    @property
    def n(self):
        return self.n_u + self.n_p

    def split(self, x):
        return x[: self.n_u], x[self.n_u:]

    def join(self, u, p):
        return np.concatenate([u, p])

    def apply(self, x):
        """Saddle operator matvec."""
        u, p = self.split(x)
        return np.concatenate([self.A @ u + self.Bt @ p, self.B @ u])

    def residual(self, x, rhs):
        return rhs - self.apply(x)

    def dense(self):
        """Dense saddle matrix; meant for small levels and test oracles."""
        return sp.bmat([[self.A, self.Bt], [self.B, None]]).toarray()


def build_system(space, params):
    """SaddleSystem of one level: A = K + beta M per velocity component,
    with B and the mass matrices shared from the space."""
    K, M = space.scalar_blocks
    scalar_A = (K + params.beta * M).tocsr()
    A = sp.block_diag([scalar_A, scalar_A], format="csr")
    return SaddleSystem(
        A=A, B=space.B, M_U=space.M_U, M_P=space.M_P, params=params,
        h=space.level.h, space=space,
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


def _moment_vectors(space, u_exact, p_exact, rule):
    """Load vectors of the exact fields against all basis functions."""
    points = space.physical_quad_points(rule)  # (T, nq, 2)
    det = space._geometry[1]
    wdet = rule.weights[None, :] * det[:, None]  # (T, nq)

    ux, uy = u_exact(points[..., 0], points[..., 1])
    pv = p_exact(points[..., 0], points[..., 1])

    vals2 = p2_values(rule.points)  # (nq, 6)
    vals1 = p1_values(rule.points)  # (nq, 3)

    b_ux = np.zeros(space.n_p2)
    b_uy = np.zeros(space.n_p2)
    b_p = np.zeros(space.n_pressure)
    np.add.at(b_ux, space.tri_p2, np.einsum("tq,qi->ti", wdet * ux, vals2))
    np.add.at(b_uy, space.tri_p2, np.einsum("tq,qi->ti", wdet * uy, vals2))
    np.add.at(
        b_p, space.level.tri_vertices, np.einsum("tq,qi->ti", wdet * pv, vals1)
    )
    return b_ux, b_uy, b_p


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
