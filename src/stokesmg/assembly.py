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
from types import SimpleNamespace

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .mesh import MeshLevel
from .sparse import (
    Product,
    block_diagonal,
    csc_view,
    csr_view,
    interleave,
    merge_rows,
    packed_from_blocks,
    row_block,
    select_entries,
)

# Every triangle of the hierarchy is right isosceles with legs l, and every
# vertex coordinate is a multiple of l, so J = l E with E integer and
# det E = 1.  Then G = |det J| J^-1 J^-T = adj(E) adj(E)^T and |det J| J^-1
# = l adj(E), and each local matrix is an integer table times one scale:
# the stiffness 1/6 (G00 S00 + G11 S11 + G01 S01), the mass l^2/360 M,
# D_x and D_y l/6 sum_e adj(E)[e, d] D[e] and the pressure mass l^2/24 P.
# The reference tables below are 6 x the integrals of d_x phi_i d_x phi_j,
# d_y phi_i d_y phi_j and d_x phi_i d_y phi_j + d_y phi_i d_x phi_j (S),
# 360 x those of phi_i phi_j (M), 6 x those of psi_i d_e phi_j (D) and
# 24 x those of psi_i psi_j (P), in the reference coordinates
# (x, y) = (lambda_1, lambda_2) and the local node order of p2_values.
_STIFFNESS6 = np.array([
    [[3, 1, 0, 0, 0, -4], [1, 3, 0, 0, 0, -4], [0, 0, 0, 0, 0, 0],
     [0, 0, 0, 8, -8, 0], [0, 0, 0, -8, 8, 0], [-4, -4, 0, 0, 0, 8]],
    [[3, 0, 1, 0, -4, 0], [0, 0, 0, 0, 0, 0], [1, 0, 3, 0, -4, 0],
     [0, 0, 0, 8, 0, -8], [-4, 0, -4, 0, 8, 0], [0, 0, 0, -8, 0, 8]],
    [[6, 1, 1, 0, -4, -4], [1, 0, -1, 4, 0, -4], [1, -1, 0, 4, -4, 0],
     [0, 4, 4, 8, -8, -8], [-4, 0, -4, -8, 8, 8], [-4, -4, 0, -8, 8, 8]],
])
_MASS360 = np.array([
    [6, -1, -1, -4, 0, 0], [-1, 6, -1, 0, -4, 0], [-1, -1, 6, 0, 0, -4],
    [-4, 0, 0, 32, 16, 16], [0, -4, 0, 16, 32, 16], [0, 0, -4, 16, 16, 32],
])
_DIVERGENCE6 = np.array([
    [[-1, 0, 0, 1, -1, 1], [0, 1, 0, 1, -1, -1], [0, 0, 0, 2, -2, 0]],
    [[-1, 0, 0, 1, 1, -1], [0, 0, 0, 2, 0, -2], [0, 0, 1, 1, -1, -1]],
])
_P1_MASS24 = np.array([[2, 1, 1], [1, 2, 1], [1, 1, 2]])

# Nodes, then weights, of the five-point Gauss-Jacobi rule for the weight
# (1 - x) on [-1, 1], as scipy.special.roots_jacobi(5, 1.0, 0.0) returns them
_JACOBI5_NODES, _JACOBI5_WEIGHTS = np.array([float.fromhex(v) for v in """
    -0x1.d73c15b79f3d3p-1 -0x1.353bf8784132fp-1 -0x1.fc1c403080601p-4
    0x1.904f92acb8e03p-2 0x1.9b199e53f1236p-1 0x1.8c6ada4e0dafap-2
    0x1.565fa81ab0087p-1 0x1.2bccf0d0b5846p-1 0x1.2ebb113d8a0aep-2
    0x1.02038a7674af7p-4""".split()]).reshape(2, 5)


@dataclass(frozen=True)
class QuadratureRule:
    """Barycentric points and weights on the reference triangle.

    Weights sum to the reference-triangle area 1/2; integrals over a
    physical triangle scale by |det J|.
    """

    degree: int
    points: np.ndarray
    weights: np.ndarray


def conical_rule():
    """Conical product rule with 25 points, exact through degree 9.

    Gauss-Legendre x Gauss-Jacobi tensor rule collapsed onto the triangle.
    Used for moments of non-polynomial functions (the benchmark's exact
    solution has kink circles), where machine-precision nodes matter more
    than point economy; tabulated symmetric rules of this order are only
    accurate to their printed digits.
    """
    xg, wg = np.polynomial.legendre.leggauss(5)
    u, wu = 0.5 * (xg + 1.0), 0.5 * wg
    v, wv = 0.5 * (_JACOBI5_NODES + 1.0), 0.25 * _JACOBI5_WEIGHTS

    uu, vv = np.meshgrid(u, v, indexing="ij")
    x = (uu * (1.0 - vv)).ravel()
    y = vv.ravel()
    weights = np.outer(wu, wv).ravel()
    points = np.stack([1.0 - x - y, x, y], axis=1)
    return QuadratureRule(9, points, weights)


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


@dataclass(frozen=True)
class ProblemParams:
    """Reaction coefficient of the generalized Stokes operator
    (proportional to the inverse time-step length); beta = 0 gives the
    stationary Stokes problem."""

    beta: float = 0.0

    def __post_init__(self):
        # written so that a NaN beta fails too
        if not 0.0 <= self.beta < np.inf:
            raise ValueError(
                f"beta must be nonnegative and finite, got {self.beta}")


class TaylorHoodSpace:
    """Node bookkeeping and beta-independent matrices for the
    quadratic/linear pair on one mesh level.  Blocks that only
    build_system reads, the scalar stiffness and B, are kept as their
    exact int16 numerators 6 K_s and (6 / l) B and scaled where they are
    written into a system's K; the node tables are int32."""

    def __init__(self, level: MeshLevel):
        self.level = level
        nv, ne = level.n_vertices, level.n_edges
        self.n_p2 = nv + ne
        self.p2_on_boundary = np.concatenate(
            [level.vertex_on_boundary, level.edge_on_boundary]
        )
        # Global quadratic nodes of each triangle, matching the local basis
        # ordering of p2_values.
        self.tri_p2 = np.hstack([level.tri_vertices, nv + level.tri_edges])
        self.interior_nodes = np.flatnonzero(~self.p2_on_boundary).astype(
            np.int32)
        self.n_interior = self.interior_nodes.size
        # interior index of every quadratic node, n_interior (one past the
        # last) on the boundary
        self.interior_number = np.full(self.n_p2, self.n_interior,
                                       dtype=np.int32)
        self.interior_number[self.interior_nodes] = np.arange(
            self.n_interior, dtype=np.int32
        )
        self.n_pressure = nv
        self.n_velocity = 2 * self.n_interior
        self._saddle_patterns = {}
        # (6 / l) B^T's values in the order K's velocity rows hold them, set
        # with a saddle pattern: all of B^T that build_system needs
        self._bt_values = None

    @cached_property
    def _element_classes(self):
        """(l, classes, adj): the leg length l, each triangle's class and
        each class's integer adj(J/l).  Raises ValueError unless the vertex
        coordinates are multiples of a power of two l and every triangle is
        counterclockwise with det(J/l) = 1."""
        coords, tv = self.level.vertex_coords, self.level.tri_vertices
        e1, e2 = coords[tv[0, 1:]] - coords[tv[0, 0]]
        ell = np.sqrt(abs(e1[0] * e2[1] - e1[1] * e2[0]))
        grid = coords / ell
        if np.frexp(ell)[0] != 0.5 or np.any(grid != np.rint(grid)):
            raise ValueError("mesh vertices are not multiples of a power-of-"
                             "two leg length")
        grid = grid.astype(np.int64)
        # legs[t, k] = (p_{k+1} - p_0) / l, the columns of E = J / l
        legs = (grid[tv[:, 1:]] - grid[tv[:, :1]]).reshape(-1, 4)
        det = legs[:, 0] * legs[:, 3] - legs[:, 1] * legs[:, 2]
        if np.any(det <= 0):
            raise ValueError("mesh contains non-counterclockwise triangles")
        if np.any(det != 1):
            raise ValueError("mesh triangles are not all of area l^2 / 2")
        # a leg entry m >= 64 makes a diagonal entry of 6 K_s at least 4 m^2,
        # too large to sum packed; below, the legs key classes in base 2m + 1
        m = np.abs(legs).max()
        if m >= 64:
            raise ValueError("local tables too large to sum packed")
        _, first, classes = np.unique(
            (legs + m) @ (2 * m + 1) ** np.arange(4), return_index=True,
            return_inverse=True)
        # E = [[a, b], [c, d]] has adj(E) = [[d, -b], [-c, a]]
        a, c, b, d = legs[first].T
        adj = np.stack([d, -b, -c, a], axis=1).reshape(-1, 2, 2)
        return ell, classes, adj

    # The beta-independent blocks and the saddle patterns are built once per
    # space, on first use, and shared by every SaddleSystem built on it.

    @cached_property
    def scalar_blocks(self):
        """(6 K_s, M_s): the scalar stiffness times 6, as its exact int16
        integers, and the scalar mass on interior quadratic nodes, sharing
        one index pattern: the entries where either is nonzero.  Each
        stored mass value is the exact one, correctly rounded, and so is
        each stiffness value once divided by 6."""
        ell, _, adj = self._element_classes
        nodes, n = self.interior_number[self.tri_p2], self.n_interior
        K6, M360 = _assemble_packed(self, _local_tables(adj)[0], _MASS360,
                                    nodes, nodes, n, n)
        return K6, csr_view(_scaled(M360.data, 360.0, ell ** 2),
                            M360.indices, M360.indptr, M360.shape)

    @cached_property
    def B(self):
        """(6 / l) B for the divergence block B = [D_x, D_y], as its exact
        int16 integers: rows are pressure dofs, columns interior velocity
        dofs in component-blocked order; each of D_x and D_y holds its own
        nonzeros.  Divided by 6, then scaled by l, each stored value is the
        exact one, correctly rounded."""
        _, _, adj = self._element_classes
        d_x, d_y = np.moveaxis(_local_tables(adj)[1], 1, 0)
        packed = _assemble_packed(
            self, d_x, d_y, self.level.tri_vertices,
            self.interior_number[self.tri_p2], self.n_pressure, self.n_interior)
        Dx, Dy = (select_entries(D.data != 0, D) for D in packed)
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
            A_s = self.scalar_blocks[0]
            if stiffness_only:
                A_s = select_entries(A_s.data != 0, A_s)
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
        """Pressure mass matrix on all vertex dofs, its values exact and
        correctly rounded."""
        ell, _, adj = self._element_classes
        mass = np.broadcast_to(_P1_MASS24, (len(adj), 3, 3))
        tv = self.level.tri_vertices
        M24, _ = _assemble_packed(self, mass, np.zeros_like(mass), tv, tv,
                                  self.n_pressure, self.n_pressure)
        return csr_view(_scaled(M24.data, 24.0, ell ** 2), M24.indices,
                        M24.indptr, M24.shape)


def _scaled(numerators, divisor, scale):
    """numerators / divisor * scale in float64, rounded as written, with no
    second float array."""
    out = np.divide(numerators, divisor, dtype=np.float64)
    out *= scale
    return out


def _local_tables(adj):
    """Integer local tables of the triangle classes with the given
    adj(J/l): 6 x the scalar stiffness, (n, 6, 6), and 6/l x D_x and D_y,
    (n, 2, 3, 6)."""
    g = np.einsum("cek,cfk->cef", adj, adj)  # G = adj(E) adj(E)^T
    k6 = np.einsum("ck,kij->cij",
                   np.stack([g[:, 0, 0], g[:, 1, 1], g[:, 0, 1]], axis=1),
                   _STIFFNESS6)
    return k6, np.einsum("ced,eij->cdij", adj, _DIVERGENCE6)


def _assemble_packed(space, high, low, row_nodes, col_nodes, nrows, ncols):
    """Two int16 matrices summed from the per-class local tables high and
    low of every triangle, at its row and column nodes, in one conversion
    of the int32 values high * 2^16 + low; row nrows and column ncols mark
    entries to drop.  Raises ValueError unless both sums stay inside
    +-2^15, which they do if the tables times the most triangles at a node
    (two at an edge midpoint) do."""
    classes = space._element_classes[1]
    count = max(np.bincount(space.level.tri_vertices.ravel()).max(), 2)
    if count * max(np.abs(high).max(), np.abs(low).max()) >= 2 ** 15:
        raise ValueError("local tables too large to sum packed")
    packed = (high * 2 ** 16 + low).astype(np.int32)
    return packed_from_blocks(nrows, ncols, row_nodes, col_nodes, packed,
                              classes)


@dataclass
class SaddleSystem:
    """One level's saddle operator K = [[A, B^T], [B, 0]], stored as a
    single CSR matrix, plus the masses entering norms.  A system built by
    build_system stores no entry of K that is zero to working precision:
    at beta = 0, A holds the stiffness's nonzeros only.

    M is the scalar velocity mass; the velocity mass M_U applies it to each
    component.  The solver applies K, its velocity rows [A, B^T], B, B^T,
    M and M_P, each through a product bound once (products); A and M_U
    are built on request, for diagnostics and tests.  B is a view of K's
    pressure rows, and B^T a CSC view of B's arrays, so neither holds
    memory of its own.  A system given another B
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

    @cached_property
    def products(self):
        """The in-place products out += mat @ x (sparse.Product) with K,
        velocity_rows, B, Bt, M and M_P, under those names."""
        return SimpleNamespace(**{
            name: Product(getattr(self, name))
            for name in ("K", "velocity_rows", "B", "Bt", "M", "M_P")
        })

    @property
    def A(self):
        """Velocity block, copied out of K."""
        return self.K[: self.n_u, : self.n_u].tocsr()

    @property
    def M_U(self):
        """Velocity mass matrix (both components)."""
        return block_diagonal(self.M, self.M)

    def split(self, x):
        return x[: self.n_u], x[self.n_u:]

    def join(self, u, p):
        return np.concatenate([u, p])

    def apply(self, x):
        """Saddle operator matvec."""
        return self.products.K(x, np.zeros((self.n,) + x.shape[1:]))

    def residual(self, x, rhs):
        """rhs - K x, in a new array.  x None stands for the zero iterate,
        whose residual is rhs itself: no product is made."""
        if x is None:
            return np.array(rhs, dtype=float)
        r = self.apply(x)
        np.subtract(rhs, r, r)
        return r

    def dense(self):
        """Dense saddle matrix; meant for small levels and test oracles."""
        return self.K.toarray()


def build_system(space, params):
    """SaddleSystem of one level.  K's data is written on the space's saddle
    pattern for beta: A = K_s + beta M_s on both velocity components (the
    stiffness's nonzeros alone at beta = 0), then the values of the space's
    B^T and B.  The space's integers are scaled in K's data, so the only
    float copy of a set-up block is A's scalar values at beta > 0."""
    K6, M_s = space.scalar_blocks
    beta = params.beta
    if beta == 0.0:
        a = K6.data[K6.data != 0]
    else:
        a = beta * M_s.data
        a += np.divide(K6.data, 6.0, dtype=np.float64)
    # l is a power of two, so x / (6 / l) rounds as (x / 6) l does
    scale = 6.0 / space._element_classes[0]
    indptr, indices, from_a = space.saddle_pattern(beta)
    data = np.zeros(indices.size)
    velocity, pressure = data[: from_a.size], data[from_a.size:]
    # each velocity component's rows take A's scalar values once,
    # interleaved with the B^T values of those rows, which are scaled
    # first in the pressure rows: B holds as many entries as B^T
    half, bt = indptr[space.n_interior], space._bt_values
    for rows, bt_rows in ((slice(0, half), bt[: half - a.size]),
                          (slice(half, from_a.size), bt[half - a.size:])):
        out, to_a = velocity[rows], from_a[rows]
        out[to_a] = a
        if beta == 0.0:
            out /= 6.0  # 6 K_s's values; B^T's entries are still zero
        out[~to_a] = np.divide(bt_rows, scale, out=pressure[: bt_rows.size])
    np.divide(space.B.data, scale, out=pressure)
    n = indptr.size - 1
    return SaddleSystem(
        K=csr_view(data, indices, indptr, (n, n)), M=M_s, M_P=space.M_P,
        params=params, h=space.level.h, space=space,
    )


def _mass_cg(M, b):
    """Jacobi-preconditioned CG; mass matrices are uniformly
    well-conditioned so this converges in a few dozen iterations at any
    level."""
    if not np.any(b):
        return np.zeros_like(b)
    precond = spla.LinearOperator(
        M.shape, matvec=lambda v, d=1.0 / M.diagonal(): d * v
    )
    x, info = spla.cg(M, b, rtol=1e-13, atol=0.0, M=precond, maxiter=500)
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
    wdet = rule.weights * space._element_classes[0] ** 2  # times |det J|
    vals2 = p2_values(rule.points)  # (nq, 6)
    vals1 = rule.points  # (nq, 3): the linear basis values are barycentric
    coords, tri_vertices = space.level.vertex_coords, space.level.tri_vertices
    n_tri = space.level.n_triangles
    loc_ux, loc_uy = np.empty((n_tri, 6)), np.empty((n_tri, 6))
    loc_p = np.empty((n_tri, 3))
    for start in range(0, n_tri, _MOMENT_BLOCK):
        block = slice(start, start + _MOMENT_BLOCK)
        points = rule.points @ coords[tri_vertices[block]]  # (b, nq, 2)
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


def l2_project(space, u_exact, p_exact):
    """L2-project exact velocity/pressure fields onto the discrete pair.

    The velocity is projected onto the zero-trace space directly (interior
    dofs are the only unknowns); the pressure projection is shifted so its
    weighted mean 1^T M_P p vanishes.  Returns (u_star, p_star) with the
    component-blocked interior velocity layout.
    """
    b_ux, b_uy, b_p = _moment_vectors(space, u_exact, p_exact,
                                      conical_rule())

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
