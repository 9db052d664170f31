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

from .mesh import MeshLevel
from .sparse import (
    Product,
    block_diagonal,
    csc_view,
    csr_view,
    dot,
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
    return np.stack([l0 * (2.0 * l0 - 1.0), l1 * (2.0 * l1 - 1.0),
                     l2 * (2.0 * l2 - 1.0), 4.0 * l1 * l2, 4.0 * l2 * l0,
                     4.0 * l0 * l1], axis=-1)


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
    """Node bookkeeping and the beta-independent matrices a solve reads,
    the scalar velocity mass M and the pressure mass M_P, with the weights
    M_P 1 of the pressure mean, for the quadratic/linear pair on one mesh
    level; the node tables are int32.
    The blocks only the systems' set-up reads are built by each pass of
    build_systems (SetUpBlocks) and not kept, and so is the table of
    each triangle's quadratic nodes (tri_p2)."""

    def __init__(self, level: MeshLevel):
        self.level = level
        nv, ne = level.n_vertices, level.n_edges
        self.n_p2 = nv + ne
        p2_on_boundary = np.concatenate([level.vertex_on_boundary,
                                         level.edge_on_boundary])
        self.interior_nodes = np.flatnonzero(~p2_on_boundary).astype(
            np.int32)
        self.n_interior = self.interior_nodes.size
        # interior index of every quadratic node, n_interior (one past the
        # last) on the boundary
        self.interior_number = np.full(self.n_p2, self.n_interior,
                                       dtype=np.int32)
        self.interior_number[self.interior_nodes] = np.arange(
            self.n_interior, dtype=np.int32)
        self.n_pressure = nv
        self.n_velocity = 2 * self.n_interior

    @property
    def tri_p2(self):
        """Global quadratic nodes of each triangle, matching the local
        basis ordering of p2_values; built on each request."""
        level = self.level
        return np.hstack([level.tri_vertices,
                          level.n_vertices + level.tri_edges])

    @cached_property
    def _element_classes(self):
        """(l, classes, adj): the leg length l, each triangle's int8 class
        and each class's integer adj(J/l).  Raises ValueError unless the
        vertex coordinates are multiples of a power of two l, every
        triangle is counterclockwise with det(J/l) = 1 and an int8 holds
        every class."""
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
        if first.size > np.iinfo(np.int8).max + 1:
            raise ValueError("mesh has more triangle classes than an int8 "
                             "holds")
        # E = [[a, b], [c, d]] has adj(E) = [[d, -b], [-c, a]]
        a, c, b, d = legs[first].T
        adj = np.stack([d, -b, -c, a], axis=1).reshape(-1, 2, 2)
        return ell, classes.astype(np.int8), adj

    @cached_property
    def _most_triangles_at_a_node(self):
        """The most triangles at a vertex, or the two at an edge midpoint."""
        tv = self.level.tri_vertices
        return max(int(np.bincount(tv.ravel()).max()), 2)

    @cached_property
    def M(self):
        """The scalar velocity mass on interior quadratic nodes, on its own
        nonzeros, each value the exact one, correctly rounded.  A pass of
        build_systems sets it from the numerators it sums anyway."""
        return _mass(self, _scalar_numerators(self)[1])

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

    @cached_property
    def pressure_weights(self):
        """w = M_P 1, the weights of the pressure mean w^T p."""
        return self.M_P @ np.ones(self.n_pressure)

    def remove_pressure_mean(self, p):
        """Shift the pressure p (a vector or an (n_p, k) block), in place,
        so that its weighted mean w^T p vanishes; returns p."""
        w = self.pressure_weights
        p -= dot(w, p) / w.sum()
        return p


class SetUpBlocks:
    """What the set-up of one level's systems reads and no solve does, for
    one pass over the betas of build_systems, dropped with the pass.

    The saddle patterns of those betas are laid out first, from 6 K_s,
    360 M_s / l^2, (6 / l) B and its transpose as exact int16 CSR
    matrices (_scalar_numerators, _divergence_numerators); the pass then
    keeps their values and row pointers only, which is all that K's data
    is written from.  The pressure mass is built first, so its transients
    come before the pass holds anything, and the space's M is taken from
    the mass numerators.  A pass for a level no solve runs on keeps no
    velocity mass (mass False): only the error norm reads it, and its
    systems' M is None.
    """

    def __init__(self, space, betas, mass=True):
        self.space = space
        space.M_P  # built first, while the pass holds nothing
        K6, M360 = _scalar_numerators(space)
        if mass and "M" not in vars(space):
            space.M = _mass(space, M360)
        # the velocity mass of the pass's systems
        self.M = space.M if mass else None
        B = _divergence_numerators(space)
        Bt = B.T.tocsr()
        self._patterns = {}
        for stiffness_only in {beta == 0.0 for beta in betas}:
            A_s = select_entries(K6.data != 0, K6) if stiffness_only else K6
            self._patterns[stiffness_only] = _saddle_layout(space, A_s, B, Bt)
        # the values K's data is written from: 6 K_s's and, for a beta > 0,
        # 360 M_s / l^2's on their shared pattern, B^T's in the order K's
        # velocity rows hold them, and B's
        self.k6, self.scalar_rows = K6.data, K6.indptr
        self.m360 = M360.data if any(beta != 0.0 for beta in betas) else None
        self.bt, self.bt_rows, self.b = Bt.data, Bt.indptr, B.data

    def saddle_pattern(self, beta):
        """(indptr, indices, from_a) of K = [[A, B^T], [B, 0]] for
        A = K_s + beta M_s: the pass's systems of every beta > 0 share
        one, those of beta = 0 a second, on which A holds the stiffness's
        nonzeros only."""
        return self._patterns[beta == 0.0]


def _saddle_layout(space, A_s, B, Bt):
    """(indptr, indices, from_a) of K = [[A, B^T], [B, 0]] for A = diag(A_s,
    A_s).  A has its scalar pattern twice, so the layout follows from the
    row counts of A, B^T and B, with no sort: velocity row i holds A's row
    i, then B^T's; from_a marks A's entries among the velocity rows'
    entries.  Every system's K holds the index arrays, so nothing may
    change them in place."""
    n_s, n_u = space.n_interior, space.n_velocity
    a_indptr = np.concatenate([A_s.indptr, A_s.indptr[1:] + A_s.nnz])
    velocity_indptr, from_a = merge_rows(a_indptr, Bt.indptr)
    indices = np.empty(from_a.size + B.nnz, dtype=A_s.indices.dtype)
    # each velocity component's rows, A_s's columns shifted to its own
    half, bt_half = velocity_indptr[n_s], Bt.indptr[n_s]
    for first, rows, bt_rows in ((0, slice(0, half), slice(0, bt_half)),
                                 (n_s, slice(half, from_a.size),
                                  slice(bt_half, Bt.nnz))):
        interleave(from_a[rows], A_s.indices + first,
                   Bt.indices[bt_rows] + n_u, out=indices[rows])
    indices[from_a.size:] = B.indices
    indptr = np.concatenate([velocity_indptr, B.indptr[1:] + from_a.size])
    return indptr, indices, from_a


def _scalar_numerators(space):
    """(6 K_s, 360 M_s / l^2) as their exact int16 integers, on the pattern
    where either is nonzero.  Each stiffness value once divided by 6, and
    each mass value once divided by 360 and scaled by l^2, is the exact
    one, correctly rounded."""
    _, _, adj = space._element_classes
    nodes, n = space.interior_number[space.tri_p2], space.n_interior
    return _assemble_packed(space, _local_tables(adj)[0], _MASS360, nodes,
                            nodes, n, n)


def _divergence_numerators(space):
    """(6 / l) B for the divergence block B = [D_x, D_y], as its exact
    int16 integers: rows are pressure dofs, columns interior velocity dofs
    in component-blocked order; each of D_x and D_y holds its own
    nonzeros.  Divided by 6, then scaled by l, each stored value is the
    exact one, correctly rounded."""
    _, _, adj = space._element_classes
    d_x, d_y = np.moveaxis(_local_tables(adj)[1], 1, 0)
    packed = _assemble_packed(
        space, d_x, d_y, space.level.tri_vertices,
        space.interior_number[space.tri_p2], space.n_pressure,
        space.n_interior)
    Dx, Dy = (select_entries(D.data != 0, D) for D in packed)
    indptr, from_x = merge_rows(Dx.indptr, Dy.indptr)
    return csr_view(
        interleave(from_x, Dx.data, Dy.data),
        interleave(from_x, Dx.indices, Dy.indices + space.n_interior),
        indptr, (space.n_pressure, space.n_velocity),
    )


def _mass(space, M360):
    """The scalar mass from its numerators 360 M_s / l^2, on their
    nonzeros."""
    M360 = select_entries(M360.data != 0, M360)
    return csr_view(_scaled(M360.data, 360.0, space._element_classes[0] ** 2),
                    M360.indices, M360.indptr, M360.shape)


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
    count = space._most_triangles_at_a_node
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

    M is the scalar velocity mass, None on a level set up for no solve
    (build_systems(..., mass=False)); the velocity mass M_U applies it to
    each component.  The solver applies K, its velocity rows [A, B^T], B
    and B^T, and the error norm diag(M, M, M_P), each through a product
    bound once (products); A and M_U are built on request, for diagnostics
    and tests.  B is a view of K's
    pressure rows, and B^T a CSC view of B's arrays, so neither holds
    memory of its own.  A system given another B
    (dataclasses.replace(system, B=...)) rebuilds K around it, so a
    replacement of K itself passes B=None to take the new K's rows.
    """

    K: sp.csr_matrix
    M: sp.csr_matrix | None
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
        velocity_rows, B and Bt, under those names, and, on a system that
        holds the velocity mass, mass with the error norm's
        diag(M, M, M_P)."""
        products = SimpleNamespace(**{
            name: Product(getattr(self, name))
            for name in ("K", "velocity_rows", "B", "Bt")
        })
        if self.M is not None:
            products.mass = Product(self.M, self.M, self.M_P)
        return products

    @property
    def A(self):
        """Velocity block, copied out of K."""
        return self.K[: self.n_u, : self.n_u].tocsr()

    @property
    def M_U(self):
        """Velocity mass matrix (both components)."""
        self.check_mass()
        return block_diagonal(self.M, self.M)

    def check_mass(self):
        """Raise ValueError, naming the level, on a system that holds no
        velocity mass."""
        if self.M is None:
            raise ValueError(
                f"the level-{self.space.level.level_index} system holds no "
                "velocity mass: it was set up for no solve on that level")

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


# Scalar rows per block in which build_system writes K's velocity rows, so
# that no set-up value is scaled into an array larger than one block.
_ROWS = 1 << 13


def build_system(space, params, blocks=None):
    """SaddleSystem of one level.  K's data is written on the saddle
    pattern for beta: A = K_s + beta M_s on both velocity components (the
    stiffness's nonzeros alone at beta = 0), then the values of B^T and B.
    The integer numerators of blocks (the SetUpBlocks of a pass over betas
    that include this one; None builds them for this system alone) are
    scaled as they are written, a block of _ROWS scalar rows of each
    velocity component at a time, so the only float array of set-up size
    is K's data."""
    beta = params.beta
    if blocks is None:
        blocks = SetUpBlocks(space, [beta])
    indptr, indices, from_a = blocks.saddle_pattern(beta)
    # l is a power of two, so x / (6 / l) rounds as (x / 6) l does
    scale = 6.0 / space._element_classes[0]
    data = np.zeros(indices.size)
    # velocity row i holds A's values of scalar row i mod n_s, then B^T's
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
    n = indptr.size - 1
    return SaddleSystem(
        K=csr_view(data, indices, indptr, (n, n)), M=blocks.M, M_P=space.M_P,
        params=params, h=space.level.h, space=space,
    )


def _scalar_values(blocks, beta, start, stop):
    """A_s's values in scalar rows start:stop: at beta = 0 the stiffness's
    nonzeros, else K_s + beta M_s, which adds the same two values as
    beta M_s + K_s does."""
    entries = slice(blocks.scalar_rows[start], blocks.scalar_rows[stop])
    k6 = blocks.k6[entries]
    if beta == 0.0:
        return np.divide(k6[k6 != 0], 6.0, dtype=np.float64)
    a = np.divide(k6, 6.0, dtype=np.float64)
    m = _scaled(blocks.m360[entries], 360.0,
                blocks.space._element_classes[0] ** 2)
    m *= beta
    a += m
    return a


def build_systems(space, betas, mass=True):
    """The SaddleSystems of one level for each beta, in order, in one pass:
    the blocks only set-up reads (SetUpBlocks) are built once for all of
    them and dropped on return, so systems of another beta built later
    build them again.  The pass's systems of every beta > 0 share K's
    index arrays, and so do those of beta = 0.  mass False builds systems
    without the velocity mass, for a level no solve runs on."""
    params = [ProblemParams(beta=beta) for beta in betas]
    blocks = SetUpBlocks(space, betas, mass)
    return [build_system(space, p, blocks) for p in params]


# The mass CG stops once its recursive residual is at most this fraction
# of the right-hand side's norm, or fails after _CG_MAX_ITER iterations.
_CG_RTOL = 1e-13
_CG_MAX_ITER = 500


def _mass_cg(M, b):
    """Jacobi-preconditioned CG; mass matrices are uniformly
    well-conditioned so this converges in a few dozen iterations at any
    level.  Its products go through a bound sparse.Product and its sums
    through sparse.dot, so no step calls BLAS and the result does not
    depend on the BLAS thread count."""
    x = np.zeros_like(b)
    if not np.any(b):
        return x
    product, inv_diag = Product(M), 1.0 / M.diagonal()
    stop = _CG_RTOL ** 2 * dot(b, b)
    r = b.copy()
    p = inv_diag * r
    rho = dot(r, p)
    q = np.empty_like(b)
    for _ in range(_CG_MAX_ITER):
        q.fill(0.0)
        product(p, q)
        alpha = rho / dot(p, q)
        x += alpha * p
        r -= alpha * q
        if dot(r, r) <= stop:
            return x
        z = inv_diag * r
        rho, rho_old = dot(r, z), rho
        p *= rho / rho_old
        p += z
    raise RuntimeError(f"mass-matrix CG did not converge in {_CG_MAX_ITER} "
                       "iterations")


# Triangles per block of _moment_vectors: the exact fields allocate several
# (triangles, quadrature points) temporaries.  At level 6 the moments peak
# at 3.1 MB with this block, 1.9 MB above their load vectors, and the mass
# CGs set l2_project's peak of 5.9 MB; blocks of 4 096 triangles took 3 %
# less time and peaked at 7.9 MB.
_MOMENT_BLOCK = 1024


def _moment_vectors(space, u_exact, p_exact, rule):
    """Load vectors of the exact fields against all basis functions, each
    block's moments added into them as it is evaluated.  Raises
    ValueError, naming the field, where either takes a NaN or infinite
    value at a quadrature point."""
    wdet = rule.weights * space._element_classes[0] ** 2  # times |det J|
    vals2 = p2_values(rule.points)  # (nq, 6)
    vals1 = rule.points  # (nq, 3): the linear basis values are barycentric
    level = space.level
    b_ux, b_uy = np.zeros(space.n_p2), np.zeros(space.n_p2)
    b_p = np.zeros(space.n_pressure)
    for start in range(0, level.n_triangles, _MOMENT_BLOCK):
        block = slice(start, start + _MOMENT_BLOCK)
        vertices = level.tri_vertices[block]
        points = rule.points @ level.vertex_coords[vertices]  # (b, nq, 2)
        x, y = points[..., 0], points[..., 1]
        ux, uy = u_exact(x, y)
        p = p_exact(x, y)
        # a NaN or inf moment would run every iteration of the mass CG
        if not (np.isfinite(ux).all() and np.isfinite(uy).all()):
            raise ValueError("the exact velocity field has non-finite values")
        if not np.isfinite(p).all():
            raise ValueError("the exact pressure field has non-finite values")
        # np.add.at adds in the order of one bincount over the whole
        # table, and takes its fast path on flat arguments only
        p2_nodes = np.hstack(
            [vertices, level.n_vertices + level.tri_edges[block]]).ravel()
        np.add.at(b_ux, p2_nodes, ((wdet * ux) @ vals2).ravel())
        np.add.at(b_uy, p2_nodes, ((wdet * uy) @ vals2).ravel())
        np.add.at(b_p, vertices.ravel(), ((wdet * p) @ vals1).ravel())
    return b_ux, b_uy, b_p


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
    M = space.M
    u_star = np.concatenate([_mass_cg(M, b_ux[idx]), _mass_cg(M, b_uy[idx])])

    p_star = space.remove_pressure_mean(_mass_cg(space.M_P, b_p))
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
