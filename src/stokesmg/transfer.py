"""Intergrid operators between consecutive refinement levels.

The spaces are nested, so prolongation is the embedding: the entry for a
fine node and a coarse basis function is that basis function evaluated at
the fine node, and restriction is the transpose.  Fine nodes sit at exact
quarter-point barycentric positions inside their parent triangle, so the
weights are exact binary fractions; duplicate entries written from
neighboring parents are bitwise identical.

Velocity transfer acts on interior dofs only.  Dropping boundary rows and
columns is exact: a zero-trace coarse quadratic vanishes identically along
a boundary edge (three zeros on one segment), hence at every fine boundary
node.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .mesh import CHILD_VERTEX_BARYCENTRIC
from .sparse import two_component
from .assembly import TaylorHoodSpace, p1_values, p2_values


def _child_p2_barycentric():
    """Barycentric coordinates (w.r.t. the parent triangle) of the six
    quadratic nodes of each refinement child; shape (4, 6, 3)."""
    out = np.empty((4, 6, 3))
    for j, verts in enumerate(CHILD_VERTEX_BARYCENTRIC):
        out[j, :3] = verts
        for i in range(3):
            out[j, 3 + i] = 0.5 * (verts[(i + 1) % 3] + verts[(i + 2) % 3])
    return out


_CHILD_P2_BARY = _child_p2_barycentric()
# weight tables: fine node a of child j picks up coarse basis b
_W_P2 = p2_values(_CHILD_P2_BARY)                 # (4, 6, 6)
_W_P1 = p1_values(CHILD_VERTEX_BARYCENTRIC)       # (4, 3, 3)


def _embedding_matrix(fine_nodes, coarse_nodes, weights, fine_rows,
                      coarse_columns):
    """CSR embedding from stacked per-child node tables.

    fine_nodes is the (4, T_c, a) table of the children's global nodes,
    coarse_nodes the (T_c, b) table of their parents', and weights the
    matching (4, a, b) constant table.  Row r of the result
    is fine node fine_rows[r]; coarse node c lands in column
    coarse_columns[c], or nowhere if that is negative.  Each fine node
    takes its row from any one (child, local node) that holds it: every
    occurrence carries bitwise-identical weights.
    """
    _, tc, a = fine_nodes.shape
    n_columns = int(coarse_columns.max()) + 1
    occurrence = np.empty(int(fine_nodes.max()) + 1, dtype=np.int64)
    occurrence[fine_nodes.ravel()] = np.arange(fine_nodes.size)
    child, local = np.divmod(occurrence[fine_rows], tc * a)
    parent, node = np.divmod(local, a)

    cols = coarse_columns[coarse_nodes[parent]]          # (rows, b)
    vals = weights[child, node]                          # (rows, b)
    keep = (cols >= 0) & (vals != 0.0)
    indptr = np.concatenate([[0], np.cumsum(keep.sum(axis=1))])
    out = sp.csr_matrix(
        (vals[keep], cols[keep], indptr), shape=(fine_rows.size, n_columns)
    )
    out.sort_indices()
    return out


@dataclass
class TransferOperators:
    """Prolongations for the velocity (interior, component-blocked) and
    pressure blocks; restrictions are their transposes, cached as CSC views
    of the prolongations' arrays (no copy)."""

    P_u: sp.csr_matrix
    P_p: sp.csr_matrix

    @cached_property
    def R_u(self):
        return self.P_u.T

    @cached_property
    def R_p(self):
        return self.P_p.T

    @property
    def n_fine(self):
        return self.P_u.shape[0] + self.P_p.shape[0]

    @property
    def n_coarse(self):
        return self.P_u.shape[1] + self.P_p.shape[1]


def build_prolongation(coarse_space: TaylorHoodSpace,
                       fine_space: TaylorHoodSpace) -> TransferOperators:
    """Embedding operators from a space to its uniform refinement."""
    cl, fl = coarse_space.level, fine_space.level
    if (
        fl.level_index != cl.level_index + 1
        or fl.parent_triangle is None
        or fl.n_vertices != cl.n_vertices + cl.n_edges
        or fl.n_triangles != 4 * cl.n_triangles
    ):
        raise ValueError(
            "fine space is not the uniform refinement of the coarse space"
        )

    tc = cl.n_triangles
    child_ids = (4 * np.arange(tc)[None, :] + np.arange(4)[:, None])  # (4, Tc)

    # velocity: interior fine rows, interior coarse columns
    coarse_interior = np.full(coarse_space.n_p2, -1, dtype=np.int64)
    coarse_interior[coarse_space.interior_nodes] = np.arange(
        coarse_space.n_interior
    )
    P2_int = _embedding_matrix(
        fine_space.tri_p2[child_ids], coarse_space.tri_p2, _W_P2,
        fine_space.interior_nodes, coarse_interior,
    )
    P_p = _embedding_matrix(
        fl.tri_vertices[child_ids], cl.tri_vertices, _W_P1,
        np.arange(fl.n_vertices), np.arange(cl.n_vertices),
    )
    return TransferOperators(P_u=two_component(P2_int), P_p=P_p)


def prolongate(transfer, x_coarse):
    """Embed a coarse (velocity, pressure) vector into the fine level."""
    nu_c = transfer.P_u.shape[1]
    if x_coarse.shape[0] != transfer.n_coarse:
        raise ValueError(
            f"prolongate expects a vector of length {transfer.n_coarse}, "
            f"got {x_coarse.shape[0]}"
        )
    return np.concatenate(
        [transfer.P_u @ x_coarse[:nu_c], transfer.P_p @ x_coarse[nu_c:]]
    )


def restrict(transfer, r_fine):
    """Transpose-embedding of a fine residual onto the coarse level."""
    nu_f = transfer.P_u.shape[0]
    if r_fine.shape[0] != transfer.n_fine:
        raise ValueError(
            f"restrict expects a vector of length {transfer.n_fine}, "
            f"got {r_fine.shape[0]}"
        )
    return np.concatenate(
        [transfer.R_u @ r_fine[:nu_f], transfer.R_p @ r_fine[nu_f:]]
    )
