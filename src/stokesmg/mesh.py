"""Nested criss-cross triangulations of the unit square.

The coarsest grid splits the square into 8 triangles fanning around the
center vertex, so every triangle touches an interior vertex (needed for
inf-sup stability of the Taylor-Hood pair on this mesh family).  Uniform
refinement replaces each triangle by four congruent children through its
edge midpoints.  All node coordinates are dyadic rationals and midpoints
are exact averages, so coarse coordinates reappear bitwise on every finer
level.
"""

from __future__ import annotations

import numpy as np

# Hierarchies beyond this level would need tens of millions of triangles;
# refuse instead of thrashing into swap.
MAX_LEVEL = 10

# Barycentric coordinates (w.r.t. the parent triangle) of the vertices of
# the four refinement children, in the child ordering produced by refine():
# children 0..2 sit at the parent corners, child 3 is the medial triangle.
CHILD_VERTEX_BARYCENTRIC = np.array(
    [
        [[1.0, 0.0, 0.0], [0.5, 0.5, 0.0], [0.5, 0.0, 0.5]],
        [[0.0, 1.0, 0.0], [0.0, 0.5, 0.5], [0.5, 0.5, 0.0]],
        [[0.0, 0.0, 1.0], [0.5, 0.0, 0.5], [0.0, 0.5, 0.5]],
        [[0.0, 0.5, 0.5], [0.5, 0.0, 0.5], [0.5, 0.5, 0.0]],
    ]
)


class ResourceLimitError(RuntimeError):
    """A requested hierarchy is too large to build in memory."""


def _edges_from_triangles(tri_vertices):
    """Derive the shared-edge table of a triangulation.

    Returns (edge_vertices, tri_edges, edge_on_boundary) where
    edge_vertices is (E, 2) with v0 < v1, tri_edges[t, i] is the edge
    opposite vertex i of triangle t, and an edge is on the boundary when
    only one triangle holds it.
    Edge numbering is lexicographic in the vertex pairs, hence deterministic:
    the pair (v0, v1) is keyed as v0 * nv + v1, whose numeric order is the
    lexicographic order of the pairs.  The keys are int64, which nv^2
    needs; both tables are int32.
    """
    t = np.asarray(tri_vertices, dtype=np.int64)
    first = t[:, [1, 2, 0]].ravel()
    second = t[:, [2, 0, 1]].ravel()
    nv = int(t.max()) + 1
    keys = np.minimum(first, second) * nv + np.maximum(first, second)
    edge_keys, inverse, counts = np.unique(keys, return_inverse=True,
                                           return_counts=True)
    edge_vertices = np.stack(np.divmod(edge_keys, nv), axis=1)
    return (edge_vertices.astype(np.int32),
            inverse.reshape(-1, 3).astype(np.int32), counts == 1)


class MeshLevel:
    """One triangulation of the hierarchy, stored as numpy index arrays
    (vertex_coords, tri_vertices, tri_edges, ...).  The index tables are
    int32: the finest supported level has 2^23 triangles and about
    1.3 * 10^7 edges.  The edge table itself is not kept: tri_edges numbers
    the edges, n_edges counts them, and refine derives their midpoints.
    parent is the level this one refines, as refine sets it, None for a
    level built otherwise."""

    def __init__(self, level_index, vertex_coords, tri_vertices, parent=None):
        self.level_index = int(level_index)
        self.vertex_coords = np.ascontiguousarray(vertex_coords, dtype=float)
        self.tri_vertices = np.ascontiguousarray(tri_vertices, dtype=np.int32)
        self.parent = parent
        edge_vertices, self.tri_edges, self.edge_on_boundary = (
            _edges_from_triangles(self.tri_vertices))
        self.n_edges = edge_vertices.shape[0]
        # a vertex is on the boundary when a boundary edge ends there
        on = np.zeros(self.n_vertices, dtype=bool)
        on[edge_vertices[self.edge_on_boundary]] = True
        self.vertex_on_boundary = on
        diffs = (self.vertex_coords[edge_vertices[:, 1]]
                 - self.vertex_coords[edge_vertices[:, 0]])
        self.h = float(np.max(np.hypot(diffs[:, 0], diffs[:, 1])))

    @property
    def n_vertices(self):
        return self.vertex_coords.shape[0]

    @property
    def n_triangles(self):
        return self.tri_vertices.shape[0]


def build_coarse_mesh():
    """The 8-triangle criss-cross mesh of the unit square.

    4 corners, 4 side midpoints and the center; all triangles fan around
    the interior center vertex with counterclockwise orientation.
    """
    coords = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0],
                       [0.5, 0.0], [1.0, 0.5], [0.5, 1.0], [0.0, 0.5],
                       [0.5, 0.5]])
    tris = np.array([[0, 4, 8], [4, 1, 8], [1, 5, 8], [5, 2, 8],
                     [2, 6, 8], [6, 3, 8], [3, 7, 8], [7, 0, 8]])
    return MeshLevel(0, coords, tris)


def refine(level):
    """Split every triangle into 4 congruent children via edge midpoints.

    Child ordering is fixed: children 4t+0..4t+2 sit at the corners of
    parent t (in parent vertex order), child 4t+3 is the medial triangle.
    Parent vertices keep their indices; the midpoint of coarse edge e
    becomes fine vertex n_vertices + e.
    """
    nv, v, c = level.n_vertices, level.tri_vertices, level.vertex_coords
    m = nv + level.tri_edges  # m[:, i] = midpoint of edge opposite vertex i
    coords = np.empty((nv + level.n_edges, 2))
    coords[:nv] = c
    # the edge opposite vertex i joins vertices i + 1 and i + 2; each
    # triangle holding it writes its midpoint, the same bits every time,
    # as the sum is commutative
    coords[m] = 0.5 * (c[v[:, [1, 2, 0]]] + c[v[:, [2, 0, 1]]])
    # child j's vertices among the parent's vertices (0-2) and midpoints
    # (3 + i): (v0, m2, m1), (v1, m0, m2), (v2, m1, m0), (m0, m1, m2)
    children = np.hstack([v, m])[:, [[0, 5, 4], [1, 3, 5], [2, 4, 3],
                                     [3, 4, 5]]]
    return MeshLevel(level.level_index + 1, coords, children.reshape(-1, 3),
                     parent=level)


def build_hierarchy(max_level):
    """The MeshLevels 0..max_level of the uniformly refined hierarchy, as a
    list indexed by level."""
    if max_level < 0:
        raise ValueError("max_level must be >= 0")
    if max_level > MAX_LEVEL:
        raise ResourceLimitError(
            f"hierarchy with {max_level + 1} levels exceeds the supported "
            f"maximum of {MAX_LEVEL + 1} (would need {8 * 4 ** max_level} "
            f"triangles on the finest level)"
        )
    levels = [build_coarse_mesh()]
    for _ in range(max_level):
        levels.append(refine(levels[-1]))
    return levels
