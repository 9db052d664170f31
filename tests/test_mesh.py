import numpy as np
import pytest

from stokesmg.mesh import (
    MeshLevel,
    ResourceLimitError,
    _edges_from_triangles,
    build_coarse_mesh,
    build_hierarchy,
    refine,
)

from conftest import edge_midpoints, edge_vertices, triangle_areas


def test_coarse_mesh_counts():
    mesh = build_coarse_mesh()
    assert mesh.n_triangles == 8
    assert mesh.n_vertices == 9
    assert mesh.n_edges == 16


def test_coarse_mesh_center_in_every_triangle():
    mesh = build_coarse_mesh()
    center = np.flatnonzero(
        (mesh.vertex_coords[:, 0] == 0.5) & (mesh.vertex_coords[:, 1] == 0.5)
    )
    assert center.size == 1
    assert np.all(np.any(mesh.tri_vertices == center[0], axis=1))


def test_coarse_mesh_partitions_unit_square():
    mesh = build_coarse_mesh()
    areas = triangle_areas(mesh)
    assert np.all(areas > 0)
    assert areas.sum() == pytest.approx(1.0, abs=1e-15)


def test_coarse_mesh_h_is_longest_edge():
    assert build_coarse_mesh().h == pytest.approx(np.sqrt(2) / 2, abs=1e-15)


def test_refine_counts_and_geometry():
    fine = refine(build_coarse_mesh())
    assert fine.n_triangles == 32
    assert fine.h == pytest.approx(np.sqrt(2) / 4, abs=1e-15)
    assert triangle_areas(fine).sum() == pytest.approx(1.0, abs=1e-14)


def test_refine_twice_triangle_count():
    fine2 = refine(refine(build_coarse_mesh()))
    assert fine2.n_triangles == 128


def test_child_area_is_quarter_of_parent():
    coarse = build_coarse_mesh()
    fine = refine(coarse)
    parent_areas = triangle_areas(coarse)
    child_areas = triangle_areas(fine)
    for t in range(coarse.n_triangles):
        np.testing.assert_allclose(
            child_areas[4 * t: 4 * t + 4], parent_areas[t] / 4, rtol=1e-14
        )


def test_refine_preserves_parent_vertices_bitwise():
    coarse = build_coarse_mesh()
    fine = refine(coarse)
    assert np.array_equal(
        coarse.vertex_coords, fine.vertex_coords[: coarse.n_vertices]
    )


def test_hierarchy_levels():
    hier = build_hierarchy(2)
    assert [lv.n_triangles for lv in hier] == [8, 32, 128]


def test_hierarchy_level4_count():
    hier = build_hierarchy(4)
    assert hier[4].n_triangles == 8 * 4**4 == 2048


def test_hierarchy_k0_is_coarse_mesh():
    hier = build_hierarchy(0)
    coarse = build_coarse_mesh()
    assert len(hier) == 1
    assert np.array_equal(hier[0].vertex_coords, coarse.vertex_coords)
    assert np.array_equal(hier[0].tri_vertices, coarse.tri_vertices)


def test_hierarchy_invariants_per_level():
    hier = build_hierarchy(3)
    for k, lv in enumerate(hier):
        assert lv.n_triangles == 8 * 4**k
        assert lv.h == pytest.approx(np.sqrt(2) / 2 * 2**-k, rel=1e-14)
        # Euler formula for a triangulated disk
        assert lv.n_vertices - lv.n_edges + lv.n_triangles == 1
        # every triangle keeps an interior vertex
        assert np.all(~lv.vertex_on_boundary[lv.tri_vertices].all(axis=1))
        assert np.all(triangle_areas(lv) > 0)


def test_edge_sharing_counts():
    hier = build_hierarchy(2)
    for lv in hier:
        counts = np.zeros(lv.n_edges, dtype=int)
        for e in lv.tri_edges.ravel():
            counts[e] += 1
        assert np.all(counts[lv.edge_on_boundary] == 1)
        assert np.all(counts[~lv.edge_on_boundary] == 2)


def test_boundary_flags_match_coordinates():
    lv = build_hierarchy(2)[2]
    on = (
        (np.abs(lv.vertex_coords[:, 0]) <= 1e-12)
        | (np.abs(lv.vertex_coords[:, 0] - 1) <= 1e-12)
        | (np.abs(lv.vertex_coords[:, 1]) <= 1e-12)
        | (np.abs(lv.vertex_coords[:, 1] - 1) <= 1e-12)
    )
    assert np.array_equal(lv.vertex_on_boundary, on)


def test_boundary_flags_match_the_unit_square_sides_to_level_7():
    # the flags come from the triangulation (edges one triangle holds);
    # on this hierarchy they are the points on the square's sides
    def on_sides(points):
        x, y = points[:, 0], points[:, 1]
        return (x == 0.0) | (x == 1.0) | (y == 0.0) | (y == 1.0)

    for lv in build_hierarchy(7):
        assert np.array_equal(lv.vertex_on_boundary,
                              on_sides(lv.vertex_coords))
        assert np.array_equal(lv.edge_on_boundary,
                              on_sides(edge_midpoints(lv)))


def test_boundary_of_a_single_triangle():
    # all three edges, the hypotenuse among them, bound the one triangle
    lv = MeshLevel(0, [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], [[0, 1, 2]])
    assert lv.n_edges == 3
    assert lv.edge_on_boundary.all()
    assert lv.vertex_on_boundary.all()


def test_triangle_edges_opposite_vertices():
    lv = build_hierarchy(1)[1]
    ends = edge_vertices(lv)
    for t in range(lv.n_triangles):
        for i in range(3):
            edge = ends[lv.tri_edges[t, i]]
            assert lv.tri_vertices[t, i] not in edge
            assert set(edge) <= set(lv.tri_vertices[t])


def test_coarse_coordinates_reappear_on_all_levels():
    hier = build_hierarchy(3)
    coarse = hier[0].vertex_coords
    for lv in hier[1:]:
        assert np.array_equal(coarse, lv.vertex_coords[: coarse.shape[0]])


def test_refine_numbers_edge_midpoints_after_vertices():
    # the midpoint of coarse edge e becomes fine vertex n_vertices + e
    hier = build_hierarchy(2)
    for coarse, fine in zip(hier, hier[1:]):
        assert np.array_equal(
            fine.vertex_coords[coarse.n_vertices:], edge_midpoints(coarse)
        )


def test_hierarchy_rejects_bad_levels():
    with pytest.raises(ValueError):
        build_hierarchy(-1)
    with pytest.raises(ResourceLimitError) as err:
        build_hierarchy(99)
    assert "100" in str(err.value)



def _edges_by_row_unique(tri_vertices):
    """Reference edge table: 2-D np.unique over sorted vertex pairs."""
    t = tri_vertices
    pairs = np.stack(
        [t[:, [1, 2]], t[:, [2, 0]], t[:, [0, 1]]], axis=1
    ).reshape(-1, 2)
    edge_vertices, inverse = np.unique(
        np.sort(pairs, axis=1), axis=0, return_inverse=True
    )
    return edge_vertices, inverse.reshape(-1, 3)


def test_edge_table_matches_row_unique_oracle():
    for lv in build_hierarchy(5):
        ends, tri_edges = _edges_by_row_unique(lv.tri_vertices)
        assert np.array_equal(edge_vertices(lv), ends)
        assert lv.n_edges == len(ends)
        assert np.array_equal(lv.tri_edges, tri_edges)


def _hierarchy_by_edge_table(max_level):
    """(vertex_coords, tri_vertices) of every level, refined as the mesh
    did when it kept its edge table: the midpoint 0.5 (x_v0 + x_v1) of
    each edge (v0, v1) of _edges_from_triangles is appended in edge order,
    and each triangle splits into its corner children and the medial one."""
    coarse = build_coarse_mesh()
    levels = [(coarse.vertex_coords, coarse.tri_vertices)]
    for _ in range(max_level):
        coords, v = levels[-1]
        ends, tri_edges, _ = _edges_from_triangles(v)
        midpoints = 0.5 * (coords[ends[:, 0]] + coords[ends[:, 1]])
        m = len(coords) + tri_edges
        children = np.stack([
            np.stack([v[:, 0], m[:, 2], m[:, 1]], axis=1),
            np.stack([v[:, 1], m[:, 0], m[:, 2]], axis=1),
            np.stack([v[:, 2], m[:, 1], m[:, 0]], axis=1),
            m,
        ], axis=1).reshape(-1, 3)
        levels.append((np.vstack([coords, midpoints]), children))
    return levels


def test_hierarchy_matches_the_edge_table_construction_bitwise():
    for lv, (coords, tris) in zip(build_hierarchy(6),
                                  _hierarchy_by_edge_table(6)):
        assert lv.vertex_coords.tobytes() == coords.tobytes()
        assert np.array_equal(lv.tri_vertices, tris)
        ends, tri_edges, on = _edges_from_triangles(tris)
        assert lv.n_edges == len(ends)
        assert np.array_equal(lv.tri_edges, tri_edges)
        assert np.array_equal(lv.edge_on_boundary, on)
        vertex_on = np.zeros(len(coords), dtype=bool)
        vertex_on[ends[on]] = True
        assert np.array_equal(lv.vertex_on_boundary, vertex_on)
        d = coords[ends[:, 1]] - coords[ends[:, 0]]
        assert lv.h == float(np.max(np.hypot(d[:, 0], d[:, 1])))


def test_refine_records_the_level_it_refines():
    hier = build_hierarchy(2)
    assert hier[0].parent is None
    assert all(fine.parent is coarse for coarse, fine in zip(hier, hier[1:]))
