import numpy as np
import pytest

from stokesmg.mesh import (
    ResourceLimitError,
    build_coarse_mesh,
    build_hierarchy,
    refine,
)


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
    areas = mesh.triangle_areas()
    assert np.all(areas > 0)
    assert areas.sum() == pytest.approx(1.0, abs=1e-15)


def test_coarse_mesh_h_is_longest_edge():
    assert build_coarse_mesh().h == pytest.approx(np.sqrt(2) / 2, abs=1e-15)


def test_refine_counts_and_geometry():
    fine = refine(build_coarse_mesh())
    assert fine.n_triangles == 32
    assert fine.h == pytest.approx(np.sqrt(2) / 4, abs=1e-15)
    assert fine.triangle_areas().sum() == pytest.approx(1.0, abs=1e-14)


def test_refine_twice_triangle_count():
    fine2 = refine(refine(build_coarse_mesh()))
    assert fine2.n_triangles == 128


def test_child_area_is_quarter_of_parent():
    coarse = build_coarse_mesh()
    fine = refine(coarse)
    parent_areas = coarse.triangle_areas()
    child_areas = fine.triangle_areas()
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
        assert np.all(lv.triangle_areas() > 0)


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


def test_triangle_edges_opposite_vertices():
    lv = build_hierarchy(1)[1]
    for t in range(lv.n_triangles):
        for i in range(3):
            edge = lv.edge_vertices[lv.tri_edges[t, i]]
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
            fine.vertex_coords[coarse.n_vertices:], coarse.edge_midpoints
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
        edge_vertices, tri_edges = _edges_by_row_unique(lv.tri_vertices)
        assert np.array_equal(lv.edge_vertices, edge_vertices)
        assert np.array_equal(lv.tri_edges, tri_edges)
