"""Mesh topology and geometry checks.

The counting oracles below (edge counts, boundary splits) are enumerated by
brute force from the triangle list, independent of the production edge code.
"""

import numpy as np
import pytest

from egflow.mesh import MeshTopology, build_unit_square_mesh, refine_uniform


def brute_force_edges(triangles):
    """Sorted-pair edge set with incidence counts, as a dict."""
    counts = {}
    for tri in np.asarray(triangles):
        for a, b in ((tri[0], tri[1]), (tri[1], tri[2]), (tri[2], tri[0])):
            key = (min(a, b), max(a, b))
            counts[key] = counts.get(key, 0) + 1
    return counts


def reference_triangle_mesh():
    return MeshTopology([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], [[0, 1, 2]])


def shuffled_square_mesh(n, seed):
    """build_unit_square_mesh(n) with its triangles permuted and each one's vertices rotated."""
    mesh = build_unit_square_mesh(n)
    rng = np.random.default_rng(seed)
    triangles = mesh.triangles[rng.permutation(mesh.num_triangles)]
    shift = rng.integers(0, 3, len(triangles))
    rows = np.arange(len(triangles))[:, None]
    return MeshTopology(mesh.vertices, triangles[rows, (np.arange(3) + shift[:, None]) % 3])


# one mesh whose triangles all share a vertex order, and two whose do not
TOPOLOGY_MESHES = {
    "square": lambda: build_unit_square_mesh(3),
    "shuffled": lambda: shuffled_square_mesh(3, seed=5),
    "shuffled-refined": lambda: refine_uniform(shuffled_square_mesh(3, seed=5)),
}


def test_unit_cell_counts():
    mesh = build_unit_square_mesh(1)
    assert mesh.num_vertices == 4
    assert mesh.num_triangles == 2
    assert mesh.num_edges == 5
    assert np.count_nonzero(mesh.is_boundary_edge) == 4
    assert np.count_nonzero(~mesh.is_boundary_edge) == 1


@pytest.mark.parametrize("n", [1, 2, 3, 4, 8])
def test_counts_against_brute_force_and_euler(n):
    mesh = build_unit_square_mesh(n)
    counts = brute_force_edges(mesh.triangles)
    assert mesh.num_edges == len(counts)
    n_int = sum(1 for c in counts.values() if c == 2)
    n_bdr = sum(1 for c in counts.values() if c == 1)
    assert len(mesh.interior_edge_ids) == n_int
    assert len(mesh.boundary_edge_ids) == n_bdr
    # Euler characteristic of a disk
    assert mesh.num_vertices - mesh.num_edges + mesh.num_triangles == 1


def test_two_by_two_expected_counts():
    mesh = build_unit_square_mesh(2)
    assert mesh.num_vertices == 9
    assert mesh.num_triangles == 8
    assert mesh.num_edges == 16
    assert len(mesh.interior_edge_ids) == 8


def test_orientation_all_counterclockwise():
    mesh = build_unit_square_mesh(3)
    p = mesh.vertices[mesh.triangles]
    d1 = p[:, 1] - p[:, 0]
    d2 = p[:, 2] - p[:, 0]
    cross = d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]
    assert np.all(cross > 0)
    assert np.all(mesh.areas > 0)


def test_reject_clockwise_triangle():
    with pytest.raises(ValueError):
        MeshTopology([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], [[0, 2, 1]])


def test_reference_triangle_geometry():
    mesh = reference_triangle_mesh()
    assert mesh.areas[0] == pytest.approx(0.5)
    assert mesh.h_max == pytest.approx(np.sqrt(2.0))
    bary = mesh.barycenters[0]
    assert bary == pytest.approx(np.array([1.0, 1.0]) / 3.0)
    # every edge is a boundary edge, so each stored normal is the outward one
    assert mesh.is_boundary_edge.all()
    # outward normals weighted by edge length sum to zero on any closed boundary
    total = mesh.edge_length @ mesh.edge_normal
    assert np.allclose(total, 0.0, atol=1e-14)
    # all outward normals point away from the barycenter
    mid = mesh.vertices[mesh.edge_vertices].mean(axis=1)
    assert np.all(np.sum(mesh.edge_normal * (mid - bary), axis=1) > 0)


def test_three_four_five_triangle():
    mesh = MeshTopology([[0.0, 0.0], [3.0, 0.0], [0.0, 4.0]], [[0, 1, 2]])
    assert mesh.h_max == pytest.approx(5.0)
    assert mesh.areas[0] == pytest.approx(6.0)


@pytest.mark.parametrize("make_mesh", TOPOLOGY_MESHES.values(), ids=TOPOLOGY_MESHES.keys())
def test_edge_normals_unit_and_plus_to_minus(make_mesh):
    mesh = make_mesh()
    assert np.allclose(np.linalg.norm(mesh.edge_normal, axis=1), 1.0, atol=1e-14)
    assert np.all(mesh.edge_vertices[:, 0] < mesh.edge_vertices[:, 1])
    mid = mesh.vertices[mesh.edge_vertices].mean(axis=1)
    away_plus = np.sum(mesh.edge_normal * (mid - mesh.barycenters[mesh.edge_tplus]), axis=1)
    assert np.all(away_plus > 0)
    interior = ~mesh.is_boundary_edge
    assert np.all(mesh.edge_tplus[interior] < mesh.edge_tminus[interior])
    toward_minus = np.sum(
        mesh.edge_normal[interior] * (mesh.barycenters[mesh.edge_tminus[interior]] - mid[interior]), axis=1
    )
    assert np.all(toward_minus > 0)
    assert np.all(mesh.edge_tminus[mesh.is_boundary_edge] == -1)


@pytest.mark.parametrize("make_mesh", TOPOLOGY_MESHES.values(), ids=TOPOLOGY_MESHES.keys())
def test_edge_local_indices_are_endpoints(make_mesh):
    mesh = make_mesh()
    for e in range(mesh.num_edges):
        a, b = mesh.edge_vertices[e]
        tp = mesh.edge_tplus[e]
        la, lb = mesh.edge_local_plus[e]
        assert mesh.triangles[tp, la] == a
        assert mesh.triangles[tp, lb] == b
        tm = mesh.edge_tminus[e]
        if tm >= 0:
            la, lb = mesh.edge_local_minus[e]
            assert mesh.triangles[tm, la] == a
            assert mesh.triangles[tm, lb] == b


def test_h_max_is_diagonal():
    mesh = build_unit_square_mesh(4)
    assert mesh.h_max == pytest.approx(np.sqrt(2.0) / 4.0)


def canonical_triangle_set(mesh):
    out = set()
    for tri in mesh.triangles:
        coords = sorted((round(x, 12), round(y, 12)) for x, y in mesh.vertices[tri])
        out.add(tuple(coords))
    return out


def test_refine_matches_finer_build():
    mesh = build_unit_square_mesh(4)
    refined = refine_uniform(refine_uniform(mesh))
    direct = build_unit_square_mesh(16)
    assert refined.num_vertices == direct.num_vertices
    assert refined.num_edges == direct.num_edges
    assert refined.num_triangles == direct.num_triangles
    assert canonical_triangle_set(refined) == canonical_triangle_set(direct)


def test_refine_halves_h_exactly():
    mesh = build_unit_square_mesh(4)
    fine = refine_uniform(mesh)
    assert fine.h_max == 0.5 * mesh.h_max
    assert fine.num_triangles == 4 * mesh.num_triangles
    # children of boundary edges stay on the boundary
    def boundary_edge_midpoints(m):
        pts = set()
        for e in m.boundary_edge_ids:
            a, b = m.edge_vertices[e]
            mid = 0.5 * (m.vertices[a] + m.vertices[b])
            pts.add((round(mid[0], 12), round(mid[1], 12)))
        return pts

    for x, y in boundary_edge_midpoints(fine):
        on = np.isclose([x, y, 1 - x, 1 - y], 0.0, atol=1e-12)
        assert on.any()


def test_invalid_subdivision_count():
    with pytest.raises(ValueError):
        build_unit_square_mesh(0)


def test_mesh_arrays_are_read_only_and_inputs_stay_writable():
    base = build_unit_square_mesh(2)
    vertices = base.vertices.copy()
    mesh = MeshTopology(vertices, base.triangles)
    vertices[0, 0] = 0.5  # the caller's array is copied, not frozen
    assert mesh.vertices[0, 0] == 0.0
    arrays = {k: v for k, v in vars(mesh).items() if isinstance(v, np.ndarray)}
    assert {"vertices", "triangles", "areas", "grad_lambda", "edge_normal", "edge_tplus"} <= set(arrays)
    for name, arr in arrays.items():
        with pytest.raises(ValueError, match="read-only"):
            arr[(0,) * arr.ndim] = arr[(0,) * arr.ndim]


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_coordinates_are_rejected(bad):
    with pytest.raises(ValueError, match="finite"):
        MeshTopology([[0.0, 0.0], [1.0, 0.0], [bad, 1.0]], [[0, 1, 2]])


def test_edge_of_three_triangles_is_rejected():
    vertices = [[0.0, 0.0], [1.0, 0.0], [0.5, 1.0], [0.5, 2.0], [0.5, -1.0]]
    with pytest.raises(ValueError, match="shared by more than two triangles"):
        MeshTopology(vertices, [[0, 1, 2], [0, 1, 3], [1, 0, 4]])


@pytest.mark.parametrize(
    "triangles",
    [[[0, 1.9, 2.2]], np.array([[True, False, True]])],
    ids=["float", "bool"],
)
def test_non_integer_triangle_indices_are_rejected(triangles):
    # a cast would truncate 1.9 to 1 and read True as 1, building another mesh without an error
    with pytest.raises(ValueError, match="must be integers"):
        MeshTopology([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], triangles)
