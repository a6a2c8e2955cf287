"""Reconstruction operator checks.

The oracle for every moment identity is direct edge quadrature of the traces
(4-point Gauss, exact for the affine integrands), computed independently of
the sparse operator construction.
"""

import numpy as np
import pytest

from egflow.mesh import MeshTopology, build_unit_square_mesh, refine_uniform
from egflow.quadrature import edge_rule
import egflow.assembly as asm
from egflow.assembly import FormParams
from egflow.reconstruction import field_from_edge_moments, reconstruction_matrix
from egflow.solver import NonlinearSettings, solve_navier_stokes
from oracles import (
    BDMFunction,
    EGFunction,
    bdm_divergence_matrix,
    bdm_mass_matrix,
    edge_points,
    enriched_reconstruction_matrix,
    jump_average,
    local_moment_blocks,
    local_p1_embedding,
    reconstruct,
    traced_peak,
)
from test_assembly import perturbed_mesh

RULE = edge_rule(7)


def random_eg(mesh, seed):
    rng = np.random.default_rng(seed)
    return EGFunction(
        mesh, rng.normal(size=(mesh.num_vertices, 2)), rng.normal(size=mesh.num_triangles)
    )


def edge_normal_moments(field_value, mesh, e):
    """(m0, m1) of field.n_e along edge e by quadrature; field_value(x, s) -> (nq, 2)."""
    s = RULE.points
    x = edge_points(mesh, e, s)
    vn = field_value(x, s) @ mesh.edge_normal[e]
    h = mesh.edge_length[e]
    return (
        h * np.sum(RULE.weights * vn),
        h * np.sum(RULE.weights * vn * s),
    )


def test_identity_on_continuous_zero_boundary_part():
    mesh = build_unit_square_mesh(4)
    rng = np.random.default_rng(0)
    v = EGFunction.zero(mesh)
    v.nodal[~mesh.is_boundary_vertex] = rng.normal(size=(np.sum(~mesh.is_boundary_vertex), 2))
    r = reconstruct(v)
    embedded = BDMFunction.from_vector(mesh, local_p1_embedding(mesh) @ v.to_vector())
    assert r.coeffs == pytest.approx(embedded.coeffs, abs=1e-12)


def test_moment_matching_interior_edges():
    mesh = build_unit_square_mesh(3)
    v = random_eg(mesh, 1)
    r = reconstruct(v)
    for e in mesh.interior_edge_ids:
        e = int(e)
        tp = int(mesh.edge_tplus[e])
        got = edge_normal_moments(lambda x, s: r.value(tp, x), mesh, e)
        want = edge_normal_moments(lambda x, s: jump_average(v, e, s)[1], mesh, e)
        assert got[0] == pytest.approx(want[0], abs=1e-10)
        assert got[1] == pytest.approx(want[1], abs=1e-10)


def test_normal_trace_continuous_across_interior_edges():
    mesh = build_unit_square_mesh(4)
    v = random_eg(mesh, 2)
    r = reconstruct(v)
    s = np.array([0.0, 0.2, 0.5, 0.9, 1.0])
    for e in mesh.interior_edge_ids:
        e = int(e)
        x = edge_points(mesh, e, s)
        n = mesh.edge_normal[e]
        plus = r.value(int(mesh.edge_tplus[e]), x) @ n
        minus = r.value(int(mesh.edge_tminus[e]), x) @ n
        assert plus == pytest.approx(minus, abs=1e-12)


def test_zero_normal_flux_on_boundary():
    mesh = build_unit_square_mesh(4)
    v = random_eg(mesh, 3)
    r = reconstruct(v)
    s = np.linspace(0.0, 1.0, 7)
    for e in mesh.boundary_edge_ids:
        e = int(e)
        x = edge_points(mesh, e, s)
        n = mesh.edge_normal[e]
        trace = r.value(int(mesh.edge_tplus[e]), x) @ n
        assert np.allclose(trace, 0.0, atol=1e-12)


def test_single_triangle_reconstruction_vanishes():
    # every edge is a boundary edge, so all six moments are forced to zero
    mesh = MeshTopology([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], [[0, 1, 2]])
    v = random_eg(mesh, 4)
    r = reconstruct(v)
    assert np.allclose(r.coeffs, 0.0, atol=1e-12)


def test_two_triangle_bubble_moments_against_quadrature():
    mesh = build_unit_square_mesh(1)
    (e,) = mesh.interior_edge_ids
    e = int(e)
    tp = int(mesh.edge_tplus[e])
    v = EGFunction.zero(mesh)
    v.bubble[tp] = 1.0
    r = reconstruct(v)
    # oracle: averaged bubble trace is half of (x(s) - barycenter_plus)
    want = edge_normal_moments(
        lambda x, s: 0.5 * (x - mesh.barycenters[tp]), mesh, e
    )
    got = edge_normal_moments(lambda x, s: r.value(tp, x), mesh, e)
    assert got == pytest.approx(want, abs=1e-13)


@pytest.mark.parametrize(
    "make_mesh",
    [lambda: build_unit_square_mesh(8), lambda: build_unit_square_mesh(64), lambda: perturbed_mesh(8, seed=5)],
    ids=["n8", "n64", "perturbed-n8"],
)
def test_reconstruction_through_embedding_matches_enriched_construction(make_mesh):
    # R matches {v}.n at each vertex of each edge; the reference inverts
    # each triangle's moment blocks on the moments of {v}.n from the enriched basis
    mesh = make_mesh()
    R = asm.discretization(mesh).reconstruction
    ref = enriched_reconstruction_matrix(mesh)
    assert R.shape == ref.shape
    assert abs(R - ref).max() <= 1e-14 * abs(ref).max()


@pytest.mark.parametrize(
    "make_mesh",
    [
        lambda: perturbed_mesh(8, seed=4),
        lambda: refine_uniform(perturbed_mesh(4, seed=3)),
        lambda: build_unit_square_mesh(8),
        # corners off the axes, where N^-1 N is the identity only up to rounding
        lambda: MeshTopology([[0.0, 0.0], [1.0, 0.2], [1.1, 1.3], [0.1, 0.9]], [[0, 1, 2], [0, 2, 3]]),
    ],
    ids=["perturbed-n8", "refined-perturbed", "n8", "skewed-quad"],
)
def test_reconstruction_rows_hold_only_their_vertex_and_bubbles(make_mesh):
    # row (t, a, i) reads vertex a's nodal value, t's bubble and the bubbles
    # across the two edges meeting at a: at most four stored entries
    mesh = make_mesh()
    R = reconstruction_matrix(mesh)
    ref = enriched_reconstruction_matrix(mesh)
    assert abs(R - ref).max() <= 1e-14 * abs(ref).max()
    counts = np.diff(R.indptr).reshape(-1, 3, 2)
    assert counts.max() <= 4
    # local edges a and a + 2 meet at local vertex a
    boundary = mesh.is_boundary_edge[mesh.tri_to_edges]
    meeting = np.stack([boundary, np.roll(boundary, 1, axis=1)], axis=-1)
    assert (counts[meeting.all(axis=-1)] == 0).all()
    nodal = R[:, : 2 * mesh.num_vertices].toarray().reshape(mesh.num_triangles, 3, 2, -1)
    for t, a in np.argwhere(~meeting.any(axis=-1)):
        want = np.zeros((2, nodal.shape[-1]))
        want[:, 2 * mesh.triangles[t, a] : 2 * mesh.triangles[t, a] + 2] = np.eye(2)
        assert (nodal[t, a] == want).all()


def test_reconstruction_build_stays_small_in_memory():
    # R is filled row by row from the vertex frames: no 6x6 moment blocks, no
    # inverse and no sparse product sit beside it (the triple product peaked at 19.6 MB)
    mesh = build_unit_square_mesh(64)
    disc = asm.discretization(mesh)
    disc.embedding, disc.scalar_p1
    assert traced_peak(getattr, disc, "reconstruction") <= 11e6


def test_lid_solve_with_the_enriched_oracle_reconstruction_is_the_same(monkeypatch):
    params = FormParams(viscosity=1e-2, penalty=10.0, pressure_robust=True)
    settings = NonlinearSettings(tol=1e-10, max_iters=200, init="stokes")

    def lid_solve():
        mesh = perturbed_mesh(8, seed=6)  # a new mesh builds its own R
        return solve_navier_stokes(mesh, params, settings, boundary=asm.lid_values(mesh))

    u, _, report = lid_solve()
    monkeypatch.setattr(asm, "reconstruction_matrix", enriched_reconstruction_matrix)
    u_ref, _, ref = lid_solve()
    assert report.converged and ref.converged
    assert np.linalg.norm(u - u_ref) <= 1e-10 * np.linalg.norm(u_ref)
    assert report.iterations == ref.iterations
    assert report.krylov_iterations == ref.krylov_iterations
    assert report.factorizations == ref.factorizations


def test_edge_moments_of_a_reconstructed_field_map_back_to_it():
    # a reconstructed field has equal moments on both sides of each edge,
    # so one side's moments per edge determine it again
    mesh = perturbed_mesh(5, seed=4)
    nt = mesh.num_triangles
    c = enriched_reconstruction_matrix(mesh) @ random_eg(mesh, 12).to_vector()
    local = np.einsum("tij,tj->ti", local_moment_blocks(mesh), c.reshape(nt, 6)).reshape(nt, 3, 2)
    moments = np.zeros((mesh.num_edges, 2))
    for k in range(3):
        moments[mesh.tri_to_edges[:, k]] = local[:, k]
    got = field_from_edge_moments(mesh, moments)
    assert np.abs(got - c).max() <= 1e-12 * np.abs(c).max()


def test_reconstruction_linear_in_coefficients():
    mesh = build_unit_square_mesh(2)
    R = asm.discretization(mesh).reconstruction
    va, vb = random_eg(mesh, 5), random_eg(mesh, 6)
    combo = EGFunction(mesh, 2.0 * va.nodal - 3.0 * vb.nodal, 2.0 * va.bubble - 3.0 * vb.bubble)
    lhs = R @ combo.to_vector()
    rhs = 2.0 * (R @ va.to_vector()) - 3.0 * (R @ vb.to_vector())
    assert lhs == pytest.approx(rhs, abs=1e-12)


def test_divergence_matrix_oracle():
    mesh = build_unit_square_mesh(2)
    D = bdm_divergence_matrix(mesh)
    w = BDMFunction(mesh, np.random.default_rng(7).normal(size=(mesh.num_triangles, 3, 2)))
    per_tri = D @ w.to_vector()
    for t in range(mesh.num_triangles):
        assert per_tri[t] == pytest.approx(mesh.areas[t] * w.divergence(t), rel=1e-12)


def test_mass_matrix_oracle():
    from egflow.quadrature import triangle_rule

    mesh = build_unit_square_mesh(2)
    M = bdm_mass_matrix(mesh)
    w = BDMFunction(mesh, np.random.default_rng(8).normal(size=(mesh.num_triangles, 3, 2)))
    vec = w.to_vector()
    got = vec @ (M @ vec)
    rule = triangle_rule(4)
    total = 0.0
    for t in range(mesh.num_triangles):
        pts = np.einsum("qk,ki->qi", rule.points, mesh.vertices[mesh.triangles[t]])
        vals = w.value(t, pts)
        total += 2.0 * mesh.areas[t] * np.sum(rule.weights * np.sum(vals**2, axis=-1))
    assert got == pytest.approx(total, rel=1e-12)


def broken_h1_with_jumps(v, rho=10.0):
    """Independent energy-norm oracle: broken gradient plus scaled jump terms."""
    mesh = v.mesh
    total = sum(
        float(np.sum(v.jacobian(t) ** 2)) * mesh.areas[t] for t in range(mesh.num_triangles)
    )
    s = RULE.points
    for e in range(mesh.num_edges):
        jump, _ = jump_average(v, e, s)
        h = mesh.edge_length[e]
        total += rho / h * h * np.sum(RULE.weights * np.sum(jump**2, axis=-1))
    return np.sqrt(total)


def test_distance_to_reconstruction_scales_with_h():
    # || Rv - v ||_0 <= C h || v ||_E with C uniform in the mesh: the observed
    # ratio must not grow under refinement (trend check, seeded per level)
    ratios = []
    for level, n in enumerate((4, 8, 16, 32)):
        mesh = build_unit_square_mesh(n)
        v = random_eg(mesh, 100 + level)
        diff = asm.discretization(mesh).reconstruction @ v.to_vector() - local_p1_embedding(mesh) @ v.to_vector()
        dist = np.sqrt(diff @ (bdm_mass_matrix(mesh) @ diff))
        ratios.append(dist / ((1.0 / n) * broken_h1_with_jumps(v)))
    assert ratios[-1] <= ratios[0] * 1.05
    assert max(ratios[1:]) <= ratios[0] * 1.25
