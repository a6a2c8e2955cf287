"""Tests for the form assembly module.

Oracles used here:
  * the classical 5-point P1 stiffness stencil on the structured mesh,
    valid for the continuous nodal sub-basis where all jump terms vanish;
  * pointwise trace evaluation through oracles.jump_average, a separate
    code path from the batched scalar P1 edge traces;
  * the whole convection form integrated point by point through
    EGFunction.value / BDMFunction.value on a perturbed mesh;
  * the reconstruction operator: b(v, q) must equal (div Rv, q) exactly;
  * exact discrete residuals for a linear divergence-free flow.
"""

import numpy as np
import pytest
import scipy.sparse.linalg as spla

import egflow.assembly as asm
from egflow.analysis import _edge_error_terms, example1_solution
from egflow.assembly import FormParams
from egflow.mesh import MeshTopology, build_unit_square_mesh
from egflow.quadrature import edge_rule, triangle_rule
from egflow.reconstruction import reconstruction_matrix
from oracles import (
    EGFunction,
    assemble_energy_gram,
    assemble_mass,
    bdm_divergence_matrix,
    bdm_mass_matrix,
    bubble_dof,
    edge_points,
    enriched_convective_boundary_load,
    enriched_divergence,
    enriched_edge_error_terms,
    enriched_sipg_boundary_load,
    enriched_viscous,
    jump_average,
    local_p1_embedding,
    n_velocity,
    project_pressure,
    reconstruct,
    saddle_blocks_by_bmat,
    traced_peak,
    vertex_dof,
)

PARAMS = FormParams(viscosity=1.0, penalty=10.0)
PARAMS_PR = FormParams(viscosity=1.0, penalty=10.0, pressure_robust=True)


def random_eg(mesh, seed):
    rng = np.random.default_rng(seed)
    return EGFunction(
        mesh,
        rng.standard_normal((mesh.num_vertices, 2)),
        rng.standard_normal(mesh.num_triangles),
    )


def perturbed_mesh(n, seed, amplitude=0.2):
    """Unit-square mesh with each interior vertex moved by up to amplitude/n per coordinate."""
    base = build_unit_square_mesh(n)
    rng = np.random.default_rng(seed)
    vertices = base.vertices.copy()
    inner = ~base.is_boundary_vertex
    vertices[inner] += amplitude / n * rng.uniform(-1.0, 1.0, (int(inner.sum()), 2))
    return MeshTopology(vertices, base.triangles)


def free_velocity_dofs(mesh):
    """All velocity dofs except the nodal ones sitting on the boundary."""
    bverts = np.flatnonzero(mesh.is_boundary_vertex)
    fixed = set(np.concatenate([2 * bverts, 2 * bverts + 1]).tolist())
    return np.array([d for d in range(n_velocity(mesh)) if d not in fixed])


# -- viscous form ---------------------------------------------------------


def test_viscous_matches_classical_stencil_on_nodal_part():
    # interior hats have no jumps anywhere, so couplings between them reduce
    # to the plain P1 stiffness: 4 at the vertex, -1 to axis neighbours, 0
    # across diagonals; hats touching the boundary pick up one-sided jump
    # terms and are excluded
    n = 4
    mesh = build_unit_square_mesh(n)
    A = asm.assemble_viscous(mesh, PARAMS).toarray()

    def vid(i, j):
        return j * (n + 1) + i

    def interior(i, j):
        return 0 < i < n and 0 < j < n

    for i in range(1, n):
        for j in range(1, n):
            c = vid(i, j)
            for comp in range(2):
                row = A[2 * c + comp]
                assert row[2 * c + comp] == pytest.approx(4.0, abs=1e-12)
                for di, dj, expect in (
                    (-1, 0, -1.0),
                    (1, 0, -1.0),
                    (0, -1, -1.0),
                    (0, 1, -1.0),
                    (1, 1, 0.0),
                    (-1, -1, 0.0),
                ):
                    if interior(i + di, j + dj):
                        nb = vid(i + di, j + dj)
                        assert row[2 * nb + comp] == pytest.approx(expect, abs=1e-12)
                # components never couple in the full-gradient form
                assert row[2 * c + 1 - comp] == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_viscous_symmetry(n):
    A = asm.assemble_viscous(build_unit_square_mesh(n), PARAMS)
    assert abs(A - A.T).max() <= 1e-12 * abs(A).max()


def viscous_by_quadrature(u, v, penalty):
    """(volume, consistency, penalty) parts of a(u, v), integrated point by point.

    Jacobians come from EGFunction.jacobian, traces and jumps from
    EGFunction.value and oracles.jump_average, one edge at a time; the
    consistency part holds both gradient-average terms.
    """
    mesh = u.mesh
    vol = sum(mesh.areas[t] * float(np.sum(u.jacobian(t) * v.jacobian(t))) for t in range(mesh.num_triangles))
    erule = edge_rule(asm.EDGE_DEGREE)
    s, w = erule.points, erule.weights
    cons = pen = 0.0
    for e in range(mesh.num_edges):
        nrm, h = mesh.edge_normal[e], mesh.edge_length[e]
        sides = [int(t) for t in (mesh.edge_tplus[e], mesh.edge_tminus[e]) if t >= 0]
        grad_u_n = np.mean([u.jacobian(t) @ nrm for t in sides], axis=0)
        grad_v_n = np.mean([v.jacobian(t) @ nrm for t in sides], axis=0)
        u_jump, _ = jump_average(u, e, s)
        v_jump, _ = jump_average(v, e, s)
        cons -= h * float(w @ (v_jump @ grad_u_n + u_jump @ grad_v_n))
        pen += penalty * float(w @ np.einsum("qi,qi->q", u_jump, v_jump))  # h^-1 cancels the edge length
    return vol, cons, pen


def test_viscous_form_against_pointwise_quadrature():
    # every term of a(u, v) with discontinuous u and v (random bubbles) on a
    # mesh without structured symmetry
    mesh = perturbed_mesh(8, seed=12)
    u, v = random_eg(mesh, 64), random_eg(mesh, 65)
    A = asm.assemble_viscous(mesh, PARAMS)
    got = float(v.to_vector() @ (A @ u.to_vector()))
    vol, cons, pen = viscous_by_quadrature(u, v, PARAMS.penalty)
    scale = abs(vol) + abs(cons) + abs(pen)
    assert min(abs(vol), abs(cons), abs(pen)) > 1e-2 * scale
    assert got == pytest.approx(vol + cons + pen, abs=1e-12 * scale)


@pytest.mark.parametrize("make_mesh", [lambda: build_unit_square_mesh(8), lambda: perturbed_mesh(8, seed=4)])
def test_p1_operators_match_the_enriched_basis_assembly(make_mesh):
    # A = sum_c E_c^T A_s E_c and B = B_s E on the elementwise P1 basis are
    # the matrices of the local blocks on the 7-dof enriched basis
    mesh = make_mesh()
    for got, want in ((asm.assemble_viscous(mesh, PARAMS), enriched_viscous(mesh, PARAMS)),
                      (asm.assemble_divergence(mesh), enriched_divergence(mesh))):
        assert abs(got - want).max() <= 1e-14 * abs(want).max()
    # the boundary loads, E^T of scalar loads on the boundary-edge hats, are
    # the loads of the enriched basis traces, for the cavity lid and random data
    z = random_eg(mesh, 31)
    lid = asm.dirichlet_data(mesh, asm.lid_values(mesh))
    for g in (lid, np.random.default_rng(32).standard_normal((mesh.num_vertices, 2))):
        for got, want in ((asm.sipg_boundary_load(mesh, g, PARAMS), enriched_sipg_boundary_load(mesh, g, PARAMS)),
                          (asm.convective_boundary_load(mesh, z.to_vector(), g, PARAMS),
                           enriched_convective_boundary_load(mesh, z.to_vector(), g, PARAMS))):
            assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()
    # and the jump terms of the error norms read the same traces
    u_vertex, ex = asm.vertex_values(mesh, random_eg(mesh, 33).to_vector()), example1_solution()
    assert _edge_error_terms(mesh, u_vertex, ex, 10.0) == enriched_edge_error_terms(mesh, u_vertex, ex, 10.0)


@pytest.mark.parametrize("n", [2, 4])
def test_viscous_positive_definite_on_constrained_space(n):
    mesh = build_unit_square_mesh(n)
    A = asm.assemble_viscous(mesh, PARAMS).toarray()
    free = free_velocity_dofs(mesh)
    eigs = np.linalg.eigvalsh(A[np.ix_(free, free)])
    assert eigs.min() > 1e-10


def test_energy_gram_matches_norm_of_continuous_field():
    # a continuous P1 field vanishing on the boundary has no jumps at all,
    # so the gram reduces to the Dirichlet energy
    mesh = build_unit_square_mesh(3)
    rng = np.random.default_rng(7)
    nodal = rng.standard_normal((mesh.num_vertices, 2))
    nodal[mesh.is_boundary_vertex] = 0.0
    v = EGFunction(mesh, nodal, np.zeros(mesh.num_triangles))
    E = assemble_energy_gram(mesh, penalty=10.0)
    vec = v.to_vector()
    grad2 = sum(
        mesh.areas[t] * np.sum(v.jacobian(t) ** 2) for t in range(mesh.num_triangles)
    )
    assert float(vec @ (E @ vec)) == pytest.approx(grad2, rel=1e-12)


def test_energy_gram_penalizes_jumps():
    mesh = build_unit_square_mesh(2)
    v = EGFunction(mesh, np.zeros((mesh.num_vertices, 2)), np.ones(mesh.num_triangles))
    vec = v.to_vector()
    e10 = float(vec @ (assemble_energy_gram(mesh, 10.0) @ vec))
    e0 = float(vec @ (assemble_energy_gram(mesh, 0.0) @ vec))
    rule = edge_rule(7)
    jump2 = 0.0
    for e in range(mesh.num_edges):
        h = mesh.edge_length[e]
        for s, w in zip(rule.points, rule.weights):
            jump, _ = jump_average(v, e, float(s))
            jump2 += (h / h) * w * float(jump @ jump)
    assert e10 - e0 == pytest.approx(10.0 * jump2, rel=1e-10)


# -- divergence form ------------------------------------------------------


def test_divergence_row_against_pointwise_traces():
    mesh = build_unit_square_mesh(2)
    v = random_eg(mesh, 3)
    B = asm.assemble_divergence(mesh).toarray()
    got = B @ v.to_vector()
    rule = edge_rule(7)
    for t in range(mesh.num_triangles):
        expect = mesh.areas[t] * v.divergence(t)
        for e in range(mesh.num_edges):
            sides = [mesh.edge_tplus[e], mesh.edge_tminus[e]]
            if t not in sides:
                continue
            avg = 1.0 if mesh.is_boundary_edge[e] else 0.5
            n = mesh.edge_normal[e]
            acc = 0.0
            for s, w in zip(rule.points, rule.weights):
                jump, _ = jump_average(v, e, float(s))
                acc += w * float(jump @ n)
            expect -= avg * mesh.edge_length[e] * acc
        assert got[t] == pytest.approx(expect, abs=1e-12)


@pytest.mark.parametrize("n", [2, 4, 8])
def test_divergence_form_equals_reconstructed_divergence(n):
    # the defining property of the flux reconstruction
    mesh = build_unit_square_mesh(n)
    B = asm.assemble_divergence(mesh)
    D = bdm_divergence_matrix(mesh) @ asm.discretization(mesh).reconstruction
    assert abs(B - D).max() <= 1e-12


def test_divergence_form_annihilates_constant_pressures():
    # b(v, 1) telescopes to zero for every velocity: the boundary flux in
    # the volume term is exactly matched by the boundary edge term
    mesh = build_unit_square_mesh(3)
    B = asm.assemble_divergence(mesh)
    ones = np.ones(mesh.num_triangles)
    for seed in range(10):
        v = random_eg(mesh, 600 + seed)
        assert abs(float(ones @ (B @ v.to_vector()))) <= 1e-12


def test_divergence_of_constant_field_vanishes_on_interior_rows():
    # a constant field has zero divergence and zero interior jumps; only
    # triangles with a boundary edge see its trace
    mesh = build_unit_square_mesh(3)
    v = EGFunction(mesh, np.tile([2.0, -1.0], (mesh.num_vertices, 1)), np.zeros(mesh.num_triangles))
    rows = asm.assemble_divergence(mesh) @ v.to_vector()
    has_bdry = np.zeros(mesh.num_triangles, dtype=bool)
    for e in mesh.boundary_edge_ids:
        has_bdry[mesh.edge_tplus[e]] = True
    assert np.abs(rows[~has_bdry]).max() <= 1e-14
    assert np.abs(rows[has_bdry]).max() > 1e-3


# -- mass matrix ----------------------------------------------------------


def test_mass_matrix_against_quadrature():
    mesh = build_unit_square_mesh(2)
    v = random_eg(mesh, 11)
    M = assemble_mass(mesh)
    vec = v.to_vector()
    rule = triangle_rule(6)
    acc = 0.0
    for t in range(mesh.num_triangles):
        pts = np.einsum("qk,ki->qi", rule.points, mesh.vertices[mesh.triangles[t]])
        vals = np.array([v.value(t, x) for x in pts])
        acc += 2.0 * mesh.areas[t] * float(rule.weights @ np.sum(vals**2, axis=1))
    assert float(vec @ (M @ vec)) == pytest.approx(acc, rel=1e-12)


# -- convection -----------------------------------------------------------


@pytest.mark.parametrize("n", [2, 4])
@pytest.mark.parametrize("robust", [False, True])
def test_convection_is_positive_semidefinite_in_quadratic_sense(n, robust):
    # the skew part plus upwinding make c(z; v, v) >= 0 for every pair
    mesh = build_unit_square_mesh(n)
    params = PARAMS_PR if robust else PARAMS
    for seed in range(50):
        z = random_eg(mesh, 100 + seed)
        v = random_eg(mesh, 500 + seed)
        C = asm.assemble_convection(mesh, z.to_vector(), params)
        vec = v.to_vector()
        assert float(vec @ (C @ vec)) >= -1e-12


@pytest.mark.parametrize("robust", [False, True])
def test_convection_is_bounded_in_the_energy_norm(robust):
    # |c(z; u, v)| <= C |z|_E |u|_E |v|_E with a constant that does not grow
    # under refinement; the empirical constant on these meshes is ~2e-3
    params = PARAMS_PR if robust else PARAMS
    worst = []
    for n in (2, 4):
        mesh = build_unit_square_mesh(n)
        E = assemble_energy_gram(mesh, penalty=10.0)
        energy = lambda w: np.sqrt(float(w.to_vector() @ (E @ w.to_vector())))
        mx = 0.0
        for seed in range(50):
            z = random_eg(mesh, 1000 + seed)
            u = random_eg(mesh, 2000 + seed)
            v = random_eg(mesh, 3000 + seed)
            C = asm.assemble_convection(mesh, z.to_vector(), params)
            val = abs(float(v.to_vector() @ (C @ u.to_vector())))
            mx = max(mx, val / (energy(z) * energy(u) * energy(v)))
        worst.append(mx)
    assert worst[0] < 0.1 and worst[1] < 0.1
    assert worst[1] <= 2.0 * worst[0]


def test_convection_vanishes_for_zero_transport():
    mesh = build_unit_square_mesh(3)
    C = asm.assemble_convection(mesh, np.zeros(n_velocity(mesh)), PARAMS).matrix()
    assert C.nnz == 0
    Cpr = asm.assemble_convection(mesh, np.zeros(n_velocity(mesh)), PARAMS_PR).matrix()
    assert Cpr.nnz == 0


def test_robust_convection_on_a_mesh_without_interior_edges():
    # every edge is a boundary edge, so R and with it the robust matrix vanish
    mesh = MeshTopology(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]), np.array([[0, 1, 2]]))
    z = EGFunction(mesh, np.ones((3, 2)), np.ones(1))
    assert asm.assemble_convection(mesh, z.to_vector(), PARAMS_PR).matrix().nnz == 0
    assert asm.assemble_convection(mesh, z.to_vector(), PARAMS).matrix().nnz > 0


def test_convection_volume_term_against_quadrature():
    # kill all edge contributions with a continuous transport field and a
    # continuous interior test pair, then compare to direct integration
    mesh = build_unit_square_mesh(2)
    rng = np.random.default_rng(5)
    z = EGFunction(mesh, rng.standard_normal((mesh.num_vertices, 2)), np.zeros(mesh.num_triangles))
    u = EGFunction.zero(mesh)
    v = EGFunction.zero(mesh)
    centre = (mesh.num_vertices - 1) // 2  # vertex (0.5, 0.5) of the 2x2 grid
    assert np.allclose(mesh.vertices[centre], [0.5, 0.5])
    u.nodal[centre] = [1.0, -0.5]
    v.nodal[centre] = [0.25, 1.0]
    C = asm.assemble_convection(mesh, z.to_vector(), PARAMS)
    got = float(v.to_vector() @ (C @ u.to_vector()))

    rule = triangle_rule(6)
    acc = 0.0
    for t in range(mesh.num_triangles):
        pts = np.einsum("qk,ki->qi", rule.points, mesh.vertices[mesh.triangles[t]])
        Ju = u.jacobian(t)
        dz = z.divergence(t)
        for x, w in zip(pts, rule.weights):
            zv, uv, vv = z.value(t, x), u.value(t, x), v.value(t, x)
            acc += 2.0 * mesh.areas[t] * w * (float(vv @ (Ju @ zv)) + 0.5 * dz * float(uv @ vv))
    # continuous z: jump term zero; upwind pairs (u_int - u_ext) = 0 since
    # u is continuous and vanishes on the boundary
    assert got == pytest.approx(acc, rel=1e-12)


def convection_by_quadrature(z, u, v):
    """(volume, skew, upwind) parts of c(z; u, v), integrated point by point.

    z, u, v are EGFunction or BDMFunction; traces come from their value
    methods and oracles.jump_average, the inflow side from {z}.n at the same
    Gauss points the assembly uses.
    """
    mesh = z.mesh
    rule = triangle_rule(6)
    vol = 0.0
    for t in range(mesh.num_triangles):
        pts = np.einsum("qk,ki->qi", rule.points, mesh.vertices[mesh.triangles[t]])
        zq, uq, vq = z.value(t, pts), u.value(t, pts), v.value(t, pts)
        integrand = np.einsum("qi,ij,qj->q", vq, u.jacobian(t), zq)
        integrand += 0.5 * z.divergence(t) * np.einsum("qi,qi->q", uq, vq)
        vol += 2.0 * mesh.areas[t] * float(rule.weights @ integrand)
    erule = edge_rule(asm.EDGE_DEGREE)
    s, w = erule.points, erule.weights
    dot = lambda a, b: np.einsum("qi,qi->q", a, b)
    skew = upwind = 0.0
    for e in range(mesh.num_edges):
        nrm, h = mesh.edge_normal[e], mesh.edge_length[e]
        x = edge_points(mesh, e, s)
        z_jump, z_avg = jump_average(z, e, s)
        zeta = z_avg @ nrm
        tp, tm = int(mesh.edge_tplus[e]), int(mesh.edge_tminus[e])
        up, vp = u.value(tp, x), v.value(tp, x)
        if tm < 0:
            uv_avg = dot(up, vp)
            inflow = np.maximum(-zeta, 0.0) * dot(up, vp)  # exterior data is not a matrix term
        else:
            um, vm = u.value(tm, x), v.value(tm, x)
            uv_avg = 0.5 * (dot(up, vp) + dot(um, vm))
            inflow = np.maximum(-zeta, 0.0) * dot(up - um, vp) + np.maximum(zeta, 0.0) * dot(um - up, vm)
        skew -= 0.5 * h * float(w @ ((z_jump @ nrm) * uv_avg))
        upwind += h * float(w @ inflow)
    return vol, skew, upwind


@pytest.mark.parametrize("robust", [False, True])
def test_convection_form_against_pointwise_quadrature(robust):
    # every term of c(z; u, v) with discontinuous z (random bubbles) on a
    # mesh without structured symmetry; the robust form acts on R z, R u, R v,
    # whose normal trace is continuous, so its skew term vanishes
    mesh = perturbed_mesh(3, seed=8)
    z, u, v = random_eg(mesh, 61), random_eg(mesh, 62), random_eg(mesh, 63)
    C = asm.assemble_convection(mesh, z.to_vector(), PARAMS_PR if robust else PARAMS)
    got = float(v.to_vector() @ (C @ u.to_vector()))
    if robust:
        z, u, v = reconstruct(z), reconstruct(u), reconstruct(v)
    vol, skew, upwind = convection_by_quadrature(z, u, v)
    scale = abs(vol) + abs(skew) + abs(upwind)
    assert abs(vol) > 1e-2 * scale and abs(upwind) > 1e-2 * scale
    if robust:
        assert abs(skew) <= 1e-12 * scale
    else:
        assert abs(skew) > 1e-2 * scale
    assert got == pytest.approx(vol + skew + upwind, abs=1e-12 * scale)


def test_convection_upwind_switches_with_flow_direction():
    # constant rightward transport: the downwind triangle row sees the
    # upstream trial dof, the upstream row does not see the downwind one
    mesh = build_unit_square_mesh(1)
    nodal = np.tile([1.0, 0.0], (mesh.num_vertices, 1))
    z = EGFunction(mesh, nodal, np.zeros(mesh.num_triangles))
    C = asm.assemble_convection(mesh, z.to_vector(), PARAMS).matrix().toarray()
    e = mesh.interior_edge_ids[0]
    tp, tm = mesh.edge_tplus[e], mesh.edge_tminus[e]
    zeta = float(nodal[0] @ mesh.edge_normal[e])
    assert zeta != 0.0
    up, down = (tp, tm) if zeta > 0 else (tm, tp)
    b_up, b_down = bubble_dof(mesh.num_vertices, up), bubble_dof(mesh.num_vertices, down)
    # decompose: the skew jump term is the only coupling symmetric in the
    # bubble pair, upwinding adds the one-way part
    one_way = C[b_down, b_up] - C[b_up, b_down]
    assert abs(one_way) > 1e-6


def test_pressure_robust_convection_is_reconstruction_sandwich():
    # C = R^T C_bdm(R z) R: a field that R maps to zero neither feels nor
    # drives convection, in either slot or as the transport field
    mesh = build_unit_square_mesh(3)
    z = random_eg(mesh, 21)
    R = asm.discretization(mesh).reconstruction.toarray()
    _, sv, vt = np.linalg.svd(R)
    kernel = vt[np.sum(sv > 1e-10 * sv[0]) :]
    assert len(kernel) > 0
    C = asm.assemble_convection(mesh, z.to_vector(), PARAMS_PR).matrix().toarray()
    scale = np.abs(C).max()
    assert np.abs(C @ kernel.T).max() <= 1e-12 * scale
    assert np.abs(kernel @ C).max() <= 1e-12 * scale
    shifted = z.to_vector() + kernel[0]
    assert abs(asm.assemble_convection(mesh, shifted, PARAMS_PR).matrix().toarray() - C).max() <= 1e-12 * scale


@pytest.mark.parametrize("robust", [False, True])
def test_convection_operator_applies_its_assembled_matrix(robust):
    # C @ u runs P^T (C_s (P u)) without assembling C; matrix() is the CSR a factorization reads
    mesh = perturbed_mesh(6, seed=12)
    C = asm.assemble_convection(mesh, random_eg(mesh, 17).to_vector(), PARAMS_PR if robust else PARAMS)
    M = C.matrix()
    for seed in (18, 19):
        u = random_eg(mesh, seed).to_vector()
        assert np.abs(C @ u - M @ u).max() <= 1e-14 * (abs(M) @ np.abs(u)).max()


# -- right-hand sides -----------------------------------------------------


def test_load_of_constant_force_hits_only_nodal_dofs():
    mesh = build_unit_square_mesh(2)
    F = asm.assemble_load(mesh, lambda x: np.broadcast_to([3.0, -2.0], x.shape), PARAMS)
    # bubbles integrate to zero against constants
    assert np.abs(F[2 * mesh.num_vertices :]).max() <= 1e-14
    for v in range(mesh.num_vertices):
        support = sum(mesh.areas[t] / 3.0 for t in range(mesh.num_triangles) if v in mesh.triangles[t])
        assert F[vertex_dof(v, 0)] == pytest.approx(3.0 * support, rel=1e-12)
        assert F[vertex_dof(v, 1)] == pytest.approx(-2.0 * support, rel=1e-12)


def test_robust_load_sees_gradient_forces_through_divergence():
    # f = grad(phi): integration by parts against the flux-preserving
    # reconstruction leaves only -(phi, div Rv); the plain load does not
    # have this property, which is the point of the variant
    mesh = build_unit_square_mesh(4)
    phi = lambda x: x[..., 0] + 2.0 * x[..., 1]
    grad_phi = lambda x: np.broadcast_to([1.0, 2.0], x.shape)
    F = asm.assemble_load(mesh, grad_phi, PARAMS_PR)
    R = asm.discretization(mesh).reconstruction
    rule = triangle_rule(6)
    for seed in range(5):
        v = random_eg(mesh, 900 + seed)
        rv = R @ v.to_vector()
        div = bdm_divergence_matrix(mesh) @ rv / mesh.areas
        acc = 0.0
        for t in range(mesh.num_triangles):
            pts = np.einsum("qk,ki->qi", rule.points, mesh.vertices[mesh.triangles[t]])
            acc -= 2.0 * mesh.areas[t] * div[t] * float(rule.weights @ phi(pts))
        assert float(F @ v.to_vector()) == pytest.approx(acc, rel=1e-10)


def test_robust_load_via_mass_matrix_for_affine_force():
    mesh = build_unit_square_mesh(4)
    f = lambda x: np.stack(
        [1.0 + 2.0 * x[..., 0] - x[..., 1], 0.5 - x[..., 0] + 3.0 * x[..., 1]], axis=-1
    )
    F = asm.assemble_load(mesh, f, PARAMS_PR)
    coeff = f(mesh.vertices[mesh.triangles]).reshape(-1)
    ref = asm.discretization(mesh).reconstruction.T @ (bdm_mass_matrix(mesh) @ coeff)
    assert np.allclose(F, ref, atol=1e-13)


def test_convective_boundary_load_constant_data():
    mesh = build_unit_square_mesh(2)
    zc = np.array([0.3, -0.8])
    z = EGFunction(mesh, np.tile(zc, (mesh.num_vertices, 1)), np.zeros(mesh.num_triangles))
    g = np.tile([2.0, 1.0], (mesh.num_vertices, 1))
    F = asm.convective_boundary_load(mesh, z.to_vector(), g, PARAMS)
    # pair against the constant test field: sum_e relu(-z.n) h (g . 1); the
    # flux-average part -1/2 (g.n)(g . 1) sums to zero over a closed boundary
    # when g is constant
    ones = EGFunction(mesh, np.tile([1.0, 1.0], (mesh.num_vertices, 1)), np.zeros(mesh.num_triangles))
    expect = 0.0
    for e in mesh.boundary_edge_ids:
        w_in = max(-float(zc @ mesh.edge_normal[e]), 0.0)
        expect += w_in * mesh.edge_length[e] * float(g[0] @ [1.0, 1.0])
    assert float(F @ ones.to_vector()) == pytest.approx(expect, rel=1e-12)
    # robust mode has no boundary convection terms at all
    assert np.abs(asm.convective_boundary_load(mesh, z.to_vector(), g, PARAMS_PR)).max() == 0.0


@pytest.mark.parametrize("make_mesh", [lambda: build_unit_square_mesh(2), lambda: perturbed_mesh(4, seed=6)])
def test_convective_boundary_load_matches_edgewise_quadrature(make_mesh):
    mesh = make_mesh()
    rng = np.random.default_rng(41)
    z = random_eg(mesh, 14)
    g = rng.standard_normal((mesh.num_vertices, 2))
    F = asm.convective_boundary_load(mesh, z.to_vector(), g, PARAMS)
    v = random_eg(mesh, 15)
    # reference: quadrature of the two data terms edge by edge; the inflow
    # indicator is defined pointwise at the assembly's quadrature nodes, so
    # the same rule must be used wherever z.n changes sign inside an edge
    rule = edge_rule(asm.EDGE_DEGREE)
    s, w = rule.points, rule.weights
    expect = 0.0
    for e in mesh.boundary_edge_ids:
        a, b = mesh.edge_vertices[e]
        x = np.outer(1.0 - s, mesh.vertices[a]) + np.outer(s, mesh.vertices[b])
        n = mesh.edge_normal[e]
        t = mesh.edge_tplus[e]
        zq = np.array([z.value(t, xi) for xi in x])
        vq = np.array([v.value(t, xi) for xi in x])
        gq = np.outer(1.0 - s, g[a]) + np.outer(s, g[b])
        w_in = np.maximum(-(zq @ n), 0.0)
        expect += mesh.edge_length[e] * float(
            w @ ((w_in - 0.5 * (gq @ n)) * np.einsum("qi,qi->q", gq, vq))
        )
    assert float(F @ v.to_vector()) == pytest.approx(expect, rel=1e-12)


def test_sipg_boundary_load_matches_edgewise_quadrature():
    # rho/h <g, v> - <(grad v) n, g> over the boundary edges, paired with a
    # discontinuous test field through EGFunction.value / jacobian one edge
    # at a time, with g the P1 interpolant of random nodal data
    mesh = perturbed_mesh(6, seed=21)
    g = np.random.default_rng(22).standard_normal((mesh.num_vertices, 2))
    v = random_eg(mesh, 23)
    F = asm.sipg_boundary_load(mesh, g, PARAMS)
    rule = edge_rule(asm.EDGE_DEGREE)
    s, w = rule.points, rule.weights
    pen = cons = 0.0
    for e in mesh.boundary_edge_ids:
        a, b = mesh.edge_vertices[e]
        t, h, n = int(mesh.edge_tplus[e]), mesh.edge_length[e], mesh.edge_normal[e]
        gq = np.outer(1.0 - s, g[a]) + np.outer(s, g[b])
        vq = v.value(t, edge_points(mesh, e, s))
        pen += PARAMS.penalty * float(w @ np.einsum("qi,qi->q", gq, vq))  # h^-1 cancels the edge length
        cons -= h * float(w @ (gq @ (v.jacobian(t) @ n)))
    assert min(abs(pen), abs(cons)) > 1e-3 * (abs(pen) + abs(cons))
    assert float(F @ v.to_vector()) == pytest.approx(pen + cons, rel=1e-12)


# -- boundary data and the saddle system ----------------------------------


def test_lid_values_cover_boundary_and_prefer_lid_at_corners():
    # one row per vertex: the lid velocity on the top side, its corners included, and zero elsewhere
    mesh = build_unit_square_mesh(4)
    g = asm.lid_values(mesh)
    assert isinstance(g, np.ndarray) and g.shape == (mesh.num_vertices, 2) and g.dtype == float
    lid = np.abs(mesh.vertices[:, 1] - 1.0) < 1e-12
    assert lid.sum() == 5
    assert np.all(g[lid] == (1.0, 0.0))
    assert np.all(g[~lid] == 0.0)


def test_lid_values_find_the_lid_of_a_scaled_square():
    # the lid is the mesh's top side and its corners the ends of that side,
    # also on a square that is not the unit one
    base = build_unit_square_mesh(4)
    mesh = MeshTopology(2.5 * base.vertices - 0.5, base.triangles)
    x, y = mesh.vertices.T
    top = np.flatnonzero(y == 2.0)
    corners = top[(x[top] == -0.5) | (x[top] == 2.0)]
    assert len(top) == 5 and len(corners) == 2
    for leaky in (True, False):
        g = asm.lid_values(mesh, leaky_corners=leaky)
        assert g.shape == (mesh.num_vertices, 2)
        lid = top if leaky else np.setdiff1d(top, corners)
        assert np.array_equal(np.flatnonzero(np.all(g == asm.LID_VELOCITY, axis=1)), lid)
        assert not np.delete(g, lid, axis=0).any()


def test_dirichlet_data_rejects_interior_vertex():
    mesh = build_unit_square_mesh(2)
    centre = 4  # vertex (0.5, 0.5)
    assert not mesh.is_boundary_vertex[centre]
    g = np.zeros((mesh.num_vertices, 2))
    g[centre] = (1.0, 0.0)
    with pytest.raises(ValueError, match=r"off the boundary: \[4\]"):
        asm.dirichlet_data(mesh, g)
    # one row too few or too many: there is no vertex outside the mesh to name
    for rows in (mesh.num_vertices - 1, mesh.num_vertices + 1):
        with pytest.raises(ValueError, match=r"shape \(9, 2\)"):
            asm.dirichlet_data(mesh, np.zeros((rows, 2)))


def _nodal_with(mesh, vertex, value):
    g = np.zeros((mesh.num_vertices, 2))
    g[vertex] = value
    return g


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda mesh: 5.0, "shape"),  # a scalar is not broadcast
        (lambda mesh: [(0.0, 0.0), 5.0] + [(0.0, 0.0)] * (mesh.num_vertices - 2), "shape"),  # a scalar row
        (lambda mesh: np.ones((mesh.num_vertices, 1)), "shape"),
        (lambda mesh: np.ones(mesh.num_vertices), "shape"),
        (lambda mesh: {1: (1.0, 0.0)}, "shape"),  # the vertex-keyed form
        (lambda mesh: np.zeros((mesh.num_vertices, 2), dtype=complex), "shape"),
        (lambda mesh: _nodal_with(mesh, 1, (np.nan, 0.0)), "finite"),
        (lambda mesh: _nodal_with(mesh, 1, (0.0, np.inf)), "finite"),
    ],
    ids=["scalar", "scalar-row", "column", "vector", "dict", "complex", "nan", "inf"],
)
def test_dirichlet_data_takes_only_a_finite_nodal_array(make, message):
    mesh = build_unit_square_mesh(2)  # 9 vertices, vertex 1 on the bottom side
    with pytest.raises(ValueError, match=r"shape \(9, 2\)" if message == "shape" else message):
        asm.dirichlet_data(mesh, make(mesh))


def test_dirichlet_data_returns_a_float_copy():
    mesh = build_unit_square_mesh(2)
    g = np.zeros((mesh.num_vertices, 2), dtype=int)
    g[1] = (2, -1)
    nodal = asm.dirichlet_data(mesh, g)
    assert nodal.dtype == float and np.array_equal(nodal, g)
    nodal[1] = 0.0
    assert g[1].tolist() == [2, -1]
    assert np.array_equal(asm.dirichlet_data(mesh, None), np.zeros((mesh.num_vertices, 2)))


@pytest.mark.parametrize("name", ["viscosity", "penalty"])
@pytest.mark.parametrize("value", [0.0, -1.0, np.nan, np.inf, pytest.param(10**400, id="int-past-float-range")])
def test_form_params_reject_a_non_positive_or_non_finite_coefficient(name, value):
    with pytest.raises(ValueError, match=f"{name} must be positive and finite"):
        FormParams(**{name: value})


def test_saddle_system_shape_and_block_structure():
    # every velocity dof but the boundary nodal ones is free; pressure cell 0
    # is pinned, so its column is dropped and its continuity row moves aside
    mesh = build_unit_square_mesh(2)
    nv, npr = n_velocity(mesh), mesh.num_triangles
    C = asm.assemble_convection(mesh, np.zeros(nv), PARAMS)
    F = np.zeros(nv)
    sysm = asm.build_saddle_system(mesh, PARAMS, C, F, asm.dirichlet_data(mesh, None), np.zeros(npr))
    free = free_velocity_dofs(mesh)
    nf = len(free)
    assert sysm.matrix.shape == (nf + npr - 1, nf + npr - 1)
    assert np.array_equal(sysm.blocks.free, free)
    M = sysm.matrix.toarray()
    A = asm.assemble_viscous(mesh, PARAMS).toarray()[np.ix_(free, free)]
    B = asm.assemble_divergence(mesh).toarray()[:, free]
    assert np.allclose(M[:nf, :nf], A)
    assert np.allclose(M[nf:, :nf], B[1:])
    assert np.allclose(M[:nf, nf:], -B[1:].T)
    assert np.all(M[nf:, nf:] == 0.0)
    pinned = sysm.blocks.pinned_row.toarray()[0]
    assert np.allclose(pinned[:nf], B[0])
    assert np.all(pinned[nf:] == 0.0)


@pytest.mark.parametrize(
    "make_mesh", [lambda: build_unit_square_mesh(4), lambda: perturbed_mesh(4, seed=6)], ids=["square", "perturbed"]
)
def test_dirichlet_dofs_are_the_boundary_nodal_dofs(make_mesh):
    # the constrained dofs depend on the mesh alone: both velocity components
    # of every boundary vertex, ascending, and the free dofs are the rest
    mesh = make_mesh()
    blocks = asm.discretization(mesh).saddle_blocks(PARAMS)
    bverts = np.flatnonzero(mesh.is_boundary_vertex)
    assert np.array_equal(blocks.dirichlet_dofs, np.sort(np.concatenate([2 * bverts, 2 * bverts + 1])))
    assert np.array_equal(np.sort(np.concatenate([blocks.dirichlet_dofs, blocks.free])), np.arange(n_velocity(mesh)))


def test_zero_transport_field_factors_the_fixed_blocks_themselves():
    # a zero transport field has a convection C_s without entries, so a zero
    # iterate's step passes no convection at all, and its saddle matrix is
    # the kept fixed blocks, not an assembled copy
    mesh = build_unit_square_mesh(8)
    C = asm.assemble_convection(mesh, np.zeros(n_velocity(mesh)), PARAMS_PR)
    assert C.scalar.nnz == 0
    sysm = asm.build_saddle_system(
        mesh, PARAMS_PR, None, np.zeros(n_velocity(mesh)), asm.dirichlet_data(mesh, None), np.zeros(mesh.num_triangles)
    )
    assert sysm.matrix is sysm.blocks.matrix


def test_saddle_system_is_nonsingular_with_dirichlet_rows():
    # the reduced system, with the Dirichlet rows and columns eliminated, is
    # nonsingular, and stays so with convection switched on
    mesh = build_unit_square_mesh(2)
    nv = n_velocity(mesh)
    g = asm.dirichlet_data(mesh, None)
    for z in (np.zeros(nv), random_eg(mesh, 31).to_vector()):
        C = asm.assemble_convection(mesh, z, PARAMS)
        sysm = asm.build_saddle_system(mesh, PARAMS, C, np.zeros(nv), g, np.zeros(mesh.num_triangles))
        assert sysm.matrix.shape[0] == nv - len(sysm.blocks.dirichlet_dofs) + mesh.num_triangles - 1
        sv = np.linalg.svd(sysm.matrix.toarray(), compute_uv=False)
        assert sv.min() > 1e-8


def test_condensation_keeps_boundary_values_exactly():
    mesh = build_unit_square_mesh(2)
    g = asm.lid_values(mesh)
    nodal = asm.dirichlet_data(mesh, g)
    z = random_eg(mesh, 77)
    C = asm.assemble_convection(mesh, z.to_vector(), PARAMS)
    F = asm.assemble_load(mesh, lambda x: np.stack([x[..., 1], -x[..., 0]], axis=-1), PARAMS)
    F = F + asm.convective_boundary_load(mesh, z.to_vector(), nodal, PARAMS)
    sysm = asm.build_saddle_system(mesh, PARAMS, C, F, nodal, np.zeros(mesh.num_triangles))
    dofs = sysm.blocks.dirichlet_dofs
    assert not np.isin(sysm.blocks.free, dofs).any()
    u, p = sysm.expand(spla.spsolve(sysm.matrix.tocsc(), sysm.rhs))
    assert np.abs(u[dofs] - nodal.ravel()[dofs]).max() == 0.0
    bverts = np.flatnonzero(mesh.is_boundary_vertex)
    assert np.abs(EGFunction.from_vector(mesh, u).nodal[bverts] - g[bverts]).max() == 0.0
    assert float(mesh.areas @ p) == pytest.approx(0.0, abs=1e-12)


def test_condensation_equals_manual_reduction():
    # eliminate Dirichlet rows/columns and the pinned pressure by hand on
    # the dense full system and compare matrix, right-hand side and solution
    mesh = build_unit_square_mesh(2)
    nodal = asm.dirichlet_data(mesh, asm.lid_values(mesh))
    dofs = np.setdiff1d(np.arange(n_velocity(mesh)), free_velocity_dofs(mesh))
    values = nodal.ravel()[dofs]
    z = random_eg(mesh, 55)
    C = asm.assemble_convection(mesh, z.to_vector(), PARAMS)
    F = asm.assemble_load(mesh, lambda x: np.stack([x[..., 1], x[..., 0] ** 2], axis=-1), PARAMS)
    cont = asm.divergence_boundary_load(mesh, nodal)
    A = asm.assemble_viscous(mesh, PARAMS).toarray()
    B = asm.assemble_divergence(mesh).toarray()
    nv, npr = n_velocity(mesh), mesh.num_triangles
    full = np.block([[A + C.matrix().toarray(), -B.T], [B, np.zeros((npr, npr))]])
    b = np.concatenate([F, cont])
    x_full = np.zeros(nv + npr)
    x_full[dofs] = values
    free_u = np.setdiff1d(np.arange(nv), dofs)
    unknowns = np.concatenate([free_u, nv + np.arange(1, npr)])
    rows = np.concatenate([unknowns, [nv]])  # the pinned cell's continuity row last
    M = full[np.ix_(rows, unknowns)]
    r = b[rows] - full[np.ix_(rows, dofs)] @ values

    sysm = asm.build_saddle_system(mesh, PARAMS, C, F, nodal, cont)
    assert np.allclose(sysm.matrix.toarray(), M[:-1], atol=1e-14)
    assert np.allclose(sysm.blocks.pinned_row.toarray()[0], M[-1], atol=1e-14)
    assert np.allclose(sysm.rhs, r[:-1], atol=1e-14)
    assert sysm.pinned_rhs == pytest.approx(r[-1], abs=1e-14)

    x_full[unknowns] = np.linalg.solve(M[:-1], r[:-1])
    x_full[nv:] -= (mesh.areas @ x_full[nv:]) / mesh.areas.sum()
    u, p = sysm.expand(spla.spsolve(sysm.matrix.tocsc(), sysm.rhs))
    assert np.allclose(np.concatenate([u, p]), x_full, atol=1e-10)
    # the lid data carries no net flux, so the pinned row holds as well
    assert abs(M[-1] @ x_full[unknowns] - r[-1]) <= 1e-12


@pytest.mark.parametrize("robust", [False, True])
def test_saddle_system_applies_and_lifts_through_the_convection_operator(robust):
    # the step's saddle system keeps C as an operator: its apply is the
    # assembled matrix's product, and the data lift is C's Dirichlet columns
    mesh = perturbed_mesh(6, seed=14)
    params = PARAMS_PR if robust else PARAMS
    nodal = asm.dirichlet_data(mesh, asm.lid_values(mesh))
    C = asm.assemble_convection(mesh, random_eg(mesh, 15).to_vector(), params)
    F = asm.assemble_load(mesh, lambda x: np.stack([x[..., 1], -x[..., 0]], axis=-1), params)
    cont = asm.divergence_boundary_load(mesh, nodal)
    sysm = asm.build_saddle_system(mesh, params, C, F, nodal, cont)
    stokes = asm.build_saddle_system(mesh, params, None, F, nodal, cont)
    free, dofs = sysm.blocks.free, sysm.blocks.dirichlet_dofs
    lift = stokes.rhs[sysm.velocity] - sysm.rhs[sysm.velocity]
    want = C.matrix()[free][:, dofs] @ nodal.ravel()[dofs]
    assert np.abs(want).max() > 0.0
    assert np.abs(lift - want).max() <= 1e-14 * np.abs(F).max()
    assert np.array_equal(sysm.rhs[sysm.pressure], stokes.rhs[sysm.pressure])
    x = np.random.default_rng(16).standard_normal(sysm.blocks.matrix.shape[0])
    got = sysm.apply(x)
    assert "matrix" not in vars(sysm)  # apply assembled nothing
    assert np.abs(got - sysm.matrix @ x).max() <= 1e-14 * (abs(sysm.matrix) @ np.abs(x)).max()
    assert np.array_equal(stokes.apply(x), stokes.matrix @ x)


def test_saddle_fixed_blocks_are_built_once_per_key(monkeypatch):
    # the mesh keeps the blocks no Picard step changes for the last
    # (viscosity, penalty) asked for: the steps of one key share one blocks
    # object, whatever the scheme or the Dirichlet data, and each change of
    # key builds anew.  A step on a mesh that holds them builds the same
    # system, bit for bit, as the first step on a fresh mesh
    builds = []
    real_blocks = asm._SaddleBlocks

    def counted_blocks(mesh, params):
        builds.append(mesh)
        return real_blocks(mesh, params)

    monkeypatch.setattr(asm, "_SaddleBlocks", counted_blocks)
    mesh = build_unit_square_mesh(3)
    leaky, watertight = (asm.dirichlet_data(mesh, asm.lid_values(mesh, corners)) for corners in (True, False))
    cases = [
        (FormParams(viscosity=1.0, penalty=10.0), leaky),
        # the fixed blocks depend on neither the scheme nor the data: these share the first key's
        (FormParams(viscosity=1.0, penalty=10.0, pressure_robust=True), leaky),
        (FormParams(viscosity=1.0, penalty=10.0), watertight),
        (FormParams(viscosity=1e-2, penalty=10.0), leaky),
        (FormParams(viscosity=1.0, penalty=20.0), leaky),
    ]
    for _ in range(2):
        shared = []
        for params, nodal in cases:
            cont = asm.divergence_boundary_load(mesh, nodal)
            for seed in (41, 42):
                C = asm.assemble_convection(mesh, random_eg(mesh, seed).to_vector(), params)
                F = asm.assemble_load(mesh, lambda x: np.stack([x[..., 1], -x[..., 0]], axis=-1), params)
                got = asm.build_saddle_system(mesh, params, C, F, nodal, cont)
                want = asm.build_saddle_system(build_unit_square_mesh(3), params, C, F, nodal, cont)
                shared.append(got.blocks)
                pinned_rows = (got.blocks.pinned_row, want.blocks.pinned_row)
                for m_got, m_want in ((got.matrix, want.matrix), pinned_rows):
                    for part in ("indptr", "indices", "data"):
                        assert getattr(m_got, part).tobytes() == getattr(m_want, part).tobytes()
                assert got.rhs.tobytes() == want.rhs.tobytes() and got.pinned_rhs == want.pinned_rhs
        assert all(blocks is shared[0] for blocks in shared[:6])
        assert shared[6] is shared[7] and shared[8] is shared[9]
    # keys 1, 2 and 3 in each of the two rounds
    assert sum(built is mesh for built in builds) == 6


def test_gradient_force_produces_no_flow_in_robust_stokes():
    # for f = grad(phi) the exact Stokes velocity is zero with pressure phi;
    # the reconstructed load makes the discrete velocity exactly zero and
    # the pressure the cellwise mean of phi, while the plain scheme leaks
    # the gradient into the velocity
    mesh = build_unit_square_mesh(4)
    phi = lambda x: np.sin(x[..., 0] + 2.0 * x[..., 1])
    grad_phi = lambda x: np.stack([np.cos(x[..., 0] + 2.0 * x[..., 1]),
                                   2.0 * np.cos(x[..., 0] + 2.0 * x[..., 1])], axis=-1)
    g = asm.dirichlet_data(mesh, None)
    results = {}
    for params in (PARAMS, PARAMS_PR):
        C = asm.assemble_convection(mesh, np.zeros(n_velocity(mesh)), params)
        F = asm.assemble_load(mesh, grad_phi, params)
        sysm = asm.build_saddle_system(mesh, params, C, F, g, np.zeros(mesh.num_triangles))
        results[params.pressure_robust] = sysm.expand(spla.spsolve(sysm.matrix.tocsc(), sysm.rhs))

    u_pr, p_pr = results[True]
    assert np.abs(u_pr).max() <= 1e-12

    p_exact = project_pressure(mesh, phi)
    p_exact = p_exact - float(mesh.areas @ p_exact)
    assert np.allclose(p_pr, p_exact, atol=1e-11)

    u_eg, _ = results[False]
    assert np.abs(u_eg).max() > 1e-4  # the plain scheme cannot stay at rest


def test_inf_sup_constant_does_not_collapse_under_refinement():
    beta = []
    for n in (2, 4, 8):
        mesh = build_unit_square_mesh(n)
        free = free_velocity_dofs(mesh)
        E = assemble_energy_gram(mesh, penalty=10.0).toarray()[np.ix_(free, free)]
        B = asm.assemble_divergence(mesh).toarray()[:, free]
        S = B @ np.linalg.solve(E, B.T)
        w = 1.0 / np.sqrt(mesh.areas)
        eigs = np.linalg.eigvalsh(w[:, None] * S * w[None, :])
        assert eigs[0] < 1e-10  # constants are in the kernel
        beta.append(np.sqrt(max(eigs[1], 0.0)))
    assert beta[2] > 0.5 * beta[0]
    assert beta[2] > 0.05


def test_cached_operators_belong_to_their_mesh():
    # same n and topology, moved interior vertices: nothing may be shared
    base, moved = build_unit_square_mesh(4), perturbed_mesh(4, seed=3)
    for mesh in (base, moved):
        asm.assemble_convection(mesh, random_eg(mesh, 71).to_vector(), PARAMS_PR)
        # E, the one definition of an enriched field's vertex values, is the exact P1 embedding
        E, want = asm.discretization(mesh).embedding, local_p1_embedding(mesh)
        assert E.nnz == want.nnz and abs(E - want).max() == 0.0
        z = random_eg(mesh, 61)
        assert np.abs(asm.vertex_values(mesh, z.to_vector()) - (want @ z.to_vector()).reshape(-1, 3, 2)).max() <= 1e-15
    disc_b, disc_m = asm.discretization(base), asm.discretization(moved)
    assert disc_b is not disc_m and asm.discretization(base) is disc_b
    blocks_b, blocks_m = (disc.saddle_blocks(PARAMS) for disc in (disc_b, disc_m))
    dofs = blocks_m.dirichlet_dofs
    assert abs(disc_b.reconstruction - disc_m.reconstruction).max() > 1e-3
    assert abs(blocks_b.matrix - blocks_m.matrix).max() > 1e-3
    R = reconstruction_matrix(moved, asm._embedding_matrix(moved))
    assert abs(disc_m.reconstruction - R).max() == 0.0
    # the blocks hold the moved mesh's own A and B, restricted to the free unknowns
    A, B = asm.assemble_viscous(moved, PARAMS), asm.assemble_divergence(moved)
    free = blocks_m.free
    assert abs(blocks_m.matrix[: len(free), : len(free)] - A[free][:, free]).max() == 0.0
    assert abs(blocks_m.matrix[len(free) :, : len(free)] - B[1:, free]).max() == 0.0
    assert abs(blocks_m.viscous_lift - A[free][:, dofs]).max() == 0.0
    assert abs(blocks_m.divergence_lift - B[:, dofs]).max() == 0.0
    # a different penalty builds its own A, not the kept one
    other = disc_m.saddle_blocks(FormParams(penalty=20.0))
    A_20 = asm.assemble_viscous(moved, FormParams(penalty=20.0))
    assert abs(other.matrix[: len(free), : len(free)] - A_20[free][:, free]).max() == 0.0
    assert abs(other.matrix - blocks_m.matrix).max() > 0.1


@pytest.mark.parametrize("mesh", [build_unit_square_mesh(8), perturbed_mesh(8, seed=5)], ids=["unit", "perturbed"])
@pytest.mark.parametrize("robust", [False, True])
@pytest.mark.parametrize("viscosity, penalty", [(1.0, 10.0), (1e-3, 7.0)])
def test_saddle_blocks_match_bmat_bitwise(mesh, robust, viscosity, penalty):
    # mu A scaled in place and the CSR stacking keep every stored array of
    # the blocks that sp.bmat of a scaled copy of A stacked
    params = FormParams(viscosity=viscosity, penalty=penalty, pressure_robust=robust)
    blocks, want = asm._SaddleBlocks(mesh, params), saddle_blocks_by_bmat(mesh, params)
    for name in ("matrix", "viscous_lift", "divergence_lift", "pinned_row"):
        got, ref = getattr(blocks, name), getattr(want, name)
        assert got.shape == ref.shape, name
        for part in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(got, part), getattr(ref, part)), (name, part)


def test_saddle_blocks_stay_small_in_memory():
    # A is scaled in place and dropped once its free rows are taken, and the
    # matrix is stacked from CSR pieces; a scaled copy of A next to A and
    # sp.bmat's COO copies of the four blocks peaked at 25.8 MB here
    mesh = build_unit_square_mesh(64)
    disc = asm.discretization(mesh)
    disc.embedding, disc.scalar_p1
    assert traced_peak(asm._SaddleBlocks, mesh, PARAMS) <= 21e6


@pytest.mark.parametrize("robust", [False, True])
def test_first_convection_stays_small_in_memory(robust):
    # both modes assemble P_c^T C_s P_c summed over the two components, with
    # C_s one scalar matrix of 3 dofs per cell; a vector operator on the
    # 6-dof reconstructed or 7-dof enriched basis would carry its structural
    # zeros through the pattern build and every step
    mesh = build_unit_square_mesh(32)
    asm.discretization(mesh).reconstruction
    z = random_eg(mesh, 91)
    params = PARAMS_PR if robust else PARAMS
    assert traced_peak(lambda: asm.assemble_convection(mesh, z.to_vector(), params).matrix()) <= 8e6


def test_first_viscous_assembly_stays_small_in_memory():
    # SIPG acts componentwise on fields affine per triangle, so A is built
    # from one scalar DG-P1 matrix read through E; local blocks on the 7-dof
    # enriched basis would scatter millions of entries
    mesh = build_unit_square_mesh(32)
    asm.discretization(mesh).embedding
    assert traced_peak(asm.assemble_viscous, mesh, PARAMS) <= 8e6


def test_first_boundary_load_stays_small_in_memory():
    # the weak Dirichlet terms are E^T of a scalar load on the boundary-edge
    # hats; enriched basis traces of the edges would be built and kept on the mesh
    mesh = build_unit_square_mesh(64)
    disc = asm.discretization(mesh)
    disc.embedding, disc.scalar_p1
    g = asm.dirichlet_data(mesh, asm.lid_values(mesh))
    assert traced_peak(asm.sipg_boundary_load, mesh, g, PARAMS) <= 2e6


def test_repeated_convection_builds_mesh_data_once(monkeypatch):
    builds = {"R": 0, "E": 0, "patterns": 0}
    real_R, real_E, real_pattern = asm.reconstruction_matrix, asm._embedding_matrix, asm._Pattern

    def counted_R(mesh, E):
        builds["R"] += 1
        return real_R(mesh, E)

    def counted_E(mesh):
        builds["E"] += 1
        return real_E(mesh)

    def counted_pattern(n, dofmaps):
        builds["patterns"] += 1
        return real_pattern(n, dofmaps)

    monkeypatch.setattr(asm, "reconstruction_matrix", counted_R)
    monkeypatch.setattr(asm, "_embedding_matrix", counted_E)
    monkeypatch.setattr(asm, "_Pattern", counted_pattern)
    mesh = build_unit_square_mesh(3)
    first = asm.assemble_convection(mesh, random_eg(mesh, 81).to_vector(), PARAMS_PR)
    for seed in (82, 83):
        asm.assemble_convection(mesh, random_eg(mesh, seed).to_vector(), PARAMS_PR)
    # robust mode assembles on the scalar basis: its pattern, and R read through E, built once
    assert builds == {"R": 1, "E": 1, "patterns": 1}
    asm.assemble_convection(mesh, random_eg(mesh, 84).to_vector(), PARAMS)
    asm.assemble_convection(mesh, random_eg(mesh, 85).to_vector(), PARAMS)
    # standard mode reads the velocity through the same E and shares the
    # scalar pattern
    assert builds == {"R": 1, "E": 1, "patterns": 1}
    again = asm.assemble_convection(mesh, random_eg(mesh, 81).to_vector(), PARAMS_PR)
    assert abs(again.matrix() - first.matrix()).max() == 0.0


def test_assembly_is_deterministic():
    mesh = build_unit_square_mesh(4)
    z = random_eg(mesh, 13)

    def build():
        A = asm.assemble_viscous(mesh, PARAMS)
        C = asm.assemble_convection(mesh, z.to_vector(), PARAMS_PR).matrix()
        return A, C

    (A1, C1), (A2, C2) = build(), build()
    for m1, m2 in ((A1, A2), (C1, C2)):
        assert m1.indptr.tobytes() == m2.indptr.tobytes()
        assert m1.indices.tobytes() == m2.indices.tobytes()
        assert m1.data.tobytes() == m2.data.tobytes()
