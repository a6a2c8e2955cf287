"""Tests for the form assembly module.

Oracles used here:
  * the classical 5-point P1 stiffness stencil on the structured mesh,
    valid for the continuous nodal sub-basis where all jump terms vanish;
  * pointwise trace evaluation through spaces.jump_average, a separate
    code path from the vectorized edge batches;
  * the whole convection form integrated point by point through
    EGFunction.value / BDMFunction.value on a perturbed mesh;
  * the reconstruction operator: b(v, q) must equal (div Rv, q) exactly;
  * exact discrete residuals for a linear divergence-free flow.
"""

import numpy as np
import pytest
import scipy.sparse.linalg as spla

import egflow.assembly as asm
from egflow.assembly import FormParams
from egflow.mesh import MeshTopology, build_unit_square_mesh
from egflow.quadrature import edge_rule, triangle_rule
from egflow.reconstruction import (
    bdm_divergence_matrix,
    local_p1_embedding,
    bdm_mass_matrix,
    reconstruct,
    reconstruction_matrix,
)
from egflow.spaces import EGFunction, edge_points, jump_average, layout_for

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
    layout = layout_for(mesh)
    bverts = np.flatnonzero(mesh.is_boundary_vertex)
    fixed = set(np.concatenate([2 * bverts, 2 * bverts + 1]).tolist())
    return np.array([d for d in range(layout.n_velocity) if d not in fixed])


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
    E = asm.assemble_energy_gram(mesh, penalty=10.0)
    vec = v.to_vector()
    grad2 = sum(
        mesh.areas[t] * np.sum(v.jacobian(t) ** 2) for t in range(mesh.num_triangles)
    )
    assert float(vec @ (E @ vec)) == pytest.approx(grad2, rel=1e-12)


def test_energy_gram_penalizes_jumps():
    mesh = build_unit_square_mesh(2)
    v = EGFunction(mesh, np.zeros((mesh.num_vertices, 2)), np.ones(mesh.num_triangles))
    vec = v.to_vector()
    e10 = float(vec @ (asm.assemble_energy_gram(mesh, 10.0) @ vec))
    e0 = float(vec @ (asm.assemble_energy_gram(mesh, 0.0) @ vec))
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
    D = bdm_divergence_matrix(mesh) @ reconstruction_matrix(mesh)
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
    M = asm.assemble_mass(mesh)
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
        C = asm.assemble_convection(mesh, z, params)
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
        E = asm.assemble_energy_gram(mesh, penalty=10.0)
        energy = lambda w: np.sqrt(float(w.to_vector() @ (E @ w.to_vector())))
        mx = 0.0
        for seed in range(50):
            z = random_eg(mesh, 1000 + seed)
            u = random_eg(mesh, 2000 + seed)
            v = random_eg(mesh, 3000 + seed)
            C = asm.assemble_convection(mesh, z, params)
            val = abs(float(v.to_vector() @ (C @ u.to_vector())))
            mx = max(mx, val / (energy(z) * energy(u) * energy(v)))
        worst.append(mx)
    assert worst[0] < 0.1 and worst[1] < 0.1
    assert worst[1] <= 2.0 * worst[0]


def test_convection_vanishes_for_zero_transport():
    mesh = build_unit_square_mesh(3)
    C = asm.assemble_convection(mesh, EGFunction.zero(mesh), PARAMS)
    assert C.nnz == 0
    Cpr = asm.assemble_convection(mesh, EGFunction.zero(mesh), PARAMS_PR)
    assert Cpr.nnz == 0


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
    C = asm.assemble_convection(mesh, z, PARAMS)
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
    methods and spaces.jump_average, the inflow side from {z}.n at the same
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
    C = asm.assemble_convection(mesh, z, PARAMS_PR if robust else PARAMS)
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
    C = asm.assemble_convection(mesh, z, PARAMS).toarray()
    layout = layout_for(mesh)
    e = mesh.interior_edge_ids[0]
    tp, tm = mesh.edge_tplus[e], mesh.edge_tminus[e]
    zeta = float(nodal[0] @ mesh.edge_normal[e])
    assert zeta != 0.0
    up, down = (tp, tm) if zeta > 0 else (tm, tp)
    b_up, b_down = layout.bubble_dof(up), layout.bubble_dof(down)
    # decompose: the skew jump term is the only coupling symmetric in the
    # bubble pair, upwinding adds the one-way part
    one_way = C[b_down, b_up] - C[b_up, b_down]
    assert abs(one_way) > 1e-6


def test_pressure_robust_convection_is_reconstruction_sandwich():
    # C = R^T C_bdm(R z) R: a field that R maps to zero neither feels nor
    # drives convection, in either slot or as the transport field
    mesh = build_unit_square_mesh(3)
    z = random_eg(mesh, 21)
    R = reconstruction_matrix(mesh).toarray()
    _, sv, vt = np.linalg.svd(R)
    kernel = vt[np.sum(sv > 1e-10 * sv[0]) :]
    assert len(kernel) > 0
    C = asm.assemble_convection(mesh, z, PARAMS_PR).toarray()
    scale = np.abs(C).max()
    assert np.abs(C @ kernel.T).max() <= 1e-12 * scale
    assert np.abs(kernel @ C).max() <= 1e-12 * scale
    shifted = EGFunction.from_vector(mesh, z.to_vector() + kernel[0])
    assert abs(asm.assemble_convection(mesh, shifted, PARAMS_PR).toarray() - C).max() <= 1e-12 * scale


# -- right-hand sides -----------------------------------------------------


def test_load_of_constant_force_hits_only_nodal_dofs():
    mesh = build_unit_square_mesh(2)
    F = asm.assemble_load(mesh, lambda x: np.broadcast_to([3.0, -2.0], x.shape), PARAMS)
    layout = layout_for(mesh)
    # bubbles integrate to zero against constants
    assert np.abs(F[2 * mesh.num_vertices :]).max() <= 1e-14
    for v in range(mesh.num_vertices):
        support = sum(mesh.areas[t] / 3.0 for t in range(mesh.num_triangles) if v in mesh.triangles[t])
        assert F[layout.vertex_dof(v, 0)] == pytest.approx(3.0 * support, rel=1e-12)
        assert F[layout.vertex_dof(v, 1)] == pytest.approx(-2.0 * support, rel=1e-12)


def test_robust_load_sees_gradient_forces_through_divergence():
    # f = grad(phi): integration by parts against the flux-preserving
    # reconstruction leaves only -(phi, div Rv); the plain load does not
    # have this property, which is the point of the variant
    mesh = build_unit_square_mesh(4)
    phi = lambda x: x[..., 0] + 2.0 * x[..., 1]
    grad_phi = lambda x: np.broadcast_to([1.0, 2.0], x.shape)
    F = asm.assemble_load(mesh, grad_phi, PARAMS_PR)
    R = reconstruction_matrix(mesh)
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
    ref = reconstruction_matrix(mesh).T @ (bdm_mass_matrix(mesh) @ coeff)
    assert np.allclose(F, ref, atol=1e-13)


def test_convective_boundary_load_constant_data():
    mesh = build_unit_square_mesh(2)
    zc = np.array([0.3, -0.8])
    z = EGFunction(mesh, np.tile(zc, (mesh.num_vertices, 1)), np.zeros(mesh.num_triangles))
    g = np.tile([2.0, 1.0], (mesh.num_vertices, 1))
    F = asm.convective_boundary_load(mesh, z, g, PARAMS)
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
    assert np.abs(asm.convective_boundary_load(mesh, z, g, PARAMS_PR)).max() == 0.0


def test_convective_boundary_load_matches_edgewise_quadrature():
    mesh = build_unit_square_mesh(2)
    rng = np.random.default_rng(41)
    z = random_eg(mesh, 14)
    g = rng.standard_normal((mesh.num_vertices, 2))
    F = asm.convective_boundary_load(mesh, z, g, PARAMS)
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


# -- boundary data and the saddle system ----------------------------------


def test_lid_values_cover_boundary_and_prefer_lid_at_corners():
    mesh = build_unit_square_mesh(4)
    g = asm.lid_values(mesh)
    assert set(g) == set(np.flatnonzero(mesh.is_boundary_vertex).tolist())
    for v, val in g.items():
        if abs(mesh.vertices[v, 1] - 1.0) < 1e-12:
            assert val == (1.0, 0.0)
        else:
            assert val == (0.0, 0.0)


def test_dirichlet_data_rejects_interior_vertex():
    mesh = build_unit_square_mesh(2)
    centre = 4  # vertex (0.5, 0.5)
    assert not mesh.is_boundary_vertex[centre]
    with pytest.raises(ValueError):
        asm.dirichlet_data(mesh, {centre: (1.0, 0.0)})


def test_saddle_system_shape_and_block_structure():
    # without Dirichlet data every velocity dof is free; pressure cell 0 is
    # pinned, so its column is dropped and its continuity row moves aside
    mesh = build_unit_square_mesh(2)
    layout = layout_for(mesh)
    C = asm.assemble_convection(mesh, EGFunction.zero(mesh), PARAMS)
    F = np.zeros(layout.n_velocity)
    sysm = asm.build_saddle_system(mesh, PARAMS, C, F)
    nv, npr = layout.n_velocity, layout.n_pressure
    assert sysm.matrix.shape == (nv + npr - 1, nv + npr - 1)
    assert np.array_equal(sysm.free_velocity, np.arange(nv))
    M = sysm.matrix.toarray()
    A = asm.assemble_viscous(mesh, PARAMS).toarray()
    B = asm.assemble_divergence(mesh).toarray()
    assert np.allclose(M[:nv, :nv], A)
    assert np.allclose(M[nv:, :nv], B[1:])
    assert np.allclose(M[:nv, nv:], -B[1:].T)
    assert np.all(M[nv:, nv:] == 0.0)
    pinned = sysm.pinned_row.toarray()[0]
    assert np.allclose(pinned[:nv], B[0])
    assert np.all(pinned[nv:] == 0.0)


def test_saddle_system_is_nonsingular_with_dirichlet_rows():
    # the reduced system, with the Dirichlet rows and columns eliminated, is
    # nonsingular, and stays so with convection switched on
    mesh = build_unit_square_mesh(2)
    layout = layout_for(mesh)
    dofs, values, _ = asm.dirichlet_data(mesh, None)
    for z in (EGFunction.zero(mesh), random_eg(mesh, 31)):
        C = asm.assemble_convection(mesh, z, PARAMS)
        sysm = asm.build_saddle_system(mesh, PARAMS, C, np.zeros(layout.n_velocity), dirichlet=(dofs, values))
        assert sysm.matrix.shape[0] == layout.n_velocity - len(dofs) + layout.n_pressure - 1
        sv = np.linalg.svd(sysm.matrix.toarray(), compute_uv=False)
        assert sv.min() > 1e-8


def test_condensation_keeps_boundary_values_exactly():
    mesh = build_unit_square_mesh(2)
    g = asm.lid_values(mesh)
    dofs, values, nodal = asm.dirichlet_data(mesh, g)
    z = random_eg(mesh, 77)
    C = asm.assemble_convection(mesh, z, PARAMS)
    F = asm.assemble_load(mesh, lambda x: np.stack([x[..., 1], -x[..., 0]], axis=-1), PARAMS)
    F = F + asm.convective_boundary_load(mesh, z, nodal, PARAMS)
    sysm = asm.build_saddle_system(mesh, PARAMS, C, F, dirichlet=(dofs, values))
    assert not np.isin(sysm.free_velocity, dofs).any()
    u, p = sysm.expand(spla.spsolve(sysm.matrix.tocsc(), sysm.rhs))
    assert np.abs(u[dofs] - values).max() == 0.0
    assert float(mesh.areas @ p) == pytest.approx(0.0, abs=1e-12)


def test_condensation_equals_manual_reduction():
    # eliminate Dirichlet rows/columns and the pinned pressure by hand on
    # the dense full system and compare matrix, right-hand side and solution
    mesh = build_unit_square_mesh(2)
    layout = layout_for(mesh)
    g = asm.lid_values(mesh)
    dofs, values, nodal = asm.dirichlet_data(mesh, g)
    z = random_eg(mesh, 55)
    C = asm.assemble_convection(mesh, z, PARAMS)
    F = asm.assemble_load(mesh, lambda x: np.stack([x[..., 1], x[..., 0] ** 2], axis=-1), PARAMS)
    cont = asm.divergence_boundary_load(mesh, nodal)
    A = asm.assemble_viscous(mesh, PARAMS).toarray()
    B = asm.assemble_divergence(mesh).toarray()
    nv, npr = layout.n_velocity, layout.n_pressure
    full = np.block([[A + C.toarray(), -B.T], [B, np.zeros((npr, npr))]])
    b = np.concatenate([F, cont])
    x_full = np.zeros(nv + npr)
    x_full[dofs] = values
    free_u = np.setdiff1d(np.arange(nv), dofs)
    unknowns = np.concatenate([free_u, nv + np.arange(1, npr)])
    rows = np.concatenate([unknowns, [nv]])  # the pinned cell's continuity row last
    M = full[np.ix_(rows, unknowns)]
    r = b[rows] - full[np.ix_(rows, dofs)] @ values

    sysm = asm.build_saddle_system(mesh, PARAMS, C, F, dirichlet=(dofs, values), continuity_load=cont)
    assert np.allclose(sysm.matrix.toarray(), M[:-1], atol=1e-14)
    assert np.allclose(sysm.pinned_row.toarray()[0], M[-1], atol=1e-14)
    assert np.allclose(sysm.rhs, r[:-1], atol=1e-14)
    assert sysm.pinned_rhs == pytest.approx(r[-1], abs=1e-14)

    x_full[unknowns] = np.linalg.solve(M[:-1], r[:-1])
    x_full[nv:] -= (mesh.areas @ x_full[nv:]) / mesh.areas.sum()
    u, p = sysm.expand(spla.spsolve(sysm.matrix.tocsc(), sysm.rhs))
    assert np.allclose(np.concatenate([u, p]), x_full, atol=1e-10)
    # the lid data carries no net flux, so the pinned row holds as well
    assert abs(M[-1] @ x_full[unknowns] - r[-1]) <= 1e-12


def test_gradient_force_produces_no_flow_in_robust_stokes():
    # for f = grad(phi) the exact Stokes velocity is zero with pressure phi;
    # the reconstructed load makes the discrete velocity exactly zero and
    # the pressure the cellwise mean of phi, while the plain scheme leaks
    # the gradient into the velocity
    mesh = build_unit_square_mesh(4)
    layout = layout_for(mesh)
    phi = lambda x: np.sin(x[..., 0] + 2.0 * x[..., 1])
    grad_phi = lambda x: np.stack([np.cos(x[..., 0] + 2.0 * x[..., 1]),
                                   2.0 * np.cos(x[..., 0] + 2.0 * x[..., 1])], axis=-1)
    dofs, values, _ = asm.dirichlet_data(mesh, None)
    results = {}
    for params in (PARAMS, PARAMS_PR):
        C = asm.assemble_convection(mesh, EGFunction.zero(mesh), params)
        F = asm.assemble_load(mesh, grad_phi, params)
        sysm = asm.build_saddle_system(mesh, params, C, F, dirichlet=(dofs, values))
        results[params.pressure_robust] = sysm.expand(spla.spsolve(sysm.matrix.tocsc(), sysm.rhs))

    u_pr, p_pr = results[True]
    assert np.abs(u_pr).max() <= 1e-12
    from egflow.spaces import project_pressure

    p_exact = project_pressure(mesh, phi).values
    p_exact = p_exact - float(mesh.areas @ p_exact)
    assert np.allclose(p_pr, p_exact, atol=1e-11)

    u_eg, _ = results[False]
    assert np.abs(u_eg).max() > 1e-4  # the plain scheme cannot stay at rest


def test_inf_sup_constant_does_not_collapse_under_refinement():
    beta = []
    for n in (2, 4, 8):
        mesh = build_unit_square_mesh(n)
        free = free_velocity_dofs(mesh)
        E = asm.assemble_energy_gram(mesh, penalty=10.0).toarray()[np.ix_(free, free)]
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
        asm.assemble_convection(mesh, random_eg(mesh, 71), PARAMS_PR)
    disc_b, disc_m = asm.discretization(base), asm.discretization(moved)
    assert disc_b is not disc_m and asm.discretization(base) is disc_b
    for get in (lambda d: d.reconstruction(), lambda d: d.divergence(), lambda d: d.viscous(PARAMS)):
        assert abs(get(disc_b) - get(disc_m)).max() > 1e-3
    assert abs(disc_m.reconstruction() - reconstruction_matrix(moved)).max() == 0.0
    assert abs(disc_m.viscous(PARAMS) - asm.assemble_viscous(moved, PARAMS)).max() == 0.0
    # a different penalty is a different matrix, not the cached one
    assert abs(disc_m.viscous(FormParams(penalty=20.0)) - disc_m.viscous(PARAMS)).max() > 1.0


def test_repeated_convection_builds_mesh_data_once(monkeypatch):
    builds = {"R": 0, "tables": 0}
    real_R, real_tables = asm.reconstruction_matrix, asm._SpaceTables

    def counted_R(mesh):
        builds["R"] += 1
        return real_R(mesh)

    def counted_tables(mesh, kind):
        builds["tables"] += 1
        return real_tables(mesh, kind)

    monkeypatch.setattr(asm, "reconstruction_matrix", counted_R)
    monkeypatch.setattr(asm, "_SpaceTables", counted_tables)
    mesh = build_unit_square_mesh(3)
    first = asm.assemble_convection(mesh, random_eg(mesh, 81), PARAMS_PR)
    for seed in (82, 83):
        asm.assemble_convection(mesh, random_eg(mesh, seed), PARAMS_PR)
    assert builds == {"R": 1, "tables": 1}  # only the reconstructed basis is used
    asm.assemble_convection(mesh, random_eg(mesh, 84), PARAMS)
    asm.assemble_convection(mesh, random_eg(mesh, 85), PARAMS)
    assert builds == {"R": 1, "tables": 2}
    again = asm.assemble_convection(mesh, random_eg(mesh, 81), PARAMS_PR)
    assert abs(again - first).max() == 0.0


def test_assembly_is_deterministic():
    mesh = build_unit_square_mesh(4)
    z = random_eg(mesh, 13)

    def build():
        A = asm.assemble_viscous(mesh, PARAMS)
        C = asm.assemble_convection(mesh, z, PARAMS_PR)
        return A, C

    (A1, C1), (A2, C2) = build(), build()
    for m1, m2 in ((A1, A2), (C1, C2)):
        assert m1.indptr.tobytes() == m2.indptr.tobytes()
        assert m1.indices.tobytes() == m2.indices.tobytes()
        assert m1.data.tobytes() == m2.data.tobytes()
