"""Velocity/pressure space checks: dof layout, evaluation, jumps, interpolation.

The package passes a velocity as one coefficient vector and a pressure as
one value per cell; the pointwise evaluator here is oracles.EGFunction.
"""

import numpy as np
import pytest

import egflow.assembly as asm
from egflow.mesh import MeshTopology, build_unit_square_mesh
from egflow.quadrature import triangle_rule
from oracles import (
    EGFunction,
    bubble_dof,
    edge_points,
    interpolate_velocity,
    jump_average,
    n_velocity,
    pressure_mean,
    project_pressure,
    vertex_dof,
)


def reference_triangle_mesh():
    return MeshTopology([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], [[0, 1, 2]])


def two_triangle_square():
    return build_unit_square_mesh(1)


def test_dof_layout_bijection():
    # the oracle's dof numbering covers exactly the columns of the package's
    # embedding E, and E reads each dof as that numbering says
    mesh = build_unit_square_mesh(3)
    seen = set()
    for v in range(mesh.num_vertices):
        for c in (0, 1):
            seen.add(vertex_dof(v, c))
    for t in range(mesh.num_triangles):
        seen.add(bubble_dof(mesh.num_vertices, t))
    E = asm.discretization(mesh).embedding
    assert seen == set(range(E.shape[1]))
    assert n_velocity(mesh) == E.shape[1] == 2 * mesh.num_vertices + mesh.num_triangles
    t, k, c = 4, 1, 1
    v = mesh.triangles[t, k]
    row = E[6 * t + 2 * k + c].toarray().ravel()
    assert row[vertex_dof(v, c)] == 1.0
    assert row[bubble_dof(mesh.num_vertices, t)] == pytest.approx(mesh.vertices[v, c] - mesh.barycenters[t, c])
    assert np.count_nonzero(row) == 2


def test_vector_roundtrip():
    mesh = build_unit_square_mesh(2)
    rng = np.random.default_rng(7)
    v = EGFunction(mesh, rng.normal(size=(mesh.num_vertices, 2)), rng.normal(size=mesh.num_triangles))
    w = EGFunction.from_vector(mesh, v.to_vector())
    assert np.array_equal(w.nodal, v.nodal)
    assert np.array_equal(w.bubble, v.bubble)


def test_nodal_evaluation_reference_triangle():
    mesh = reference_triangle_mesh()
    v = EGFunction.zero(mesh)
    v.nodal[:] = [[1.0, 0.0], [0.0, 1.0], [2.0, 2.0]]
    assert v.value(0, np.array([0.0, 0.0])) == pytest.approx([1.0, 0.0])
    assert v.value(0, np.array([1.0, 0.0])) == pytest.approx([0.0, 1.0])
    mid = np.array([0.5, 0.5])
    assert v.value(0, mid) == pytest.approx([1.0, 1.5])  # average of vertices 1 and 2


def test_bubble_evaluation_and_derivatives():
    mesh = reference_triangle_mesh()
    v = EGFunction.zero(mesh)
    v.bubble[0] = 2.5
    bary = np.array([1.0, 1.0]) / 3.0
    assert v.value(0, bary) == pytest.approx([0.0, 0.0], abs=1e-14)
    x = np.array([0.4, 0.1])
    assert v.value(0, x) == pytest.approx(2.5 * (x - bary))
    assert v.jacobian(0) == pytest.approx(2.5 * np.eye(2))
    assert v.divergence(0) == pytest.approx(5.0)


def test_jacobian_matches_finite_differences():
    mesh = build_unit_square_mesh(2)
    rng = np.random.default_rng(3)
    v = EGFunction(mesh, rng.normal(size=(mesh.num_vertices, 2)), rng.normal(size=mesh.num_triangles))
    t = 3
    x0 = mesh.barycenters[t]
    h = 1e-6
    J = v.jacobian(t)
    for j in range(2):
        step = np.zeros(2)
        step[j] = h
        fd = (v.value(t, x0 + step) - v.value(t, x0 - step)) / (2 * h)
        assert J[:, j] == pytest.approx(fd, rel=1e-6, abs=1e-9)


def test_jump_and_average_two_triangles():
    # bubble 1 on the plus triangle, 0 on the minus one; nodal part continuous
    mesh = two_triangle_square()
    (e,) = mesh.interior_edge_ids
    v = EGFunction.zero(mesh)
    rng = np.random.default_rng(11)
    v.nodal[:] = rng.normal(size=(mesh.num_vertices, 2))
    tp = int(mesh.edge_tplus[e])
    v.bubble[tp] = 1.0
    s = np.array([0.0, 0.25, 0.5, 1.0])
    jump, avg = jump_average(v, e, s)
    x = edge_points(mesh, e, s)
    expect_jump = x - mesh.barycenters[tp]
    assert jump == pytest.approx(expect_jump, abs=1e-13)
    # average = continuous nodal trace + half the one-sided bubble trace
    nodal_only = EGFunction(mesh, v.nodal.copy(), np.zeros(mesh.num_triangles))
    expect_avg = nodal_only.value(tp, x) + 0.5 * expect_jump
    assert avg == pytest.approx(expect_avg, abs=1e-13)


def test_jump_of_continuous_function_vanishes_inside():
    mesh = build_unit_square_mesh(3)
    rng = np.random.default_rng(5)
    v = EGFunction(mesh, rng.normal(size=(mesh.num_vertices, 2)), np.zeros(mesh.num_triangles))
    s = np.linspace(0.0, 1.0, 5)
    for e in mesh.interior_edge_ids:
        jump, _ = jump_average(v, int(e), s)
        assert np.allclose(jump, 0.0, atol=1e-13)


def test_boundary_trace_conventions():
    mesh = two_triangle_square()
    v = EGFunction.zero(mesh)
    v.nodal[:, 0] = 1.0
    e = int(mesh.boundary_edge_ids[0])
    jump, avg = jump_average(v, e, np.array([0.3]))
    assert jump == pytest.approx(np.array([[1.0, 0.0]]))
    assert avg == pytest.approx(np.array([[1.0, 0.0]]))


def test_interpolation_bubble_from_quadrature_oracle():
    # w = (x^2, 0): the bubble must make the cell-mean divergence match
    mesh = reference_triangle_mesh()
    w = lambda x: np.stack([x[..., 0] ** 2, np.zeros_like(x[..., 0])], axis=-1)
    div_w = lambda x: 2.0 * x[..., 0]
    v = interpolate_velocity(mesh, w, div_w)
    assert v.nodal == pytest.approx(w(mesh.vertices))
    # oracle: integrate both sides with an independent dense rule
    rule = triangle_rule(4)
    pts = np.einsum("qk,ki->qi", rule.points, mesh.vertices[mesh.triangles[0]])
    area = mesh.areas[0]
    int_div_w = 2.0 * area * np.sum(rule.weights * div_w(pts))
    nodal_only = EGFunction(mesh, v.nodal.copy(), np.zeros(1))
    int_div_nodal = area * nodal_only.divergence(0)
    expected_bubble = (int_div_w - int_div_nodal) / (2.0 * area)
    assert v.bubble[0] == pytest.approx(expected_bubble, rel=1e-13)
    assert v.divergence(0) * area == pytest.approx(int_div_w, rel=1e-13)


def test_interpolation_divergence_mean_identity_per_triangle():
    mesh = build_unit_square_mesh(4)
    w = lambda x: np.stack(
        [np.sin(np.pi * x[..., 0]) * x[..., 1], np.cos(x[..., 0]) + x[..., 1] ** 3], axis=-1
    )
    div_w = lambda x: np.pi * np.cos(np.pi * x[..., 0]) * x[..., 1] + 3.0 * x[..., 1] ** 2
    v = interpolate_velocity(mesh, w, div_w)
    rule = triangle_rule(6)
    pts = np.einsum("qk,tki->tqi", rule.points, mesh.vertices[mesh.triangles])
    int_div_w = 2.0 * mesh.areas * np.einsum("q,tq->t", rule.weights, div_w(pts))
    for t in range(mesh.num_triangles):
        assert v.divergence(t) * mesh.areas[t] == pytest.approx(int_div_w[t], abs=1e-12)


def test_interpolation_error_decays_first_order_in_broken_h1():
    # smooth target: the vertex part alone already gives O(h); the rate check
    # here guards the implementation, the sharp constant is not asserted
    w = lambda x: np.stack(
        [np.sin(np.pi * x[..., 0]) * np.sin(np.pi * x[..., 1]), x[..., 0] ** 2 * x[..., 1]], axis=-1
    )
    div_w = lambda x: np.pi * np.cos(np.pi * x[..., 0]) * np.sin(np.pi * x[..., 1]) + x[..., 0] ** 2
    grad_w = lambda x: np.stack(
        [
            np.stack(
                [
                    np.pi * np.cos(np.pi * x[..., 0]) * np.sin(np.pi * x[..., 1]),
                    np.pi * np.sin(np.pi * x[..., 0]) * np.cos(np.pi * x[..., 1]),
                ],
                axis=-1,
            ),
            np.stack([2.0 * x[..., 0] * x[..., 1], x[..., 0] ** 2], axis=-1),
        ],
        axis=-2,
    )
    errs = []
    for n in (4, 8, 16):
        mesh = build_unit_square_mesh(n)
        v = interpolate_velocity(mesh, w, div_w)
        rule = triangle_rule(6)
        pts = np.einsum("qk,tki->tqi", rule.points, mesh.vertices[mesh.triangles])
        G = grad_w(pts)  # (nt, nq, 2, 2)
        total = 0.0
        for t in range(mesh.num_triangles):
            diff = G[t] - v.jacobian(t)[None, :, :]
            total += 2.0 * mesh.areas[t] * np.sum(rule.weights * np.sum(diff**2, axis=(1, 2)))
        errs.append(np.sqrt(total))
    rates = [np.log2(errs[i] / (errs[i + 1])) for i in range(len(errs) - 1)]
    assert all(r > 0.9 for r in rates)


def test_pressure_projection_and_mean_removal():
    mesh = build_unit_square_mesh(3)
    q = lambda x: x[..., 0] + 2.0 * x[..., 1] ** 2
    p = project_pressure(mesh, q)
    # oracle on one triangle with an independent rule
    t = 5
    rule = triangle_rule(5)
    pts = np.einsum("qk,ki->qi", rule.points, mesh.vertices[mesh.triangles[t]])
    mean = 2.0 * np.sum(rule.weights * q(pts))
    assert p[t] == pytest.approx(mean, rel=1e-13)
    # global mean: int q = 1/2 + 2/3
    assert pressure_mean(mesh, p) == pytest.approx(0.5 + 2.0 / 3.0, rel=1e-12)


def test_constant_pressure_projection_exact():
    mesh = build_unit_square_mesh(2)
    p = project_pressure(mesh, lambda x: np.full_like(x[..., 0], 3.25))
    assert p == pytest.approx(np.full(mesh.num_triangles, 3.25), rel=1e-14)
