"""Tests for the linear solve wrapper and the Picard driver."""

import logging

import numpy as np
import pytest
import scipy.sparse as sp

import egflow.assembly as asm
from egflow.assembly import FormParams
from egflow.mesh import build_unit_square_mesh
from egflow.solver import (
    DivergedError,
    NonlinearSettings,
    SingularSystemError,
    SolveReport,
    has_diverged,
    solve_linear,
    solve_navier_stokes,
)
from egflow.spaces import DofLayout, EGFunction, layout_for

PARAMS = FormParams(viscosity=1.0, penalty=10.0)


def toy_system(matrix, rhs):
    # a layout without vertices: nt bubble dofs and nt pressure cells, the
    # first pinned, so the unknowns are nt velocities and nt - 1 pressures
    n = matrix.shape[0]
    nt = (n + 1) // 2
    return asm.SaddleSystem(
        matrix=sp.csr_matrix(matrix),
        rhs=np.asarray(rhs, dtype=float),
        pinned_row=sp.csr_matrix((1, n)),
        pinned_rhs=0.0,
        layout=DofLayout(num_vertices=0, num_triangles=nt),
        free_velocity=np.arange(nt),
        areas=np.ones(nt),
        dirichlet_dofs=np.empty(0, dtype=np.int64),
        dirichlet_values=np.empty(0),
    )


def multiplier_picard(mesh, params, force, boundary, steps):
    """Oracle: Picard steps on the dense full saddle system with a multiplier.

    Unknowns are every velocity dof, every pressure and one Lagrange
    multiplier for the zero area-weighted pressure mean; Dirichlet dofs keep
    identity rows and their values are lifted out of the other rows.
    """
    A = asm.assemble_viscous(mesh, params).toarray()
    B = asm.assemble_divergence(mesh).toarray()
    dofs, values, g = asm.dirichlet_data(mesh, boundary)
    F = asm.assemble_load(mesh, force, params) + params.viscosity * asm.sipg_boundary_load(mesh, g, params)
    cont = asm.divergence_boundary_load(mesh, g)
    nt, nv = B.shape
    z = EGFunction.zero(mesh)
    for _ in range(steps):
        M = np.zeros((nv + nt + 1, nv + nt + 1))
        M[:nv, :nv] = params.viscosity * A + asm.assemble_convection(mesh, z, params).toarray()
        M[:nv, nv:-1] = -B.T
        M[nv:-1, :nv] = B
        M[nv:-1, -1] = M[-1, nv:-1] = mesh.areas
        b = np.concatenate([F + asm.convective_boundary_load(mesh, z, g, params), cont, [0.0]])
        b -= M[:, dofs] @ values
        M[:, dofs] = 0.0
        M[dofs, :] = 0.0
        M[dofs, dofs] = 1.0
        b[dofs] = values
        x = np.linalg.solve(M, b)
        z = EGFunction.from_vector(mesh, x[:nv])
    return x[:nv], x[nv:-1]


def poly_force(x):
    # smooth non-gradient force with both components active
    return np.stack([x[..., 1] * (1.0 - x[..., 1]), np.sin(np.pi * x[..., 0])], axis=-1)


def test_solve_linear_identity_system():
    solution = solve_linear(toy_system(np.eye(3), [1.0, 2.0, 3.0]))
    assert np.allclose(solution.velocity, [1.0, 2.0])
    # pressures (0 pinned, 3), shifted to zero mean
    assert np.allclose(solution.pressure, [-1.5, 1.5])
    assert solution.residual <= 1e-15
    assert solution.krylov_iterations == 0
    assert solution.factor is not None


def test_solve_linear_rejects_singular_matrix():
    m = np.diag([1.0, 1.0, 0.0])
    with pytest.raises(SingularSystemError):
        solve_linear(toy_system(m, [1.0, 1.0, 1.0]))


def test_stokes_solve_residual_and_mean_constraint():
    mesh = build_unit_square_mesh(2)
    layout = layout_for(mesh)
    C = sp.csr_matrix((layout.n_velocity, layout.n_velocity))
    F = asm.assemble_load(mesh, poly_force, PARAMS)
    dofs, values, _ = asm.dirichlet_data(mesh, None)
    system = asm.build_saddle_system(mesh, PARAMS, C, F, dirichlet=(dofs, values))
    solution = solve_linear(system)
    assert solution.residual <= 1e-10
    # the unreduced equations hold on every free momentum row and on every
    # continuity row, the pinned cell's included
    u, p = solution.velocity, solution.pressure
    A = asm.assemble_viscous(mesh, PARAMS)
    B = asm.assemble_divergence(mesh)
    residual = np.concatenate([(A @ u - B.T @ p - F)[system.free_velocity], B @ u])
    assert np.linalg.norm(residual) <= 1e-10 * np.linalg.norm(F)
    assert np.all(u[dofs] == values)
    assert abs(float(mesh.areas @ p)) <= 1e-14


def test_zero_data_converges_immediately_to_rest():
    mesh = build_unit_square_mesh(3)
    u, p, report = solve_navier_stokes(mesh, PARAMS)
    assert report.converged
    assert report.iterations == 1
    assert np.abs(u.to_vector()).max() <= 1e-14
    assert np.abs(p.values).max() <= 1e-14


@pytest.mark.parametrize("robust", [False, True])
def test_manufactured_force_converges_and_reports(robust):
    mesh = build_unit_square_mesh(8)
    params = FormParams(viscosity=1.0, penalty=10.0, pressure_robust=robust)
    u, p, report = solve_navier_stokes(mesh, params, force=poly_force)
    assert report.converged
    assert report.iterations <= 20
    assert len(report.update_norms) == report.iterations
    assert report.update_norms[-1] < 1e-10
    assert max(report.linear_residuals) <= 1e-10
    assert abs(float(mesh.areas @ p.values)) <= 1e-10
    # boundary stays at rest under strong imposition
    bverts = np.flatnonzero(mesh.is_boundary_vertex)
    assert np.abs(u.nodal[bverts]).max() == 0.0


def test_fixed_point_consistency_of_converged_solution():
    mesh = build_unit_square_mesh(8)
    u, p, report = solve_navier_stokes(mesh, PARAMS, force=poly_force)
    assert report.converged
    dofs, values, g_nodal = asm.dirichlet_data(mesh, None)
    C = asm.assemble_convection(mesh, u, PARAMS)
    F = asm.assemble_load(mesh, poly_force, PARAMS)
    F = F + asm.convective_boundary_load(mesh, u, g_nodal, PARAMS)
    system = asm.build_saddle_system(mesh, PARAMS, C, F, dirichlet=(dofs, values))
    u2, p2, *_ = solve_linear(system)
    x1 = np.concatenate([u.to_vector(), p.values])
    x2 = np.concatenate([u2, p2])
    assert np.linalg.norm(x2 - x1) / np.linalg.norm(x1) < 1e-9


def test_stokes_initialization_runs_and_converges():
    mesh = build_unit_square_mesh(8)
    params = FormParams(viscosity=0.05, penalty=10.0, pressure_robust=True)
    settings = NonlinearSettings(init="stokes")
    g = asm.lid_values(mesh)
    u, p, report = solve_navier_stokes(mesh, params, settings, boundary=g)
    assert report.stokes_init
    assert report.converged
    assert report.iterations <= 20
    # lid values imposed exactly, including the leaky corners
    for v, val in g.items():
        assert np.allclose(u.nodal[v], val)
    assert len(report.linear_residuals) == report.iterations + 1


def test_affine_solution_with_inhomogeneous_data_is_reproduced_exactly():
    # u = (a + b y, c - b x) is divergence free and affine, so it lies in the
    # velocity space itself; with constant pressure the only body force is
    # the convective one.  The discrete solution must match to roundoff,
    # which exercises every piece of the boundary-data path at once:
    # condensation lifting plus the viscous, divergence, and convective data
    # terms (the walls see genuine inflow and outflow, unlike a lid).
    a, b, c = 0.3, 0.7, -0.2

    def u_exact(x):
        return np.stack([a + b * x[..., 1], c - b * x[..., 0]], axis=-1)

    def force(x):
        u = u_exact(x)
        return np.stack([b * u[..., 1], -b * u[..., 0]], axis=-1)

    for n in (2, 4):
        mesh = build_unit_square_mesh(n)
        g = {
            int(v): tuple(u_exact(mesh.vertices[v]))
            for v in np.flatnonzero(mesh.is_boundary_vertex)
        }
        u, p, report = solve_navier_stokes(mesh, PARAMS, boundary=g, force=force)
        assert report.converged
        assert np.abs(u.nodal - u_exact(mesh.vertices)).max() < 1e-12
        assert np.abs(u.bubble).max() < 1e-12
        assert np.abs(p.values - p.values.mean()).max() < 1e-11


def test_unit_viscosity_factors_once_and_matches_the_multiplier_system():
    mesh = build_unit_square_mesh(8)
    params = FormParams(viscosity=1.0, penalty=10.0, pressure_robust=True)
    g = asm.lid_values(mesh)
    u, p, report = solve_navier_stokes(mesh, params, force=poly_force, boundary=g)
    assert report.converged
    assert report.factorizations == 1
    assert report.krylov_iterations[0] == 0  # the first (Stokes) step is factored
    assert all(k > 0 for k in report.krylov_iterations[1:])
    u_ref, p_ref = multiplier_picard(mesh, params, poly_force, g, report.iterations)
    x, x_ref = np.concatenate([u.to_vector(), p.values]), np.concatenate([u_ref, p_ref])
    assert np.linalg.norm(x - x_ref) <= 1e-10 * np.linalg.norm(x_ref)


def test_small_viscosity_refactors_when_gmres_misses(caplog):
    # at mu = 5e-3 the transport of the first steps moves far from the
    # Stokes factor, so GMRES misses its budget and the Oseen matrix is
    # refactored; the converged solution is the direct one all the same
    mesh = build_unit_square_mesh(8)
    params = FormParams(viscosity=5e-3, penalty=10.0)
    g = asm.lid_values(mesh)
    settings = NonlinearSettings(max_iters=80)
    with caplog.at_level(logging.INFO, logger="egflow.solver"):
        u, p, report = solve_navier_stokes(mesh, params, settings, force=poly_force, boundary=g)
    assert report.converged
    assert report.factorizations > 1
    misses = [r for r in caplog.records if "GMRES missed" in r.getMessage()]
    assert len(misses) == report.factorizations - 1
    assert len(report.krylov_iterations) == report.iterations
    assert max(report.linear_residuals) <= 1e-10
    u_ref, p_ref = multiplier_picard(mesh, params, poly_force, g, report.iterations)
    x, x_ref = np.concatenate([u.to_vector(), p.values]), np.concatenate([u_ref, p_ref])
    assert np.linalg.norm(x - x_ref) <= 1e-10 * np.linalg.norm(x_ref)


def test_incompatible_boundary_data_is_rejected_with_its_net_flux():
    # inflow through the left wall and no outflow: the continuity equations
    # have no solution, and the residual check must say so
    mesh = build_unit_square_mesh(4)
    x, y = mesh.vertices[:, 0], mesh.vertices[:, 1]
    left = np.flatnonzero(mesh.is_boundary_vertex & (x == 0.0) & (y > 0.0) & (y < 1.0))
    g = {int(v): (1.0, 0.0) for v in left}
    with pytest.raises(SingularSystemError, match=r"net outward boundary flux of the Dirichlet data is -7\.500e-01"):
        solve_navier_stokes(mesh, PARAMS, boundary=g)


def test_divergence_guard_logic():
    assert not has_diverged([1.0])
    assert not has_diverged([1e-3, 2.0, 2.0])  # only two bad iterations
    assert has_diverged([1e-3, 2.0, 2.0, 2.0])
    assert has_diverged([1e-3, 0.5, 2.0, 3.0, 4.0])
    assert not has_diverged([1e-3, 2.0, 0.5, 2.0])  # growth must be consecutive
    assert not has_diverged([1.0, 500.0, 500.0, 500.0])  # below 1000x initial


def test_settings_validation():
    with pytest.raises(ValueError):
        NonlinearSettings(tol=0.0)
    with pytest.raises(ValueError):
        NonlinearSettings(max_iters=0)
    with pytest.raises(ValueError):
        NonlinearSettings(init="random")


def test_diverged_error_carries_report():
    err = DivergedError("boom", SolveReport(iterations=5))
    assert err.report.iterations == 5
