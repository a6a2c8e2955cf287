"""Tests for the linear solve wrapper and the Picard driver."""

import logging
import warnings
import weakref
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import egflow.assembly as asm
import egflow.solver as solver
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
from oracles import EGFunction, dense_gmres, interpolate_velocity
from test_assembly import perturbed_mesh

PARAMS = FormParams(viscosity=1.0, penalty=10.0)


def toy_system(matrix, rhs):
    # a layout without vertices: nt bubble dofs and nt pressure cells, the
    # first pinned, so the unknowns are nt velocities and nt - 1 pressures;
    # cell t's bubble and pressure share node t.  The blocks are a stand-in
    # for assembly._SaddleBlocks with the same fields
    n = matrix.shape[0]
    nt = (n + 1) // 2
    blocks = SimpleNamespace(
        matrix=sp.csr_matrix(matrix),
        free=np.arange(nt),
        dirichlet_dofs=np.empty(0, dtype=np.int64),
        n_velocity=nt,
        areas=np.ones(nt),
        pinned_row=sp.csr_matrix((1, n)),
        nodes=np.concatenate([np.arange(nt), np.arange(1, nt)]),
        orders={},
        factor=None,
    )
    return asm.SaddleSystem(
        blocks=blocks,
        rhs=np.asarray(rhs, dtype=float),
        pinned_rhs=0.0,
        dirichlet_values=np.empty(0),
        convection=None,
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
    z = np.zeros(nv)
    for _ in range(steps):
        M = np.zeros((nv + nt + 1, nv + nt + 1))
        M[:nv, :nv] = params.viscosity * A + asm.assemble_convection(mesh, z, params).matrix().toarray()
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
        z = x[:nv]
    return x[:nv], x[nv:-1]


def poly_force(x):
    # smooth non-gradient force with both components active
    return np.stack([x[..., 1] * (1.0 - x[..., 1]), np.sin(np.pi * x[..., 0])], axis=-1)


def test_solve_linear_identity_system():
    system = toy_system(np.eye(3), [1.0, 2.0, 3.0])
    solution = solve_linear(system)
    assert np.allclose(solution.velocity, [1.0, 2.0])
    # pressures (0 pinned, 3), shifted to zero mean
    assert np.allclose(solution.pressure, [-1.5, 1.5])
    assert solution.residual <= 1e-15
    assert solution.krylov_iterations == 0
    assert solution.factored
    assert system.blocks.factor is not None


def test_solve_linear_rejects_singular_matrix():
    m = np.diag([1.0, 1.0, 0.0])
    with pytest.raises(SingularSystemError):
        solve_linear(toy_system(m, [1.0, 1.0, 1.0]))


def test_pressure_row_without_velocity_coupling_is_reported_as_structurally_empty():
    # the pressure row has nothing to scale by; that must reach the
    # factorization as a singular matrix, not divide by zero on the way
    m = np.array([[2.0, 0.0, -1.0], [0.0, 2.0, 0.0], [0.0, 0.0, 0.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SingularSystemError, match="1 structurally empty rows"):
            solve_linear(toy_system(m, [1.0, 1.0, 1.0]))


def rotating_flow(mesh):
    def w(x):
        return np.stack(
            [np.sin(np.pi * x[..., 0]) * np.cos(np.pi * x[..., 1]), -np.cos(np.pi * x[..., 0]) * np.sin(np.pi * x[..., 1])],
            axis=-1,
        )

    return interpolate_velocity(mesh, w, lambda x: np.zeros(x.shape[:-1])).to_vector()


@pytest.mark.parametrize("robust", [False, True])
@pytest.mark.parametrize("oseen", [False, True])
def test_ordered_factor_solves_with_less_fill_than_colamd(robust, oseen):
    # the minimum-degree order of the node graph fills less than COLAMD on
    # the scalar columns, also on the robust Oseen matrix, whose R^T C R
    # couples cells up to three apart.  Every pivot stays on the diagonal
    # except on the standard Oseen matrix: at mu = 1e-3 its convection
    # outweighs the pressure's Schur complement in some columns, and
    # threshold pivoting leaves the diagonal there
    mesh = perturbed_mesh(16, seed=5)
    params = FormParams(viscosity=1e-3 if oseen else 1.0, penalty=10.0, pressure_robust=robust)
    C = asm.assemble_convection(mesh, rotating_flow(mesh), params) if oseen else None
    F = asm.assemble_load(mesh, poly_force, params)
    dofs, values, _ = asm.dirichlet_data(mesh, asm.lid_values(mesh))
    system = asm.build_saddle_system(
        mesh, params, C, F, dirichlet=(dofs, values), continuity_load=np.zeros(mesh.num_triangles)
    )
    solve_linear(system)
    factor = system.blocks.factor
    x = factor.solve(system.rhs)
    assert np.linalg.norm(system.matrix @ x - system.rhs) <= 1e-12 * np.linalg.norm(system.rhs)
    assert factor.nnz < spla.splu(system.matrix.tocsc()).nnz
    if robust or not oseen:
        assert np.array_equal(factor._lu.perm_r, np.arange(system.matrix.shape[0]))


def test_stokes_solve_residual_and_mean_constraint():
    mesh = build_unit_square_mesh(2)
    F = asm.assemble_load(mesh, poly_force, PARAMS)
    dofs, values, _ = asm.dirichlet_data(mesh, None)
    system = asm.build_saddle_system(
        mesh, PARAMS, None, F, dirichlet=(dofs, values), continuity_load=np.zeros(mesh.num_triangles)
    )
    solution = solve_linear(system)
    assert solution.residual <= 1e-10
    # the unreduced equations hold on every free momentum row and on every
    # continuity row, the pinned cell's included
    u, p = solution.velocity, solution.pressure
    A = asm.assemble_viscous(mesh, PARAMS)
    B = asm.assemble_divergence(mesh)
    residual = np.concatenate([(A @ u - B.T @ p - F)[system.blocks.free], B @ u])
    assert np.linalg.norm(residual) <= 1e-10 * np.linalg.norm(F)
    assert np.all(u[dofs] == values)
    assert abs(float(mesh.areas @ p)) <= 1e-14


def test_zero_data_converges_immediately_to_rest():
    mesh = build_unit_square_mesh(3)
    u, p, report = solve_navier_stokes(mesh, PARAMS)
    assert report.converged
    assert report.iterations == 1
    assert np.abs(u).max() <= 1e-14
    assert np.abs(p).max() <= 1e-14


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
    assert abs(float(mesh.areas @ p)) <= 1e-10
    # boundary stays at rest under strong imposition
    bverts = np.flatnonzero(mesh.is_boundary_vertex)
    assert np.abs(EGFunction.from_vector(mesh, u).nodal[bverts]).max() == 0.0


def gradient_force(x):
    # grad phi for phi = x^3 y^2 + sin 3y
    X, Y = x[..., 0], x[..., 1]
    return np.stack([3.0 * X**2 * Y**2, 2.0 * X**3 * Y + 3.0 * np.cos(3.0 * Y)], axis=-1)


@pytest.mark.parametrize("perturbed", [False, True])
def test_gradient_force_moves_no_fluid_in_the_robust_scheme(perturbed):
    # with f = grad phi and zero boundary data the exact velocity is zero
    # and the pressure carries the force.  The pressure-robust scheme must
    # return zero velocity whatever mu is; the standard one errs by order
    # 1/mu (Linke, CMAME 268, 2014).  At mu = 1e-4 the pressure is 1e4 times
    # the force's scale, so every accepted linear solve, the GMRES step's
    # included, must reach a residual fine enough to keep the velocity at
    # rounding level
    mesh = perturbed_mesh(16, seed=3) if perturbed else build_unit_square_mesh(16)
    for mu in (1.0, 1e-4):
        params = FormParams(viscosity=mu, penalty=10.0, pressure_robust=True)
        u, _, report = solve_navier_stokes(mesh, params, force=gradient_force)
        assert report.converged
        assert np.abs(u).max() <= 1e-10
    u, _, report = solve_navier_stokes(mesh, FormParams(viscosity=1.0, penalty=10.0), force=gradient_force)
    assert report.converged
    assert np.abs(u).max() >= 1e-3


def test_fixed_point_consistency_of_converged_solution():
    mesh = build_unit_square_mesh(8)
    u, p, report = solve_navier_stokes(mesh, PARAMS, force=poly_force)
    assert report.converged
    dofs, values, g_nodal = asm.dirichlet_data(mesh, None)
    C = asm.assemble_convection(mesh, u, PARAMS)
    F = asm.assemble_load(mesh, poly_force, PARAMS)
    F = F + asm.convective_boundary_load(mesh, u, g_nodal, PARAMS)
    system = asm.build_saddle_system(
        mesh, PARAMS, C, F, dirichlet=(dofs, values), continuity_load=np.zeros(mesh.num_triangles)
    )
    u2, p2, *_ = solve_linear(system)
    x1 = np.concatenate([u, p])
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
    nodal = EGFunction.from_vector(mesh, u).nodal
    for v, val in g.items():
        assert np.allclose(nodal[v], val)
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
        field = EGFunction.from_vector(mesh, u)
        assert np.abs(field.nodal - u_exact(mesh.vertices)).max() < 1e-12
        assert np.abs(field.bubble).max() < 1e-12
        assert np.abs(p - p.mean()).max() < 1e-11


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
    x, x_ref = np.concatenate([u, p]), np.concatenate([u_ref, p_ref])
    assert np.linalg.norm(x - x_ref) <= 1e-10 * np.linalg.norm(x_ref)


def test_gmres_starts_from_the_previous_iterate(monkeypatch):
    mesh = build_unit_square_mesh(8)
    params = FormParams(viscosity=1.0, penalty=10.0, pressure_robust=True)
    g = asm.lid_values(mesh)
    u, p, warm = solve_navier_stokes(mesh, params, force=poly_force, boundary=g)
    original = solver.solve_linear
    monkeypatch.setattr(solver, "solve_linear", lambda system, x0=None: original(system))
    # a fresh mesh, so that the cold run does not start from the factor the warm one kept
    _, _, cold = solve_navier_stokes(build_unit_square_mesh(8), params, force=poly_force, boundary=g)
    assert warm.converged and cold.converged
    assert warm.iterations == cold.iterations
    assert all(w <= c for w, c in zip(warm.krylov_iterations, cold.krylov_iterations))
    assert sum(warm.krylov_iterations) < sum(cold.krylov_iterations)
    u_ref, p_ref = multiplier_picard(mesh, params, poly_force, g, warm.iterations)
    x, x_ref = np.concatenate([u, p]), np.concatenate([u_ref, p_ref])
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
    x, x_ref = np.concatenate([u, p]), np.concatenate([u_ref, p_ref])
    assert np.linalg.norm(x - x_ref) <= 1e-10 * np.linalg.norm(x_ref)


@pytest.mark.parametrize("mu, init", [(1.0, "stokes"), (5e-3, "zero")])
def test_oseen_matrices_are_assembled_only_to_be_factored(monkeypatch, mu, init):
    # GMRES applies each step's convection without assembling it; only a
    # factorization reads the matrix.  At mu = 1 the Stokes factor carries
    # every Oseen step.  At mu = 5e-3 from z = 0 the first step's convection
    # is empty, so its factorization reads the fixed blocks as they are;
    # every later factored system is an Oseen one, as the force moves the
    # transport of the first steps far enough from the first factor that
    # GMRES misses its budget
    assembled = 0
    matrix = asm.ConvectionOperator.matrix

    def counted(self):
        nonlocal assembled
        assembled += 1
        return matrix(self)

    monkeypatch.setattr(asm.ConvectionOperator, "matrix", counted)
    mesh = build_unit_square_mesh(8)
    params = FormParams(viscosity=mu, penalty=10.0, pressure_robust=True)
    settings = NonlinearSettings(init=init, max_iters=80)
    _, _, report = solve_navier_stokes(mesh, params, settings, force=poly_force, boundary=asm.lid_values(mesh))
    assert report.converged
    if mu == 1.0:
        assert (assembled, report.factorizations) == (0, 1)
    else:
        assert assembled == report.factorizations - 1 > 0


@pytest.mark.parametrize("mu", [1.0, 5e-3])
def test_own_gmres_takes_the_steps_of_the_dense_oracle(monkeypatch, mu):
    # on every Picard step, the solver's GMRES and the dense one of
    # tests/oracles.py get the same system and start; they must agree on the
    # iteration count and on the iterate
    own = solver._krylov
    steps = []

    def both(system, x0):
        x_ref, converged_ref, iterations_ref, _ = dense_gmres(system, x0)
        x, converged, iterations, r_norm = own(system, x0)
        steps.append((iterations, iterations_ref, converged, converged_ref, x, x_ref))
        return x, converged, iterations, r_norm

    monkeypatch.setattr(solver, "_krylov", both)
    mesh = build_unit_square_mesh(8)
    settings = NonlinearSettings(max_iters=80)
    params = FormParams(viscosity=mu, penalty=10.0)
    _, _, report = solve_navier_stokes(mesh, params, settings, force=poly_force, boundary=asm.lid_values(mesh))
    assert report.converged
    assert len(steps) == report.iterations - 1  # every step after the first, factored one
    for iterations, iterations_ref, converged, converged_ref, x, x_ref in steps:
        assert iterations == iterations_ref
        assert converged == converged_ref
        assert np.linalg.norm(x - x_ref) <= 1e-10 * np.linalg.norm(x_ref)


def test_own_gmres_restarts_as_the_dense_oracle_does():
    # a start 1e4 times farther from the solution than the solution is
    # large: the first cycle meets its target, but the rounding of the
    # update x0 + Z y leaves the recomputed residual near 1e-11 |b|, so a
    # second cycle from that residual finishes within the budget
    rng = np.random.default_rng(0)
    n = 24
    A = np.eye(n) + 0.01 * rng.standard_normal((n, n))
    M = np.linalg.inv(A + 1e-6 * rng.standard_normal((n, n)))
    b = rng.standard_normal(n)
    x0 = np.linalg.solve(A, b) + 1e4 * rng.standard_normal(n)
    A = sp.csr_matrix(A)
    solves = []

    def precondition(r):
        solves.append(1)
        return M @ r

    factor = SimpleNamespace(solve=precondition)
    system = SimpleNamespace(matrix=A, apply=A.__matmul__, rhs=b, blocks=SimpleNamespace(factor=factor))
    x, converged, iterations, r_norm = solver._krylov(system, x0)
    assert r_norm == np.linalg.norm(b - A @ x)
    assert len(solves) == iterations
    x_ref, converged_ref, iterations_ref, cycles_ref = dense_gmres(system, x0)
    assert cycles_ref == 2
    assert (iterations, converged) == (iterations_ref, converged_ref) == (5, True)
    assert np.linalg.norm(x - x_ref) <= 1e-10 * np.linalg.norm(x_ref)


@pytest.mark.parametrize("mu", [1.0, 5e-3])
def test_lu_solves_are_one_per_factorization_and_iteration(monkeypatch, mu):
    calls = 0
    solve = solver.OrderedFactor.solve

    def counted(self, rhs):
        nonlocal calls
        calls += 1
        return solve(self, rhs)

    own = solver._krylov
    steps = []

    def krylov(system, x0):
        before = calls
        result = own(system, x0)
        steps.append((result[2], calls - before))
        return result

    monkeypatch.setattr(solver.OrderedFactor, "solve", counted)
    monkeypatch.setattr(solver, "_krylov", krylov)
    mesh = build_unit_square_mesh(8)
    params = FormParams(viscosity=mu, penalty=10.0)
    # a tolerance below the reach of the linear solves: the last step starts at the fixed point
    settings = NonlinearSettings(init="stokes", tol=1e-13, max_iters=80)
    _, _, report = solve_navier_stokes(mesh, params, settings, boundary=asm.lid_values(mesh))
    assert report.converged
    assert [iterations for iterations, _ in steps] == report.krylov_iterations[1:]
    assert all(solves == iterations for iterations, solves in steps)
    assert calls == report.factorizations + sum(report.krylov_iterations)
    assert steps[-1] == (0, 0)


def test_a_second_solve_on_the_mesh_starts_from_the_kept_factor():
    params = FormParams(viscosity=1.0, penalty=10.0, pressure_robust=True)
    settings = NonlinearSettings(init="stokes")
    mesh = build_unit_square_mesh(8)
    solve_navier_stokes(mesh, params, settings, boundary=asm.lid_values(mesh))
    u, p, report = solve_navier_stokes(mesh, params, settings, boundary=asm.lid_values(mesh, leaky_corners=False))
    assert report.converged
    assert report.factorizations == 0
    fresh = build_unit_square_mesh(8)
    u_ref, p_ref, ref = solve_navier_stokes(fresh, params, settings, boundary=asm.lid_values(fresh, leaky_corners=False))
    assert ref.factorizations == 1
    x, x_ref = np.concatenate([u, p]), np.concatenate([u_ref, p_ref])
    assert np.linalg.norm(x - x_ref) <= 1e-10 * np.linalg.norm(x_ref)


def test_another_viscosity_frees_the_kept_factor_before_factoring(monkeypatch):
    mesh = build_unit_square_mesh(8)
    g = asm.lid_values(mesh)
    params = FormParams(viscosity=1.0, penalty=10.0)
    solve_navier_stokes(mesh, params, boundary=g)
    dofs = asm.dirichlet_data(mesh, g)[0]
    kept = weakref.ref(asm.discretization(mesh).saddle_blocks(params, dofs).factor)
    factor = solver._factor
    alive = []

    def recorded(system):
        alive.append(kept() is not None)
        return factor(system)

    monkeypatch.setattr(solver, "_factor", recorded)
    _, _, report = solve_navier_stokes(mesh, FormParams(viscosity=0.5, penalty=10.0), boundary=g)
    assert report.converged
    assert report.factorizations == 1
    assert alive == [False]


def left_inflow(mesh):
    # inflow through the left wall and no outflow: the continuity equations have no solution
    x, y = mesh.vertices[:, 0], mesh.vertices[:, 1]
    left = np.flatnonzero(mesh.is_boundary_vertex & (x == 0.0) & (y > 0.0) & (y < 1.0))
    return {int(v): (1.0, 0.0) for v in left}


def test_incompatible_boundary_data_is_rejected_with_its_net_flux():
    # the residual check must say why the system has no solution
    mesh = build_unit_square_mesh(4)
    with pytest.raises(SingularSystemError, match=r"net outward boundary flux of the Dirichlet data is -7\.500e-01"):
        solve_navier_stokes(mesh, PARAMS, boundary=left_inflow(mesh))


@pytest.mark.parametrize("solved_before", [False, True])
def test_a_solve_that_raises_keeps_no_factor(solved_before):
    # the net-flux data has the same Dirichlet dofs as zero data, so all
    # three solves share the mesh's saddle blocks.  The failing solve drops
    # any factor it was given before refactoring and keeps none of its own,
    # so the next solve factors afresh
    mesh = build_unit_square_mesh(4)
    if solved_before:
        _, _, report = solve_navier_stokes(mesh, PARAMS)
        assert report.factorizations == 1
    with pytest.raises(SingularSystemError):
        solve_navier_stokes(mesh, PARAMS, boundary=left_inflow(mesh))
    _, _, report = solve_navier_stokes(mesh, PARAMS)
    assert report.converged
    assert report.factorizations == 1


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
