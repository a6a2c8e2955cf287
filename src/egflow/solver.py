"""Linear saddle-point solves and the Picard loop for the stationary problem.

The nonlinear iteration freezes the transport field at the previous iterate,
reassembles the convection block, and solves one linear system per step on
the free unknowns (see assembly.SaddleSystem: Dirichlet dofs lifted out, one
pressure pinned, the zero pressure mean restored afterwards).  The first
system of a solve is factored by sparse LU; later steps reuse that factor as
the preconditioner of GMRES, and refactor only when GMRES misses its
tolerance within a fixed budget, which at small viscosity happens once the
frozen transport has moved far from the factored one.  Convergence is
measured on the relative Euclidean update of the stacked (velocity,
pressure) coefficient vector.  The iteration starts either from zero or
from the solution of the Stokes problem (same system without convection).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import assembly as asm
from .assembly import FormParams, SaddleSystem
from .mesh import MeshTopology
from .spaces import EGFunction, PressureFunction, layout_for


logger = logging.getLogger(__name__)

RESIDUAL_TOL = 1e-10  # relative residual every accepted linear solve must reach
KRYLOV_RTOL = 1e-12  # GMRES target, well inside RESIDUAL_TOL
KRYLOV_BUDGET = 20  # GMRES iterations before refactoring


class SingularSystemError(RuntimeError):
    """Direct factorization failed or produced an unusable solution."""


class DivergedError(RuntimeError):
    """The nonlinear iteration is growing instead of contracting."""

    def __init__(self, message: str, report: "SolveReport"):
        super().__init__(message)
        self.report = report


@dataclass(frozen=True)
class NonlinearSettings:
    tol: float = 1e-10
    max_iters: int = 20
    init: str = "zero"  # or "stokes"

    def __post_init__(self):
        if not self.tol > 0:
            raise ValueError("tol must be positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")
        if self.init not in ("zero", "stokes"):
            raise ValueError(f"unknown init {self.init!r}")


@dataclass
class SolveReport:
    iterations: int = 0
    update_norms: list[float] = field(default_factory=list)
    converged: bool = False
    linear_residuals: list[float] = field(default_factory=list)
    krylov_iterations: list[int] = field(default_factory=list)  # per linear solve; 0 where no GMRES ran
    factorizations: int = 0
    stokes_init: bool = False


class LinearSolution(NamedTuple):
    """Full velocity and zero-mean pressure of one linear solve, and how it was solved."""

    velocity: np.ndarray
    pressure: np.ndarray
    residual: float  # relative, over every unpinned row
    krylov_iterations: int
    factor: object | None  # the SuperLU made by this solve, None when it made none


def _relative_residual(system: SaddleSystem, x: np.ndarray) -> float:
    r = np.linalg.norm(system.matrix @ x - system.rhs)
    r_pinned = (system.pinned_row @ x)[0] - system.pinned_rhs
    b = np.hypot(np.linalg.norm(system.rhs), system.pinned_rhs)
    res = np.hypot(r, r_pinned)
    return float(res / b if b > 0 else res)


def _krylov(system: SaddleSystem) -> tuple[np.ndarray, bool, int]:
    """GMRES preconditioned by system.preconditioner: (x, converged, iterations)."""
    iterations = 0

    def count(_):
        nonlocal iterations
        iterations += 1

    M = spla.LinearOperator(system.matrix.shape, matvec=system.preconditioner.solve)
    # "legacy" makes maxiter count inner iterations, so restarts that the
    # true-residual check asks for stay inside the budget
    x, info = spla.gmres(
        system.matrix,
        system.rhs,
        rtol=KRYLOV_RTOL,
        atol=0.0,
        restart=KRYLOV_BUDGET,
        maxiter=KRYLOV_BUDGET,
        M=M,
        callback=count,
        callback_type="legacy",
    )
    return x, info == 0, iterations


def solve_linear(system: SaddleSystem) -> LinearSolution:
    """Solve one saddle system on its free unknowns.

    Without system.preconditioner, system.matrix is factored and solved
    directly.  With one, GMRES preconditioned by it runs for at most
    KRYLOV_BUDGET iterations; if GMRES misses its tolerance or its answer
    fails the residual check, the preconditioner is dropped from the system
    and system.matrix is factored and solved directly.  A factor made here
    is returned for later steps.  The relative residual over every unpinned
    row, the pinned cell's continuity row included, must come out at 1e-10
    or better, otherwise the system is reported as singular; boundary data
    with a nonzero net flux fails here.  The returned velocity and pressure
    are full vectors, the pressure with zero mean.
    """
    iterations = 0
    if system.preconditioner is not None:
        x, converged, iterations = _krylov(system)
        if converged:
            rel = _relative_residual(system, x)
            if rel <= RESIDUAL_TOL:
                return LinearSolution(*system.expand(x), rel, iterations, None)
        logger.info("GMRES missed after %d iterations; refactoring the %d-row system", iterations, len(x))
        system.preconditioner = None  # release the stale factor first: holding both grows the heap

    mat = system.matrix.tocsc()
    try:
        lu = spla.splu(mat)
    except RuntimeError as err:
        empty_rows = int(np.sum(np.diff(system.matrix.indptr) == 0))
        raise SingularSystemError(
            f"sparse factorization failed ({err}); matrix {mat.shape[0]}x{mat.shape[1]}, "
            f"{empty_rows} structurally empty rows"
        ) from err
    x = lu.solve(system.rhs)
    if not np.all(np.isfinite(x)):
        raise SingularSystemError("factorization produced non-finite values")
    rel = _relative_residual(system, x)
    if rel > RESIDUAL_TOL:
        # B^T annihilates constants, so the continuity right-hand sides of all
        # cells sum to minus the net outward flux of the boundary data, which
        # a solvable problem has at zero
        flux = -(system.rhs[system.pressure].sum() + system.pinned_rhs)
        raise SingularSystemError(
            f"linear solve residual {rel:.3e} exceeds {RESIDUAL_TOL:.0e}; "
            f"net outward boundary flux of the Dirichlet data is {flux:.3e}"
        )
    return LinearSolution(*system.expand(x), rel, iterations, lu)


def has_diverged(update_norms: list[float], factor: float = 1e3, run: int = 3) -> bool:
    """True when the last `run` updates all exceed `factor` times the first one."""
    if len(update_norms) < run + 1:
        return False
    threshold = factor * update_norms[0]
    return all(u > threshold for u in update_norms[-run:])


def _relative_update(x_new: np.ndarray, x_old: np.ndarray) -> float:
    denom = np.linalg.norm(x_new)
    diff = np.linalg.norm(x_new - x_old)
    return float(diff / denom) if denom > 0 else float(diff)


def solve_navier_stokes(
    mesh: MeshTopology,
    params: FormParams,
    settings: NonlinearSettings = NonlinearSettings(),
    force=None,
    boundary: dict | None = None,
) -> tuple[EGFunction, PressureFunction, SolveReport]:
    """Picard iteration for the stationary momentum/continuity system.

    force is a vectorized callable x -> f(x) (zero when omitted); boundary
    maps boundary vertices to velocity values (missing vertices are fixed
    to zero).  Raises DivergedError when the update norm grows beyond
    1000x the initial update for three consecutive iterations.
    """
    layout = layout_for(mesh)
    report = SolveReport()

    disc = asm.discretization(mesh)
    # build the mesh-bound operators here, on the mesh's first solve, rather
    # than inside whichever form first needs them
    disc.viscous(params)
    disc.divergence()
    if params.pressure_robust:
        disc.reconstruction()
    dofs, values, g_nodal = asm.dirichlet_data(mesh, boundary)
    if force is None:
        F = np.zeros(layout.n_velocity)
    else:
        F = asm.assemble_load(mesh, force, params)
    # weak Dirichlet data of the viscous and divergence forms (zero for g = 0)
    F = F + params.viscosity * asm.sipg_boundary_load(mesh, g_nodal, params)
    cont_load = asm.divergence_boundary_load(mesh, g_nodal)

    factor = None  # LU of the last factored system, preconditioner of the next

    def linear_solve(convection: sp.csr_matrix, rhs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        nonlocal factor
        system = asm.build_saddle_system(
            mesh,
            params,
            convection,
            rhs,
            dirichlet=(dofs, values),
            continuity_load=cont_load,
        )
        system.preconditioner, factor = factor, None  # the system alone holds it, so a refactor frees it
        solution = solve_linear(system)
        if solution.factor is None:
            factor = system.preconditioner
        else:
            factor = solution.factor
            report.factorizations += 1
        report.linear_residuals.append(solution.residual)
        report.krylov_iterations.append(solution.krylov_iterations)
        return solution.velocity, solution.pressure

    if settings.init == "stokes":
        u0, p0 = linear_solve(sp.csr_matrix((layout.n_velocity, layout.n_velocity)), F)
        report.stokes_init = True
        x_old = np.concatenate([u0, p0])
        z = EGFunction.from_vector(mesh, u0)
    else:
        x_old = np.zeros(layout.n_velocity + layout.n_pressure)
        z = EGFunction.zero(mesh)

    for _ in range(settings.max_iters):  # at least once: NonlinearSettings checks max_iters >= 1
        u, p = linear_solve(
            asm.assemble_convection(mesh, z, params),
            F + asm.convective_boundary_load(mesh, z, g_nodal, params),
        )
        x_new = np.concatenate([u, p])
        update = _relative_update(x_new, x_old)
        report.iterations += 1
        report.update_norms.append(update)
        z = EGFunction.from_vector(mesh, u)
        x_old = x_new
        if update < settings.tol:
            report.converged = True
            break
        if has_diverged(report.update_norms):
            raise DivergedError(
                f"update norm {update:.3e} stayed above 1000x the initial "
                f"update for 3 iterations ({report.iterations} total)",
                report,
            )

    velocity = EGFunction.from_vector(mesh, u)
    pressure = PressureFunction(mesh, p.copy())
    return velocity, pressure, report
