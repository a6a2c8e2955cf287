"""Linear saddle-point solves and the Picard loop for the stationary problem.

The nonlinear iteration freezes the transport field at the previous iterate,
rebuilds the scalar convection matrix C_s (assembly.ConvectionOperator), and
solves one linear system per step on the free unknowns (see
assembly.SaddleSystem: Dirichlet dofs lifted out, one pressure pinned, the
zero pressure mean restored afterwards).  The first system of a solve is
assembled and factored by sparse LU; later steps reuse that factor as the
left preconditioner of GMRES (_krylov, which spends one LU solve per
iteration and per restart cycle, none on a step that starts at the
solution), started from the previous iterate.  GMRES applies the system as
the fixed blocks plus P^T (C_s (P u)), so such a step assembles no matrix.
A step refactors, and only then assembles its saddle matrix, when GMRES
misses its tolerance within a fixed budget, which at small viscosity happens
once the frozen transport has moved far from the factored one.  The last
factor of a solve stays on the mesh's Discretization, so that the next solve
with the same viscosity, penalty and Dirichlet dofs, such as the cavity's
watertight re-solve, preconditions its first system with it instead of
factoring.  Each LU is taken of the symmetrically scaled matrix in a
nested-dissection order of the mesh, with every cell's pressure right after
its bubble, so that threshold partial pivoting keeps the pivots on the
diagonal and the factor keeps the fill of the dissection.  Convergence is
measured on the relative Euclidean update of the stacked (velocity,
pressure) coefficient vector.  The iteration starts either from zero or
from the solution of the Stokes problem (same system without convection).
"""

from __future__ import annotations

import hashlib
import itertools
import logging
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import solve_triangular

from . import assembly as asm
from .assembly import FormParams, SaddleSystem
from .mesh import MeshTopology
from .spaces import EGFunction, PressureFunction, layout_for


logger = logging.getLogger(__name__)

RESIDUAL_TOL = 1e-10  # relative residual every accepted linear solve must reach
KRYLOV_RTOL = 1e-12  # GMRES target, well inside RESIDUAL_TOL
KRYLOV_BUDGET = 20  # GMRES iterations before refactoring
DIAG_PIVOT_THRESH = 0.01  # SuperLU keeps the diagonal pivot unless it is below this share of the column's largest
DISSECTION_LEAF = 16  # parts of at most this many mesh nodes are not split further
DIVERGENCE_FACTOR = 1e3  # Picard diverges when DIVERGENCE_RUN updates in a row exceed this multiple of the first
DIVERGENCE_RUN = 3


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
    factor: OrderedFactor | None  # the factor made by this solve, None when it made none


def _relative_residual(system: SaddleSystem, x: np.ndarray, r_norm: float) -> float:
    """Relative residual over every unpinned row, given r_norm = |rhs - matrix @ x| of the square rows."""
    r_pinned = (system.pinned_row @ x)[0] - system.pinned_rhs
    b = np.hypot(np.linalg.norm(system.rhs), system.pinned_rhs)
    res = np.hypot(r_norm, r_pinned)
    return float(res / b if b > 0 else res)


def _krylov(system: SaddleSystem, x0: np.ndarray | None) -> tuple[np.ndarray, bool, int, int, float]:
    """GMRES from x0, left-preconditioned by system.preconditioner: (x, converged, iterations, cycles, |b - A x|).

    A is applied as system.apply, without assembling the matrix.  Each cycle
    minimizes |M (b - A x)| over the Krylov space of M A, with
    M = system.preconditioner.solve applied once to the cycle's residual and
    once per iteration, so a call costs iterations + cycles solves, none when
    x0 already meets the tolerance.  A cycle stops once the preconditioned
    residual is KRYLOV_RTOL times |M b|, which M ~ A^-1 lets |x0| stand for
    on a warm start; on a cold start r = b, so the first vector gives it.
    Converged means the true residual |b - A x| reached KRYLOV_RTOL |b|; its
    last value is returned for the caller's residual check.
    A cycle that stops short of that restarts from the new residual with a
    tighter inner target, while the KRYLOV_BUDGET iterations of the call last.
    """
    A, b, precondition = system.apply, system.rhs, system.preconditioner.solve
    x = np.zeros_like(b) if x0 is None else x0.copy()
    tol = KRYLOV_RTOL * np.linalg.norm(b)
    r = b - A(x)
    r_norm = np.linalg.norm(r)
    if r_norm <= tol:
        return x, True, 0, 0, r_norm
    target = KRYLOV_RTOL * np.linalg.norm(x)  # zero on a cold start, set from the first vector
    iterations = cycles = 0
    while iterations < KRYLOV_BUDGET:
        cycles += 1
        size = KRYLOV_BUDGET - iterations
        basis = np.empty((size + 1, len(b)))
        hess = np.zeros((size + 1, size))  # upper triangular once rotated
        rotations = np.zeros((size, 2))
        z = precondition(r)
        g = np.zeros(size + 1)  # rotated |M r| e_1; |g[k]| is the preconditioned residual after k iterations
        g[0] = np.linalg.norm(z)
        target = target or KRYLOV_RTOL * g[0]
        basis[0] = z / g[0]
        for k in range(size):
            w = precondition(A(basis[k]))
            w_norm = np.linalg.norm(w)
            for i in range(k + 1):  # modified Gram-Schmidt
                hess[i, k] = basis[i] @ w
                w -= hess[i, k] * basis[i]
            h = np.linalg.norm(w)
            breakdown = h <= np.finfo(float).eps * w_norm  # the space holds the exact solution
            if not breakdown:
                hess[k + 1, k] = h
                basis[k + 1] = w / h
            for i, (c, s) in enumerate(rotations[:k]):
                hess[i : i + 2, k] = c * hess[i, k] + s * hess[i + 1, k], c * hess[i + 1, k] - s * hess[i, k]
            rho = np.hypot(hess[k, k], hess[k + 1, k])
            rotations[k] = hess[k, k] / rho, hess[k + 1, k] / rho
            hess[k, k], hess[k + 1, k] = rho, 0.0
            g[k : k + 2] = rotations[k, 0] * g[k], -rotations[k, 1] * g[k]
            iterations += 1
            if abs(g[k + 1]) <= target or breakdown:
                break
        x += solve_triangular(hess[: k + 1, : k + 1], g[: k + 1], check_finite=False) @ basis[: k + 1]
        r = b - A(x)
        r_norm = np.linalg.norm(r)
        if r_norm <= tol:
            return x, True, iterations, cycles, r_norm
        if breakdown:
            break
        # aim below this cycle's preconditioned residual by the share the true
        # residual still has to fall, and by at least 4x per restart
        target = abs(g[k + 1]) * min(0.25**cycles, tol / r_norm)
    return x, False, iterations, cycles, r_norm


# -- direct factorization --------------------------------------------------


def _neighbours(adjacency: sp.csr_matrix, nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(source, neighbour) for every stored entry of the given rows of a CSR graph."""
    starts = adjacency.indptr[nodes]
    counts = adjacency.indptr[nodes + 1] - starts
    source = np.repeat(np.arange(len(nodes)), counts)
    slots = np.repeat(starts - np.cumsum(counts) + counts, counts) + np.arange(counts.sum())
    return source, adjacency.indices[slots]


def _dissection_order(system: SaddleSystem) -> np.ndarray:
    """Nested-dissection permutation of the unknowns of system.matrix.

    The unknowns sharing a mesh node (system.nodes) move together: the two
    components of a vertex, and the bubble of a cell with that cell's
    pressure, which has a zero diagonal and so must follow its bubble.
    Nodes are split recursively at the median of their positions along the
    longer side of their bounding box.  Every edge of the matrix graph
    across the cut puts one of its ends into the separator, the end with
    more such edges, so the separator runs along the middle of the band of
    cut edges; it is ordered after both halves.  Within a node, unknowns keep
    their order, so a pressure comes right after its bubble.
    """
    n = system.matrix.shape[0]
    num_nodes = len(system.node_positions)
    member = sp.csr_matrix((np.ones(n), (np.arange(n), system.nodes)), shape=(n, num_nodes))
    pattern = abs(system.matrix)
    adjacency = (member.T @ (pattern + pattern.T) @ member).tocsr()
    owner = np.full(num_nodes, -1)  # the split a node last took part in
    local = np.zeros(num_nodes, dtype=np.int64)  # its index in that part
    splits = itertools.count()
    order = []

    def dissect(part: np.ndarray) -> None:
        if len(part) <= DISSECTION_LEAF:
            order.append(part)
            return
        xy = system.node_positions[part]
        axis = int(np.argmax(np.ptp(xy, axis=0)))
        lower = np.zeros(len(part), dtype=bool)
        lower[np.argpartition(xy[:, axis], len(part) // 2)[: len(part) // 2]] = True
        split = next(splits)
        owner[part] = split
        local[part] = np.arange(len(part))
        source, neighbour = _neighbours(adjacency, part)
        inside = owner[neighbour] == split
        source, target = source[inside], local[neighbour[inside]]
        across = lower[source] & ~lower[target]
        low, high = source[across], target[across]
        degree = np.bincount(low, minlength=len(part)) + np.bincount(high, minlength=len(part))
        keep_low = degree[low] >= degree[high]
        separator = np.zeros(len(part), dtype=bool)
        separator[low[keep_low]] = True
        separator[high[~keep_low]] = True
        for half in (lower, ~lower):
            dissect(part[half & ~separator])
        order.append(part[separator])

    dissect(np.flatnonzero(np.bincount(system.nodes, minlength=num_nodes)))
    rank = np.empty(num_nodes, dtype=np.int64)
    ordered = np.concatenate(order)
    rank[ordered] = np.arange(len(ordered))
    return np.lexsort((np.arange(n), rank[system.nodes]))


def _symmetric_scaling(system: SaddleSystem) -> np.ndarray:
    """Diagonal D under which D @ matrix @ D has unit velocity diagonal and pressure rows of largest entry 1.

    A velocity unknown is scaled by |A_ii|^-1/2, a pressure row so that its
    largest scaled velocity coupling is 1; unknowns without such an entry
    keep scale 1, so a structurally singular matrix still reaches the
    factorization and is reported there.
    """
    mat = system.matrix
    scale = np.ones(mat.shape[0])
    vel = system.velocity
    diag = np.abs(mat.diagonal()[vel])
    scale[vel] = np.divide(1.0, np.sqrt(diag), out=np.ones_like(diag), where=diag > 0)
    coupling = abs(mat[system.pressure][:, vel]) @ sp.diags(scale[vel])
    largest = coupling.max(axis=1).toarray().ravel()
    scale[system.pressure] = np.divide(1.0, largest, out=np.ones_like(largest), where=largest > 0)
    return scale


class OrderedFactor:
    """LU of P D A D P^T for a saddle matrix A, D diagonal and P a permutation.

    solve() takes and returns vectors in the unknown order of A.
    """

    def __init__(self, lu, scale: np.ndarray, order: np.ndarray):
        self.nnz = lu.nnz  # stored factor size, supernode padding included
        self._lu = lu
        self._scale = scale
        self._order = order

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        y = self._lu.solve(self._scale[self._order] * rhs[self._order])
        x = np.empty_like(y)
        x[self._order] = y
        return self._scale * x


def _factor(system: SaddleSystem) -> OrderedFactor:
    """Sparse LU of system.matrix, symmetrically scaled and in nested-dissection order.

    With the pressures right after their bubbles and the matrix scaled, a
    threshold on partial pivoting keeps nearly every pivot on the diagonal,
    so the dissection order survives the factorization.  The order depends
    only on the sparsity pattern, so it is computed once per pattern and
    kept in system.orders.
    """
    mat = system.matrix
    scale = _symmetric_scaling(system)
    pattern = hashlib.blake2b(b"".join(a.tobytes() for a in (mat.indptr, mat.indices, system.nodes))).digest()
    if pattern not in system.orders:
        system.orders[pattern] = _dissection_order(system)
    order = system.orders[pattern]
    D = sp.diags(scale)
    ordered = (D @ mat @ D).tocsr()[order][:, order].tocsc()
    try:
        lu = spla.splu(ordered, permc_spec="NATURAL", diag_pivot_thresh=DIAG_PIVOT_THRESH)
    except RuntimeError as err:
        empty_rows = int(np.sum(np.diff(mat.indptr) == 0))
        raise SingularSystemError(
            f"sparse factorization failed ({err}); matrix {mat.shape[0]}x{mat.shape[1]}, "
            f"{empty_rows} structurally empty rows"
        ) from err
    return OrderedFactor(lu, scale, order)


def solve_linear(system: SaddleSystem, x0: np.ndarray | None = None) -> LinearSolution:
    """Solve one saddle system on its free unknowns.

    Without system.preconditioner, system.matrix is assembled and factored
    (see _factor()) and solved directly.  With one, GMRES left-preconditioned
    by it starts from x0 (zero when omitted), applies the system without
    assembling its matrix and runs for at most KRYLOV_BUDGET iterations (see
    _krylov); if GMRES misses its tolerance or its answer fails the residual
    check, the preconditioner is dropped from the system and system.matrix
    is assembled, factored and solved directly.  A factor made here is
    returned for later steps.
    The relative residual over every unpinned row, the pinned cell's
    continuity row included, must come out at 1e-10 or better, otherwise the
    system is reported as singular; boundary data with a nonzero net flux
    fails here.  The returned velocity and pressure are full vectors, the
    pressure with zero mean.
    """
    iterations = 0
    if system.preconditioner is not None:
        x, converged, iterations, cycles, r_norm = _krylov(system, x0)
        if converged:
            rel = _relative_residual(system, x, r_norm)
            if rel <= RESIDUAL_TOL:
                return LinearSolution(*system.expand(x), rel, iterations, None)
        logger.info(
            "GMRES missed after %d iterations in %d cycles; refactoring the %d-row system", iterations, cycles, len(x)
        )
        system.preconditioner = None  # release the stale factor first: holding both grows the heap

    lu = _factor(system)
    x = lu.solve(system.rhs)
    if not np.all(np.isfinite(x)):
        raise SingularSystemError("factorization produced non-finite values")
    rel = _relative_residual(system, x, np.linalg.norm(system.matrix @ x - system.rhs))
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


def has_diverged(update_norms: list[float]) -> bool:
    """True when the last DIVERGENCE_RUN updates all exceed DIVERGENCE_FACTOR times the first one."""
    if len(update_norms) < DIVERGENCE_RUN + 1:
        return False
    threshold = DIVERGENCE_FACTOR * update_norms[0]
    return all(u > threshold for u in update_norms[-DIVERGENCE_RUN:])


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
    1000x the initial update for three consecutive iterations.  A solve
    that returns leaves its last LU factor on the mesh's Discretization
    (saddle_factor) for the next solve on that mesh.
    """
    layout = layout_for(mesh)
    report = SolveReport()

    disc = asm.discretization(mesh)
    dofs, values, g_nodal = asm.dirichlet_data(mesh, boundary)
    # the LU the last solve on this mesh kept preconditions the first system
    # if it was made with the same saddle blocks; the solve alone holds it
    # from here, and a factor of other blocks is freed before anything is built
    key = asm.saddle_key(params, dofs)
    factor = disc.saddle_factor[1] if disc.saddle_factor is not None and disc.saddle_factor[0] == key else None
    disc.saddle_factor = None
    # build the mesh-bound operators here, on the mesh's first solve, rather
    # than inside whichever form first needs them
    disc.viscous(params)
    disc.divergence()
    if params.pressure_robust:
        disc.reconstruction()
    if force is None:
        F = np.zeros(layout.n_velocity)
    else:
        F = asm.assemble_load(mesh, force, params)
    # weak Dirichlet data of the viscous and divergence forms (zero for g = 0)
    F = F + params.viscosity * asm.sipg_boundary_load(mesh, g_nodal, params)
    cont_load = asm.divergence_boundary_load(mesh, g_nodal)

    last = None  # (velocity, pressure) of the last solve, where GMRES starts

    def linear_solve(convection: asm.ConvectionOperator | None, rhs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        nonlocal factor, last
        system = asm.build_saddle_system(
            mesh,
            params,
            convection,
            rhs,
            dirichlet=(dofs, values),
            continuity_load=cont_load,
        )
        system.preconditioner, factor = factor, None  # the system alone holds it, so a refactor frees it
        solution = solve_linear(system, None if last is None else system.restrict(*last))
        last = solution.velocity, solution.pressure
        if solution.factor is None:
            factor = system.preconditioner
        else:
            factor = solution.factor
            report.factorizations += 1
        report.linear_residuals.append(solution.residual)
        report.krylov_iterations.append(solution.krylov_iterations)
        return solution.velocity, solution.pressure

    if settings.init == "stokes":
        u0, p0 = linear_solve(None, F)
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
                f"update norm {update:.3e} stayed above {DIVERGENCE_FACTOR:.0f}x the initial "
                f"update for {DIVERGENCE_RUN} iterations ({report.iterations} total)",
                report,
            )

    disc.saddle_factor = key, factor
    velocity = EGFunction.from_vector(mesh, u)
    pressure = PressureFunction(mesh, p.copy())
    return velocity, pressure, report
