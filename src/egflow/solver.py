"""Linear saddle-point solves and the Picard loop for the stationary problem.

The nonlinear iteration freezes the transport field at the previous iterate,
rebuilds the scalar convection matrix C_s (assembly.ConvectionOperator), and
solves one linear system per step on the free unknowns (see
assembly.SaddleSystem: Dirichlet dofs lifted out, one pressure pinned, the
zero pressure mean restored afterwards).  Every system is solved by GMRES
right-preconditioned by a sparse LU (_krylov, which spends one LU solve per
GMRES iteration, none per restart and none on a step that starts at the
solution), started from the previous iterate.  GMRES applies the system as
the fixed blocks plus P^T (C_s (P u)), so a step that reuses the kept LU
assembles no matrix.  A step factors, and only then assembles its saddle
matrix, when no LU is kept or GMRES misses its tolerance within a fixed
budget, which at small viscosity happens once the frozen transport has
moved far from the factored one; GMRES then runs again with the new LU,
from where the stale attempt stopped.
The kept factor and the orders live with the saddle blocks
(assembly._SaddleBlocks), which the mesh's Discretization keeps for the
last viscosity and penalty asked for, so that the next solve with the same
ones, such as the cavity's watertight re-solve, preconditions its first
system with the last accepted factor instead of factoring.  Each LU is
taken of the symmetrically scaled matrix in a minimum-degree order of the
node graph, with every cell's pressure right after its bubble, so that
threshold partial pivoting keeps the pivots on the diagonal and the factor
keeps the fill of that order.  The LU stores its values in single
precision, which halves their memory, and GMRES in double precision refines
every solve to the same tolerances (Arioli & Duff, ETNA 33, 2009; Carson &
Higham, SISC 40, 2018).  Convergence is
measured on the relative Euclidean update of the stacked (velocity,
pressure) coefficient vector; an iteration that does not reach the
tolerance within its step budget returns its last iterate and reports
itself not converged.  Every iteration starts from zero, whose step
assembles no convection; a Stokes start leaves that first step uncounted.
"""

from __future__ import annotations

import hashlib
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


logger = logging.getLogger(__name__)

RESIDUAL_TOL = 1e-10  # relative residual every accepted linear solve must reach
KRYLOV_RTOL = 1e-12  # GMRES target, well inside RESIDUAL_TOL
KRYLOV_BUDGET = 20  # GMRES iterations before refactoring
DIAG_PIVOT_THRESH = 0.01  # SuperLU keeps the diagonal pivot unless it is below this share of the column's largest


class SingularSystemError(RuntimeError):
    """Direct factorization failed or produced an unusable solution."""


@dataclass(frozen=True)
class NonlinearSettings:
    tol: float = 1e-10
    max_iters: int = 20
    init: str = "zero"  # or "stokes": the same iteration from zero, its first step left uncounted

    def __post_init__(self):
        asm.check_positive_finite("tol", self.tol)
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
    # GMRES iterations per linear solve, with the kept LU and with a new one
    # together; each costs one LU solve, and nothing else does, so the LU
    # solves of a run number sum(krylov_iterations)
    krylov_iterations: list[int] = field(default_factory=list)
    factorizations: int = 0


class LinearSolution(NamedTuple):
    """Full velocity and zero-mean pressure of one linear solve, and how it was solved."""

    velocity: np.ndarray
    pressure: np.ndarray
    residual: float  # relative, over every unpinned row
    krylov_iterations: int  # with the kept factor and the new one together
    factored: bool  # whether this solve made a new factor


def _relative_residual(system: SaddleSystem, x: np.ndarray, r_norm: float) -> float:
    """Relative residual over every unpinned row, given r_norm = |rhs - matrix @ x| of the square rows."""
    r_pinned = (system.blocks.pinned_row @ x)[0] - system.pinned_rhs
    b = np.hypot(np.linalg.norm(system.rhs), system.pinned_rhs)
    res = np.hypot(r_norm, r_pinned)
    return float(res / b if b > 0 else res)


def _krylov(system: SaddleSystem, x0: np.ndarray | None, factor: OrderedFactor) -> tuple[np.ndarray, bool, int, float]:
    """GMRES from x0, right-preconditioned by factor: (x, converged, iterations, |b - A x|).

    A is applied as system.apply, without assembling the matrix.  From its
    start x_c, each cycle minimizes |b - A x| over x_c + M K, where K is the
    Krylov space of A M from b - A x_c and M = factor.solve.
    It keeps the preconditioned vectors Z = M V, the flexible form (Saad,
    SISC 14, 1993), so the update is Z y without another solve: a call
    costs one solve per iteration, none per restart and none when x0
    already meets the tolerance.  V is orthogonalized by classical
    Gram-Schmidt run twice, which keeps it orthonormal to rounding, so the
    Arnoldi recurrence carries |b - A x| as |g[k + 1]| also from a start far
    from the solution.  A cycle stops once that is a tenth of KRYLOV_RTOL
    |b|, a margin for the rounding of the update x_c + Z y.  Converged
    means the recomputed |b - A x| reached KRYLOV_RTOL |b|; its last value
    is returned for the caller's residual check.  A cycle that stops short
    of that restarts from the new residual while the KRYLOV_BUDGET
    iterations of the call last.
    """
    A, b, precondition = system.apply, system.rhs, factor.solve
    x = np.zeros_like(b) if x0 is None else x0.copy()
    tol = KRYLOV_RTOL * np.linalg.norm(b)
    r = b - A(x)
    r_norm = np.linalg.norm(r)
    iterations = 0
    while r_norm > tol and iterations < KRYLOV_BUDGET:
        size = KRYLOV_BUDGET - iterations
        basis = np.empty((size + 1, len(b)))
        preconditioned = np.empty((size, len(b)))
        hess = np.zeros((size + 1, size))  # upper triangular once rotated
        rotations = np.zeros((size, 2))
        g = np.zeros(size + 1)  # rotated |r| e_1; |g[k]| is the residual after k iterations
        g[0] = r_norm
        basis[0] = r / r_norm
        for k in range(size):
            preconditioned[k] = precondition(basis[k])
            w = A(preconditioned[k])
            w_norm = np.linalg.norm(w)
            for _ in range(2):
                projection = basis[: k + 1] @ w
                w -= projection @ basis[: k + 1]
                hess[: k + 1, k] += projection
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
            if abs(g[k + 1]) <= 0.1 * tol or breakdown:
                break
        x += solve_triangular(hess[: k + 1, : k + 1], g[: k + 1], check_finite=False) @ preconditioned[: k + 1]
        r = b - A(x)
        r_norm = np.linalg.norm(r)
    return x, r_norm <= tol, iterations, r_norm


# -- direct factorization --------------------------------------------------


def _node_order(system: SaddleSystem) -> np.ndarray:
    """Minimum-degree permutation of the unknowns of system.matrix, by mesh node.

    The unknowns sharing a mesh node (system.blocks.nodes) move together:
    the two components of a vertex, and the bubble of a cell with that
    cell's pressure, which has a zero diagonal and so must follow its
    bubble.  Two nodes are joined when the matrix stores an entry between
    any of their unknowns, and SuperLU orders that graph by multiple minimum
    degree (Liu, ACM TOMS 11, 1985).  The graph is read off the sparsity
    pattern alone: member^T S member, for S the float32 ones on the
    matrix's own index arrays and member the unknown-to-node incidence,
    symmetrized on the nodes, so the only temporaries larger than the
    graph are S's values and S member.  SuperLU gives the order only with a
    factorization: spilu reports the perm_c that splu would with these
    options, and with every off-diagonal dropped and a dominant diagonal it
    factors almost nothing.  Within a node, unknowns keep their order, so a
    pressure comes right after its bubble.
    """
    mat = system.matrix
    n = mat.shape[0]
    used, node = np.unique(system.blocks.nodes, return_inverse=True)
    member = sp.csr_matrix((np.ones(n, dtype=np.float32), node, np.arange(n + 1)), shape=(n, len(used)))
    # S member is formed, and S freed, before member^T multiplies it
    graph = member.T.tocsr() @ (
        sp.csr_matrix((np.ones(mat.nnz, dtype=np.float32), mat.indices, mat.indptr), shape=mat.shape) @ member
    )
    graph = (graph + graph.T).tocsc()
    graph.data[:] = 1.0
    graph += len(used) * sp.eye(len(used), format="csc")
    rank = spla.spilu(
        graph,
        permc_spec="MMD_AT_PLUS_A",
        drop_tol=1e300,
        fill_factor=1,
        diag_pivot_thresh=0.0,
        options=dict(SymmetricMode=True),
    ).perm_c
    return np.lexsort((np.arange(n), rank[node]))


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
    """Single-precision LU of P D A D P^T for a saddle matrix A, D diagonal and P a permutation.

    solve() takes and returns double-precision vectors in the unknown order
    of A; only the triangular solves run in single precision, so it solves
    with A only to about single-precision accuracy, as a preconditioner.
    """

    def __init__(self, lu, scale: np.ndarray, order: np.ndarray):
        self._lu = lu
        self._scale = scale[order]  # D in the factor's order
        self._order = order

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        x = np.empty_like(rhs)
        x[self._order] = self._scale * self._lu.solve((self._scale * rhs[self._order]).astype(np.float32))
        return x


def _factor(system: SaddleSystem) -> OrderedFactor:
    """Single-precision sparse LU of system.matrix, symmetrically scaled, in a minimum-degree order of the node graph.

    The scaled and ordered matrix is rounded to float32 and factored as
    such, so the factor's values take half the memory of double precision
    at the same fill.  With the pressures right after their bubbles and the
    matrix scaled, a threshold on partial pivoting keeps nearly every pivot
    on the diagonal, so the order (_node_order) survives the factorization.
    The nodes are fixed with the blocks, so the order depends only on the
    sparsity pattern; it is computed once per pattern and kept in
    system.blocks.orders.
    """
    mat = system.matrix
    scale = _symmetric_scaling(system)
    orders = system.blocks.orders
    h = hashlib.blake2b()  # fed array by array, without a concatenated copy of the pattern
    h.update(mat.indptr)
    h.update(mat.indices)
    pattern = h.digest()
    if pattern not in orders:
        orders[pattern] = _node_order(system)
    order = orders[pattern]
    D = sp.diags(scale)
    ordered = (D @ mat @ D).tocsr()[order][:, order].tocsc().astype(np.float32)
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
    """Solve one saddle system on its free unknowns by GMRES preconditioned by a sparse LU.

    GMRES (see _krylov) starts from x0 (zero when omitted), applies the
    system without assembling its matrix and runs for at most KRYLOV_BUDGET
    iterations, right-preconditioned by the factor kept on system.blocks.
    Without a kept factor, or when GMRES with it misses its tolerance or
    its answer fails the residual check, the kept factor is dropped,
    system.matrix is assembled and factored (see _factor()), and GMRES runs
    again with the new factor, which alone leaves a relative residual of
    order 1e-4.  It starts from the stale attempt's iterate, whose residual
    is no larger than x0's, unless that iterate is not finite.  A new factor
    is kept on system.blocks for later steps and solves only once its own
    solve has passed the residual check.
    The relative residual over every unpinned row, the pinned cell's
    continuity row included, must come out at 1e-10 or better, otherwise the
    system is reported as singular; boundary data with a nonzero net flux
    fails here.  The returned velocity and pressure are full vectors, the
    pressure with zero mean.
    """
    blocks = system.blocks
    iterations = 0
    if blocks.factor is not None:
        x, converged, iterations, r_norm = _krylov(system, x0, blocks.factor)
        if converged:
            rel = _relative_residual(system, x, r_norm)
            if rel <= RESIDUAL_TOL:
                return LinearSolution(*system.expand(x), rel, iterations, False)
        logger.info("GMRES missed after %d iterations; refactoring the %d-row system", iterations, len(x))
        blocks.factor = None  # release the stale factor first: holding both grows the heap
        if np.all(np.isfinite(x)):
            x0 = x  # GMRES never raises the residual of its start

    lu = _factor(system)
    x, _, fresh_iterations, r_norm = _krylov(system, x0, lu)
    iterations += fresh_iterations
    if not np.all(np.isfinite(x)):
        raise SingularSystemError("factorization produced non-finite values")
    rel = _relative_residual(system, x, r_norm)
    if rel > RESIDUAL_TOL:
        # B^T annihilates constants, so the continuity right-hand sides of all
        # cells sum to minus the net outward flux of the boundary data, which
        # a solvable problem has at zero
        flux = -(system.rhs[system.pressure].sum() + system.pinned_rhs)
        raise SingularSystemError(
            f"linear solve residual {rel:.3e} exceeds {RESIDUAL_TOL:.0e} after {fresh_iterations} "
            f"GMRES iterations with a new factor; net outward boundary flux of the Dirichlet data is {flux:.3e}"
        )
    blocks.factor = lu
    return LinearSolution(*system.expand(x), rel, iterations, True)


def _relative_update(x_new: np.ndarray, x_old: np.ndarray) -> float:
    denom = np.linalg.norm(x_new)
    diff = np.linalg.norm(x_new - x_old)
    return float(diff / denom) if denom > 0 else float(diff)


def solve_navier_stokes(
    mesh: MeshTopology,
    params: FormParams,
    settings: NonlinearSettings = NonlinearSettings(),
    force=None,
    boundary: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, SolveReport]:
    """Picard iteration for the stationary momentum/continuity system.

    Returns the velocity coefficient vector (layout in the assembly module
    docstring), the zero-mean cell pressures and the report.

    force is a vectorized callable x -> f(x) (zero when omitted).  boundary
    is the (nv, 2) nodal Dirichlet data, row v the velocity at vertex v, as
    lid_values builds it; it must be zero off the boundary, and None holds
    every boundary vertex at rest (see assembly.dirichlet_data, which
    checks it).  Each step solves the system linearized at the last
    iterate, by GMRES started there.  The iteration starts from u = p = 0,
    where the step assembles no convection: it is the Stokes step, except
    that in the standard scheme data with a normal flux adds the
    -1/2 (g.n) g load of the convective form.  settings.init "stokes" leaves
    that first step uncounted.  It returns once the relative update falls
    below settings.tol (converged) or after settings.max_iters counted
    steps (not converged), so a growing iterate runs to max_iters; the only
    error it raises is a linear solve's SingularSystemError.
    Nothing is built ahead of its first reader: the first step's saddle
    blocks, which the mesh's Discretization holds for this viscosity and
    penalty, assemble A and B, and R is built by the first load or
    convection that reads it.  The LU the linear solves keep stays with
    those blocks, so the next solve with the same ones starts from it.
    """
    n_velocity = 2 * mesh.num_vertices + mesh.num_triangles
    report = SolveReport()

    g_nodal = asm.dirichlet_data(mesh, boundary)
    if force is None:
        F = np.zeros(n_velocity)
    else:
        F = asm.assemble_load(mesh, force, params)
    # weak Dirichlet data of the viscous and divergence forms (zero for g = 0)
    F = F + params.viscosity * asm.sipg_boundary_load(mesh, g_nodal, params)
    cont_load = asm.divergence_boundary_load(mesh, g_nodal)

    def solve_step(u: np.ndarray, p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Solve the step linearized at the iterate (u, p) by GMRES started there, and record it."""
        convection = asm.assemble_convection(mesh, u, params) if u.any() else None  # a zero field has no convection
        load = F + asm.convective_boundary_load(mesh, u, g_nodal, params)
        system = asm.build_saddle_system(mesh, params, convection, load, g_nodal, cont_load)
        solution = solve_linear(system, system.restrict(u, p))
        if solution.factored:
            report.factorizations += 1
        report.linear_residuals.append(solution.residual)
        report.krylov_iterations.append(solution.krylov_iterations)
        return solution.velocity, solution.pressure

    u, p = np.zeros(n_velocity), np.zeros(mesh.num_triangles)
    if settings.init == "stokes":
        u, p = solve_step(u, p)  # the first step, left uncounted
    for _ in range(settings.max_iters):  # at least once: NonlinearSettings checks max_iters >= 1
        u_new, p_new = solve_step(u, p)
        update = _relative_update(np.concatenate([u_new, p_new]), np.concatenate([u, p]))
        u, p = u_new, p_new
        report.iterations += 1
        report.update_norms.append(update)
        if update < settings.tol:
            report.converged = True
            break

    return u, p, report
