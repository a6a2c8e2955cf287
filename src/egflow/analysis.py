"""Error norms, convergence studies, and the viscosity-robustness probe.

Norms of a velocity error e = u - u_h (exact u continuous, so interior
jumps of e reduce to jumps of u_h, and boundary jumps to the trace defect):

  |e|_E^2      = |grad e|_0^2 + penalty * sum_e 1/h_e |[e]|_{0,e}^2
  triple(e)^2   = mu |e|_E^2 + |e|_0^2
  triple_R(e)^2 = mu |e|_E^2 + |R e|_0^2

R e is formed from the edge normal moments of the error average: the exact
field contributes its true interior-edge moments (zero on the boundary, as
in the discrete operator), so the reconstructed error is the difference of
two fields reconstructed by the same rule.

Quadrature: volume terms use a degree-4 rule, edge terms a 4-point Gauss
rule.  Against affine discrete velocities and the polynomial manufactured
solution this integrates the energy terms exactly and the L2/pressure
terms far below discretization error, so measured EOCs are clean.

Pressure errors remove the area-weighted mean of both fields first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from . import assembly as asm
from .assembly import FormParams
from .mesh import MeshTopology, build_unit_square_mesh
from .quadrature import edge_rule, map_to_triangle, triangle_rule
from .reconstruction import bdm_mass_matrix, local_moment_blocks
from .solver import DivergedError, NonlinearSettings, SingularSystemError, solve_navier_stokes
from .spaces import EGFunction, PressureFunction

EDGE_ERROR_DEGREE = 7  # 4-point Gauss
VOLUME_ERROR_DEGREE = 4


@dataclass(frozen=True)
class ExactSolution:
    """Closed-form reference fields, each vectorized over trailing point axes."""

    u: Callable[[np.ndarray], np.ndarray]
    grad_u: Callable[[np.ndarray], np.ndarray]
    laplacian_u: Callable[[np.ndarray], np.ndarray]
    p: Callable[[np.ndarray], np.ndarray]
    grad_p: Callable[[np.ndarray], np.ndarray]


def example1_solution() -> ExactSolution:
    """Quartic stream-function vortex with a sinusoidal pressure.

    u = curl(psi) for psi = x^2 (1-x)^2 y^2 (1-y)^2, so the velocity is
    divergence free and vanishes on the boundary of the unit square;
    p = sin(pi x) cos(pi y) has zero mean there.
    """

    def f(t):
        return t * t * (1.0 - t) ** 2

    def f1(t):
        return 2.0 * t - 6.0 * t**2 + 4.0 * t**3

    def f2(t):
        return 2.0 - 12.0 * t + 12.0 * t**2

    def f3(t):
        return -12.0 + 24.0 * t

    def u(x):
        X, Y = x[..., 0], x[..., 1]
        return np.stack([f(X) * f1(Y), -f1(X) * f(Y)], axis=-1)

    def grad_u(x):
        X, Y = x[..., 0], x[..., 1]
        J = np.empty(x.shape[:-1] + (2, 2))
        J[..., 0, 0] = f1(X) * f1(Y)
        J[..., 0, 1] = f(X) * f2(Y)
        J[..., 1, 0] = -f2(X) * f(Y)
        J[..., 1, 1] = -f1(X) * f1(Y)
        return J

    def laplacian_u(x):
        X, Y = x[..., 0], x[..., 1]
        return np.stack(
            [f2(X) * f1(Y) + f(X) * f3(Y), -f3(X) * f(Y) - f1(X) * f2(Y)], axis=-1
        )

    def p(x):
        return np.sin(np.pi * x[..., 0]) * np.cos(np.pi * x[..., 1])

    def grad_p(x):
        X, Y = x[..., 0], x[..., 1]
        return np.stack(
            [
                np.pi * np.cos(np.pi * X) * np.cos(np.pi * Y),
                -np.pi * np.sin(np.pi * X) * np.sin(np.pi * Y),
            ],
            axis=-1,
        )

    return ExactSolution(u=u, grad_u=grad_u, laplacian_u=laplacian_u, p=p, grad_p=grad_p)


def forcing_from_exact(ex: ExactSolution, mu: float) -> Callable[[np.ndarray], np.ndarray]:
    """Momentum forcing -mu lap(u) + (u.grad)u + grad(p) of the exact fields."""

    def force(x):
        u = ex.u(x)
        conv = np.einsum("...ij,...j->...i", ex.grad_u(x), u)
        return -mu * ex.laplacian_u(x) + conv + ex.grad_p(x)

    return force


@dataclass
class ConvergenceRow:
    h: float
    energy_err: float
    energy_r_err: float
    l2_u_err: float
    l2_p_err: float
    energy_eoc: float | None = None
    energy_r_eoc: float | None = None
    l2_u_eoc: float | None = None
    l2_p_eoc: float | None = None
    iterations: int = 0
    converged: bool = False
    note: str = ""


# -- norm evaluation ------------------------------------------------------


def _discrete_at(mesh: MeshTopology, u_h: EGFunction, lam: np.ndarray, pts: np.ndarray) -> np.ndarray:
    nodal = u_h.nodal[mesh.triangles]
    return np.einsum("qk,tki->tqi", lam, nodal) + u_h.bubble[:, None, None] * (
        pts - mesh.barycenters[:, None, :]
    )


def _edge_error_terms(mesh, u_h, ex, penalty):
    """penalty-weighted jump seminorm of the error over all edges."""
    rule = edge_rule(EDGE_ERROR_DEGREE)
    s, w = rule.points, rule.weights
    u_vertex = asm.vertex_values(u_h)

    def trace(ids, tris, local):
        return asm.along_edges(u_vertex[tris[ids][:, None], local[ids]], s)

    total = 0.0
    ids = mesh.interior_edge_ids
    if len(ids):
        jump = trace(ids, mesh.edge_tplus, mesh.edge_local_plus) - trace(ids, mesh.edge_tminus, mesh.edge_local_minus)
        total += float(np.einsum("q,eqi,eqi->", w, jump, jump))  # exact field is continuous, its jump cancels
    ids = mesh.boundary_edge_ids
    x = asm.along_edges(mesh.vertices[mesh.edge_vertices[ids]], s)
    defect = ex.u(x) - trace(ids, mesh.edge_tplus, mesh.edge_local_plus)
    total += float(np.einsum("q,eqi,eqi->", w, defect, defect))
    return penalty * total


def _reconstructed_error_sq(mesh, u_h, ex):
    """|R(u - u_h)|_0^2 with the exact field entering through its edge moments."""
    rule = edge_rule(EDGE_ERROR_DEGREE)
    s, w = rule.points, rule.weights
    moments = np.zeros((mesh.num_edges, 2))
    ids = mesh.interior_edge_ids
    if len(ids):
        x = asm.along_edges(mesh.vertices[mesh.edge_vertices[ids]], s)
        un = np.einsum("eqi,ei->eq", ex.u(x), mesh.edge_normal[ids])
        h = mesh.edge_length[ids]
        moments[ids, 0] = h * np.einsum("q,eq->e", w, un)
        moments[ids, 1] = h * np.einsum("q,q,eq->e", w, s, un)
    rhs = moments[mesh.tri_to_edges].reshape(mesh.num_triangles, 6)
    coeffs_exact = np.linalg.solve(local_moment_blocks(mesh), rhs[..., None])[..., 0].reshape(-1)
    R = asm.discretization(mesh).reconstruction()
    diff = coeffs_exact - R @ u_h.to_vector()
    M = bdm_mass_matrix(mesh)
    return float(diff @ (M @ diff))


def error_norms(
    u_h: EGFunction,
    p_h: PressureFunction,
    ex: ExactSolution,
    mesh: MeshTopology,
    params: FormParams,
) -> ConvergenceRow:
    """All error columns for one solved level (EOC fields left unset)."""
    rule = triangle_rule(VOLUME_ERROR_DEGREE)
    pts = map_to_triangle(rule, mesh.vertices[mesh.triangles])
    wq = rule.weights

    J_h = np.einsum("tki,tkj->tij", u_h.nodal[mesh.triangles], mesh.grad_lambda)
    J_h += u_h.bubble[:, None, None] * np.eye(2)[None]
    grad_diff = ex.grad_u(pts) - J_h[:, None, :, :]
    grad2 = float(np.einsum("t,q,tqij,tqij->", 2.0 * mesh.areas, wq, grad_diff, grad_diff))

    u_diff = ex.u(pts) - _discrete_at(mesh, u_h, rule.points, pts)
    l2u2 = float(np.einsum("t,q,tqi,tqi->", 2.0 * mesh.areas, wq, u_diff, u_diff))

    e_norm2 = grad2 + _edge_error_terms(mesh, u_h, ex, params.penalty)
    mu = params.viscosity
    energy = math.sqrt(mu * e_norm2 + l2u2)
    energy_r = math.sqrt(mu * e_norm2 + _reconstructed_error_sq(mesh, u_h, ex))

    domain_area = float(np.sum(mesh.areas))
    p_ex = ex.p(pts)
    p_ex_mean = float(np.einsum("t,q,tq->", 2.0 * mesh.areas, wq, p_ex)) / domain_area
    p_h_vals = p_h.values - float(mesh.areas @ p_h.values) / domain_area
    p_diff = (p_ex - p_ex_mean) - p_h_vals[:, None]
    l2p2 = float(np.einsum("t,q,tq,tq->", 2.0 * mesh.areas, wq, p_diff, p_diff))

    return ConvergenceRow(
        h=mesh.h_max,
        energy_err=energy,
        energy_r_err=energy_r,
        l2_u_err=math.sqrt(l2u2),
        l2_p_err=math.sqrt(l2p2),
    )


# -- rate arithmetic ------------------------------------------------------


def attach_eoc(rows: list[ConvergenceRow]) -> list[ConvergenceRow]:
    """Fill EOC fields from successive rows: log2(e_prev / e) per column."""
    out = []
    for k, row in enumerate(rows):
        if k == 0 or rows[k - 1].note or row.note:
            out.append(replace(row))
            continue
        prev = rows[k - 1]
        ratio = math.log2(prev.h / row.h)

        def rate(a, b):
            if a > 0 and b > 0 and ratio > 0:
                return math.log2(a / b) / ratio
            return None

        out.append(
            replace(
                row,
                energy_eoc=rate(prev.energy_err, row.energy_err),
                energy_r_eoc=rate(prev.energy_r_err, row.energy_r_err),
                l2_u_eoc=rate(prev.l2_u_err, row.l2_u_err),
                l2_p_eoc=rate(prev.l2_p_err, row.l2_p_err),
            )
        )
    return out


def least_squares_rate(hs, errors) -> float:
    """Slope of log(error) against log(h) in the least-squares sense."""
    hs, errors = np.asarray(hs, dtype=float), np.asarray(errors, dtype=float)
    if len(hs) < 2:
        raise ValueError("need at least two levels for a rate")
    return float(np.polyfit(np.log(hs), np.log(errors), 1)[0])


# -- experiments ----------------------------------------------------------


def _solved_row(mesh, params, settings, ex) -> ConvergenceRow:
    """Error row of the manufactured problem on mesh; a failed solve gives a row of NaNs with a note."""
    force = forcing_from_exact(ex, params.viscosity)
    try:
        u_h, p_h, report = solve_navier_stokes(mesh, params, settings, force=force)
    except (DivergedError, SingularSystemError) as err:
        diverged = isinstance(err, DivergedError)
        nan = float("nan")
        return ConvergenceRow(
            h=mesh.h_max,
            energy_err=nan,
            energy_r_err=nan,
            l2_u_err=nan,
            l2_p_err=nan,
            iterations=err.report.iterations if diverged else 0,
            note="diverged" if diverged else f"singular: {err}",
        )
    row = error_norms(u_h, p_h, ex, mesh, params)
    row.iterations = report.iterations
    row.converged = report.converged
    if not report.converged:
        row.note = "max-iterations"
    return row


def convergence_study(
    levels,
    params: FormParams,
    settings: NonlinearSettings | None = None,
    exact: ExactSolution | None = None,
) -> list[ConvergenceRow]:
    """Solve the manufactured problem on each level and tabulate errors.

    levels are grid subdivision counts (h = 1/n).  Solve failures are
    recorded in the row note instead of aborting the study.
    """
    settings = settings or NonlinearSettings()
    ex = exact or example1_solution()
    # each mesh lives only through its own call: a level's mesh, with
    # everything cached on it, is released before the next, larger one is solved
    rows = [_solved_row(build_unit_square_mesh(n), params, settings, ex) for n in levels]
    return attach_eoc(rows)


@dataclass
class ProbeCell:
    mu: float
    energy_err: float
    energy_r_err: float
    l2_u_err: float
    iterations: int
    converged: bool
    note: str = ""
    energy_ratio: float | None = None
    energy_r_ratio: float | None = None


def pressure_robustness_probe(
    n: int,
    mu_list,
    penalty: float = 10.0,
    settings: NonlinearSettings | None = None,
) -> dict[str, list[ProbeCell]]:
    """Fixed-mesh error comparison across viscosities for both schemes.

    Returns cells per mode keyed "standard" / "robust"; each cell carries
    the ratio of its errors to the mu = 1 cell of the same mode.  The
    viscosity list must span at least three decades so the contrast
    between the two schemes is visible.  A failed solve gives a cell of
    NaNs with a note, as in convergence_study.
    """
    mu_list = list(mu_list)
    if not mu_list or max(mu_list) / min(mu_list) < 1e3:
        raise ValueError("viscosity list must span at least three decades")
    settings = settings or NonlinearSettings()
    ex = example1_solution()
    mesh = build_unit_square_mesh(n)  # one mesh, so every cell shares its cached operators
    out: dict[str, list[ProbeCell]] = {}
    for robust, mode in ((False, "standard"), (True, "robust")):
        cells = []
        for mu in mu_list:
            params = FormParams(viscosity=mu, penalty=penalty, pressure_robust=robust)
            row = _solved_row(mesh, params, settings, ex)
            cells.append(
                ProbeCell(
                    mu=mu,
                    energy_err=row.energy_err,
                    energy_r_err=row.energy_r_err,
                    l2_u_err=row.l2_u_err,
                    iterations=row.iterations,
                    converged=row.converged,
                    note=row.note,
                )
            )
        base = next((c for c in cells if c.mu == 1.0), cells[0])
        for c in cells:
            if base.energy_err > 0:
                c.energy_ratio = c.energy_err / base.energy_err
            if base.energy_r_err > 0:
                c.energy_r_ratio = c.energy_r_err / base.energy_r_err
        out[mode] = cells
    return out
