"""Error norms, convergence studies, and the viscosity-robustness probe.

Norms of a velocity error e = u - u_h (exact u continuous, so interior
jumps of e reduce to jumps of u_h, and boundary jumps to the trace defect):

  |e|_E^2      = |grad e|_0^2 + penalty * sum_e 1/h_e |[e]|_{0,e}^2
  triple(e)^2   = mu |e|_E^2 + |e|_0^2
  triple_R(e)^2 = mu |e|_E^2 + |R e|_0^2

R e is formed from the edge normal moments of the error average: the exact
field contributes its true interior-edge moments (zero on the boundary, as
in the discrete operator), so the reconstructed error is the difference of
two fields reconstructed by the same rule.  Both are affine per triangle,
so |R e|_0^2 is exact from their vertex values and the lam_k mass.

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
from .assembly import _LAMBDA_MASS, FormParams
from .mesh import MeshTopology, build_unit_square_mesh
from .quadrature import edge_rule, map_to_triangle, triangle_rule
from .solver import NonlinearSettings, SingularSystemError, solve_navier_stokes

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
    l2_u_eoc: float | None = None
    l2_p_eoc: float | None = None
    iterations: int = 0
    converged: bool = False
    note: str = ""


# -- norm evaluation ------------------------------------------------------


def _edge_error_terms(mesh, u_vertex, ex, penalty):
    """penalty-weighted jump seminorm of the error over all edges, given u_h's vertex_values."""
    rule = edge_rule(EDGE_ERROR_DEGREE)
    s, w = rule.points, rule.weights
    total = 0.0
    for dofs, _, _ in asm.discretization(mesh).scalar_p1.edges:
        traces = asm.along_edges(u_vertex.reshape(-1, 2)[dofs], s)  # (nE, sides, nq, 2)
        if dofs.shape[1] == 2:
            jump = traces[:, 0] - traces[:, 1]  # exact field is continuous, its jump cancels
        else:
            x = asm.along_edges(mesh.vertices[mesh.edge_vertices[mesh.boundary_edge_ids]], s)
            jump = ex.u(x) - traces[:, 0]
        total += float(np.einsum("q,eqi,eqi->", w, jump, jump))
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
    disc = asm.discretization(mesh)
    coeffs_exact = np.einsum("tij,tj->ti", disc.moment_inverse, rhs).reshape(-1)
    diff = (coeffs_exact - disc.reconstruction @ u_h).reshape(-1, 3, 2)
    return float(np.einsum("t,kl,tki,tli->", 2.0 * mesh.areas, _LAMBDA_MASS, diff, diff))


def error_norms(
    u_h: np.ndarray,
    p_h: np.ndarray,
    ex: ExactSolution,
    mesh: MeshTopology,
    params: FormParams,
) -> ConvergenceRow:
    """All error columns for one solved level (EOC fields left unset).

    u_h is the velocity coefficient vector and p_h the cell pressures.
    """
    rule = triangle_rule(VOLUME_ERROR_DEGREE)
    pts = map_to_triangle(rule, mesh.vertices[mesh.triangles])
    wq = rule.weights

    u_vertex = asm.vertex_values(mesh, u_h)
    grad_diff = ex.grad_u(pts) - asm.field_jacobians(mesh, u_vertex)[:, None, :, :]
    grad2 = float(np.einsum("t,q,tqij,tqij->", 2.0 * mesh.areas, wq, grad_diff, grad_diff))

    u_diff = ex.u(pts) - np.einsum("qk,tki->tqi", rule.points, u_vertex)
    l2u2 = float(np.einsum("t,q,tqi,tqi->", 2.0 * mesh.areas, wq, u_diff, u_diff))

    e_norm2 = grad2 + _edge_error_terms(mesh, u_vertex, ex, params.penalty)
    mu = params.viscosity
    energy = math.sqrt(mu * e_norm2 + l2u2)
    energy_r = math.sqrt(mu * e_norm2 + _reconstructed_error_sq(mesh, u_h, ex))

    domain_area = float(np.sum(mesh.areas))
    p_ex = ex.p(pts)
    p_ex_mean = float(np.einsum("t,q,tq->", 2.0 * mesh.areas, wq, p_ex)) / domain_area
    p_h_vals = p_h - float(mesh.areas @ p_h) / domain_area
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
                l2_u_eoc=rate(prev.l2_u_err, row.l2_u_err),
                l2_p_eoc=rate(prev.l2_p_err, row.l2_p_err),
            )
        )
    return out


# -- experiments ----------------------------------------------------------


def _solved_row(mesh, params, settings, ex) -> ConvergenceRow:
    """Error row of the manufactured problem on mesh; a singular solve gives a row of NaNs with a note."""
    force = forcing_from_exact(ex, params.viscosity)
    try:
        u_h, p_h, report = solve_navier_stokes(mesh, params, settings, force=force)
    except SingularSystemError as err:
        nan = float("nan")
        return ConvergenceRow(
            h=mesh.h_max,
            energy_err=nan,
            energy_r_err=nan,
            l2_u_err=nan,
            l2_p_err=nan,
            note=f"singular: {err}",
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
) -> list[ConvergenceRow]:
    """Solve the manufactured problem of example1_solution on each level and tabulate errors.

    levels are grid subdivision counts (h = 1/n).  Solve failures are
    recorded in the row note instead of aborting the study.
    """
    settings = settings or NonlinearSettings()
    ex = example1_solution()
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


def check_viscosity_list(mu_list) -> None:
    """Raise ValueError unless mu_list holds viscosities that FormParams takes, spanning at least three decades."""
    for mu in mu_list:
        FormParams(viscosity=mu)
    if not mu_list or max(mu_list) / min(mu_list) < 1e3:
        raise ValueError("viscosity list must span at least three decades")


def pressure_robustness_probe(
    n: int,
    mu_list,
    penalty: float = FormParams.penalty,
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
    check_viscosity_list(mu_list)
    settings = settings or NonlinearSettings()
    ex = example1_solution()
    # one mesh, so every cell shares its E and R; the saddle blocks, with the
    # A and B they assemble, and their LU are rebuilt for each viscosity
    mesh = build_unit_square_mesh(n)
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
