"""Tests for exact fields, error norms, rate arithmetic, and experiments.

The manufactured fields are re-derived symbolically with sympy and compared
pointwise, so the hand-coded derivative chains in the package never serve
as their own oracle.
"""

import dataclasses
import math

import numpy as np
import pytest
import sympy as sp

import egflow.analysis as analysis
import egflow.assembly as asm
import egflow.reconstruction as reconstruction
from egflow.analysis import (
    ConvergenceRow,
    ExactSolution,
    attach_eoc,
    convergence_study,
    error_norms,
    example1_solution,
    forcing_from_exact,
    pressure_robustness_probe,
)
from egflow.assembly import FormParams
from egflow.mesh import build_unit_square_mesh
from egflow.quadrature import edge_rule, triangle_rule
from egflow.reconstruction import local_moment_blocks
from egflow.solver import NonlinearSettings, SingularSystemError
from oracles import (
    BDMFunction,
    EGFunction,
    assemble_energy_gram,
    assemble_mass,
    bdm_mass_matrix,
    edge_points,
    jump_average,
    least_squares_rate,
    n_velocity,
)
from test_assembly import perturbed_mesh


def _symbolic_reference():
    x, y = sp.symbols("x y", real=True)
    psi = (x * (1 - x) * y * (1 - y)) ** 2
    u1, u2 = sp.diff(psi, y), -sp.diff(psi, x)
    p = sp.sin(sp.pi * x) * sp.cos(sp.pi * y)
    fields = {
        "u1": u1,
        "u2": u2,
        "u1x": sp.diff(u1, x),
        "u1y": sp.diff(u1, y),
        "u2x": sp.diff(u2, x),
        "u2y": sp.diff(u2, y),
        "lap1": sp.diff(u1, x, 2) + sp.diff(u1, y, 2),
        "lap2": sp.diff(u2, x, 2) + sp.diff(u2, y, 2),
        "p": p,
        "px": sp.diff(p, x),
        "py": sp.diff(p, y),
    }
    return x, y, fields


def test_exact_fields_match_symbolic_oracle():
    x, y, fields = _symbolic_reference()
    fn = {k: sp.lambdify((x, y), v, "numpy") for k, v in fields.items()}
    ex = example1_solution()
    rng = np.random.default_rng(5)
    pts = rng.random((40, 2))
    X, Y = pts[:, 0], pts[:, 1]
    u = ex.u(pts)
    assert np.allclose(u[:, 0], fn["u1"](X, Y), atol=1e-13)
    assert np.allclose(u[:, 1], fn["u2"](X, Y), atol=1e-13)
    J = ex.grad_u(pts)
    assert np.allclose(J[:, 0, 0], fn["u1x"](X, Y), atol=1e-13)
    assert np.allclose(J[:, 0, 1], fn["u1y"](X, Y), atol=1e-13)
    assert np.allclose(J[:, 1, 0], fn["u2x"](X, Y), atol=1e-13)
    assert np.allclose(J[:, 1, 1], fn["u2y"](X, Y), atol=1e-13)
    lap = ex.laplacian_u(pts)
    assert np.allclose(lap[:, 0], fn["lap1"](X, Y), atol=1e-12)
    assert np.allclose(lap[:, 1], fn["lap2"](X, Y), atol=1e-12)
    assert np.allclose(ex.p(pts), fn["p"](X, Y), atol=1e-13)
    gp = ex.grad_p(pts)
    assert np.allclose(gp[:, 0], fn["px"](X, Y), atol=1e-12)
    assert np.allclose(gp[:, 1], fn["py"](X, Y), atol=1e-12)


@pytest.mark.parametrize("mu", [1.0, 1e-3])
def test_forcing_matches_symbolic_oracle(mu):
    x, y, f = _symbolic_reference()
    force1 = -mu * f["lap1"] + f["u1"] * f["u1x"] + f["u2"] * f["u1y"] + f["px"]
    force2 = -mu * f["lap2"] + f["u1"] * f["u2x"] + f["u2"] * f["u2y"] + f["py"]
    fn1 = sp.lambdify((x, y), force1, "numpy")
    fn2 = sp.lambdify((x, y), force2, "numpy")
    force = forcing_from_exact(example1_solution(), mu)
    rng = np.random.default_rng(17)
    pts = rng.random((40, 2))
    vals = force(pts)
    assert np.allclose(vals[:, 0], fn1(pts[:, 0], pts[:, 1]), atol=1e-12)
    assert np.allclose(vals[:, 1], fn2(pts[:, 0], pts[:, 1]), atol=1e-12)


def test_forcing_finite_difference_spot_check():
    """Richardson-extrapolated central differences at the domain center."""
    ex = example1_solution()
    mu = 1.0
    x0 = np.array([0.5, 0.5])

    def lap_fd(step):
        acc = np.zeros(2)
        for d in range(2):
            e = np.zeros(2)
            e[d] = step
            acc += ex.u(x0 + e) - 2.0 * ex.u(x0) + ex.u(x0 - e)
        return acc / step**2

    def grad_fd(f, step):
        cols = []
        for d in range(2):
            e = np.zeros(2)
            e[d] = step
            cols.append((np.asarray(f(x0 + e)) - np.asarray(f(x0 - e))) / (2 * step))
        return np.stack(cols, axis=-1)

    h = 1e-3
    lap = (4.0 * lap_fd(h / 2) - lap_fd(h)) / 3.0
    J = (4.0 * grad_fd(ex.u, h / 2) - grad_fd(ex.u, h)) / 3.0
    gp = (4.0 * grad_fd(ex.p, h / 2) - grad_fd(ex.p, h)) / 3.0
    expected = -mu * lap + J @ ex.u(x0) + gp
    got = forcing_from_exact(ex, mu)(x0)
    assert np.allclose(got, expected, atol=1e-8)


def test_exact_velocity_is_divergence_free():
    ex = example1_solution()
    rng = np.random.default_rng(23)
    J = ex.grad_u(rng.random((1000, 2)))
    assert np.abs(J[..., 0, 0] + J[..., 1, 1]).max() <= 1e-12


def test_exact_pressure_has_zero_mean():
    ex = example1_solution()
    mesh = build_unit_square_mesh(16)
    rule = triangle_rule(4)
    pts = np.einsum("qk,tki->tqi", rule.points, mesh.vertices[mesh.triangles])
    mean = np.einsum("t,q,tq->", 2.0 * mesh.areas, rule.weights, ex.p(pts))
    assert abs(mean) <= 1e-10


def test_exact_velocity_vanishes_on_boundary():
    ex = example1_solution()
    s = np.linspace(0.0, 1.0, 33)
    for edge in (np.stack([s, 0 * s], -1), np.stack([s, 0 * s + 1], -1),
                 np.stack([0 * s, s], -1), np.stack([0 * s + 1, s], -1)):
        assert np.abs(ex.u(edge)).max() <= 1e-14


def test_zero_fields_give_zero_forcing():
    zero_v = lambda x: np.zeros(x.shape[:-1] + (2,))
    zero_m = lambda x: np.zeros(x.shape[:-1] + (2, 2))
    zero_s = lambda x: np.zeros(x.shape[:-1])
    ex = ExactSolution(u=zero_v, grad_u=zero_m, laplacian_u=zero_v, p=zero_s, grad_p=zero_v)
    pts = np.random.default_rng(1).random((20, 2))
    assert np.abs(forcing_from_exact(ex, 3.7)(pts)).max() == 0.0


def test_error_norms_vanish_for_representable_fields():
    # a global affine divergence-free velocity and constant pressure lie in
    # the discrete spaces, so every error column must hit machine zero
    a, b, c = 0.3, -1.2, 0.7

    def u(x):
        return np.stack([a + b * x[..., 1], c - b * x[..., 0]], axis=-1)

    def grad_u(x):
        J = np.zeros(x.shape[:-1] + (2, 2))
        J[..., 0, 1] = b
        J[..., 1, 0] = -b
        return J

    zero_v = lambda x: np.zeros(x.shape[:-1] + (2,))
    ex = ExactSolution(
        u=u,
        grad_u=grad_u,
        laplacian_u=zero_v,
        p=lambda x: np.full(x.shape[:-1], 2.5),
        grad_p=zero_v,
    )
    mesh = build_unit_square_mesh(3)
    u_h = EGFunction(mesh, u(mesh.vertices), np.zeros(mesh.num_triangles))
    p_h = np.full(mesh.num_triangles, 2.5)
    row = error_norms(u_h.to_vector(), p_h, ex, mesh, FormParams(viscosity=1.0, penalty=10.0))
    assert row.energy_err <= 1e-12
    assert row.energy_r_err <= 1e-12
    assert row.l2_u_err <= 1e-13
    assert row.l2_p_err <= 1e-13


def test_interpolant_errors_scale_at_expected_rates():
    ex = example1_solution()
    params = FormParams(viscosity=1.0, penalty=10.0)
    rows = []
    for n in (4, 8):
        mesh = build_unit_square_mesh(n)
        u_I = EGFunction(mesh, ex.u(mesh.vertices), np.zeros(mesh.num_triangles))
        rule = triangle_rule(4)
        pts = np.einsum("qk,tki->tqi", rule.points, mesh.vertices[mesh.triangles])
        p_proj = 2.0 * np.einsum("q,tq->t", rule.weights, ex.p(pts))
        rows.append(error_norms(u_I.to_vector(), p_proj, ex, mesh, params))
    for r in rows:
        assert r.energy_err > 0 and r.l2_u_err > 0 and r.l2_p_err > 0
    assert 1.5 <= rows[0].energy_err / rows[1].energy_err <= 2.6
    assert 3.0 <= rows[0].l2_u_err / rows[1].l2_u_err <= 4.8
    assert 1.6 <= rows[0].l2_p_err / rows[1].l2_p_err <= 2.4


def _pointwise_error_columns(u_h, p_h, ex, mesh, params):
    """error_norms' four columns, one triangle and one edge at a time through the pointwise evaluators.

    u_h is an EGFunction and p_h the cell pressures.
    """
    vrule = triangle_rule(analysis.VOLUME_ERROR_DEGREE)
    erule = edge_rule(analysis.EDGE_ERROR_DEGREE)
    s = erule.points
    grad2 = l2u2 = p_int = 0.0
    for t in range(mesh.num_triangles):
        x = vrule.points @ mesh.vertices[mesh.triangles[t]]
        wt = 2.0 * mesh.areas[t] * vrule.weights
        grad2 += float(np.einsum("q,qij->", wt, (ex.grad_u(x) - u_h.jacobian(t)) ** 2))
        l2u2 += float(np.einsum("q,qi->", wt, (ex.u(x) - u_h.value(t, x)) ** 2))
        p_int += float(wt @ ex.p(x))
    jumps2 = 0.0
    moments = np.zeros((mesh.num_edges, 2))
    for e in range(mesh.num_edges):
        h = mesh.edge_length[e]
        x = edge_points(mesh, e, s)
        jump, avg = jump_average(u_h, e, s)
        if mesh.edge_tminus[e] < 0:
            jump = ex.u(x) - jump
        else:
            # moments of the error average {u - u_h}.n against 1 and s
            en = (ex.u(x) - avg) @ mesh.edge_normal[e]
            moments[e] = h * np.array([erule.weights @ en, erule.weights @ (s * en)])
        jumps2 += params.penalty / h * h * float(np.einsum("q,qi->", erule.weights, jump**2))
    L = local_moment_blocks(mesh)
    rec2 = 0.0
    for t in range(mesh.num_triangles):
        coeffs = np.linalg.solve(L[t], moments[mesh.tri_to_edges[t]].ravel()).reshape(3, 2)
        rec = BDMFunction(mesh, np.zeros((mesh.num_triangles, 3, 2)))
        rec.coeffs[t] = coeffs
        x = vrule.points @ mesh.vertices[mesh.triangles[t]]
        rec2 += float(np.einsum("q,qi->", 2.0 * mesh.areas[t] * vrule.weights, rec.value(t, x) ** 2))
    area = float(mesh.areas.sum())
    p_h_mean = float(mesh.areas @ p_h) / area
    l2p2 = 0.0
    for t in range(mesh.num_triangles):
        x = vrule.points @ mesh.vertices[mesh.triangles[t]]
        diff = ex.p(x) - p_int / area - (p_h[t] - p_h_mean)
        l2p2 += float(2.0 * mesh.areas[t] * vrule.weights @ diff**2)
    mu = params.viscosity
    return {
        "energy_err": math.sqrt(mu * (grad2 + jumps2) + l2u2),
        "energy_r_err": math.sqrt(mu * (grad2 + jumps2) + rec2),
        "l2_u_err": math.sqrt(l2u2),
        "l2_p_err": math.sqrt(l2p2),
    }


@pytest.mark.parametrize("seed", [4, 11])
def test_error_norms_match_pointwise_evaluation_on_perturbed_mesh(seed):
    # random nodal values (boundary ones included) and random bubbles, so the
    # volume, jump, boundary-defect and reconstructed terms all see both parts;
    # the exact velocity is shifted off zero so its boundary trace is nonzero
    mesh = perturbed_mesh(5, seed=seed)
    rng = np.random.default_rng(seed)
    u_h = EGFunction(mesh, 0.1 * rng.standard_normal((mesh.num_vertices, 2)), rng.standard_normal(mesh.num_triangles))
    p_h = rng.standard_normal(mesh.num_triangles)
    params = FormParams(viscosity=0.37, penalty=7.0)
    base = example1_solution()
    ex = dataclasses.replace(base, u=lambda x: base.u(x) + np.array([0.3, -0.2]))
    row = error_norms(u_h.to_vector(), p_h, ex, mesh, params)
    for name, want in _pointwise_error_columns(u_h, p_h, ex, mesh, params).items():
        assert getattr(row, name) == pytest.approx(want, rel=1e-12), name


def test_error_norms_reuse_the_block_inverse_of_the_reconstruction(monkeypatch):
    # the exact field's reconstruction goes through the L^-1 kept from
    # building R; a later error evaluation builds no moment blocks
    mesh = perturbed_mesh(5, seed=4)
    rng = np.random.default_rng(4)
    u_h = EGFunction(mesh, 0.1 * rng.standard_normal((mesh.num_vertices, 2)), rng.standard_normal(mesh.num_triangles))
    p_h = rng.standard_normal(mesh.num_triangles)
    params = FormParams(viscosity=0.37, penalty=7.0)
    ex = example1_solution()
    first = error_norms(u_h.to_vector(), p_h, ex, mesh, params)

    def rebuilt(_):
        raise AssertionError("moment blocks rebuilt")

    for module in (reconstruction, analysis):
        monkeypatch.setattr(module, "local_moment_blocks", rebuilt, raising=False)
    assert error_norms(u_h.to_vector(), p_h, ex, mesh, params) == first


def test_eoc_is_exactly_one_on_synthetic_halving():
    rows = []
    err = 0.352
    h = 0.5
    for _ in range(4):
        rows.append(
            ConvergenceRow(h=h, energy_err=err, energy_r_err=err, l2_u_err=err, l2_p_err=err)
        )
        h /= 2.0
        err /= 2.0
    out = attach_eoc(rows)
    assert out[0].energy_eoc is None
    for r in out[1:]:
        assert r.energy_eoc == 1.0
        assert r.l2_u_eoc == 1.0
        assert r.l2_p_eoc == 1.0


def test_attach_eoc_skips_annotated_rows():
    good = ConvergenceRow(h=0.5, energy_err=1.0, energy_r_err=1.0, l2_u_err=1.0, l2_p_err=1.0)
    bad = ConvergenceRow(
        h=0.25, energy_err=float("nan"), energy_r_err=float("nan"),
        l2_u_err=float("nan"), l2_p_err=float("nan"), note="singular: factorization failed",
    )
    out = attach_eoc([good, bad])
    assert out[1].energy_eoc is None and out[1].note == "singular: factorization failed"


def test_least_squares_rate_recovers_planted_slope():
    hs = np.array([0.5, 0.25, 0.125, 0.0625])
    errs = 3.1 * hs**1.7
    assert abs(least_squares_rate(hs, errs) - 1.7) <= 1e-12
    with pytest.raises(ValueError):
        least_squares_rate([0.5], [1.0])


# -- norm relations on random discrete fields ------------------------------


def _norms_for_draws(n, seed, draws=25):
    mesh = build_unit_square_mesh(n)
    E = assemble_energy_gram(mesh, 10.0).tocsr()
    M = assemble_mass(mesh).tocsr()
    R = asm.discretization(mesh).reconstruction
    MB = bdm_mass_matrix(mesh)
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(draws):
        v = rng.standard_normal(n_velocity(mesh))
        rv = R @ v
        out.append((float(v @ (E @ v)), float(v @ (M @ v)), float(rv @ (MB @ rv))))
    return mesh.h_max, out


def test_full_norm_dominates_scaled_energy_norm():
    # triple(v)^2 = mu |v|_E^2 + |v|_0^2 >= mu |v|_E^2 for every mu
    _, samples = _norms_for_draws(4, seed=31)
    for mu in (1.0, 1e-4):
        for e2, m2, _ in samples:
            assert mu * e2 + m2 >= mu * e2 * (1.0 - 1e-14)


def test_l2_to_energy_ratio_scales_with_h():
    # random fields are jump-dominated, so |v|_0 <= C h |v|_E with a
    # level-stable C; this is the h-dependent half of the norm equivalence
    caps = {}
    for n in (4, 16):
        h, samples = _norms_for_draws(n, seed=43, draws=60)
        caps[n] = max(m2 / (h**2 * e2) for e2, m2, _ in samples)
    assert caps[4] <= 0.1 and caps[16] <= 0.1
    assert caps[16] <= 2.0 * caps[4]  # max-statistic noise allowance


def test_bubble_subspace_l2_bound_is_level_stable():
    caps = {}
    for n in (4, 16):
        mesh = build_unit_square_mesh(n)
        E = assemble_energy_gram(mesh, 10.0).tocsr()
        M = assemble_mass(mesh).tocsr()
        rng = np.random.default_rng(59)
        cap = 0.0
        for _ in range(25):
            v = np.zeros(n_velocity(mesh))
            v[2 * mesh.num_vertices:] = rng.standard_normal(mesh.num_triangles)
            cap = max(cap, (v @ (M @ v)) / (mesh.h_max**2 * (v @ (E @ v))))
        caps[n] = cap
    assert caps[4] <= 0.02 and caps[16] <= 0.02
    assert caps[16] <= 1.3 * caps[4]


def test_reconstructed_norm_bounded_by_plain_norm():
    for n in (4, 16):
        _, samples = _norms_for_draws(n, seed=71)
        for mu in (1.0, 1e-4):
            worst = max((mu * e2 + r2) / (mu * e2 + m2) for e2, m2, r2 in samples)
            assert worst <= 1.1


# -- experiment drivers ----------------------------------------------------


def test_convergence_study_rates_and_flags():
    rows = convergence_study([4, 8, 16], FormParams(viscosity=1.0, penalty=10.0, pressure_robust=True))
    assert len(rows) == 3
    assert rows[0].energy_eoc is None
    for r in rows:
        assert r.converged and r.note == ""
        assert r.iterations >= 2
    assert rows[2].l2_u_eoc > 1.5
    assert rows[2].energy_eoc > 0.8
    assert rows[2].l2_p_eoc > 0.8
    hs = [r.h for r in rows]
    assert abs(least_squares_rate(hs, [r.l2_u_err for r in rows]) - 2.0) < 0.5


def test_study_annotates_nonconverged_rows():
    # low viscosity stalls the standard scheme's fixed-point loop; the row
    # must carry the flag instead of raising
    rows = convergence_study([4], FormParams(viscosity=1e-4, penalty=10.0, pressure_robust=False))
    r = rows[0]
    assert not r.converged
    assert r.note == "max-iterations"
    assert r.iterations == NonlinearSettings().max_iters
    assert math.isfinite(r.l2_u_err)


def test_probe_requires_three_decades_of_viscosity():
    with pytest.raises(ValueError):
        pressure_robustness_probe(4, [1.0, 0.1])
    with pytest.raises(ValueError):
        pressure_robustness_probe(4, [1.0, 0.0, 1e-4])


def test_probe_structure_ratios_and_contrast():
    probe = pressure_robustness_probe(8, [1.0, 1e-2, 1e-4])
    assert set(probe) == {"standard", "robust"}
    for cells in probe.values():
        assert [c.mu for c in cells] == [1.0, 1e-2, 1e-4]
        base = cells[0]
        assert base.energy_r_ratio == 1.0 and base.converged
    robust_last = probe["robust"][-1]
    assert robust_last.converged
    assert robust_last.energy_r_ratio <= 10.0
    standard_last = probe["standard"][-1]
    # the contrast the probe exists to show: the standard scheme degrades
    assert (not standard_last.converged) or standard_last.energy_r_ratio > robust_last.energy_r_ratio
    assert math.isfinite(standard_last.energy_r_err)


def test_probe_base_cell_matches_convergence_study():
    row = convergence_study([4], FormParams(viscosity=1.0, penalty=10.0, pressure_robust=True))[0]
    cell = pressure_robustness_probe(4, [1.0, 1e-2, 1e-4])["robust"][0]
    assert cell.energy_err == pytest.approx(row.energy_err, rel=1e-13)
    assert cell.l2_u_err == pytest.approx(row.l2_u_err, rel=1e-13)


def test_singular_solve_is_a_noted_row_in_study_and_probe(monkeypatch):
    real_solve = analysis.solve_navier_stokes

    def singular_at_one_hundredth(mesh, params, *args, **kwargs):
        if params.viscosity == 1e-2:
            raise SingularSystemError("injected")
        return real_solve(mesh, params, *args, **kwargs)

    monkeypatch.setattr(analysis, "solve_navier_stokes", singular_at_one_hundredth)
    row = convergence_study([4], FormParams(viscosity=1e-2, penalty=10.0))[0]
    assert row.note == "singular: injected" and not row.converged
    assert math.isnan(row.energy_err) and math.isnan(row.l2_p_err)

    probe = pressure_robustness_probe(4, [1.0, 1e-2, 1e-4])
    for cells in probe.values():
        assert [c.mu for c in cells] == [1.0, 1e-2, 1e-4]
        base, failed, last = cells
        assert failed.note == "singular: injected" and not failed.converged
        assert math.isnan(failed.energy_err) and math.isnan(failed.energy_r_ratio)
        # the cells around the failed one are still solved
        assert base.converged and base.energy_r_ratio == 1.0
        assert math.isfinite(last.energy_r_err) and last.iterations > 0
