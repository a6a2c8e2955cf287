"""End-to-end acceptance checks, one test per shipping criterion.

Each test computes its verdict first, prints a single uncaptured summary
line with the measured numbers, and only then asserts the stated
thresholds, so the judgement is visible in the run log either way.  The
heavy refinement study runs once per session through the command-line
driver and is shared by the rate, magnitude, and determinism checks.

Where the references come from:

- Criterion 2 grades the coarsest study level (n=4) against the error of
  the canonical interpolant of the same manufactured solution
  (``interpolate_velocity`` with ``project_pressure``), measured here with
  this module's own quadrature in the study's norms.  The a priori
  estimate bounds the discrete error by a constant times the best
  approximation, so each column must sit within a factor of 3 of its
  interpolation error: at n=4 the solver gives energy 4.89e-2, L2 u
  5.36e-3, L2 p 1.51e-1 against 4.76e-2, 2.67e-3, 1.28e-1 (ratios 1.03,
  2.00, 1.18).  Any reference must also sit below the norms of the exact
  fields (the errors of u_h = 0, p_h = 0), which at n=4 are 5.8e-2
  (energy), 7.8e-3 (L2 u) and 0.50 (L2 p).
- Criterion 3 bounds the sampled u1 strictly inside the cavity.  The dump
  includes the bubbles, and on the boundary only the nodal dofs carry the
  lid data; the bubble trace meets it weakly through the SIPG penalty, so
  it is controlled in the h^{-1/2}-weighted jump term of the energy norm,
  not pointwise.  At n=32 the lid row peaks at 1.036 about 3h from a
  leaky corner (1.019 to 1.036 from n=4 to n=32) while every interior
  sample stays in [-0.18, 0.94].  The boundary range is printed, not
  bounded.
"""

import json
import time

import numpy as np
import pytest

import egflow.assembly as asm
from egflow.analysis import example1_solution, pressure_robustness_probe
from egflow.assembly import FormParams
from egflow.cli import cli_main
from egflow.mesh import build_unit_square_mesh
from egflow.quadrature import (
    MAX_EDGE_DEGREE,
    MAX_TRIANGLE_DEGREE,
    edge_rule,
    map_to_triangle,
    triangle_rule,
)
from oracles import (
    BDMFunction,
    EGFunction,
    assemble_energy_gram,
    bdm_divergence_matrix,
    bdm_mass_matrix,
    edge_points,
    interpolate_velocity,
    jump_average,
    least_squares_rate,
    local_p1_embedding,
    pressure_mean,
    project_pressure,
    read_convergence_csv,
)

STUDY_LEVELS = "4,8,16,32,64"
STUDY_MU = 1.0
STUDY_PENALTY = 10.0
STUDY_TIME_LIMIT = 120.0
CAVITY_TIME_LIMIT = 60.0


def announce(capsys, line: str) -> None:
    with capsys.disabled():
        print(f"\n{line}")


@pytest.fixture(scope="module")
def study_runs(tmp_path_factory):
    """The full refinement study, run twice via the CLI for determinism."""
    runs = []
    for tag in ("first", "second"):
        out = tmp_path_factory.mktemp(f"study_{tag}")
        t0 = time.perf_counter()
        code = cli_main(
            [
                "converge",
                "--levels", STUDY_LEVELS,
                "--mode", "pr-eg",
                "--mu", str(STUDY_MU),
                "--rho", str(STUDY_PENALTY),
                "--out", str(out),
            ]
        )
        elapsed = time.perf_counter() - t0
        assert code == 0
        runs.append((out / "convergence.csv", elapsed))
    return runs


def test_criterion_1_manufactured_convergence_rates(study_runs, capsys):
    path, elapsed = study_runs[0]
    rows = read_convergence_csv(path)
    tail = rows[-3:]
    hs = [r.h for r in tail]
    rate = {
        "energy": least_squares_rate(hs, [r.energy_err for r in tail]),
        "l2u": least_squares_rate(hs, [r.l2_u_err for r in tail]),
        "l2p": least_squares_rate(hs, [r.l2_p_err for r in tail]),
    }
    ok = (
        rate["energy"] >= 0.9
        and rate["l2p"] >= 0.9
        and rate["l2u"] >= 1.5
        and elapsed < STUDY_TIME_LIMIT
    )
    announce(
        capsys,
        f"[criterion 1] {'PASS' if ok else 'FAIL'} last-3 least-squares rates: "
        f"energy={rate['energy']:.3f} (>=0.9) l2u={rate['l2u']:.3f} (>=1.5) "
        f"l2p={rate['l2p']:.3f} (>=0.9), study took {elapsed:.1f}s (<{STUDY_TIME_LIMIT:.0f}s)",
    )
    assert rate["energy"] >= 0.9
    assert rate["l2p"] >= 0.9
    assert rate["l2u"] >= 1.5
    assert elapsed < STUDY_TIME_LIMIT


def interpolation_errors(n: int) -> dict[str, float]:
    """Study-norm errors of the canonical interpolant of the exact solution.

    Computed with the highest-degree rules and the pointwise evaluators, not
    with ``analysis.error_norms``, so a scale fault there cannot cancel.
    The norms are those of the study: energy^2 = mu (|grad e|_0^2 +
    penalty sum_e 1/h_e |[e]|_{0,e}^2) + |e|_0^2, and the mean-free L2
    pressure error.
    """
    mesh = build_unit_square_mesh(n)
    ex = example1_solution()
    u_i = interpolate_velocity(mesh, ex.u, lambda x: np.zeros(x.shape[:-1]))
    p_i = project_pressure(mesh, ex.p)

    rule = triangle_rule(MAX_TRIANGLE_DEGREE)
    pts = map_to_triangle(rule, mesh.vertices[mesh.triangles])
    w = 2.0 * mesh.areas[:, None] * rule.weights[None, :]
    u_vals = np.stack([u_i.value(t, pts[t]) for t in range(mesh.num_triangles)])
    grads = np.stack([u_i.jacobian(t) for t in range(mesh.num_triangles)])
    l2u2 = float(np.sum(w * np.sum((ex.u(pts) - u_vals) ** 2, axis=-1)))
    grad2 = float(np.sum(w * np.sum((ex.grad_u(pts) - grads[:, None]) ** 2, axis=(-2, -1))))
    p_ex = ex.p(pts)
    p_diff = (p_ex - np.sum(w * p_ex)) - (p_i - pressure_mean(mesh, p_i))[:, None]
    l2p2 = float(np.sum(w * p_diff**2))

    # 1/h_e cancels the edge length of the parameter rule
    erule = edge_rule(MAX_EDGE_DEGREE)
    jump2 = 0.0
    for e in range(mesh.num_edges):
        jump, _ = jump_average(u_i, e, erule.points)
        if mesh.is_boundary_edge[e]:
            jump = ex.u(edge_points(mesh, e, erule.points)) - jump
        jump2 += float(erule.weights @ np.sum(jump**2, axis=-1))

    energy2 = STUDY_MU * (grad2 + STUDY_PENALTY * jump2) + l2u2
    return {"energy": np.sqrt(energy2), "l2u": np.sqrt(l2u2), "l2p": np.sqrt(l2p2)}


def test_criterion_2_coarse_level_error_magnitudes(study_runs, capsys):
    # quasi-optimality at the magnitude level: each error column of the
    # coarsest level lies within a factor of 3 of the interpolation error of
    # the same exact solution, in the same norm
    coarsest = int(STUDY_LEVELS.split(",")[0])
    reference = interpolation_errors(coarsest)
    path, _ = study_runs[0]
    coarse = read_convergence_csv(path)[0]
    computed = {
        "energy": coarse.energy_err,
        "l2u": coarse.l2_u_err,
        "l2p": coarse.l2_p_err,
    }
    ratios = {k: computed[k] / reference[k] for k in computed}
    ok = all(1.0 / 3.0 <= r <= 3.0 for r in ratios.values())
    detail = ", ".join(
        f"{k}={computed[k]:.4e} vs {reference[k]:.4e} (x{ratios[k]:.2f})" for k in computed
    )
    announce(
        capsys,
        f"[criterion 2] {'PASS' if ok else 'FAIL'} n={coarsest} error vs interpolation "
        f"error: {detail}; every factor must lie in [1/3, 3]",
    )
    for k, r in ratios.items():
        assert 1.0 / 3.0 <= r <= 3.0, f"{k}: computed/reference = {r:.3f}"


def test_criterion_3_lid_cavity_flow(tmp_path, capsys):
    t0 = time.perf_counter()
    code = cli_main(
        [
            "cavity",
            "--n", "32",
            "--mode", "pr-eg",
            "--tol", "1e-10",
            "--max-iters", "20",
            "--init", "stokes",
            "--out", str(tmp_path),
        ]
    )
    elapsed = time.perf_counter() - t0
    assert code == 0
    report = json.loads((tmp_path / "cavity_report.json").read_text())
    data = np.loadtxt(tmp_path / "cavity_field.txt")
    x, y, u1 = data[:, 0], data[:, 1], data[:, 2]
    centre = u1[np.isclose(x, 0.5)][np.argsort(y[np.isclose(x, 0.5)])]
    interior = centre[1:-1]
    sign_change = bool((interior < -1e-6).any() and (interior > 1e-6).any())
    # the lid data hold pointwise only at the nodes; the bubble trace on the
    # boundary is imposed weakly, so the bound applies to samples off it
    on_boundary = np.isclose(x, 0.0) | np.isclose(x, 1.0) | np.isclose(y, 0.0) | np.isclose(y, 1.0)
    inside, edge = u1[~on_boundary], u1[on_boundary]
    lid = np.isclose(y, 1.0)
    lid_peak = int(np.argmax(np.where(lid, u1, -np.inf)))
    checks = {
        "converged": report["converged"] and report["iterations"] <= 20,
        "u1_range": float(inside.min()) >= -0.3 and float(inside.max()) <= 1.0,
        "vortex": sign_change,
        "runtime": elapsed < CAVITY_TIME_LIMIT,
    }
    ok = all(checks.values())
    announce(
        capsys,
        f"[criterion 3] {'PASS' if ok else 'FAIL'} "
        f"iters={report['iterations']} (<=20: {checks['converged']}), "
        f"interior u1 in [{inside.min():.4f}, {inside.max():.4f}] "
        f"(within [-0.3, 1.0]: {checks['u1_range']}), "
        f"boundary u1 in [{edge.min():.4f}, {edge.max():.4f}] "
        f"(lid-row max {u1[lid_peak]:.4f} at x={x[lid_peak]:.2f}, not bounded), "
        f"centreline sign change: {checks['vortex']}, "
        f"{elapsed:.1f}s (<{CAVITY_TIME_LIMIT:.0f}s: {checks['runtime']})",
    )
    assert checks["converged"]
    assert checks["vortex"]
    assert checks["runtime"]
    assert checks["u1_range"], (
        f"interior u1 range [{inside.min():.4f}, {inside.max():.4f}] leaves [-0.3, 1.0]"
    )


def random_eg(mesh, seed):
    rng = np.random.default_rng(seed)
    return EGFunction(
        mesh,
        rng.standard_normal((mesh.num_vertices, 2)),
        rng.standard_normal(mesh.num_triangles),
    )


def energy_norm(mesh, v, penalty=10.0):
    E = assemble_energy_gram(mesh, penalty=penalty)
    vec = v.to_vector()
    return float(np.sqrt(vec @ (E @ vec)))


def test_criterion_4_form_and_reconstruction_properties(capsys):
    notes = []

    # symmetry and coercivity of the viscous form on the whole space
    for n in (2, 4):
        mesh = build_unit_square_mesh(n)
        A = asm.assemble_viscous(mesh, FormParams(viscosity=1.0, penalty=10.0))
        assert abs(A - A.T).max() < 1e-12
        lam = np.linalg.eigvalsh(A.toarray())[0]
        assert lam > 0.0
        notes.append(f"min-eig(n={n})={lam:.3e}")

    # convective positivity over 50 random pairs per mesh and mode
    for n in (2, 4):
        mesh = build_unit_square_mesh(n)
        for robust in (False, True):
            params = FormParams(viscosity=1.0, penalty=10.0, pressure_robust=robust)
            for seed in range(50):
                z = random_eg(mesh, 600 + seed)
                w = random_eg(mesh, 900 + seed)
                C = asm.assemble_convection(mesh, z.to_vector(), params)
                vec = w.to_vector()
                assert float(vec @ (C @ vec)) >= -1e-12
    notes.append("positivity 50x{n=2,4}x{eg,pr}")

    # reconstruction identities on one mesh
    mesh = build_unit_square_mesh(4)
    R = asm.discretization(mesh).reconstruction
    srule = edge_rule(7)
    s, w = srule.points, srule.weights
    for seed in range(10):
        v = random_eg(mesh, 40 + seed)
        r = BDMFunction.from_vector(mesh, R @ v.to_vector())
        for e in range(mesh.num_edges):
            e = int(e)
            h = mesh.edge_length[e]
            pa, pb = mesh.vertices[mesh.edge_vertices[e]]
            x = np.outer(1.0 - s, pa) + np.outer(s, pb)
            n_e = mesh.edge_normal[e]
            tp = int(mesh.edge_tplus[e])
            rn_plus = r.value(tp, x) @ n_e
            if mesh.is_boundary_edge[e]:
                # boundary flux vanishes identically
                assert np.abs(rn_plus).max() < 1e-12
                continue
            tm = int(mesh.edge_tminus[e])
            rn_minus = r.value(tm, x) @ n_e
            # normal trace is single valued across the edge
            assert np.abs(rn_plus - rn_minus).max() < 1e-10
            # and carries the average's zeroth and first moments
            _, avg = jump_average(v, e, s)
            for p1 in (np.ones_like(s), s):
                got = h * np.sum(w * rn_plus * p1)
                want = h * np.sum(w * (avg @ n_e) * p1)
                assert got == pytest.approx(want, abs=1e-10)
    notes.append("moments+trace+flux ok")

    # identity on the continuous part (zero boundary values keep every
    # boundary moment zero, so the embedding is reproduced exactly)
    v = EGFunction.zero(mesh)
    rng = np.random.default_rng(3)
    inner = ~mesh.is_boundary_vertex
    v.nodal[inner] = rng.standard_normal((int(inner.sum()), 2))
    assert np.abs(R @ v.to_vector() - local_p1_embedding(mesh) @ v.to_vector()).max() < 1e-12
    notes.append("identity on C_h")

    # the divergence form factors through the reconstruction exactly
    B = asm.assemble_divergence(mesh)
    DR = bdm_divergence_matrix(mesh) @ R
    assert abs(B - DR).max() < 1e-12
    notes.append("b(v,q)=(div Rv,q)")

    # distance-to-reconstruction ratio ||Rv - v||_0 / (h |v|_E) stays bounded
    ratios = []
    for level, n in enumerate((4, 8, 16, 32)):
        mesh_n = build_unit_square_mesh(n)
        Rn = asm.discretization(mesh_n).reconstruction
        embed = local_p1_embedding(mesh_n)
        M = bdm_mass_matrix(mesh_n)
        worst = 0.0
        for seed in range(10):
            v = random_eg(mesh_n, 70 + 10 * level + seed)
            diff = Rn @ v.to_vector() - embed @ v.to_vector()
            dist = float(np.sqrt(diff @ (M @ diff)))
            worst = max(worst, dist / ((1.0 / n) * energy_norm(mesh_n, v)))
        ratios.append(worst)
    assert ratios[-1] <= ratios[0] * 1.05
    assert max(ratios[1:]) <= ratios[0] * 1.25
    notes.append("dist ratios " + "->".join(f"{r:.3f}" for r in ratios))

    # quadrature exactness sweep at machine precision
    from math import factorial

    for degree in range(1, MAX_TRIANGLE_DEGREE + 1):
        rule = triangle_rule(degree)
        xy = rule.points[:, 1:]
        for a in range(degree + 1):
            for b in range(degree + 1 - a):
                got = float(np.sum(rule.weights * xy[:, 0] ** a * xy[:, 1] ** b))
                want = factorial(a) * factorial(b) / factorial(a + b + 2)
                assert got == pytest.approx(want, rel=1e-14, abs=1e-16)
    for degree in range(1, MAX_EDGE_DEGREE + 1):
        rule = edge_rule(degree)
        for k in range(degree + 1):
            assert float(np.sum(rule.weights * rule.points**k)) == pytest.approx(
                1.0 / (k + 1), rel=1e-14
            )
    notes.append("quadrature exact")

    # velocity interpolant keeps the per-triangle divergence means of the
    # smooth reference field (a divergence-free target)
    mesh = build_unit_square_mesh(8)
    ex = example1_solution()
    vi = interpolate_velocity(mesh, ex.u, lambda x: np.zeros(x.shape[:-1]))
    worst = max(
        abs(vi.divergence(t)) * mesh.areas[t] for t in range(mesh.num_triangles)
    )
    assert worst < 1e-12
    notes.append(f"interpolant div-mean defect {worst:.1e}")

    announce(capsys, "[criterion 4] PASS " + "; ".join(notes))


def test_criterion_5_small_viscosity_robustness(capsys):
    table = pressure_robustness_probe(16, [1.0, 1e-2, 1e-4])
    robust = {c.mu: c for c in table["robust"]}
    standard = {c.mu: c for c in table["standard"]}
    cell = robust[1e-4]
    ok = cell.energy_r_ratio <= 10.0 and cell.energy_ratio <= 10.0
    eg = standard[1e-4]
    announce(
        capsys,
        f"[criterion 5] {'PASS' if ok else 'FAIL'} robust mu=1e-4 ratios: "
        f"energy={cell.energy_ratio:.3f}, reconstructed={cell.energy_r_ratio:.3f} "
        f"(both <=10, converged={cell.converged}); standard-mode contrast: "
        f"energy={eg.energy_ratio:.3f}, reconstructed={eg.energy_r_ratio:.3f} "
        f"(converged={eg.converged}, no threshold)",
    )
    assert cell.converged
    assert cell.energy_r_ratio <= 10.0
    assert cell.energy_ratio <= 10.0


def test_criterion_6_deterministic_outputs(study_runs, capsys):
    (path_a, _), (path_b, _) = study_runs
    first, second = path_a.read_bytes(), path_b.read_bytes()
    ok = first == second
    announce(
        capsys,
        f"[criterion 6] {'PASS' if ok else 'FAIL'} two full study runs produced "
        f"byte-identical tables ({len(first)} bytes each: {ok})",
    )
    assert first == second
