"""CLI plumbing: argument handling, writers, drivers, determinism."""

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

import egflow.assembly as asm
import egflow.cli as cli
from egflow.analysis import ConvergenceRow, convergence_study
from egflow.assembly import LID_VELOCITY, FormParams
from egflow.cli import (
    CSV_HEADER,
    RunConfig,
    cli_main,
    config_from_args,
    build_parser,
    SampleGrid,
    barycentric_coords,
    locate_points,
    sample_grid,
    sample_velocity,
    write_convergence_csv,
    write_field_dump,
)
from egflow.mesh import MeshTopology, build_unit_square_mesh
from egflow.solver import SingularSystemError
from oracles import (
    EGFunction,
    field_dump_at_once,
    locate_points_all_candidates,
    n_velocity,
    read_convergence_csv,
    traced_peak,
)
from test_assembly import perturbed_mesh


def test_no_arguments_is_usage_error(capsys):
    assert cli_main([]) == 2
    assert "usage" in capsys.readouterr().err


def test_unknown_flag_is_usage_error():
    assert cli_main(["converge", "--bogus", "1"]) == 2


def test_malformed_level_list_is_usage_error():
    assert cli_main(["converge", "--levels", "4,two"]) == 2


def test_invalid_parameter_values_are_configuration_errors(capsys, tmp_path):
    warm = tmp_path / "warm.json"
    warm.write_text(json.dumps({"init": "warm"}))
    dashed, text_mu, bare_levels = (tmp_path / f"{name}.json" for name in ("dashed", "text_mu", "bare_levels"))
    dashed.write_text(json.dumps({"max-iters": 1, "mu-list": [1, 0.5]}))  # flag spellings are not keys
    text_mu.write_text(json.dumps({"mu": "abc"}))
    bare_levels.write_text(json.dumps({"levels": 4}))
    # integer settings take JSON integers only, not floats or booleans
    non_integers = []
    for key, value in (("n", 4.5), ("grid", 2.5), ("max_iters", 2.5), ("n", True)):
        path = tmp_path / f"{key}_{value}.json"
        path.write_text(json.dumps({key: value}))
        non_integers.append(["cavity", "--config", str(path)])
    nan_mu = tmp_path / "nan_mu.json"
    nan_mu.write_text('{"mu": NaN}')  # json.loads accepts NaN
    huge_mu = tmp_path / "huge_mu.json"
    huge_mu.write_text('{"mu": 1' + "0" * 400 + "}")  # a JSON integer past float range
    float_levels = tmp_path / "float_levels.json"
    float_levels.write_text(json.dumps({"levels": [4.5, 8]}))
    # mu_list is checked by the probe's whole rule also where it is not read
    zero_in_list, huge_in_list = tmp_path / "zero_in_list.json", tmp_path / "huge_in_list.json"
    zero_in_list.write_text(json.dumps({"mu_list": [1, 0, 1e-4]}))
    huge_in_list.write_text('{"mu_list": [1, 1e-4, 1' + "0" * 400 + "]}")
    # number settings take JSON numbers only, not booleans
    booleans = []
    for key, value in (("mu", True), ("rho", True), ("tol", True), ("mu_list", [True, 0.1, 0.001])):
        path = tmp_path / f"{key}_bool.json"
        path.write_text(json.dumps({key: value}))
        booleans.append(["probe", "--n", "4", "--config", str(path)])
    cases = [
        ["converge", "--levels", "4", "--mu", "-1"],
        ["converge", "--levels", "4", "--tol", "-1"],
        ["converge", "--levels", "4", "--max-iters", "0"],
        ["converge", "--levels", "4", "--config", str(warm)],
        ["converge", "--levels", "4", "--config", str(dashed)],
        ["converge", "--levels", "4", "--config", str(text_mu)],
        ["converge", "--config", str(bare_levels)],
        ["converge", "--config", str(float_levels)],
        *non_integers,
        *booleans,
        ["probe", "--n", "4", "--mu-list", "1,0.1"],
        ["probe", "--n", "4", "--mu-list", "1,0,1e-4"],
        # non-finite numbers pass a sign test, so they are rejected as such
        ["cavity", "--n", "4", "--mu", "nan"],
        ["converge", "--levels", "2", "--rho", "nan"],
        ["probe", "--n", "2", "--mu-list", "1,nan,1e-4"],
        ["converge", "--levels", "2", "--tol", "inf"],
        ["cavity", "--n", "4", "--config", str(nan_mu)],
        ["cavity", "--n", "4", "--config", str(huge_mu)],
        ["converge", "--levels", "2", "--config", str(zero_in_list)],
        ["cavity", "--n", "2", "--config", str(zero_in_list)],
        ["converge", "--levels", "2", "--config", str(huge_in_list)],
    ]
    for argv in cases:
        out = tmp_path / "out"
        assert cli_main(argv + ["--out", str(out)]) == 2, argv
        assert "bad configuration" in capsys.readouterr().err
        assert not out.exists()
    assert cli_main(["converge", "--config", str(dashed)]) == 2
    assert "'max-iters', 'mu-list'" in capsys.readouterr().err


def test_an_out_path_through_a_file_is_a_bad_configuration(tmp_path, capsys):
    # exit 1 means "did not converge", so an output directory that cannot be made exits 2
    existing = tmp_path / "file"
    existing.write_text("kept")
    for out in (existing, existing / "sub"):
        assert cli_main(["converge", "--levels", "2", "--out", str(out)]) == 2, out
        err = capsys.readouterr().err
        assert err.startswith("bad configuration") and "Traceback" not in err
    assert existing.read_text() == "kept"


def test_run_config_validation():
    with pytest.raises(ValueError):
        RunConfig(experiment="converge", levels=())
    with pytest.raises(ValueError):
        RunConfig(experiment="cavity", rho=0.0)
    with pytest.raises(ValueError):
        RunConfig(experiment="nope")
    cfg = RunConfig(experiment="probe", mode="pr-eg")
    assert cfg.form_params().pressure_robust
    assert RunConfig(experiment="probe", mu=0.125).form_params().viscosity == 0.125


def _synthetic_rows(k):
    rows = []
    h, e = 0.5, 0.3
    for i in range(k):
        rows.append(
            ConvergenceRow(
                h=h,
                energy_err=e,
                energy_r_err=e,
                l2_u_err=e * e,
                l2_p_err=2 * e,
                energy_eoc=None if i == 0 else 1.0,
                l2_u_eoc=None if i == 0 else 2.0,
                l2_p_eoc=None if i == 0 else 1.0,
            )
        )
        h /= 2
        e /= 2
    return rows


def test_csv_shape_and_blank_eoc(tmp_path):
    path = tmp_path / "table.csv"
    write_convergence_csv(_synthetic_rows(5), path)
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 6
    assert lines[0] == CSV_HEADER
    first = lines[1].split(",")
    assert first[2] == "" and first[4] == "" and first[6] == ""
    assert all(len(line.split(",")) == 7 for line in lines[1:])


def test_csv_round_trip(tmp_path):
    path = tmp_path / "table.csv"
    rows = _synthetic_rows(3)
    write_convergence_csv(rows, path)
    back = read_convergence_csv(path)
    assert len(back) == 3
    for a, b in zip(rows, back):
        assert b.h == pytest.approx(a.h, rel=1e-12)
        assert b.energy_err == pytest.approx(a.energy_err, rel=1e-12)
        assert b.l2_u_err == pytest.approx(a.l2_u_err, rel=1e-12)
        assert b.l2_p_err == pytest.approx(a.l2_p_err, rel=1e-12)
        assert (a.energy_eoc is None) == (b.energy_eoc is None)
    with pytest.raises(ValueError):
        bad = tmp_path / "bad.csv"
        bad.write_text("nope\n")
        read_convergence_csv(bad)


def test_locate_points_agrees_with_barycentric_search():
    mesh = build_unit_square_mesh(3)
    rng = np.random.default_rng(13)
    pts = rng.random((40, 2))
    tri, bary, fallback = locate_points(mesh, pts)
    assert fallback == 0
    for q in range(len(pts)):
        lam = barycentric_coords(mesh, int(tri[q]), pts[q])
        assert lam.min() >= -1e-10  # really contains the point
        assert np.allclose(lam, bary[q], atol=1e-12)


def test_locate_points_matches_the_all_candidates_search():
    # one candidate column at a time, only for the points still unplaced:
    # the same triangles and bit-identical coordinates as testing all 12 at once
    grid = sample_grid(build_unit_square_mesh(32), 101, 101).points
    rng = np.random.default_rng(23)
    cases = [
        (build_unit_square_mesh(32), grid),
        (perturbed_mesh(16, seed=4), np.concatenate([grid, rng.random((500, 2))])),
        (perturbed_mesh(8, seed=6), rng.uniform(-0.1, 1.1, (400, 2))),  # some outside: fallbacks
        # one triangle: the KD-tree returns a single candidate column
        (MeshTopology(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]), np.array([[0, 1, 2]])), rng.random((20, 2))),
    ]
    fallbacks = []
    for mesh, pts in cases:
        tri, bary, fallback = locate_points(mesh, pts)
        tri_ref, bary_ref, fallback_ref = locate_points_all_candidates(mesh, pts)
        assert np.array_equal(tri, tri_ref)
        assert np.array_equal(bary, bary_ref)
        assert fallback == fallback_ref
        fallbacks.append(fallback)
    assert fallbacks[0] == 0 and min(fallbacks[2:]) > 0


def test_broadcast_barycentric_coords_match_scalar_calls():
    # a seeded perturbed mesh: interior vertices moved, the boundary kept on the unit square
    base = build_unit_square_mesh(6)
    rng = np.random.default_rng(21)
    shift = rng.uniform(-0.04, 0.04, (base.num_vertices, 2))
    vertices = base.vertices + np.where(base.is_boundary_vertex[:, None], 0.0, shift)
    mesh = MeshTopology(vertices, base.triangles)
    pts = rng.uniform(-0.05, 1.05, (60, 2))
    cand = rng.integers(0, mesh.num_triangles, (60, 5))
    lam = barycentric_coords(mesh, cand, pts[:, None, :])
    assert lam.shape == (60, 5, 3)
    for q in range(len(pts)):
        for j in range(cand.shape[1]):
            assert np.array_equal(lam[q, j], barycentric_coords(mesh, int(cand[q, j]), pts[q]))
    # exactly the points outside the square fall back to their nearest triangle
    _, bary, fallback = locate_points(mesh, pts)
    outside = np.any((pts < 0.0) | (pts > 1.0), axis=1)
    assert 0 < fallback == int(outside.sum())
    assert np.allclose(bary.sum(axis=1), 1.0) and bary.min() >= 0.0


def test_located_points_do_not_depend_on_the_block_size(monkeypatch):
    # each point's search is its own, so locating a few points at a time
    # changes nothing, the clipping after a fallback in a later block included
    mesh = perturbed_mesh(6, seed=3)
    pts = np.random.default_rng(5).uniform(-0.05, 1.05, (200, 2))
    tri, bary, fallback = locate_points(mesh, pts)
    assert 0 < fallback < len(pts)
    monkeypatch.setattr(cli, "_BLOCK_POINTS", 7)
    tri_7, bary_7, fallback_7 = locate_points(mesh, pts)
    assert np.array_equal(tri_7, tri) and np.array_equal(bary_7, bary) and fallback_7 == fallback


def test_field_dump_zero_solution_and_grid_shape(tmp_path):
    mesh = build_unit_square_mesh(2)
    path = tmp_path / "dump.txt"
    velocity = write_field_dump(
        mesh, np.zeros(n_velocity(mesh)), np.zeros(mesh.num_triangles), sample_grid(mesh, 2, 2), path
    )
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "# nx=2 ny=2 fallback_points=0"
    assert np.array_equal(velocity, np.zeros((4, 2)))
    assert len(lines) == 2 + 4
    for line in lines[2:]:
        x, y, u1, u2, p = map(float, line.split())
        assert u1 == 0.0 and u2 == 0.0 and p == 0.0


def test_field_dump_reproduces_continuous_field(tmp_path):
    # zero-bubble fields are single-valued everywhere, including on mesh
    # edges where grid points fall, so the dump must match the closed form
    mesh = build_unit_square_mesh(3)
    a, b = 0.4, -0.9
    nodal = np.stack([a + b * mesh.vertices[:, 1], -b * mesh.vertices[:, 0]], axis=-1)
    u_h = EGFunction(mesh, nodal, np.zeros(mesh.num_triangles))
    p_h = np.arange(mesh.num_triangles, dtype=float)
    path = tmp_path / "dump.txt"
    write_field_dump(mesh, u_h.to_vector(), p_h, sample_grid(mesh, 7, 5), path)
    rows = np.loadtxt(path)
    assert rows.shape == (35, 5)
    assert np.allclose(rows[:, 2], a + b * rows[:, 1], atol=1e-12)
    assert np.allclose(rows[:, 3], -b * rows[:, 0], atol=1e-12)
    # x runs fastest
    assert np.allclose(rows[:7, 1], rows[0, 1])


def test_field_dump_includes_bubble_contribution(tmp_path):
    mesh = build_unit_square_mesh(2)
    u_h = EGFunction.zero(mesh)
    u_h.bubble[:] = 1.0
    pts = mesh.barycenters + 0.01  # strictly inside for this mesh size
    tri, _, _ = locate_points(mesh, pts)
    vals = np.array([u_h.value(int(t), x) for t, x in zip(tri, pts)])
    assert np.abs(vals).max() > 0  # bubbles really sampled
    path = tmp_path / "dump.txt"
    write_field_dump(mesh, u_h.to_vector(), np.zeros(mesh.num_triangles), sample_grid(mesh, 9, 9), path)
    rows = np.loadtxt(path)
    assert np.abs(rows[:, 2:4]).max() > 1e-3


@pytest.mark.parametrize("n, nx, ny", [(2, 2, 2), (3, 7, 5), (32, 101, 101)])
def test_field_dump_is_the_one_shot_dump(tmp_path, n, nx, ny):
    # grids of fewer rows than one block, and of 10,201 rows that end in a
    # partial block, give the bytes of the dump formatted in one piece
    mesh = build_unit_square_mesh(n)
    rng = np.random.default_rng(n)
    u_h, p_h = rng.standard_normal(n_velocity(mesh)), rng.standard_normal(mesh.num_triangles)
    grid = sample_grid(mesh, nx, ny)
    velocity = write_field_dump(mesh, u_h, p_h, grid, tmp_path / "dump.txt")
    field_dump_at_once(mesh, u_h, p_h, grid, tmp_path / "oracle.txt")
    assert (tmp_path / "dump.txt").read_bytes() == (tmp_path / "oracle.txt").read_bytes()
    assert np.array_equal(velocity, sample_velocity(mesh, u_h, grid))


def test_field_dump_stays_small_in_memory(tmp_path):
    # rows are formatted a block at a time; the string of all 10,201 rows,
    # its tuple of floats and its encoded copy took 3.7 MB here
    mesh = build_unit_square_mesh(32)
    asm.discretization(mesh).embedding
    rng = np.random.default_rng(4)
    u_h, p_h = rng.standard_normal(n_velocity(mesh)), rng.standard_normal(mesh.num_triangles)
    grid = sample_grid(mesh, 101, 101)
    assert traced_peak(write_field_dump, mesh, u_h, p_h, grid, tmp_path / "dump.txt") <= 1.5e6


def test_sampled_velocity_matches_pointwise_value_on_perturbed_mesh():
    mesh = perturbed_mesh(6, seed=9)
    rng = np.random.default_rng(9)
    u_h = EGFunction(mesh, rng.standard_normal((mesh.num_vertices, 2)), rng.standard_normal(mesh.num_triangles))
    pts = rng.uniform(0.02, 0.98, (200, 2))
    tri, bary, fallback = locate_points(mesh, pts)
    assert fallback == 0
    vals = sample_velocity(mesh, u_h.to_vector(), SampleGrid(len(pts), 1, pts, tri, bary, fallback))
    want = np.array([u_h.value(int(t), x) for t, x in zip(tri, pts)])
    assert np.abs(vals - want).max() <= 1e-12 * np.abs(want).max()


def test_config_file_precedence(tmp_path):
    cfg_file = tmp_path / "run.json"
    cfg_file.write_text(json.dumps({"mu": 0.5, "levels": [2, 4], "rho": 7.0}))
    args = build_parser().parse_args(
        ["converge", "--config", str(cfg_file), "--mu", "0.25"]
    )
    cfg = config_from_args(args)
    assert cfg.mu == 0.25  # flag beats file
    assert cfg.levels == (2, 4)  # file beats default
    assert cfg.rho == 7.0
    assert cfg.tol == 1e-10  # default survives


_BUILT_IN = dict(
    levels=(4, 8, 16, 32, 64),
    mu=1.0,
    rho=10.0,
    mode="eg",
    tol=1e-10,
    max_iters=20,
    init="zero",
    mu_list=(1.0, 1e-2, 1e-4),
    grid=101,
    out_dir=Path("."),
)
_PER_EXPERIMENT = {
    "converge": {},
    "cavity": {"levels": (32,), "init": "stokes"},
    "probe": {"levels": (16,)},
}
_FULL_FILE = {
    "levels": [2, 4],
    "n": 6,
    "mu": 0.5,
    "rho": 7.0,
    "mode": "pr-eg",
    "tol": 1e-8,
    "max_iters": 7,
    "init": "stokes",
    "mu_list": [1, 0.1, 0.001],
    "grid": 11,
    "out": "results",
}
_FULL_EXPECTED = dict(
    mu=0.5,
    rho=7.0,
    mode="pr-eg",
    tol=1e-8,
    max_iters=7,
    init="stokes",
    mu_list=(1.0, 0.1, 0.001),
    grid=11,
    out_dir=Path("results"),
)


@pytest.mark.parametrize("source", ["flags", "partial-file", "full-file"])
@pytest.mark.parametrize("experiment", ["converge", "cavity", "probe"])
def test_every_run_config_field_default(tmp_path, experiment, source):
    expected = dict(_BUILT_IN, **_PER_EXPERIMENT[experiment])
    argv = [experiment]
    if source != "flags":
        if source == "full-file":
            values = _FULL_FILE
            expected.update(_FULL_EXPECTED)
        else:
            values = {"levels": [3], "n": 5, "mu": 0.25}
            expected["mu"] = 0.25
        expected["levels"] = tuple(values["levels"]) if experiment == "converge" else (values["n"],)
        cfg_file = tmp_path / "run.json"
        cfg_file.write_text(json.dumps(values))
        argv += ["--config", str(cfg_file)]
    cfg = config_from_args(build_parser().parse_args(argv))
    assert dataclasses.asdict(cfg) == dict(expected, experiment=experiment)


@pytest.mark.parametrize("experiment", ["converge", "cavity", "probe"])
def test_help_states_the_defaults_a_run_without_flags_uses(experiment, capsys):
    cfg = config_from_args(build_parser().parse_args([experiment]))
    assert cli_main([experiment, "--help"]) == 0
    text = " ".join(capsys.readouterr().out.split())
    stated = [f"viscosity (default {cfg.mu})", f"jump penalty (default {cfg.rho})", f"output directory (default {cfg.out_dir})"]
    if experiment != "converge":
        stated.append(f"mesh level (default {cfg.levels[0]})")
    if experiment == "cavity":
        stated.append(f"dump sampling resolution (default {cfg.grid})")
    for phrase in stated:
        assert phrase in text


def test_converge_driver_matches_api(tmp_path):
    rc = cli_main(["converge", "--levels", "4", "--mode", "eg", "--out", str(tmp_path)])
    assert rc == 0
    rows = read_convergence_csv(tmp_path / "convergence.csv")
    ref = convergence_study([4], FormParams(viscosity=1.0, penalty=10.0))[0]
    assert rows[0].energy_err == pytest.approx(ref.energy_err, rel=1e-12)
    assert rows[0].l2_p_err == pytest.approx(ref.l2_p_err, rel=1e-12)


def test_cavity_driver_outputs(tmp_path):
    rc = cli_main(
        ["cavity", "--n", "4", "--grid", "9", "--mode", "pr-eg", "--out", str(tmp_path)]
    )
    assert rc == 0
    report = json.loads((tmp_path / "cavity_report.json").read_text())
    assert report["converged"] is True
    assert report["stokes_init"] is True
    assert report["lid_velocity"] == [1.0, 0.0]
    assert report["leaky_corners"] is True
    assert report["n"] == 4
    assert len(report["update_norms"]) == report["iterations"]
    rows = np.loadtxt(tmp_path / "cavity_field.txt")
    assert rows.shape == (81, 5)
    lid = rows[np.abs(rows[:, 1] - 1.0) < 1e-12]
    assert lid[:, 2].max() > 0.5  # lid row carries the driven velocity


def test_cavity_report_bounds_the_velocity_inside_the_cavity(tmp_path):
    # u1_max covers the samples on the lid, which read the bubbles' trace and
    # exceed the lid speed; strictly inside the cavity the flow stays below it
    # (at n=16 the cells at the resting lid corners still overshoot, to 1.19)
    assert cli_main(["cavity", "--n", "32", "--out", str(tmp_path)]) == 0
    w = json.loads((tmp_path / "cavity_report.json").read_text())["watertight_comparison"]
    assert w["u1_max_interior"] < LID_VELOCITY[0]
    assert w["u1_max_interior"] <= w["u1_max"]


def test_cavity_failure_exit_code(tmp_path, monkeypatch):
    def explode(*a, **k):
        raise SingularSystemError("sparse factorization failed")

    monkeypatch.setattr(cli, "solve_navier_stokes", explode)
    rc = cli_main(["cavity", "--n", "2", "--out", str(tmp_path)])
    assert rc == 1
    report = json.loads((tmp_path / "cavity_report.json").read_text())
    assert report["converged"] is False
    assert report["error"] == "sparse factorization failed"


def test_cavity_builds_viscous_and_divergence_once_and_keeps_them_in_the_blocks(tmp_path, monkeypatch):
    # the leaky and the watertight solve constrain the same boundary dofs, so
    # they share one saddle-blocks build, the only reader of A and B; the
    # mesh's Discretization keeps neither matrix once the blocks are built
    built = {"A": [], "B": []}
    real_A, real_B = asm.assemble_viscous, asm.assemble_divergence

    def counted_A(mesh, params):
        built["A"].append(mesh)
        return real_A(mesh, params)

    def counted_B(mesh):
        built["B"].append(mesh)
        return real_B(mesh)

    monkeypatch.setattr(asm, "assemble_viscous", counted_A)
    monkeypatch.setattr(asm, "assemble_divergence", counted_B)
    assert cli_main(["cavity", "--n", "4", "--grid", "5", "--mode", "pr-eg", "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "cavity_report.json").read_text())
    assert report["watertight_comparison"]["converged"] is True
    assert len(built["A"]) == len(built["B"]) == 1
    mesh = built["A"][0]
    assert built["B"][0] is mesh
    disc = asm.discretization(mesh)
    assert not hasattr(disc, "viscous") and not hasattr(disc, "divergence")

    def kept_matrices(value):
        if sp.issparse(value):
            yield value
        elif isinstance(value, dict):
            for v in value.values():
                yield from kept_matrices(v)
        elif isinstance(value, (tuple, list)):
            for v in value:
                yield from kept_matrices(v)

    n_velocity = 2 * mesh.num_vertices + mesh.num_triangles
    shapes = {m.shape for m in kept_matrices(vars(disc))}
    assert (n_velocity, n_velocity) not in shapes and (mesh.num_triangles, n_velocity) not in shapes


def test_probe_driver_outputs(tmp_path):
    rc = cli_main(
        ["probe", "--n", "2", "--mu-list", "1,1e-3", "--out", str(tmp_path)]
    )
    assert rc == 0
    lines = (tmp_path / "probe.csv").read_text().strip().splitlines()
    assert lines[0] == cli.PROBE_HEADER
    assert len(lines) == 1 + 4  # 2 modes x 2 viscosities
    base = lines[1].split(",")
    assert base[0] == "standard" and float(base[7]) == 1.0


def test_outputs_are_byte_identical_across_runs(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert cli_main(["converge", "--levels", "2,4", "--out", str(out)]) == 0
        assert cli_main(["cavity", "--n", "2", "--grid", "5", "--out", str(out)]) == 0
    assert (a / "convergence.csv").read_bytes() == (b / "convergence.csv").read_bytes()
    assert (a / "cavity_field.txt").read_bytes() == (b / "cavity_field.txt").read_bytes()
    assert (a / "cavity_report.json").read_bytes() == (b / "cavity_report.json").read_bytes()
