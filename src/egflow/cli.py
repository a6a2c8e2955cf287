"""Command-line drivers and plain-text output artifacts.

Three experiments are exposed as subcommands:

  converge   manufactured-solution refinement study -> convergence CSV
  cavity     lid-driven cavity solve -> sampled field dump + solve report
  probe      fixed-mesh error-vs-viscosity comparison -> probe CSV

Flag precedence is CLI over config-file over built-in defaults; the config
file (--config) is a flat JSON object whose keys are the long flag names with
'_' for '-': levels, n, mu, rho, mode, tol, max_iters, init, mu_list, grid
and out (converge reads levels, cavity and probe read n).  Any other key,
or a value of the wrong type (a float or boolean for an integer, a boolean
or string for a number), is a configuration error.  All outputs are
deterministic: rerunning a configuration reproduces the files byte for byte.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np
from scipy.spatial import cKDTree

from .analysis import ConvergenceRow, check_viscosity_list, convergence_study, pressure_robustness_probe
from .assembly import LID_VELOCITY, FormParams, lid_values, vertex_values
from .mesh import MeshTopology, build_unit_square_mesh
from .solver import NonlinearSettings, SingularSystemError, solve_navier_stokes

CSV_HEADER = "h,energy_err,energy_eoc,l2u_err,l2u_eoc,l2p_err,l2p_eoc"
_BLOCK_POINTS = 1024  # points located, and field-dump rows written, at a time


@dataclass(frozen=True)
class RunConfig:
    """Validated description of one experiment run."""

    experiment: str
    levels: tuple = (4, 8, 16, 32, 64)
    mu: float = FormParams.viscosity
    rho: float = FormParams.penalty
    mode: str = "eg"
    tol: float = NonlinearSettings.tol
    max_iters: int = NonlinearSettings.max_iters
    init: str = NonlinearSettings.init
    mu_list: tuple = (1.0, 1e-2, 1e-4)
    grid: int = 101
    out_dir: Path = field(default_factory=lambda: Path("."))

    def __post_init__(self):
        if self.experiment not in ("converge", "cavity", "probe"):
            raise ValueError(f"unknown experiment {self.experiment!r}")
        if not self.levels:
            raise ValueError("levels must be nonempty")
        if any(type(k) is not int for k in (*self.levels, self.max_iters, self.grid)):
            raise ValueError("levels, n, max_iters and grid must be integers")
        numbers = (self.mu, self.rho, self.tol, *self.mu_list)
        if any(isinstance(x, bool) or not isinstance(x, (int, float)) for x in numbers):
            raise ValueError("mu, rho, tol and mu_list must be numbers")
        if any(n < 1 for n in self.levels):
            raise ValueError("levels must be positive")
        if self.mode not in ("eg", "pr-eg"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.grid < 2:
            raise ValueError("grid resolution must be at least 2")
        self.form_params()  # rejects a bad mu or rho
        self.nonlinear_settings()  # rejects a bad tol, max_iters or init
        check_viscosity_list(self.mu_list)  # also where the experiment does not read it

    def form_params(self) -> FormParams:
        return FormParams(viscosity=self.mu, penalty=self.rho, pressure_robust=self.mode == "pr-eg")

    def nonlinear_settings(self) -> NonlinearSettings:
        return NonlinearSettings(tol=self.tol, max_iters=self.max_iters, init=self.init)


# -- output writers --------------------------------------------------------


def _fmt(x) -> str:
    if x is None:
        return ""
    return f"{x:.12e}"


def write_convergence_csv(rows: list[ConvergenceRow], path) -> None:
    """One CSV line per refinement level; EOC cells are blank where undefined."""
    lines = [CSV_HEADER]
    for r in rows:
        columns = (r.h, r.energy_err, r.energy_eoc, r.l2_u_err, r.l2_u_eoc, r.l2_p_err, r.l2_p_eoc)
        lines.append(",".join(map(_fmt, columns)))
    Path(path).write_text("\n".join(lines) + "\n")


def barycentric_coords(mesh: MeshTopology, t, x: np.ndarray) -> np.ndarray:
    """Barycentric coordinates of points x (..., 2) relative to triangles t.

    t is one triangle index or an index array; its shape broadcasts against
    x.shape[:-1], so x[:, None, :] pairs each point with a row of triangles.
    """
    x = np.asarray(x, dtype=float)
    p = mesh.vertices[mesh.triangles[t]]  # t.shape + (3, 2)
    det = 2.0 * mesh.areas[t]
    vx = x[..., 0] - p[..., 0, 0]
    vy = x[..., 1] - p[..., 0, 1]
    lam1 = (vx * (p[..., 2, 1] - p[..., 0, 1]) - vy * (p[..., 2, 0] - p[..., 0, 0])) / det
    lam2 = ((p[..., 1, 0] - p[..., 0, 0]) * vy - (p[..., 1, 1] - p[..., 0, 1]) * vx) / det
    return np.stack([1.0 - lam1 - lam2, lam1, lam2], axis=-1)


def locate_points(mesh: MeshTopology, pts: np.ndarray):
    """Containing triangle and barycentric coordinates for each point.

    Candidate triangles come from a nearest-barycenter search, k = 12 per
    point; each point takes its nearest containing candidate.  The
    candidates are tested one column at a time, each column only for the
    points still unplaced.  Each point's search is independent of the
    others, so the points are located _BLOCK_POINTS at a time, which
    bounds the search's arrays.  Points that land in no candidate (outside
    the mesh, up to roundoff) are assigned their nearest triangle and
    counted as fallbacks; when there are any, every point's coordinates are
    clipped to [0, 1] and renormalized.

    A point on an edge lies in both triangles of the edge and takes the one
    whose barycenter is nearer.  On the diagonals of a structured mesh the
    two barycenters are equally far up to rounding, so rounding and the
    KD-tree's order of ties decide: 386 of the 10,201 points of the
    101 x 101 grid at n = 32 lie on a diagonal, 196 of them take the upper
    and 190 the lower triangle.  The bubbles jump across the edge, so such
    a sample shows one side only.
    """
    pts = np.asarray(pts, dtype=float)
    k = min(12, mesh.num_triangles)
    tree = cKDTree(mesh.barycenters)
    tri = np.empty(len(pts), dtype=np.intp)
    bary = np.empty((len(pts), 3))
    fallback = 0
    for lo in range(0, len(pts), _BLOCK_POINTS):
        block = slice(lo, lo + _BLOCK_POINTS)
        _, cand = tree.query(pts[block], k=k)
        tri[block], bary[block], unplaced = _nearest_containing(mesh, cand.reshape(-1, k), pts[block])
        fallback += unplaced
    if fallback:
        bary = np.clip(bary, 0.0, None)
        bary /= bary.sum(axis=-1, keepdims=True)
    return tri, bary, fallback


def _nearest_containing(mesh: MeshTopology, cand: np.ndarray, pts: np.ndarray):
    """Each point's nearest containing candidate with its coordinates, and how many points none contains.

    cand holds each point's candidates, nearest first; a point that no
    candidate contains keeps its nearest one, with unclipped coordinates.
    """
    tri = cand[:, 0].copy()
    bary = barycentric_coords(mesh, tri, pts)  # kept as the fallback where no candidate contains the point
    unplaced = np.flatnonzero(~(bary.min(axis=-1) >= -1e-10))
    for j in range(1, cand.shape[1]):
        if not len(unplaced):
            break
        lam = barycentric_coords(mesh, cand[unplaced, j], pts[unplaced])
        inside = lam.min(axis=-1) >= -1e-10
        placed = unplaced[inside]
        tri[placed] = cand[placed, j]
        bary[placed] = lam[inside]
        unplaced = unplaced[~inside]
    return tri, bary, len(unplaced)


class SampleGrid(NamedTuple):
    """Cartesian sample points over the mesh's bounding box, located once."""

    nx: int
    ny: int
    points: np.ndarray  # (nx * ny, 2), x fastest
    triangles: np.ndarray
    bary: np.ndarray
    fallback: int


def sample_grid(mesh: MeshTopology, nx: int, ny: int) -> SampleGrid:
    """nx x ny grid over the bounding box of the mesh with its containing triangles."""
    lo = mesh.vertices.min(axis=0)
    hi = mesh.vertices.max(axis=0)
    X, Y = np.meshgrid(np.linspace(lo[0], hi[0], nx), np.linspace(lo[1], hi[1], ny))
    pts = np.column_stack([X.ravel(), Y.ravel()])
    tri, bary, fallback = locate_points(mesh, pts)
    return SampleGrid(nx, ny, pts, tri, bary, fallback)


def sample_velocity(mesh: MeshTopology, u_h: np.ndarray, grid: SampleGrid) -> np.ndarray:
    """Velocity (bubbles included) with coefficients u_h at the grid points, (nx * ny, 2)."""
    return np.einsum("pk,pki->pi", grid.bary, vertex_values(mesh, u_h)[grid.triangles])


def write_field_dump(mesh: MeshTopology, u_h: np.ndarray, p_h: np.ndarray, grid: SampleGrid, path) -> np.ndarray:
    """Write velocity (bubbles included) and pressure at the grid points; return the sampled velocity, (nx * ny, 2).

    u_h holds the velocity coefficients and p_h the cell pressures.  Rows
    run x fastest, y slowest; the header records the fallback-point count.
    The rows are formatted and written _BLOCK_POINTS at a time through one
    open file, so the text of the whole dump is never held at once.
    """
    velocity = sample_velocity(mesh, u_h, grid)
    pressure = p_h[grid.triangles]
    with open(path, "w") as out:
        out.write(f"# nx={grid.nx} ny={grid.ny} fallback_points={grid.fallback}\n# x y u1 u2 p\n")
        for lo in range(0, len(velocity), _BLOCK_POINTS):
            block = slice(lo, lo + _BLOCK_POINTS)
            rows = np.column_stack([grid.points[block], velocity[block], pressure[block]])
            out.write(("%.12e %.12e %.12e %.12e %.12e\n" * len(rows)) % tuple(rows.ravel().tolist()))
    return velocity


def _write_report(path, payload: dict) -> None:
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


# -- experiment drivers ----------------------------------------------------


def run_converge(cfg: RunConfig) -> int:
    rows = convergence_study(
        list(cfg.levels), cfg.form_params(), settings=cfg.nonlinear_settings()
    )
    out = cfg.out_dir / "convergence.csv"
    write_convergence_csv(rows, out)
    for n, r in zip(cfg.levels, rows):
        status = r.note or ("ok" if r.converged else "not-converged")
        print(
            f"n={n:<3d} h={r.h:.4e} energy={r.energy_err:.6e} "
            f"l2u={r.l2_u_err:.6e} l2p={r.l2_p_err:.6e} iters={r.iterations} [{status}]"
        )
    print(f"wrote {out}")
    return 0


def _watertight_comparison(mesh: MeshTopology, cfg: RunConfig, leaky: np.ndarray, grid: SampleGrid) -> dict:
    """Re-solve with the lid corners at rest; the report documents the gap to the leaky velocity sampled on grid."""
    try:
        u_wt, _, rep = solve_navier_stokes(
            mesh,
            cfg.form_params(),
            cfg.nonlinear_settings(),
            boundary=lid_values(mesh, leaky_corners=False),
        )
    except SingularSystemError as err:
        return {"converged": False, "error": str(err)}
    wt = sample_velocity(mesh, u_wt, grid)
    # samples on the boundary read the bubbles' trace, which meets the lid data only weakly
    lo, hi = grid.points.min(axis=0), grid.points.max(axis=0)
    inside = np.all((grid.points > lo) & (grid.points < hi), axis=1)
    return {
        "converged": rep.converged,
        "iterations": rep.iterations,
        "u1_min": float(wt[:, 0].min()),
        "u1_max": float(wt[:, 0].max()),
        "u1_max_interior": float(wt[inside, 0].max()) if inside.any() else None,
        "max_velocity_gap": float(np.abs(wt - leaky).max()),
    }


def run_cavity(cfg: RunConfig) -> int:
    n = cfg.levels[0]
    mesh = build_unit_square_mesh(n)
    boundary = lid_values(mesh)
    report_path = cfg.out_dir / "cavity_report.json"
    meta = {
        "experiment": "cavity",
        "n": n,
        "mu": cfg.mu,
        "rho": cfg.rho,
        "mode": cfg.mode,
        "lid_velocity": list(LID_VELOCITY),
        "leaky_corners": True,  # corner vertices take the lid value
        "init": cfg.init,
    }
    try:
        u_h, p_h, report = solve_navier_stokes(
            mesh, cfg.form_params(), cfg.nonlinear_settings(), boundary=boundary
        )
    except SingularSystemError as err:
        _write_report(report_path, dict(meta, converged=False, error=str(err)))
        print(f"solver failed: {err}; report at {report_path}", file=sys.stderr)
        return 1
    dump_path = cfg.out_dir / "cavity_field.txt"
    grid = sample_grid(mesh, cfg.grid, cfg.grid)
    leaky = write_field_dump(mesh, u_h, p_h, grid, dump_path)
    payload = dict(
        meta,
        **dataclasses.asdict(report),
        stokes_init=cfg.init == "stokes",
        field_dump=dump_path.name,
        fallback_points=grid.fallback,
        watertight_comparison=_watertight_comparison(mesh, cfg, leaky, grid),
    )
    _write_report(report_path, payload)
    print(
        f"cavity n={n} mode={cfg.mode}: converged={report.converged} "
        f"iters={report.iterations}; wrote {dump_path} and {report_path}"
    )
    if not report.converged:
        return 1
    return 0


PROBE_HEADER = "mode,mu,energy_err,energy_r_err,l2u_err,iterations,converged,energy_ratio,energy_r_ratio"


def run_probe(cfg: RunConfig) -> int:
    n = cfg.levels[0]
    table = pressure_robustness_probe(
        n, list(cfg.mu_list), penalty=cfg.rho, settings=cfg.nonlinear_settings()
    )
    lines = [PROBE_HEADER]
    for mode in ("standard", "robust"):
        for c in table[mode]:
            row = c.row
            errors = map(_fmt, (c.mu, row.energy_err, row.energy_r_err, row.l2_u_err))
            ratios = map(_fmt, (c.energy_ratio, c.energy_r_ratio))
            lines.append(",".join([mode, *errors, str(row.iterations), str(row.converged).lower(), *ratios]))
            flag = "" if row.converged else f"  [{row.note or 'not-converged'}]"
            print(
                f"{mode:8s} mu={c.mu:.1e} energy_r={row.energy_r_err:.6e} "
                f"ratio_r={c.energy_r_ratio if c.energy_r_ratio is None else f'{c.energy_r_ratio:.3f}'}{flag}"
            )
    out = cfg.out_dir / "probe.csv"
    Path(out).write_text("\n".join(lines) + "\n")
    print(f"wrote {out}")
    return 0


# -- argument handling -----------------------------------------------------


def _list_parser(kind, what: str):
    """argparse type for a comma-separated list of kind values."""

    def parse(text: str):
        try:
            return tuple(kind(tok) for tok in text.split(",") if tok.strip())
        except ValueError as err:
            raise argparse.ArgumentTypeError(f"bad {what} list {text!r}") from err

    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="egflow",
        description="Enriched Galerkin flow solver experiments",
    )
    sub = parser.add_subparsers(dest="experiment", required=True)

    def subcommand(name: str, summary: str) -> tuple[argparse.ArgumentParser, RunConfig]:
        """The experiment's parser with the common flags, and the defaults it runs with."""
        p = sub.add_parser(name, help=summary)
        defaults = RunConfig(experiment=name, **_EXPERIMENT_DEFAULTS[name])
        p.add_argument("--config", type=Path, help="JSON file with default flag values")
        p.add_argument("--mu", type=float, help=f"viscosity (default {defaults.mu})")
        p.add_argument("--rho", type=float, help=f"jump penalty (default {defaults.rho})")
        p.add_argument("--mode", choices=["eg", "pr-eg"], help="discretization mode")
        p.add_argument("--tol", type=float, help="nonlinear relative-update tolerance")
        p.add_argument("--max-iters", type=int, help="nonlinear iteration cap")
        p.add_argument("--init", choices=["zero", "stokes"], help="stokes leaves the first step from zero uncounted")
        p.add_argument("--out", type=Path, help=f"output directory (default {defaults.out_dir})")
        return p, defaults

    p, _ = subcommand("converge", "refinement study on the manufactured solution")
    p.add_argument("--levels", type=_list_parser(int, "level"), help="comma-separated mesh levels")

    p, defaults = subcommand("cavity", "lid-driven cavity benchmark")
    p.add_argument("--n", type=int, help=f"mesh level (default {defaults.levels[0]})")
    p.add_argument("--grid", type=int, help=f"dump sampling resolution (default {defaults.grid})")

    p, defaults = subcommand("probe", "error-vs-viscosity comparison of both modes")
    p.add_argument("--n", type=int, help=f"mesh level (default {defaults.levels[0]})")
    p.add_argument("--mu-list", type=_list_parser(float, "viscosity"), help="comma-separated viscosities")
    return parser


# what each experiment changes of the RunConfig defaults; cavity and probe
# solve the one level given by --n
_EXPERIMENT_DEFAULTS = {
    "converge": {},
    "cavity": {"levels": (32,), "init": "stokes"},
    "probe": {"levels": (16,)},
}
# the keys a config file may hold, in the order config_from_args reads them
_CONFIG_KEYS = ("levels", "n", "mu", "rho", "mode", "tol", "max_iters", "init", "mu_list", "grid", "out")
# config-file values whose JSON form is not the one RunConfig takes
_FROM_FILE = {
    "levels": tuple,
    "mu_list": tuple,
    "out": Path,
}


def config_from_args(args: argparse.Namespace) -> RunConfig:
    """Merge CLI flags over config-file values over defaults."""
    file_vals = {}
    if args.config is not None:
        file_vals = json.loads(Path(args.config).read_text())
        if not isinstance(file_vals, dict):
            raise ValueError("config file must hold a JSON object")
        unknown = sorted(set(file_vals) - set(_CONFIG_KEYS))
        if unknown:
            keys = ", ".join(_CONFIG_KEYS)
            raise ValueError(f"unknown config key(s) {', '.join(map(repr, unknown))}; the keys are {keys}")

    values = dict(_EXPERIMENT_DEFAULTS[args.experiment])
    other_level_flag = "n" if args.experiment == "converge" else "levels"
    try:
        for name in _CONFIG_KEYS:
            if name == other_level_flag:
                continue
            if getattr(args, name, None) is not None:
                value = getattr(args, name)
            elif name in file_vals:
                value = _FROM_FILE.get(name, lambda raw: raw)(file_vals[name])
            else:
                continue
            if name == "n":
                name, value = "levels", (value,)
            values["out_dir" if name == "out" else name] = value
        return RunConfig(experiment=args.experiment, **values)
    except TypeError as err:  # flags arrive typed by argparse, so the file holds the culprit
        raise ValueError(f"a value in {args.config} has the wrong type: {err}") from err


def cli_main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        return err.code if err.code is not None else 2
    try:
        cfg = config_from_args(args)
        cfg.out_dir.mkdir(parents=True, exist_ok=True)  # an --out naming a file is an OSError here
    except (ValueError, OSError, json.JSONDecodeError) as err:
        print(f"bad configuration: {err}", file=sys.stderr)
        return 2
    runner = {"converge": run_converge, "cavity": run_cavity, "probe": run_probe}
    return runner[cfg.experiment](cfg)


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
