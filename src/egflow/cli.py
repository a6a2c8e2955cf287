"""Command-line drivers and plain-text output artifacts.

Three experiments are exposed as subcommands:

  converge   manufactured-solution refinement study -> convergence CSV
  cavity     lid-driven cavity solve -> sampled field dump + solve report
  probe      fixed-mesh error-vs-viscosity comparison -> probe CSV

Flag precedence is CLI over config-file over built-in defaults; the config
file is a flat JSON object keyed by the long flag names.  All outputs are
deterministic: rerunning a configuration reproduces the files byte for byte.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np
from scipy.spatial import cKDTree

from .analysis import ConvergenceRow, convergence_study, pressure_robustness_probe
from .assembly import FormParams, lid_values
from .mesh import MeshTopology, build_unit_square_mesh
from .solver import (
    DivergedError,
    NonlinearSettings,
    SingularSystemError,
    solve_navier_stokes,
)
from .spaces import EGFunction, PressureFunction, barycentric_coords

CSV_HEADER = "h,energy_err,energy_eoc,l2u_err,l2u_eoc,l2p_err,l2p_eoc"


@dataclass(frozen=True)
class RunConfig:
    """Validated description of one experiment run."""

    experiment: str
    levels: tuple = (4, 8, 16, 32, 64)
    mu: float = 1.0
    rho: float = 10.0
    mode: str = "eg"
    tol: float = 1e-10
    max_iters: int = 20
    init: str = "zero"
    mu_list: tuple = (1.0, 1e-2, 1e-4)
    grid: int = 101
    out_dir: Path = field(default_factory=lambda: Path("."))

    def __post_init__(self):
        if self.experiment not in ("converge", "cavity", "probe"):
            raise ValueError(f"unknown experiment {self.experiment!r}")
        if not self.levels:
            raise ValueError("levels must be nonempty")
        if any(n < 1 for n in self.levels):
            raise ValueError("levels must be positive")
        if self.mu <= 0:
            raise ValueError("mu must be positive")
        if self.rho <= 0:
            raise ValueError("rho must be positive")
        if self.mode not in ("eg", "pr-eg"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.grid < 2:
            raise ValueError("grid resolution must be at least 2")

    def form_params(self, mu=None) -> FormParams:
        return FormParams(
            viscosity=self.mu if mu is None else mu,
            penalty=self.rho,
            pressure_robust=self.mode == "pr-eg",
        )

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
        lines.append(
            ",".join(
                [
                    _fmt(r.h),
                    _fmt(r.energy_err),
                    _fmt(r.energy_eoc),
                    _fmt(r.l2_u_err),
                    _fmt(r.l2_u_eoc),
                    _fmt(r.l2_p_err),
                    _fmt(r.l2_p_eoc),
                ]
            )
        )
    Path(path).write_text("\n".join(lines) + "\n")


def read_convergence_csv(path) -> list[ConvergenceRow]:
    """Inverse of write_convergence_csv (EOC blanks become None)."""
    lines = Path(path).read_text().strip().splitlines()
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError(f"unrecognized convergence CSV header in {path}")
    rows = []
    for line in lines[1:]:
        c = line.split(",")
        opt = lambda s: None if s == "" else float(s)
        rows.append(
            ConvergenceRow(
                h=float(c[0]),
                energy_err=float(c[1]),
                energy_eoc=opt(c[2]),
                energy_r_err=float("nan"),
                l2_u_err=float(c[3]),
                l2_u_eoc=opt(c[4]),
                l2_p_err=float(c[5]),
                l2_p_eoc=opt(c[6]),
            )
        )
    return rows


def locate_points(mesh: MeshTopology, pts: np.ndarray):
    """Containing triangle and barycentric coordinates for each point.

    Candidate triangles come from a nearest-barycenter search; points that
    land in no candidate (outside the mesh, up to roundoff) are assigned
    their nearest triangle and counted as fallbacks.
    """
    pts = np.asarray(pts, dtype=float)
    k = min(12, mesh.num_triangles)
    _, cand = cKDTree(mesh.barycenters).query(pts, k=k)
    cand = np.atleast_2d(cand)
    lam = barycentric_coords(mesh, cand, pts[:, None, :])  # (npts, k, 3)
    inside = lam.min(axis=-1) >= -1e-10
    first = np.argmax(inside, axis=1)  # nearest containing candidate
    found = inside[np.arange(len(pts)), first]
    first = np.where(found, first, 0)  # nearest triangle as fallback
    tri = cand[np.arange(len(pts)), first]
    bary = lam[np.arange(len(pts)), first]
    if not found.all():
        bary = np.clip(bary, 0.0, None)
        bary /= bary.sum(axis=-1, keepdims=True)
    return tri, bary, int((~found).sum())


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


def sample_velocity(u_h: EGFunction, grid: SampleGrid) -> np.ndarray:
    """Velocity (bubbles included) at the grid points, (nx * ny, 2)."""
    mesh = u_h.mesh
    tri = grid.triangles
    vals = np.einsum("pk,pki->pi", grid.bary, u_h.nodal[mesh.triangles[tri]])
    return vals + u_h.bubble[tri, None] * (grid.points - mesh.barycenters[tri])


def write_field_dump(u_h: EGFunction, p_h: PressureFunction, grid: SampleGrid, path) -> int:
    """Write velocity (bubbles included) and pressure at the grid points.

    Rows run x fastest, y slowest.  Returns the fallback-point count, which
    is also recorded in the header.
    """
    pts = grid.points
    vals = sample_velocity(u_h, grid)
    press = p_h.values[grid.triangles]
    lines = [f"# nx={grid.nx} ny={grid.ny} fallback_points={grid.fallback}", "# x y u1 u2 p"]
    for q in range(len(pts)):
        lines.append(
            f"{pts[q, 0]:.12e} {pts[q, 1]:.12e} "
            f"{vals[q, 0]:.12e} {vals[q, 1]:.12e} {press[q]:.12e}"
        )
    Path(path).write_text("\n".join(lines) + "\n")
    return grid.fallback


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


def _watertight_comparison(mesh: MeshTopology, cfg: RunConfig, u_leaky: EGFunction, grid: SampleGrid) -> dict:
    """Re-solve with the lid corners at rest; the report documents the gap."""
    try:
        u_wt, _, rep = solve_navier_stokes(
            mesh,
            cfg.form_params(),
            cfg.nonlinear_settings(),
            boundary=lid_values(mesh, leaky_corners=False),
        )
    except (DivergedError, SingularSystemError) as err:
        return {"converged": False, "error": str(err)}
    leaky = sample_velocity(u_leaky, grid)
    wt = sample_velocity(u_wt, grid)
    return {
        "converged": rep.converged,
        "iterations": rep.iterations,
        "u1_min": float(wt[:, 0].min()),
        "u1_max": float(wt[:, 0].max()),
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
        "lid_velocity": [1.0, 0.0],
        "leaky_corners": True,  # corner vertices take the lid value
        "init": cfg.init,
    }
    try:
        u_h, p_h, report = solve_navier_stokes(
            mesh, cfg.form_params(), cfg.nonlinear_settings(), boundary=boundary
        )
    except (DivergedError, SingularSystemError) as err:
        payload = dict(meta, converged=False, error=str(err))
        if isinstance(err, DivergedError):
            payload["iterations"] = err.report.iterations
            payload["update_norms"] = list(err.report.update_norms)
        _write_report(report_path, payload)
        print(f"solver failed: {err}; report at {report_path}", file=sys.stderr)
        return 1
    dump_path = cfg.out_dir / "cavity_field.txt"
    grid = sample_grid(mesh, cfg.grid, cfg.grid)
    fallback = write_field_dump(u_h, p_h, grid, dump_path)
    payload = dict(
        meta,
        converged=report.converged,
        iterations=report.iterations,
        update_norms=list(report.update_norms),
        linear_residuals=list(report.linear_residuals),
        krylov_iterations=list(report.krylov_iterations),
        factorizations=report.factorizations,
        stokes_init=report.stokes_init,
        field_dump=dump_path.name,
        fallback_points=fallback,
        watertight_comparison=_watertight_comparison(mesh, cfg, u_h, grid),
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
            lines.append(
                ",".join(
                    [
                        mode,
                        _fmt(c.mu),
                        _fmt(c.energy_err),
                        _fmt(c.energy_r_err),
                        _fmt(c.l2_u_err),
                        str(c.iterations),
                        str(c.converged).lower(),
                        _fmt(c.energy_ratio),
                        _fmt(c.energy_r_ratio),
                    ]
                )
            )
            flag = "" if c.converged else f"  [{c.note or 'not-converged'}]"
            print(
                f"{mode:8s} mu={c.mu:.1e} energy_r={c.energy_r_err:.6e} "
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

    def common(p):
        p.add_argument("--config", type=Path, help="JSON file with default flag values")
        p.add_argument("--mu", type=float, help="viscosity (default 1.0)")
        p.add_argument("--rho", type=float, help="jump penalty (default 10.0)")
        p.add_argument("--mode", choices=["eg", "pr-eg"], help="discretization mode")
        p.add_argument("--tol", type=float, help="nonlinear relative-update tolerance")
        p.add_argument("--max-iters", type=int, help="nonlinear iteration cap")
        p.add_argument("--init", choices=["zero", "stokes"], help="nonlinear initial guess")
        p.add_argument("--out", type=Path, help="output directory (default .)")

    p = sub.add_parser("converge", help="refinement study on the manufactured solution")
    common(p)
    p.add_argument("--levels", type=_list_parser(int, "level"), help="comma-separated mesh levels")

    p = sub.add_parser("cavity", help="lid-driven cavity benchmark")
    common(p)
    p.add_argument("--n", type=int, help="mesh level (default 32)")
    p.add_argument("--grid", type=int, help="dump sampling resolution (default 101)")

    p = sub.add_parser("probe", help="error-vs-viscosity comparison of both modes")
    common(p)
    p.add_argument("--n", type=int, help="mesh level (default 16)")
    p.add_argument("--mu-list", type=_list_parser(float, "viscosity"), help="comma-separated viscosities")
    return parser


# what each experiment changes of the RunConfig defaults; cavity and probe
# solve the one level given by --n
_EXPERIMENT_DEFAULTS = {
    "converge": {},
    "cavity": {"levels": (32,), "init": "stokes"},
    "probe": {"levels": (16,)},
}
# config-file values whose JSON form is not the one RunConfig takes
_FROM_FILE = {
    "levels": lambda raw: tuple(int(v) for v in raw),
    "mu_list": lambda raw: tuple(float(v) for v in raw),
    "out": Path,
}


def config_from_args(args: argparse.Namespace) -> RunConfig:
    """Merge CLI flags over config-file values over defaults."""
    file_vals = {}
    if args.config is not None:
        file_vals = json.loads(Path(args.config).read_text())
        if not isinstance(file_vals, dict):
            raise ValueError("config file must hold a JSON object")

    values = dict(_EXPERIMENT_DEFAULTS[args.experiment])
    level_flag = "levels" if args.experiment == "converge" else "n"
    for name in (level_flag, "mu", "rho", "mode", "tol", "max_iters", "init", "mu_list", "grid", "out"):
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


def cli_main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        return err.code if err.code is not None else 2
    try:
        cfg = config_from_args(args)
    except (ValueError, OSError, json.JSONDecodeError) as err:
        print(f"bad configuration: {err}", file=sys.stderr)
        return 2
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    runner = {"converge": run_converge, "cavity": run_cavity, "probe": run_probe}
    return runner[cfg.experiment](cfg)


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
