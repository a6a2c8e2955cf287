"""Workloads and the check of their outputs against the reference outputs.

The reference outputs in ``reference/<workload>/`` were written by the seed
commit of egflow (``record_reference.py``).  Each solve of a pass gets one
status:

  ok             converged, and its checked outputs match the reference
  not-converged  did not converge, as it also did not at the seed
  failed: ...    raised, stopped converging, or its outputs differ

Tolerances: error columns 1e-8 relative; dump fields and report extrema
1e-8 relative to the largest magnitude of their column.  Iteration counts,
update norms and linear residuals are never compared, because a different
nonlinear or linear solver may change them.  A cell that did not converge at
the seed is compared only for its status; converging now is not a failure.
"""

from __future__ import annotations

import csv
import gzip
import json
import math
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference"

ERR_RTOL = 1e-8
EOC_ATOL = 1e-6  # an order is a log-ratio of two errors, each good to ERR_RTOL
RATIO_RTOL = 1e-7  # a ratio of two errors, each good to ERR_RTOL
FIELD_RTOL = 1e-8

OK, NOT_CONVERGED = "ok", "not-converged"

# name -> egflow command line (without --out); why each was chosen is in README.md
WORKLOADS = {
    "converge-pr": ["converge", "--levels", "4,8,16,32,64", "--mode", "pr-eg", "--mu", "1"],
    "probe-mu": ["probe", "--n", "16", "--mu-list", "1,1e-2,1e-4"],
    "cavity-lid": ["cavity", "--n", "32", "--mode", "pr-eg", "--init", "stokes"],
}


def _close(got: float, ref: float, rtol: float, scale: float | None = None) -> bool:
    if math.isnan(ref):
        return math.isnan(got)
    return abs(got - ref) <= rtol * (abs(ref) if scale is None else scale)


def _rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _num(text: str) -> float | None:
    return None if text == "" else float(text)


def check_converge(out: Path, ref: Path) -> list[str]:
    """One status per refinement level of convergence.csv."""
    want = _rows(ref / "convergence.csv")
    try:
        got = _rows(out / "convergence.csv")
    except (OSError, ValueError) as err:
        return [f"failed: {err}"] * len(want)
    statuses = []
    for k, w in enumerate(want):
        g = got[k] if k < len(got) else None
        if g is None:
            statuses.append("failed: row missing")
            continue
        w_err = [float(w[c]) for c in ("energy_err", "l2u_err", "l2p_err")]
        g_err = [float(g[c]) for c in ("energy_err", "l2u_err", "l2p_err")]
        if any(math.isnan(x) for x in w_err):
            statuses.append(OK if not any(math.isnan(x) for x in g_err) else NOT_CONVERGED)
            continue
        bad = [c for c, a, b in zip(("energy_err", "l2u_err", "l2p_err"), g_err, w_err) if not _close(a, b, ERR_RTOL)]
        if not _close(float(g["h"]), float(w["h"]), 1e-12):
            bad.append("h")
        for c in ("energy_eoc", "l2u_eoc", "l2p_eoc"):
            a, b = _num(g[c]), _num(w[c])
            if (a is None) != (b is None) or (b is not None and abs(a - b) > EOC_ATOL):
                bad.append(c)
        statuses.append(f"failed: {','.join(bad)} differ" if bad else OK)
    return statuses


def check_probe(out: Path, ref: Path) -> list[str]:
    """One status per (mode, mu) cell of probe.csv."""
    want = _rows(ref / "probe.csv")
    try:
        got = {(r["mode"], float(r["mu"])): r for r in _rows(out / "probe.csv")}
    except (OSError, ValueError, KeyError) as err:
        return [f"failed: {err}"] * len(want)
    statuses = []
    for w in want:
        g = got.get((w["mode"], float(w["mu"])))
        if g is None:
            statuses.append("failed: cell missing")
            continue
        converged = g["converged"] == "true"
        if w["converged"] != "true":
            statuses.append(OK if converged else NOT_CONVERGED)
            continue
        if not converged:
            statuses.append("failed: not converged")
            continue
        bad = [c for c in ("energy_err", "energy_r_err", "l2u_err") if not _close(float(g[c]), float(w[c]), ERR_RTOL)]
        for c in ("energy_ratio", "energy_r_ratio"):
            a, b = _num(g[c]), _num(w[c])
            if (a is None) != (b is None) or (b is not None and not _close(a, b, RATIO_RTOL)):
                bad.append(c)
        statuses.append(f"failed: {','.join(bad)} differ" if bad else OK)
    return statuses


def _read_dump(path: Path):
    """Header line and the x y u1 u2 p columns of a field dump (plain or gzip)."""
    opener = gzip.open if path.suffix == ".gz" else open
    with opener(path, "rt") as fh:
        header = fh.readline().strip()
        columns = [[] for _ in range(5)]
        for line in fh:
            if line.startswith("#"):
                continue
            for col, tok in zip(columns, line.split()):
                col.append(float(tok))
    return header, columns


def _compare_dump(out: Path, ref: Path) -> list[str]:
    header, cols = _read_dump(out)
    ref_header, ref_cols = _read_dump(ref)
    if header != ref_header:
        return [f"header {header!r}"]
    bad = []
    for name, g, w in zip(("x", "y", "u1", "u2", "p"), cols, ref_cols):
        scale = max((abs(v) for v in w), default=0.0)
        if len(g) != len(w) or any(not _close(a, b, FIELD_RTOL, scale) for a, b in zip(g, w)):
            bad.append(name)
    return bad


# keys of cavity_report.json that hold no iteration history and no extremum
CAVITY_EXACT = ("experiment", "n", "mu", "rho", "mode", "lid_velocity", "leaky_corners", "init", "stokes_init", "field_dump", "fallback_points")
CAVITY_EXTREMA = ("u1_min", "u1_max", "max_velocity_gap")


def check_cavity(out: Path, ref: Path) -> list[str]:
    """Two statuses: the leaky-lid solve (report and field dump) and the watertight re-solve."""
    want = json.loads((ref / "cavity_report.json").read_text())
    try:
        got = json.loads((out / "cavity_report.json").read_text())
    except (OSError, ValueError) as err:
        return [f"failed: {err}"] * 2

    if not got.get("converged"):
        return ["failed: leaky solve not converged", "failed: leaky solve not converged"]
    bad = [k for k in CAVITY_EXACT if got.get(k) != want.get(k)]
    try:
        bad += _compare_dump(out / got["field_dump"], ref / "cavity_field.txt.gz")
    except (OSError, ValueError, KeyError) as err:
        bad.append(f"dump: {err}")
    leaky = f"failed: {','.join(bad)} differ" if bad else OK

    w, g = want["watertight_comparison"], got.get("watertight_comparison", {})
    if not g.get("converged"):
        watertight = "failed: watertight solve not converged"
    else:
        scale = max(abs(w["u1_min"]), abs(w["u1_max"]))
        bad = [k for k in CAVITY_EXTREMA if not _close(g.get(k, math.nan), w[k], FIELD_RTOL, scale)]
        watertight = f"failed: {','.join(bad)} differ" if bad else OK
    return [leaky, watertight]


CHECKS = {"converge": check_converge, "probe": check_probe, "cavity": check_cavity}


def check_pass(argv: list[str], result: dict, out: Path, ref: Path) -> list[str]:
    """Statuses of every solve of one pass, from its outputs and its exit code."""
    expected = json.loads((ref / "meta.json").read_text())
    if result.get("raised"):
        last = result["raised"].strip().splitlines()[-1]
        return [f"failed: raised {last}"] * expected["solves"]
    if result.get("exit_code") != expected["exit_code"]:
        return [f"failed: exit code {result.get('exit_code')}"] * expected["solves"]
    try:
        statuses = CHECKS[argv[0]](out, ref)
    except (KeyError, ValueError) as err:  # malformed output
        return [f"failed: unreadable output ({err!r})"] * expected["solves"]
    if len(statuses) != expected["solves"]:
        raise ValueError(f"reference {ref} records {expected['solves']} solves, check found {len(statuses)}")
    return statuses
