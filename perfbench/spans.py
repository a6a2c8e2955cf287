"""In-memory spans around egflow's public functions, and the layer metrics made from them.

Tracing is installed from outside the program: each traced function is
replaced by a wrapper under every name an egflow module binds it to, so
callers that look the name up (``egflow.analysis.solve_navier_stokes``,
``asm.assemble_convection``, ``spla.splu`` in ``egflow.solver``) reach the
wrapper.  ``quadrature`` and ``spaces`` are only called from inside these
functions, so their time falls inside the spans here.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

ROOT = "cli_main"

# span name -> (module, function) whose original object is wrapped
TARGETS = {
    "mesh.build_unit_square_mesh": ("egflow.mesh", "build_unit_square_mesh"),
    "reconstruction.reconstruction_matrix": ("egflow.reconstruction", "reconstruction_matrix"),
    "assembly.assemble_viscous": ("egflow.assembly", "assemble_viscous"),
    "assembly.assemble_divergence": ("egflow.assembly", "assemble_divergence"),
    "assembly.assemble_load": ("egflow.assembly", "assemble_load"),
    "assembly.sipg_boundary_load": ("egflow.assembly", "sipg_boundary_load"),
    "assembly.divergence_boundary_load": ("egflow.assembly", "divergence_boundary_load"),
    "assembly.assemble_convection": ("egflow.assembly", "assemble_convection"),
    "assembly.convective_boundary_load": ("egflow.assembly", "convective_boundary_load"),
    "assembly.build_saddle_system": ("egflow.assembly", "build_saddle_system"),
    "solver.solve_linear": ("egflow.solver", "solve_linear"),
    "solver.solve_navier_stokes": ("egflow.solver", "solve_navier_stokes"),
    "analysis.error_norms": ("egflow.analysis", "error_norms"),
    "cli.write_convergence_csv": ("egflow.cli", "write_convergence_csv"),
    "cli.write_field_dump": ("egflow.cli", "write_field_dump"),
    "cli.locate_points": ("egflow.cli", "locate_points"),
}

# SciPy sparse solvers, traced only where an egflow module calls them
SCIPY_FACTOR = ("splu", "spsolve", "factorized")
SCIPY_KRYLOV = ("gmres", "bicgstab", "minres")


def _mesh_attrs(mesh):
    return {"triangles": mesh.num_triangles}


def _saddle_attrs(system):
    return {"rows": system.matrix.shape[0], "nnz": system.matrix.nnz}


def _solve_attrs(result):
    return {"picard_steps": result[2].iterations}


def _factor_attrs(lu):
    return {"fill": lu.nnz} if hasattr(lu, "perm_c") else {}  # stored L+U; .L and .U would copy both factors


ATTRS = {
    "mesh.build_unit_square_mesh": _mesh_attrs,
    "assembly.build_saddle_system": _saddle_attrs,
    "solver.solve_navier_stokes": _solve_attrs,
    "scipy.splu": _factor_attrs,
}


class Recorder:
    """Spans of one run, kept in memory: name, start, end, parent index, attrs."""

    def __init__(self, workload: str):
        self.workload = workload
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append({"name": name, "start": time.perf_counter(), "end": None, "parent": parent})
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index]["end"] = time.perf_counter()
        self._stack.pop()

    def dump(self) -> dict:
        return {"workload": self.workload, "spans": self.spans}


def wrap(recorder: Recorder, name: str, fn):
    """fn with a span around every call; ATTRS[name] reads counts off the result."""
    attrs = ATTRS.get(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        index = recorder.open(name)
        try:
            result = fn(*args, **kwargs)
            if attrs is not None:
                recorder.spans[index]["attrs"] = attrs(result)
            return result
        except Exception as err:
            recorder.spans[index]["error"] = type(err).__name__
            report = getattr(err, "report", None)  # DivergedError carries its SolveReport
            if report is not None and hasattr(report, "iterations"):
                recorder.spans[index]["attrs"] = {"picard_steps": report.iterations}
            raise
        finally:
            recorder.close(index)

    return traced


class _LinalgProxy:
    """scipy.sparse.linalg as one egflow module sees it, with the solvers traced."""

    def __init__(self, module, traced: dict):
        self.__dict__.update(traced)
        self._module = module

    def __getattr__(self, name):
        return getattr(self._module, name)


def _rebind(original, replacement) -> None:
    """Point every egflow module global bound to original at replacement."""
    for name, module in list(sys.modules.items()):
        if name != "egflow" and not name.startswith("egflow."):
            continue
        for bound, value in list(vars(module).items()):
            if value is original:
                setattr(module, bound, replacement)


def install(recorder: Recorder) -> list[str]:
    """Wrap every target under each name egflow binds it to; returns names not found."""
    import scipy.sparse.linalg as spla

    missing = []
    for name, (module_name, attr) in TARGETS.items():
        original = getattr(importlib.import_module(module_name), attr, None)
        if original is None:
            missing.append(name)
            continue
        _rebind(original, wrap(recorder, name, original))

    traced = {a: wrap(recorder, f"scipy.{a}", getattr(spla, a)) for a in SCIPY_FACTOR + SCIPY_KRYLOV}
    for a, fn in traced.items():
        _rebind(getattr(spla, a), fn)
    _rebind(spla, _LinalgProxy(spla, traced))
    return missing


def per_span_cost(calls: int = 5000) -> float:
    """Measured seconds a span adds to one call: wrapped minus plain no-op calls."""

    def noop():
        return None

    traced = wrap(Recorder("calibration"), "calibration", noop)
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        for _ in range(calls):
            traced()
        t1 = time.perf_counter()
        for _ in range(calls):
            noop()
        t2 = time.perf_counter()
        best = min(best, ((t1 - t0) - (t2 - t1)) / calls)
    return max(best, 0.0)


# -- metrics from spans -----------------------------------------------------


def _union_length(intervals) -> float:
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def _children(spans: list[dict]) -> dict[int, list[int]]:
    kids: dict[int, list[int]] = {i: [] for i in range(len(spans))}
    for i, s in enumerate(spans):
        if s["parent"] is not None:
            kids[s["parent"]].append(i)
    return kids


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the part of its interval its children cover."""
    kids = _children(spans)
    out = []
    for i, s in enumerate(spans):
        covered = _union_length(
            (max(spans[k]["start"], s["start"]), min(spans[k]["end"], s["end"])) for k in kids[i]
        )
        out.append(s["end"] - s["start"] - covered)
    return out


def _outermost(spans: list[dict], names) -> list[dict]:
    """Spans with a name in names and no ancestor that has one (no double counting)."""
    names = set(names)
    out = []
    for s in spans:
        if s["name"] not in names:
            continue
        p = s["parent"]
        while p is not None and spans[p]["name"] not in names:
            p = spans[p]["parent"]
        if p is None:
            out.append(s)
    return out


def _busy(spans, names) -> float:
    return sum(s["end"] - s["start"] for s in _outermost(spans, names))


def _count(spans, names) -> int:
    names = set(names)
    return sum(1 for s in spans if s["name"] in names)


def _attr(spans, name, key, reduce=sum) -> int:
    return reduce([s.get("attrs", {}).get(key, 0) for s in spans if s["name"] == name] or [0])


OPERATORS = (
    "assembly.assemble_viscous",
    "assembly.assemble_divergence",
    "assembly.assemble_load",
    "assembly.sipg_boundary_load",
    "assembly.divergence_boundary_load",
)
CONVECTION = ("assembly.assemble_convection", "assembly.convective_boundary_load")
FACTOR = tuple(f"scipy.{a}" for a in SCIPY_FACTOR)
KRYLOV = tuple(f"scipy.{a}" for a in SCIPY_KRYLOV)
OUTPUT = ("cli.write_convergence_csv", "cli.write_field_dump", "cli.locate_points")


def layer_metrics(spans: list[dict], span_cost: float) -> dict[str, float]:
    """Per-layer numbers of one traced pass; spans[0] must be the root span."""
    root = spans[0]
    wall = root["end"] - root["start"]
    selfs = self_times(spans)
    top = [s for s in spans if s["parent"] == 0]
    overhead = span_cost * (len(spans) - 1)
    return {
        "mesh.build_s": _busy(spans, ["mesh.build_unit_square_mesh"]),
        "mesh.triangles": _attr(spans, "mesh.build_unit_square_mesh", "triangles"),
        "reconstruction.build_s": _busy(spans, ["reconstruction.reconstruction_matrix"]),
        "reconstruction.calls": _count(spans, ["reconstruction.reconstruction_matrix"]),
        "assembly.operators_s": _busy(spans, OPERATORS),
        "assembly.convection_s": _busy(spans, CONVECTION),
        "assembly.convection_calls": _count(spans, ["assembly.assemble_convection"]),
        "assembly.saddle_s": _busy(spans, ["assembly.build_saddle_system"]),
        "assembly.saddle_rows": _attr(spans, "assembly.build_saddle_system", "rows", max),
        "assembly.saddle_nnz": _attr(spans, "assembly.build_saddle_system", "nnz", max),
        "solver.linear_s": _busy(spans, ["solver.solve_linear"]),
        "solver.linear_calls": _count(spans, ["solver.solve_linear"]),
        "solver.factor_s": _busy(spans, FACTOR),
        "solver.factor_calls": _count(spans, FACTOR),
        "solver.lu_fill": _attr(spans, "scipy.splu", "fill", max),
        "solver.krylov_s": _busy(spans, KRYLOV),
        "solver.krylov_calls": _count(spans, KRYLOV),
        "solver.picard_steps": _attr(spans, "solver.solve_navier_stokes", "picard_steps"),
        "solver.self_s": sum(t for s, t in zip(spans, selfs) if s["name"] == "solver.solve_navier_stokes"),
        "analysis.error_s": _busy(spans, ["analysis.error_norms"]),
        "analysis.error_calls": _count(spans, ["analysis.error_norms"]),
        "cli.output_s": _busy(spans, OUTPUT),
        "cli.locate_s": _busy(spans, ["cli.locate_points"]),
        "cli.locate_calls": _count(spans, ["cli.locate_points"]),
        "trace.wall_s": wall,
        "trace.coverage_frac": _union_length((s["start"], s["end"]) for s in top) / wall,
        "trace.overhead_frac": overhead / (wall - overhead),
    }
