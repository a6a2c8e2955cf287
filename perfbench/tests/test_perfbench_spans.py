"""Span bookkeeping: self time, nesting through wrappers, install into egflow."""

import json
import subprocess
import sys

import pytest

import run
import spans


def _span(name, start, end, parent):
    return {"name": name, "start": start, "end": end, "parent": parent}


def test_self_time_subtracts_child_coverage_once():
    tree = [
        _span("cli_main", 0.0, 10.0, None),
        _span("a", 1.0, 4.0, 0),
        _span("a.inner", 2.0, 3.0, 1),
        _span("b", 5.0, 9.0, 0),
        _span("b.first", 5.0, 7.0, 3),
        _span("b.overlapping", 6.0, 8.0, 3),
    ]
    assert spans.self_times(tree) == pytest.approx([3.0, 2.0, 1.0, 1.0, 2.0, 2.0])


def test_outermost_spans_of_a_group_are_not_double_counted():
    tree = [
        _span("cli_main", 0.0, 10.0, None),
        _span("cli.write_field_dump", 1.0, 4.0, 0),
        _span("cli.locate_points", 2.0, 3.0, 1),
        _span("cli.locate_points", 5.0, 6.0, 0),
    ]
    layers = spans.layer_metrics(tree, span_cost=0.0)
    assert layers["cli.output_s"] == pytest.approx(4.0)
    assert layers["cli.locate_s"] == pytest.approx(2.0)
    assert layers["cli.locate_calls"] == 2
    assert layers["trace.coverage_frac"] == pytest.approx(0.4)


def test_wrapper_records_parent_attrs_and_errors():
    rec = spans.Recorder("unit")

    def inner(fail):
        if fail:
            raise ValueError("boom")
        return 1

    traced_inner = spans.wrap(rec, "inner", inner)
    traced_outer = spans.wrap(rec, "outer", lambda: traced_inner(False) + traced_inner(False))
    assert traced_outer() == 2
    with pytest.raises(ValueError):
        traced_inner(True)
    names = [(s["name"], s["parent"]) for s in rec.spans]
    assert names == [("outer", None), ("inner", 0), ("inner", 0), ("inner", None)]
    assert rec.spans[3]["error"] == "ValueError"
    assert all(s["end"] >= s["start"] for s in rec.spans)


def test_install_reaches_every_caller(tmp_path):
    """A traced worker pass puts each layer under the span of its caller."""
    out, result = tmp_path / "out", tmp_path / "result.json"
    cmd = [sys.executable, str(run.HERE / "worker.py"), str(run.ROOT), str(out), str(result), "tiny", "1", "--"]
    subprocess.run(cmd + ["converge", "--levels", "2,4", "--mode", "pr-eg"], check=True, timeout=120)
    record = json.loads(result.read_text())
    assert record["exit_code"] == 0 and record["raised"] is None
    assert record["trace"]["missing"] == []
    tree = record["trace"]["spans"]
    parent_of = {(s["name"], tree[s["parent"]]["name"] if s["parent"] is not None else None) for s in tree}
    assert ("solver.solve_navier_stokes", "cli_main") in parent_of
    assert ("reconstruction.reconstruction_matrix", "solver.solve_navier_stokes") in parent_of
    assert ("assembly.assemble_convection", "solver.solve_navier_stokes") in parent_of
    assert ("scipy.splu", "solver.solve_linear") in parent_of
    assert ("cli.write_convergence_csv", "cli_main") in parent_of
    layers = spans.layer_metrics(tree, record["trace"]["span_cost_s"])
    assert layers["mesh.triangles"] == 2 * (4 + 16)
    assert layers["analysis.error_calls"] == 2
    assert layers["solver.factor_calls"] == layers["solver.linear_calls"] == layers["solver.picard_steps"]
    assert layers["solver.lu_fill"] > layers["assembly.saddle_nnz"] > 0
    assert layers["trace.coverage_frac"] > 0.9
