"""The output check accepts the seed's reference outputs and rejects a 1e-6 perturbation."""

import csv
import gzip
import json
import shutil

import pytest

import check


def _copy_reference(workload, dest):
    dest.mkdir()
    for f in (check.REFERENCE / workload).iterdir():
        if f.suffix == ".gz":
            with gzip.open(f, "rb") as src, open(dest / f.stem, "wb") as dst:
                shutil.copyfileobj(src, dst)
        elif f.name != "meta.json":
            shutil.copy(f, dest / f.name)
    return dest


def _edit_csv(path, row, column, fn):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    col = rows[0].index(column)
    rows[row + 1][col] = fn(rows[row + 1][col])
    path.write_text("\n".join(",".join(r) for r in rows) + "\n")


def _bump(text):
    return f"{float(text) * (1 + 1e-6):.12e}"


def _check(workload, out):
    return check.check_pass(
        check.WORKLOADS[workload], {"exit_code": 0, "raised": None}, out, check.REFERENCE / workload
    )


@pytest.mark.parametrize("workload", sorted(check.WORKLOADS))
def test_reference_passes_its_own_check(workload, tmp_path):
    statuses = _check(workload, _copy_reference(workload, tmp_path / "out"))
    expected_not_converged = 1 if workload == "probe-mu" else 0
    assert statuses.count(check.NOT_CONVERGED) == expected_not_converged
    assert statuses.count(check.OK) == len(statuses) - expected_not_converged


def test_converge_error_perturbed_by_1e_6_fails(tmp_path):
    out = _copy_reference("converge-pr", tmp_path / "out")
    _edit_csv(out / "convergence.csv", 3, "l2u_err", _bump)
    statuses = _check("converge-pr", out)
    assert statuses[3].startswith("failed") and "l2u_err" in statuses[3]
    assert statuses[:3] == [check.OK] * 3


def test_probe_error_perturbed_by_1e_6_fails(tmp_path):
    out = _copy_reference("probe-mu", tmp_path / "out")
    _edit_csv(out / "probe.csv", 4, "energy_r_err", _bump)
    assert _check("probe-mu", out)[4].startswith("failed")


def test_probe_cell_non_converged_at_seed_is_compared_only_for_status(tmp_path):
    out = _copy_reference("probe-mu", tmp_path / "out")
    _edit_csv(out / "probe.csv", 2, "energy_err", lambda t: "1.0e+00")
    assert _check("probe-mu", out)[2] == check.NOT_CONVERGED
    _edit_csv(out / "probe.csv", 2, "converged", lambda t: "true")
    assert _check("probe-mu", out)[2] == check.OK


def test_cavity_dump_perturbed_by_1e_6_fails(tmp_path):
    out = _copy_reference("cavity-lid", tmp_path / "out")
    lines = (out / "cavity_field.txt").read_text().splitlines()
    cols = lines[5000].split()
    cols[3] = f"{float(cols[3]) + 1e-6:.12e}"  # u2; its column's largest magnitude is below 1
    lines[5000] = " ".join(cols)
    (out / "cavity_field.txt").write_text("\n".join(lines) + "\n")
    leaky, watertight = _check("cavity-lid", out)
    assert leaky.startswith("failed") and "u2" in leaky
    assert watertight == check.OK


def test_cavity_extremum_perturbed_by_1e_6_fails(tmp_path):
    out = _copy_reference("cavity-lid", tmp_path / "out")
    report = json.loads((out / "cavity_report.json").read_text())
    report["watertight_comparison"]["u1_max"] *= 1 + 1e-6
    (out / "cavity_report.json").write_text(json.dumps(report))
    assert _check("cavity-lid", out) == [check.OK, "failed: u1_max differ"]


def test_missing_output_fails_every_solve(tmp_path):
    (tmp_path / "out").mkdir()
    assert all(s.startswith("failed") for s in _check("converge-pr", tmp_path / "out"))
