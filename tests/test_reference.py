"""Small command-line runs against the outputs they wrote when recorded.

tests/reference/<run>/ holds the files that each run of RUNS wrote at
recording time.  A change that keeps the discrete solution keeps them,
within the agreement the ROADMAP asks of a refactor:

- error and ratio columns of convergence.csv and probe.csv to 1e-8
  relative, and the rate columns, which are log-ratios of those errors,
  to 1e-7 absolute;
- every column of the cavity field dump, and every extremum of the cavity
  report, to 1e-10 of the column's (the extremum's) largest magnitude;
- everything else exactly: the mesh sizes and viscosities, the iteration
  counts, the converged flags and every report key but the per-step
  histories (update norms, linear residuals, GMRES iterations), which
  follow the linear solver's rounding.

Re-record only in a change that alters the discrete solution or what the
outputs report, and give the reason in CHANGES.md:

    PYTHONPATH=src python tests/test_reference.py
"""

import json
from pathlib import Path

import numpy as np
import pytest

from egflow.cli import cli_main

REFERENCE = Path(__file__).resolve().parent / "reference"
RUNS = {
    "converge-eg": ["converge", "--levels", "2,4,8", "--mode", "eg"],
    "converge-pr-eg": ["converge", "--levels", "2,4,8", "--mode", "pr-eg"],
    "cavity-eg": ["cavity", "--n", "8", "--grid", "11", "--mode", "eg"],
    "cavity-pr-eg": ["cavity", "--n", "8", "--grid", "11", "--mode", "pr-eg"],
    "probe": ["probe", "--n", "4"],
}
ERROR_RTOL = 1e-8
RATE_ATOL = 1e-7
FIELD_RTOL = 1e-10
HISTORY_KEYS = {"update_norms", "linear_residuals", "krylov_iterations"}
EXTREMUM_KEYS = {"u1_min", "u1_max", "u1_max_interior", "max_velocity_gap"}


def _assert_tables_agree(got: str, ref: str) -> None:
    """CSV tables: error and ratio columns to ERROR_RTOL, rate columns to RATE_ATOL, the rest exactly."""
    got_lines, ref_lines = got.splitlines(), ref.splitlines()
    assert got_lines[0] == ref_lines[0] and len(got_lines) == len(ref_lines)
    for got_row, ref_row in zip(got_lines[1:], ref_lines[1:]):
        for name, a, b in zip(ref_lines[0].split(","), got_row.split(","), ref_row.split(","), strict=True):
            if not b or not name.endswith(("_err", "_ratio", "_eoc")):
                assert a == b, (name, ref_row)
            elif name.endswith("_eoc"):
                np.testing.assert_allclose(float(a), float(b), rtol=0, atol=RATE_ATOL, err_msg=name)
            else:
                np.testing.assert_allclose(float(a), float(b), rtol=ERROR_RTOL, atol=0, err_msg=name)


def _assert_dumps_agree(got: str, ref: str) -> None:
    """Field dumps: the same header, every column to FIELD_RTOL of its largest magnitude."""
    assert got.splitlines()[:2] == ref.splitlines()[:2]
    a, b = (np.loadtxt(text.splitlines()) for text in (got, ref))
    assert a.shape == b.shape
    assert np.all(np.abs(a - b) <= FIELD_RTOL * np.abs(b).max(axis=0))


def _assert_reports_agree(got: dict, ref: dict) -> None:
    """Reports: extrema to FIELD_RTOL relative, histories skipped, every other key exactly."""
    assert got.keys() == ref.keys()
    for key in ref.keys() - HISTORY_KEYS:
        if isinstance(ref[key], dict):
            _assert_reports_agree(got[key], ref[key])
        elif key in EXTREMUM_KEYS and ref[key] is not None:
            np.testing.assert_allclose(got[key], ref[key], rtol=FIELD_RTOL, atol=0, err_msg=key)
        else:
            assert got[key] == ref[key], key


@pytest.mark.parametrize("run", sorted(RUNS))
def test_outputs_agree_with_the_recorded_reference(run, tmp_path):
    assert cli_main(RUNS[run] + ["--out", str(tmp_path)]) == 0
    recorded = sorted(path.name for path in (REFERENCE / run).iterdir())
    assert sorted(path.name for path in tmp_path.iterdir()) == recorded
    for name in recorded:
        got, ref = (tmp_path / name).read_text(), (REFERENCE / run / name).read_text()
        if name.endswith(".csv"):
            _assert_tables_agree(got, ref)
        elif name.endswith(".json"):
            _assert_reports_agree(json.loads(got), json.loads(ref))
        else:
            _assert_dumps_agree(got, ref)


if __name__ == "__main__":
    for run, argv in RUNS.items():
        cli_main(argv + ["--out", str(REFERENCE / run)])
