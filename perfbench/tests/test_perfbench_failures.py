"""Solves that raise count toward failed_frac and the result line's failed count."""

import json

import pytest

import check
import run
import worker

ARGV = ["converge", "--levels", "2,4", "--mode", "pr-eg"]


@pytest.fixture
def cli():
    return worker.import_egflow(run.ROOT)


@pytest.fixture
def reference(cli, tmp_path):
    ref = tmp_path / "ref"
    result = worker.run_pass(cli, ARGV, ref)
    (ref / "meta.json").write_text(json.dumps({"exit_code": result["exit_code"], "solves": 2}))
    return ref


def test_unchanged_program_matches_its_reference(cli, reference, tmp_path):
    result = worker.run_pass(cli, ARGV, tmp_path / "out")
    statuses = check.check_pass(ARGV, result, tmp_path / "out", reference)
    assert run.tally(statuses) == {"attempted": 2, "failed": 0, "not_converged": 0, "failed_frac": 0.0}


def test_a_solve_that_raises_counts_as_failed(cli, reference, tmp_path, monkeypatch):
    import egflow.solver

    original = egflow.solver.solve_linear

    def singular_on_fine_mesh(system):
        if system.matrix.shape[0] > 100:
            raise egflow.solver.SingularSystemError("injected")
        return original(system)

    monkeypatch.setattr(egflow.solver, "solve_linear", singular_on_fine_mesh)
    result = worker.run_pass(cli, ARGV, tmp_path / "out")
    statuses = check.check_pass(ARGV, result, tmp_path / "out", reference)
    assert statuses[0] == check.OK and statuses[1].startswith("failed")
    assert run.tally(statuses) == {"attempted": 2, "failed": 1, "not_converged": 0, "failed_frac": 0.5}


def test_a_pass_that_raises_fails_every_solve(cli, reference, tmp_path, monkeypatch):
    def broken(cfg):
        raise MemoryError("injected")

    monkeypatch.setattr(cli, "run_converge", broken)
    result = worker.run_pass(cli, ARGV, tmp_path / "out")
    assert "MemoryError" in result["raised"]
    statuses = check.check_pass(ARGV, result, tmp_path / "out", reference)
    assert run.tally(statuses)["failed_frac"] == 1.0
