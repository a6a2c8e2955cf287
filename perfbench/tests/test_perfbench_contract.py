"""The result line carries exactly the metrics BENCHMARK.json lists."""

import json
import shutil
import subprocess
import sys

import run

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _names(kind):
    return [m["name"] for m in SPEC[kind]]


def test_end_to_end_metrics_match_the_spec():
    record = {
        "setup_s": [0.5, 0.4, 0.6],
        "passes": [{"wall_s": 2.0, "peak_rss_mb": 90.0}, {"wall_s": 3.0, "peak_rss_mb": 91.0}],
        "counts": run.tally(["ok", "not-converged", "ok"]),
    }
    values = run.end_to_end(record)
    assert sorted(values) == sorted(_names("end_to_end"))
    assert values["wall_s"] == 2.5 and values["setup_s"] == 0.5
    assert abs(values["solved_frac"] - 2 / 3) < 1e-12
    assert list(run.result_metrics(SPEC, values, trace=False)) == _names("end_to_end")


def test_every_listed_layer_metric_is_measured():
    root = {"name": "cli_main", "start": 0.0, "end": 1.0, "parent": None}
    record = {"passes": [{"trace": {"spans": [root], "span_cost_s": 1e-6}, "output_bytes": 10}]}
    values = run.per_layer(record)
    assert set(_names("per_layer")) <= set(values)
    unlisted = set(values) - set(_names("per_layer"))
    assert unlisted == {"solver.krylov_s", "analysis.error_s", "cli.output_s", "cli.locate_s"}


def test_without_egflow_sources_it_fails_without_a_result(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    cmd = [sys.executable, "perfbench/run.py", "--workload", "probe-mu", "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
