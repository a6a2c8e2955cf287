"""Benchmark of egflow's three paper experiments, run from the repository root.

    python3 perfbench/run.py --workload converge-pr --seed 1 --seconds 20 --trace 0

Each pass runs ``egflow.cli.cli_main`` on one workload in a fresh process
(``worker.py``), one solve at a time, and its outputs are checked against the
reference outputs in ``reference/``.  Passes repeat until ``--seconds`` have
been measured; a pass is never cut short.  With ``--trace 0`` the end-to-end
metrics are reported, with ``--trace 1`` the per-layer metrics of one traced
pass.  The inputs are deterministic (structured meshes, the built-in
manufactured solution), so ``--seed`` changes nothing but the file names.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``; attempted counts solves,
failed counts solves that raised or whose outputs differ from the reference.
The full record of the run (every pass, the environment, the spans) is
written to ``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import check
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
SETUP_RUNS = 5
RUN_BUDGET_S = 170.0  # a run must end within 180 s

SETUP_CODE = """
import sys, time
sys.path.insert(0, sys.argv[1])
t0 = time.perf_counter()
import numpy, scipy.sparse, scipy.spatial
import egflow.cli
print(time.perf_counter() - t0, egflow.cli.__file__)
"""


class BenchError(RuntimeError):
    """The benchmark could not measure; no result line is printed."""


def run_child(cmd: list[str], timeout: float) -> str:
    """Run cmd to completion (killed and reaped on timeout); return its stdout."""
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
        try:
            out, _ = proc.communicate(timeout=max(timeout, 1.0))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise BenchError(f"{cmd[1]} did not finish within {timeout:.0f} s")
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(cmd[:2])} exited with code {proc.returncode}")
    return out


def measure_setup(deadline: float) -> list[float]:
    """Seconds to import egflow.cli with numpy, scipy.sparse and scipy.spatial, each in a fresh process."""
    src = (ROOT / "src").resolve()
    times = []
    for _ in range(SETUP_RUNS):
        out = run_child([sys.executable, "-c", SETUP_CODE, str(src)], deadline - time.monotonic())
        seconds, path = out.split()
        if src not in Path(path).resolve().parents:
            raise BenchError(f"egflow imported from {path}, not from {src}")
        times.append(float(seconds))
    return times


def worker_command(workload: str, pass_dir: Path, trace: bool) -> list[str]:
    """worker.py writing the outputs to pass_dir/out and its record to pass_dir/result.json."""
    cmd = [sys.executable, str(HERE / "worker.py"), str(ROOT), str(pass_dir / "out"), str(pass_dir / "result.json")]
    return cmd + [workload, "1" if trace else "0", "--"] + check.WORKLOADS[workload]


def run_pass(workload: str, pass_dir: Path, trace: bool, deadline: float) -> tuple[dict, list[str]]:
    """One pass in a fresh worker process; returns its record and the status of each solve."""
    argv = check.WORKLOADS[workload]
    run_child(worker_command(workload, pass_dir, trace), deadline - time.monotonic())
    result = json.loads((pass_dir / "result.json").read_text())
    statuses = check.check_pass(argv, result, pass_dir / "out", check.REFERENCE / workload)
    result["output_bytes"] = sum(f.stat().st_size for f in (pass_dir / "out").rglob("*") if f.is_file())
    return result, statuses


def tally(statuses: list[str]) -> dict:
    """Solve counts; failed_frac also counts solves that did not converge as at the seed."""
    failed = sum(s.startswith("failed") for s in statuses)
    not_converged = statuses.count(check.NOT_CONVERGED)
    return {
        "attempted": len(statuses),
        "failed": failed,
        "not_converged": not_converged,
        "failed_frac": (failed + not_converged) / len(statuses),
    }


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def host_environment() -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "git_commit": _git_commit(),
        "blas_env": {k: os.environ[k] for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS") if k in os.environ},
    }


def measure(workload: str, seconds: float, trace: bool, run_dir: Path) -> dict:
    """Passes until `seconds` are measured (trace: one traced pass); the run's full record."""
    started = time.monotonic()
    deadline = started + RUN_BUDGET_S
    setup = [] if trace else measure_setup(deadline)
    passes, statuses = [], []
    while True:
        t0 = time.monotonic()
        result, solve_statuses = run_pass(workload, run_dir / f"pass{len(passes)}", trace, deadline)
        shutil.rmtree(run_dir / f"pass{len(passes)}")
        result["statuses"] = solve_statuses
        passes.append(result)
        statuses += solve_statuses
        last = time.monotonic() - t0
        measured = sum(p["wall_s"] for p in passes)
        if trace or measured >= seconds or time.monotonic() + 1.5 * last > deadline:
            break
    return {"setup_s": setup, "passes": passes, "counts": tally(statuses)}


def end_to_end(record: dict) -> dict[str, float]:
    passes = record["passes"]
    return {
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "setup_s": statistics.median(record["setup_s"]),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        "solved_frac": 1.0 - record["counts"]["failed_frac"],
    }


def per_layer(record: dict) -> dict[str, float]:
    traced = record["passes"][0]
    layers = spans.layer_metrics(traced["trace"]["spans"], traced["trace"]["span_cost_s"])
    layers["cli.output_bytes"] = traced["output_bytes"]
    return layers


def result_metrics(spec: dict, values: dict[str, float], trace: bool) -> dict:
    """The metrics BENCHMARK.json lists for this kind of run, with their units.

    Layer times that are 0 by construction on some workload (solver.krylov_s,
    analysis.error_s, cli.output_s, cli.locate_s) are not listed there, since
    a time that reads exactly 0 on every run measures nothing.  They stay in
    the printed lines and the run's record; their call counts are listed.
    """
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(check.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "egflow" / "cli.py").is_file():
        print(f"no egflow sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    (WORK / "runs").mkdir(parents=True, exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK / "runs"))
    try:
        record = measure(args.workload, args.seconds, bool(args.trace), run_dir)
    except BenchError as err:
        print(f"benchmark failed: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    counts = record["counts"]
    record.update(
        workload=args.workload,
        argv=check.WORKLOADS[args.workload],
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        env=dict(record["passes"][0]["env"], **host_environment()),
    )
    record["values"] = per_layer(record) if args.trace else end_to_end(record)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = result_metrics(spec, record["values"], bool(args.trace))
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    results = WORK / "results"
    results.mkdir(exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))

    print(f"{args.workload}: {len(record['passes'])} pass(es) of egflow {' '.join(record['argv'])}")
    for p in record["passes"]:
        print(f"  pass wall {p['wall_s']:.3f} s, cpu {p['cpu_s']:.3f} s, peak rss {p['peak_rss_mb']:.1f} MB, solves {p['statuses']}")
    print(f"  {'failed_frac':28s} {counts['failed_frac']:.6g} frac ({counts['failed']} failed + {counts['not_converged']} not converged of {counts['attempted']} solves)")
    for name, value in record["values"].items():
        print(f"  {name:28s} {value:.6g} {units.get(name, 's')}")  # unlisted ones are layer times
    if args.trace and record["values"]["trace.coverage_frac"] < 0.95:
        print(f"warning: spans cover only {record['values']['trace.coverage_frac']:.1%} of the traced pass", file=sys.stderr)
    if args.trace and record["passes"][0]["trace"]["missing"]:
        print(f"warning: not traced, no longer in egflow: {record['passes'][0]['trace']['missing']}", file=sys.stderr)
    print(f"  env {json.dumps(record['env'], sort_keys=True)}")
    print(
        json.dumps(
            {
                "correct": counts["failed"] == 0,
                "attempted": counts["attempted"],
                "failed": counts["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
