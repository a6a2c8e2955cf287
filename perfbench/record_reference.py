"""Record the reference outputs that run.py checks every pass against.

    python3 perfbench/record_reference.py [WORKLOAD ...]

Runs each workload once with the egflow sources of this checkout and writes
its outputs to ``perfbench/reference/<workload>/`` (the field dump gzipped),
plus ``meta.json`` with the exit code, the number of solves and the commit.
The committed references come from the seed commit; re-record only when a
change is meant to alter the discrete solution, and say so.
"""

from __future__ import annotations

import gzip
import json
import shutil
import sys
import tempfile
from pathlib import Path

import check
import run


def record(workload: str) -> None:
    ref = check.REFERENCE / workload
    with tempfile.TemporaryDirectory(dir=run.WORK) as tmp:
        pass_dir = Path(tmp)
        argv = check.WORKLOADS[workload]
        run.run_child(run.worker_command(workload, pass_dir, trace=False), timeout=600)
        result = json.loads((pass_dir / "result.json").read_text())
        if result["raised"]:
            raise SystemExit(f"{workload} raised:\n{result['raised']}")
        shutil.rmtree(ref, ignore_errors=True)
        ref.mkdir(parents=True)
        for f in sorted((pass_dir / "out").iterdir()):
            if f.name == "cavity_field.txt":
                with open(f, "rb") as src, gzip.GzipFile(ref / (f.name + ".gz"), "wb", mtime=0) as dst:
                    shutil.copyfileobj(src, dst)
            else:
                shutil.copy(f, ref / f.name)
        solves = len(check.CHECKS[argv[0]](pass_dir / "out", ref))
    meta = {"argv": argv, "exit_code": result["exit_code"], "solves": solves, "commit": run.host_environment()["git_commit"]}
    (ref / "meta.json").write_text(json.dumps(meta, indent=1) + "\n")
    print(f"{workload}: {solves} solves, exit code {result['exit_code']}, {result['wall_s']:.1f} s")


if __name__ == "__main__":
    run.WORK.mkdir(exist_ok=True)
    for name in sys.argv[1:] or list(check.WORKLOADS):
        record(name)
