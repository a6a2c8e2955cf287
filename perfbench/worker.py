"""One pass of an egflow experiment in a fresh process.

    python3 worker.py ROOT OUT_DIR RESULT_JSON WORKLOAD TRACE -- EGFLOW_ARGS...

Imports egflow from ROOT/src, runs ``egflow.cli.cli_main(EGFLOW_ARGS + ["--out", OUT_DIR])``
with its standard output captured, and writes the pass's wall time, peak
resident memory, exit code, the exception if it raised, and the software
environment to RESULT_JSON.  With TRACE=1 the spans of the pass are written
to RESULT_JSON as well.
"""

from __future__ import annotations

import contextlib
import ctypes
import io
import json
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

import spans


def import_egflow(root: Path):
    """egflow.cli from root/src, never from an installed copy."""
    sys.path.insert(0, str(root / "src"))
    import egflow.cli

    src = (root / "src").resolve()
    if src not in Path(egflow.cli.__file__).resolve().parents:
        raise ImportError(f"egflow imported from {egflow.cli.__file__}, not from {src}")
    return egflow.cli


def _blas_threads():
    """Thread count each loaded OpenBLAS reports, keyed by library file name."""
    symbols = (
        "scipy_openblas_get_num_threads64_",
        "scipy_openblas_get_num_threads",
        "openblas_get_num_threads64_",
        "openblas_get_num_threads",
    )
    try:
        with open("/proc/self/maps") as maps:
            libs = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
    except OSError:
        return {}
    out = {}
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in symbols:
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                out[Path(path).name] = fn()
                break
    return out


def software_environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
    }


def run_pass(cli, argv: list[str], out_dir: Path, recorder=None) -> dict:
    """Run cli_main once; a raised exception is recorded, not propagated."""
    out_dir.mkdir(parents=True, exist_ok=True)
    stdout = io.StringIO()
    result = {"exit_code": None, "raised": None}
    if recorder is not None:
        root = recorder.open(spans.ROOT)
    t0, c0 = time.perf_counter(), time.process_time()
    try:
        with contextlib.redirect_stdout(stdout):
            result["exit_code"] = cli.cli_main(list(argv) + ["--out", str(out_dir)])
    except Exception:
        result["raised"] = traceback.format_exc()
    finally:
        result["wall_s"] = time.perf_counter() - t0
        result["cpu_s"] = time.process_time() - c0
        if recorder is not None:
            recorder.close(root)
    result["stdout"] = stdout.getvalue()
    return result


def main(args: list[str]) -> int:
    root, out_dir, result_path, workload, trace = args[:5]
    if args[5] != "--":
        raise SystemExit("usage: worker.py ROOT OUT_DIR RESULT_JSON WORKLOAD TRACE -- ARGS...")
    cli = import_egflow(Path(root))
    recorder = None
    if trace == "1":
        recorder = spans.Recorder(workload)
        missing = spans.install(recorder)
    result = run_pass(cli, args[6:], Path(out_dir), recorder)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["env"] = software_environment()
    if recorder is not None:
        result["trace"] = dict(recorder.dump(), missing=missing, span_cost_s=spans.per_span_cost())
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
