"""Run one benchmark workload and print its result.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload {train,serve,churn} --seed N \\
        --seconds S --trace {0,1}

The program is imported from ``src/`` next to this directory.  The run
pins BLAS to one thread and clears every ``REPRO_*`` policy variable, so
the program runs at its defaults.  Standard output carries an environment
header, a human-readable table and, as its last line, one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` reports
the end-to-end metrics, their timings scaled to a reference host speed
(``hostspeed.py``); ``--trace 1`` instruments the program's layer
boundaries and reports the per-layer metrics instead.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
UNITS = {"setup_s": "s", "peak_rss_mb": "MB", "answer_f1": "F1",
         "throughput_per_s": "1/s", "latency_ms": "ms", "cold_ms": "ms"}


def git_revision() -> str:
    """HEAD of the checkout, read from ``.git`` without running git."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as handle:
            ref = handle.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:])) as handle:
                return handle.read().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def blas_threads():
    """OpenBLAS's live thread count, when the library answers."""
    import ctypes
    import glob

    import numpy as np

    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        library = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(library, symbol):
                function = getattr(library, symbol)
                function.argtypes, function.restype = [], ctypes.c_int
                return int(function())
    return None


def environment() -> dict:
    import numpy as np
    import scipy

    from repro.nn import backend

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "nproc": os.cpu_count(),
        "git_revision": git_revision(),
        "backend": backend.get_backend().name,
        "dtype": backend.default_dtype().name,
        "index_dtype": backend.default_index_dtype().name,
        "context_storage": backend.default_context_storage(),
        "fused_inference": backend.fused_inference_enabled(),
    }


def pin_environment() -> None:
    """One BLAS thread and the program's default policies; must run
    before numpy is imported."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        os.environ[var] = "1"
    for var in [name for name in os.environ if name.startswith("REPRO_")]:
        del os.environ[var]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("train", "serve", "churn"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny is the smoke-test size")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: the program's source is missing ({SRC}/repro); run "
              f"from the root of a checkout", file=sys.stderr)
        return 2
    pin_environment()
    sys.path.insert(0, SRC)

    import workloads
    from spans import Tracer

    size = workloads.TINY if args.size == "tiny" else workloads.FULL
    tracer = Tracer() if args.trace else None
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        outcome = workloads.RUNNERS[args.workload](
            args.seed, args.seconds, tracer, size=size, workdir=workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print("env " + json.dumps(environment(), sort_keys=True))
    print("notes " + json.dumps(outcome.notes, sort_keys=True))
    print("checks " + json.dumps(outcome.checks, sort_keys=True))
    if args.trace:
        layers = dict(outcome.layers)
        layers["trace.throughput_per_s"] = outcome.metrics["throughput_per_s"]
        metrics = {name: {"value": value, "unit": layer_unit(name)}
                   for name, value in layers.items()}
    else:
        metrics = {name: {"value": outcome.metrics[name], "unit": unit}
                   for name, unit in UNITS.items()}
    for name, entry in metrics.items():
        print(f"  {args.workload:<6} {name:<36} {entry['value']:>14.6g} "
              f"{entry['unit']}")
    print(json.dumps({"correct": outcome.correct,
                      "attempted": int(outcome.attempted),
                      "failed": int(outcome.failed),
                      "metrics": metrics}))
    return 0


def layer_unit(name: str) -> str:
    if name.endswith((".ms", "_ms", "_ms_per_tick")):
        return "ms"
    if name.endswith(".mb"):
        return "MB"
    if name.endswith("_us_per_query"):
        return "us"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("final_loss"):
        return "loss"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
