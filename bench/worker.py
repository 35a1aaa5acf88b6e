"""Run one benchmark workload once, in this fresh process.

    python3 bench/worker.py --workload NAME --seed N --out DIR --result FILE
                            [--spans FILE] [--toy]

The experiment goes through the public entry point,
``graphheat.cli.main(["run", "--config", ..., "--jobs", "1"])``, and
``wall_s`` times that call alone: interpreter start, imports and the
correctness gate are outside it.  With ``--spans`` the run is traced and its
spans and per-layer metrics are written too.  The result file holds the wall
time, the gate's problems, a SHA-256 of every result CSV and the environment.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import sys
import time
import traceback

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))

import tracing  # noqa: E402
import workloads  # noqa: E402


def csv_digests(out):
    """SHA-256 of every CSV the run wrote (the manifest holds wall time)."""
    digests = {}
    for name in sorted(os.listdir(out)):
        if name.endswith(".csv"):
            with open(os.path.join(out, name), "rb") as fh:
                digests[name] = hashlib.sha256(fh.read()).hexdigest()
    return digests


def _blas_threads():
    """OpenBLAS's own thread count, read from the loaded library if found."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line}
    except OSError:
        return None
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def environment():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": "%s %s" % (blas.get("name"), blas.get("version")),
        "blas_threads": _blas_threads(),
        "thread_env": {k: os.environ[k] for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
            if k in os.environ},
    }


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--spans", default=None)
    parser.add_argument("--toy", action="store_true")
    args = parser.parse_args(argv)

    import graphheat.cli as cli

    cfg = workloads.config(args.workload, args.seed, args.toy)
    os.makedirs(args.out, exist_ok=True)
    cfg_path = os.path.join(args.out, "config.json")
    with open(cfg_path, "w") as fh:
        json.dump(cfg, fh)
    components = []
    tracing.observe_components(components)
    tracer = None
    if args.spans:
        tracer = tracing.Tracer()
        tracing.instrument(tracer)

    error = None
    sid = tracer.open("cli.main") if tracer else None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["run", "--config", cfg_path, "--out", args.out,
                             "--jobs", "1"])
        if code != 0:
            error = "graphheat run exited with code %d" % code
    except Exception:
        error = traceback.format_exc()
    wall = time.perf_counter() - start
    if tracer:
        tracer.close(sid)

    result = {"wall_s": wall, "config": cfg}
    if error is None:
        try:
            result["problems"], result["gate"] = workloads.gate(
                args.workload, cfg, args.out, components)
        except Exception:
            result["problems"] = ["gate raised: " + traceback.format_exc()]
        result["csv_sha256"] = csv_digests(args.out)
    else:
        result["problems"] = [error]
    result["environment"] = environment()
    if tracer:
        tracer.dump(args.spans)
        result["layers"] = tracing.layer_metrics(tracer)
    with open(args.result, "w") as fh:
        json.dump(result, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
