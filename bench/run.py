"""graphheat benchmark: one workload, measured end to end or traced by layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S --trace 0

Run from the repository root.  The workloads are listed in
``bench/workloads.py`` and ``BENCHMARK.json``.  Each repetition runs in a
fresh ``bench/worker.py`` process; the seed goes into the config's ``seed``
field, so one seed always gives the same inputs and the same result CSVs.

``--trace 0`` first times ``import graphheat`` in fresh interpreters
(``setup_s``, median of several), then repeats the workload for as long as
another repetition is expected to end inside ``--seconds`` (always at least
once) and reports medians of ``wall_s`` (the experiment call), ``cpu_s``
(user plus system time of the worker process) and ``peak_rss_mb`` (the
worker's ``ru_maxrss``).  ``--trace 1`` repeats pairs of an untraced and a
traced repetition instead and reports per-layer metrics from the traced
ones, with ``trace.overhead_s`` the traced minus the untraced wall time.

A repetition fails when the worker raises or its correctness gate finds a
problem.  Details of every run (seeds, CSV digests, environment, gate
problems) go to ``.bench_work/``; the last line printed is the JSON summary.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import workloads  # noqa: E402

SETUP_REPEATS = 5
SETUP_CODE = "import numpy, scipy, graphheat, graphheat.cli"
# BLAS runs one thread.  On a host of two shared vCPUs, a second BLAS thread
# waits on whichever core the neighbours hold, so its time measures the
# scheduler rather than graphheat.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}


def metric_units():
    """Unit of every metric, as BENCHMARK.json declares it."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"]
            for m in spec["end_to_end"] + spec["per_layer"]}


def _spawn(argv, log):
    """Run argv to completion; returns (exit code, wall seconds, rusage)."""
    env = dict(os.environ, **THREAD_ENV)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    with open(log, "ab") as fh:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env,
                                stdin=subprocess.DEVNULL, stdout=fh,
                                stderr=subprocess.STDOUT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage


def measure_setup(work):
    """Median wall time of a fresh interpreter importing graphheat."""
    argv = [sys.executable, "-c", SETUP_CODE]
    log = os.path.join(work, "setup.log")
    times = []
    for i in range(SETUP_REPEATS + 1):   # the first run warms caches
        code, wall, _ = _spawn(argv, log)
        if code != 0:
            raise RuntimeError("cannot import graphheat (exit %d); see %s"
                               % (code, log))
        if i:
            times.append(wall)
    return statistics.median(times), times


def run_rep(name, seed, work, index, traced, toy):
    """One repetition in a fresh worker process; returns its record."""
    out = os.path.join(work, "out-%s-%d" % (name, index))
    result = os.path.join(work, "result-%s-%d.json" % (name, index))
    spans = os.path.join(work, "spans-%s-seed%d.json" % (name, seed))
    shutil.rmtree(out, ignore_errors=True)
    if os.path.exists(result):
        os.remove(result)
    argv = [sys.executable, os.path.join(BENCH, "worker.py"),
            "--workload", name, "--seed", str(seed), "--out", out,
            "--result", result]
    if traced:
        argv += ["--spans", spans]
    if toy:
        argv.append("--toy")
    code, wall, usage = _spawn(argv, os.path.join(work, "worker.log"))
    # wall_s is the process's wall time unless the worker reports its own
    rec = {"traced": traced, "exit_code": code, "wall_s": wall,
           "cpu_s": usage.ru_utime + usage.ru_stime,
           "peak_rss_mb": usage.ru_maxrss / 1024.0}
    try:
        with open(result) as fh:
            rec.update(json.load(fh))
    except (OSError, ValueError):
        rec["problems"] = ["worker exited with code %d and no result; see %s"
                           % (code, os.path.join(work, "worker.log"))]
    shutil.rmtree(out, ignore_errors=True)
    if traced:
        rec["spans_file"] = spans
    return rec


def run_workload(name, seed, seconds, trace, work, units, toy=False):
    """Measure one workload; returns (summary dict, details dict)."""
    details = {"workload": name, "seed": seed, "trace": trace,
               "seconds": seconds, "toy": toy}
    values = {}
    if not trace:
        values["setup_s"], details["setup_times_s"] = measure_setup(work)
    # Repeat while the next repetition is expected to end inside the
    # window, and always run at least once.
    reps = []
    start = time.perf_counter()
    longest = 0.0
    while True:
        begin = time.perf_counter()
        if trace:
            reps.append(run_rep(name, seed, work, len(reps), False, toy))
            reps.append(run_rep(name, seed, work, len(reps), True, toy))
        else:
            reps.append(run_rep(name, seed, work, len(reps), False, toy))
        now = time.perf_counter()
        longest = max(longest, now - begin)
        if now + longest > start + seconds:
            break
    plain = [r for r in reps if not r["traced"]]
    if trace:
        traced = [r for r in reps if r["traced"] and "layers" in r]
        for key in (traced[0]["layers"] if traced else ()):
            values[key] = statistics.median(r["layers"][key] for r in traced)
        if traced:
            values["trace.overhead_s"] = (
                statistics.median(r["wall_s"] for r in traced)
                - statistics.median(r["wall_s"] for r in plain))
    else:
        for key in ("wall_s", "cpu_s", "peak_rss_mb"):
            values[key] = statistics.median(r[key] for r in plain)
    failed = sum(1 for r in reps if r.get("problems"))
    details["reps"] = reps
    summary = {"correct": failed == 0, "attempted": len(reps),
               "failed": failed,
               "metrics": {k: {"value": v, "unit": units[k]}
                           for k, v in values.items()}}
    return summary, details


def report(summary, details, out):
    """Human-readable lines: seeds, environment, digests, metrics."""
    reps = details["reps"]
    first = reps[0]
    print("workload %s  seed %d  %d repetitions, %d failed"
          % (details["workload"], details["seed"], summary["attempted"],
             summary["failed"]), file=out)
    if "config" in first:
        print("  config seed %d" % first["config"]["seed"], file=out)
    if "environment" in first:
        print("  environment %s" % json.dumps(first["environment"],
                                             sort_keys=True), file=out)
    if "gate" in first:
        print("  gate %s" % json.dumps(first["gate"], sort_keys=True),
              file=out)
    for name, digest in sorted(first.get("csv_sha256", {}).items()):
        print("  sha256 %s %s" % (digest, name), file=out)
    for rep in reps:
        for problem in rep.get("problems", []):
            print("  FAILED: %s" % problem, file=out)
    for key, m in sorted(summary["metrics"].items()):
        print("  %-40s %14.6g %s" % (key, m["value"], m["unit"]), file=out)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true",
                        help="tiny configs, for the smoke test only")
    parser.add_argument("--work", default=os.path.join(ROOT, ".bench_work"),
                        help="directory for run details and spans")
    args = parser.parse_args(argv)
    # On SIGTERM, unwind through _spawn so the running worker is killed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not os.path.isfile(os.path.join(ROOT, "src", "graphheat",
                                       "__init__.py")):
        print("error: src/graphheat not found under %s" % ROOT,
              file=sys.stderr)
        return 2
    os.makedirs(args.work, exist_ok=True)
    units = metric_units()
    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            summary, details = run_workload(name, args.seed, args.seconds,
                                            bool(args.trace), args.work,
                                            units, args.toy)
            path = os.path.join(args.work, "details-%s-seed%d-trace%d.json"
                                % (name, args.seed, args.trace))
            with open(path, "w") as fh:
                json.dump({"summary": summary, "details": details}, fh,
                          indent=1)
            report(summary, details, sys.stdout)
            results[name] = summary
    except RuntimeError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {"%s.%s" % (n, k): v for n, r in results.items()
                             for k, v in r["metrics"].items()}}
    print(json.dumps(final, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
