"""Smoke test of the benchmark at toy size.

    python3 -m pytest -q bench

Every workload runs through ``bench/run.py --toy``, untraced and traced.  The
test checks that each metric BENCHMARK.json names is reported with its unit,
that the traced counters agree with each other, and that in the written
spans no set of children covers more time than their parent.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)
NAMES = [w["name"] for w in SPEC["workloads"]]


def run(work, workload, trace, root=ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join(root, "bench", "run.py"),
         "--workload", workload, "--seed", "3", "--seconds", "0",
         "--trace", str(trace), "--toy", "--work", str(work)],
        cwd=root, capture_output=True, text=True, timeout=300)
    return proc


def summary_of(proc):
    assert proc.returncode == 0, proc.stderr
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(summary) == {"correct", "attempted", "failed", "metrics"}
    assert summary["attempted"] >= 1
    return summary


def test_spec_lists_the_workloads():
    assert NAMES == list(workloads.NAMES)
    assert SPEC["command"] == ["python3", "bench/run.py"]


@pytest.mark.parametrize("workload", NAMES)
def test_end_to_end_metrics(tmp_path, workload):
    summary = summary_of(run(tmp_path, workload, 0))
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    got = {k: v["unit"] for k, v in summary["metrics"].items()}
    assert got == expected
    assert all(v["value"] > 0 for v in summary["metrics"].values())


@pytest.mark.parametrize("workload", NAMES)
def test_traced_metrics_and_spans(tmp_path, workload):
    summary = summary_of(run(tmp_path, workload, 1))
    metrics = summary["metrics"]
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in metrics.items()} == expected

    cfg = workloads.config(workload, 3, toy=True)
    chains = 0
    if cfg["kind"] == "acceptance-sweep":
        chains = len(cfg["n_grid"]) * cfg["replicates"]
    elif cfg["kind"] == "posterior":
        chains = 1
    steps = metrics["sampler.steps"]["value"]
    assert steps == chains * cfg.get("iterations", 0)
    # one potential evaluation at the initial state, then one per step
    assert metrics["likelihood.potential.calls"]["value"] == steps + chains

    with open(tmp_path / ("spans-%s-seed3.json" % workload)) as fh:
        trace = json.load(fh)
    spans = trace["spans"]
    assert [s["name"] for s in spans if s["parent"] is None] == ["cli.main"]
    covered = {s["id"]: 0.0 for s in spans}
    for s in spans:
        assert s["end"] >= s["start"]
        if s["parent"] is not None:
            parent = spans[s["parent"]]
            assert parent["start"] <= s["start"] and s["end"] <= parent["end"]
            covered[s["parent"]] += s["end"] - s["start"]
    for f in trace["folded"]:
        covered[f["parent"]] += f["busy_s"]
    for s in spans:
        assert covered[s["id"]] <= s["end"] - s["start"] + 1e-9, s["name"]


def test_gate_rejects_a_rising_distance(tmp_path):
    cfg = workloads.config("geometry-sweep", 0)
    dist = dict(zip(map(str, cfg["n_grid"]), (0.3, 0.2, 0.25)))
    with open(tmp_path / "manifest.json", "w") as fh:
        json.dump({"metrics": {"median_distance": dist}}, fh)
    problems, _ = workloads.gate("geometry-sweep", cfg, str(tmp_path),
                                 [1, 1, 1])
    assert len(problems) == 1 and "increases" in problems[0]
    problems, _ = workloads.gate("geometry-sweep", cfg, str(tmp_path),
                                 [1, 2, 1])
    assert any("disconnected" in p for p in problems)


def test_fails_without_the_program(tmp_path):
    bare = tmp_path / "bare"
    shutil.copytree(BENCH, bare / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    proc = run(tmp_path / "work", "regularity", 0, root=str(bare))
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
