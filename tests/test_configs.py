"""Every shipped study config in configs/ validates and replays identically.

The files are run at full size with ``graphheat run --config``; here each
is checked through the same front end, and a shrunk copy of it is run twice.
The benchmark's workload configs (``bench/workloads.py``, read by path) must
load and validate too, since the benchmark hands them to the same front end.
"""

import dataclasses
import importlib.util
import json
import os
from pathlib import Path

import pytest

from graphheat import ExperimentConfig, validate_config
from graphheat.cli import main

CONFIGS = sorted((Path(__file__).resolve().parents[1] / "configs")
                 .glob("*.json"))

# Sizes at which every kind runs in well under a second; p stays within the
# smallest cloud of the grid.
SHRINK = dict(n=60, n_grid=(40, 60), p=10, iterations=200, burn_in=50,
              draws=3, grid_size=100, replicates=1)

_spec = importlib.util.spec_from_file_location(
    "bench_workloads",
    Path(__file__).resolve().parents[1] / "bench" / "workloads.py")
WORKLOADS = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(WORKLOADS)


def test_configs_are_shipped():
    assert CONFIGS


def _load(path):
    return ExperimentConfig.from_json(path.read_text())


def _outputs(out):
    files = {name: (out / name).read_bytes() for name in os.listdir(out)}
    manifest = json.loads(files.pop("manifest.json"))
    del manifest["wall_time_s"]
    return files, manifest


@pytest.mark.parametrize("path", CONFIGS, ids=[p.stem for p in CONFIGS])
def test_config_validates(path, capsys):
    assert validate_config(_load(path)) == []
    assert main(["validate", "--config", str(path)]) == 0
    assert capsys.readouterr().out.startswith("ok: ")


@pytest.mark.parametrize("path", CONFIGS, ids=[p.stem for p in CONFIGS])
def test_shrunk_config_reruns_identically(path, tmp_path, capsys):
    cfg = dataclasses.replace(_load(path), out=str(tmp_path / "a"), **SHRINK)
    small = tmp_path / "small.json"
    small.write_text(cfg.to_json())
    assert main(["run", "--config", str(small)]) == 0
    assert main(["run", "--config", str(small), "--out",
                 str(tmp_path / "b")]) == 0
    capsys.readouterr()
    files, manifest = _outputs(tmp_path / "a")
    assert files and sorted(files) == manifest["outputs"]
    assert _outputs(tmp_path / "b") == (files, manifest)


@pytest.mark.parametrize("toy", [False, True], ids=["full", "toy"])
@pytest.mark.parametrize("name", WORKLOADS.NAMES)
def test_bench_workload_config_validates(name, toy):
    cfg = ExperimentConfig.from_json(
        json.dumps(WORKLOADS.config(name, 50, toy)))
    assert validate_config(cfg) == []
