"""``tools/replay_digests.py``: its cases and its manifest digests.

The tool is run by hand before and after a change that keeps every result
file byte-identical; here only its case list and its digest rule are
checked, not a full replay.
"""

import importlib.util
import json
import sys
from pathlib import Path

from test_configs import CONFIGS, SHRINK

TOOL = Path(__file__).resolve().parents[1] / "tools" / "replay_digests.py"


def _load_tool():
    spec = importlib.util.spec_from_file_location("replay_digests", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_cases_cover_workloads_configs_and_grids(monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))
    cases = _load_tool().cases()
    for name in ("chain-sweep", "geometry-sweep", "probit-posterior",
                 "regularity"):
        for seed in (50, 51):
            cfg, jobs = cases["%s-seed%d" % (name, seed)]
            assert cfg["seed"] == seed and jobs == 1
    for path in CONFIGS:
        cfg, _ = cases["config-" + path.stem]
        assert {key: cfg[key] for key in SHRINK} == SHRINK
    for grid in ("sweep", "compare", "sweep-auto", "sweep-auto-mixed"):
        assert [cases["%s-jobs%d" % (grid, jobs)][1]
                for jobs in (1, 2, 3)] == [1, 2, 3]
    assert cases["sweep-disconnected"][0]["eps_multiplier"] == 0.7


def test_digests_drop_wall_time_and_out(tmp_path):
    for run, wall, out in (("a", 1.5, "results/a"), ("b", 2.5, "results/b")):
        (tmp_path / run).mkdir()
        (tmp_path / run / "runs.csv").write_text("n,acceptance\n40,0.5\n")
        (tmp_path / run / "manifest.json").write_text(json.dumps(
            {"config": {"out": out, "n": 40}, "wall_time_s": wall}))
    digests = _load_tool().digests
    first = digests(tmp_path / "a")
    assert [name for name, _ in first] == ["manifest.json",
                                           "manifest.json:config", "runs.csv"]
    assert first == digests(tmp_path / "b")
    # a config echo that gains or loses a field moves only the config line
    (tmp_path / "b" / "manifest.json").write_text(json.dumps(
        {"config": {"out": "results/b", "n": 40, "proposal": "pcn"},
         "wall_time_s": 2.5}))
    second = digests(tmp_path / "b")
    assert [a == b for a, b in zip(first, second)] == [True, False, True]
    (tmp_path / "b" / "runs.csv").write_text("n,acceptance\n40,0.6\n")
    assert digests(tmp_path / "b")[2] != first[2]
