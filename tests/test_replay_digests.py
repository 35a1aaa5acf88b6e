"""``tools/replay_digests.py``: its cases and its manifest digests.

The tool is run by hand before and after a change; here only its case
list, its digest rule and its numeric comparison of two output trees are
checked, not a full replay.
"""

import importlib.util
import json
import math
import sys
from pathlib import Path

import pytest

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


def _tree(root, runs_csv, acceptance):
    (root / "case").mkdir(parents=True)
    (root / "case" / "runs.csv").write_text(runs_csv)
    (root / "case" / "runs.svg").write_text("<svg>%s</svg>" % runs_csv)
    (root / "case" / "manifest.json").write_text(json.dumps(
        {"config": {"out": str(root)}, "wall_time_s": 1.0,
         "metrics": {"acceptance": {"40": acceptance},
                     "eigensolver": {"40": "lanczos"}}}))


def test_compare_reports_each_changed_value(tmp_path, capsys):
    tool = _load_tool()
    _tree(tmp_path / "a", "n,x,y\n40,0.5,1\n60,2.0,1\n", 0.25)
    _tree(tmp_path / "b", "n,x,y\n40,0.5,1\n60,2.0,1\n", 0.25)
    tool.main(["--compare", str(tmp_path / "a"), str(tmp_path / "b")])
    assert capsys.readouterr().out == ""
    # one CSV cell and one manifest metric moved; the largest relative
    # difference per column is reported with its row, and the plot of the
    # CSV only as changed
    _tree(tmp_path / "c", "n,x,y\n40,0.5,1\n60,2.5,1\n", 0.2)
    rows = tool.compare(tmp_path / "a", tmp_path / "c")
    assert [row[:3] + row[4:] for row in rows] == [
        ("case", "manifest.json", "acceptance.40", "0.25 -> 0.2"),
        ("case", "runs.csv", "x", "row 2: 2.0 -> 2.5"),
        ("case", "runs.svg", "-", "contents differ"),
    ]
    assert [row[3] for row in rows] == pytest.approx([0.2, 0.2, math.inf])
    tool.main(["--compare", str(tmp_path / "a"), str(tmp_path / "c")])
    assert capsys.readouterr().out.splitlines() == [
        "case manifest.json acceptance.40 0.2 0.25 -> 0.2",
        "case runs.csv x 0.2 row 2: 2.0 -> 2.5",
        "case runs.svg - inf contents differ",
    ]
