import json
import os

import pytest

from graphheat.cli import main
from graphheat.experiments import KINDS


def write_config(path, **fields):
    body = {"kind": "spectra", "n": 60, "eps_multipliers": [2.0]}
    body.update(fields)
    path.write_text(json.dumps(body))
    return str(path)


def test_list_experiments(capsys):
    assert main(["list-experiments"]) == 0
    out = capsys.readouterr().out
    for kind in KINDS:
        assert kind in out


def test_validate_ok(tmp_path, capsys):
    cfg = write_config(tmp_path / "c.json")
    assert main(["validate", "--config", cfg]) == 0
    assert "ok: spectra experiment" in capsys.readouterr().out


def test_validate_bad_field(tmp_path, capsys):
    cfg = write_config(tmp_path / "c.json", alpha=-1.0)
    assert main(["validate", "--config", cfg]) == 2
    assert "config error: alpha" in capsys.readouterr().err


def test_validate_unknown_field(tmp_path, capsys):
    cfg = write_config(tmp_path / "c.json", betamax=2)
    assert main(["validate", "--config", cfg]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("cmd", ["validate", "run"])
@pytest.mark.parametrize("body, message", [
    ({"kind": "spectra", "n": 3.5}, "n: must be an integer"),
    ({"kind": "spectra", "seed": "a"}, "seed: must be an integer"),
    ({"kind": "spectra", "n_grid": 5}, "n_grid: must be a list"),
    ({"kind": "spectra", "k_n": True}, "k_n: must be a positive integer"),
    ([1, 2], "a config must be a JSON object"),
    ({"n": 60}, "'kind'"),
])
def test_wrongly_typed_config_is_refused(tmp_path, capsys, cmd, body,
                                         message):
    path = tmp_path / "c.json"
    path.write_text(json.dumps(body))
    out = tmp_path / "o"
    assert main([cmd, "--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and message in err
    assert not out.exists()


@pytest.mark.parametrize("cmd", ["validate", "run"])
@pytest.mark.parametrize("text, message", [
    ('{"kind": "posterior", "n": 60, "p": 10, "sigma": NaN}',
     "sigma: must be a finite number, got nan"),
    ('{"kind": "oracle-compare", "n_grid": [40], "p": 10,'
     ' "eps_multiplier": NaN}', "eps_multiplier: must be a finite number"),
    ('{"kind": "spectra", "n": 60, "eps_multipliers": [2.0, Infinity]}',
     "eps_multipliers: must be a list of finite numbers"),
], ids=["sigma", "eps_multiplier", "eps_multipliers"])
def test_non_finite_config_value_is_refused(tmp_path, capsys, cmd, text,
                                            message):
    # Python's json reads a bare NaN or Infinity
    path = tmp_path / "c.json"
    path.write_text(text)
    out = tmp_path / "o"
    assert main([cmd, "--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: " + message)
    assert not out.exists()


def test_missing_config_file(tmp_path, capsys):
    for path in (tmp_path / "absent.json", tmp_path):   # a directory too
        assert main(["run", "--config", str(path)]) == 2
        assert "error" in capsys.readouterr().err


def test_run_refuses_an_empty_out(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("GRAPHHEAT_RESULTS", raising=False)
    cfg = write_config(tmp_path / "c.json")
    assert main(["run", "--config", cfg, "--out", ""]) == 2
    assert "error: out: the output directory" in capsys.readouterr().err


def test_run_and_rerun_from_manifest(tmp_path, capsys):
    cfg = write_config(tmp_path / "c.json")
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert main(["run", "--config", cfg, "--out", str(out1)]) == 0
    manifest = capsys.readouterr().out.strip()
    assert manifest == str(out1 / "manifest.json")
    assert main(["run", "--config", manifest, "--out", str(out2)]) == 0
    assert (out1 / "spectra_eps2.csv").read_bytes() == \
        (out2 / "spectra_eps2.csv").read_bytes()


def test_run_refuses_invalid(tmp_path, capsys):
    cfg = write_config(tmp_path / "c.json", n=1)
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "config error: n" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_run_refuses_jobs_below_one(tmp_path, capsys, jobs):
    cfg = write_config(tmp_path / "c.json")
    out = tmp_path / "o"
    assert main(["run", "--config", cfg, "--out", str(out),
                 "--jobs", jobs]) == 2
    assert "--jobs" in capsys.readouterr().err
    assert not out.exists()


def test_seed_flag_changes_results(tmp_path):
    cfg = write_config(tmp_path / "c.json")
    a, b = tmp_path / "a", tmp_path / "b"
    main(["run", "--config", cfg, "--out", str(a)])
    main(["run", "--config", cfg, "--out", str(b), "--seed", "5"])
    assert (a / "spectra_eps2.csv").read_bytes() != \
        (b / "spectra_eps2.csv").read_bytes()
    man = json.load(open(b / "manifest.json"))
    assert man["config"]["seed"] == 5
    assert man["seeds"][0]["cloud_seed"] == 105


def test_negative_seed_is_refused(tmp_path, capsys):
    out = tmp_path / "o"
    for cmd, extra in [("validate", {"seed": -101}), ("run", {"seed": -101}),
                       ("run", {})]:
        cfg = write_config(tmp_path / "c.json", **extra)
        flag = [] if extra else ["--seed", "-101"]
        assert main([cmd, "--config", cfg, "--out", str(out)] + flag) == 2
        assert "config error: seed: must be nonnegative" in \
            capsys.readouterr().err
    assert not out.exists()


def test_results_root_env_var(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("GRAPHHEAT_RESULTS", str(tmp_path / "root"))
    cfg = write_config(tmp_path / "c.json", out="exp1")
    assert main(["run", "--config", cfg]) == 0
    capsys.readouterr()
    assert (tmp_path / "root" / "exp1" / "manifest.json").exists()
    # absolute --out wins over the root
    absolute = tmp_path / "abs"
    assert main(["run", "--config", cfg, "--out", str(absolute)]) == 0
    assert (absolute / "manifest.json").exists()


def test_console_script_installed():
    """The `graphheat` command that pyproject.toml declares runs.

    The `[project.scripts]` target is run in a fresh interpreter the way the
    generated console-script wrapper runs it, against the package this test
    imported. Where a `graphheat` executable is on PATH, it must give the
    same output.
    """
    tomllib = pytest.importorskip("tomllib")
    import shutil
    import subprocess
    import sys
    from pathlib import Path

    import graphheat

    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["graphheat"]
    module, attr = target.split(":")
    wrapper = ("import sys\n"
               "from %s import %s\n"
               "sys.argv[0] = 'graphheat'\n"
               "sys.exit(%s())\n" % (module, attr.split(".")[0], attr))

    # The package under test goes first on the path, so a stale installed
    # copy cannot answer instead; the working directory is the same place
    # because `-c` puts it ahead of PYTHONPATH.
    package_root = str(Path(graphheat.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [package_root, env.get("PYTHONPATH")]))

    def run(cmd):
        return subprocess.run(cmd + ["list-experiments"], capture_output=True,
                              text=True, env=env, cwd=package_root)

    proc = run([sys.executable, "-c", wrapper])
    assert proc.returncode == 0, proc.stderr
    assert "spectra" in proc.stdout

    exe = shutil.which("graphheat")
    if exe is not None:
        installed = run([exe])
        assert installed.returncode == 0, installed.stderr
        assert installed.stdout == proc.stdout
