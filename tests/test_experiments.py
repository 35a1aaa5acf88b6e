"""Experiment harness: config handling, outputs, determinism, cleanup."""

import json
import os

import numpy as np
import pytest

import graphheat.experiments as ex
from graphheat import (
    ContinuumBasis,
    DEFAULT_TRUTH,
    ExperimentConfig,
    run_experiment,
    truth_coefficients,
    validate_config,
)


def test_config_json_round_trip():
    cfg = ExperimentConfig(
        kind="acceptance-sweep", n_grid=(40, 60), p=10, beta=0.3,
        iterations=500, burn_in=100, replicates=2, seed=7, k_n=4,
    )
    again = ExperimentConfig.from_json(cfg.to_json())
    assert again == cfg
    assert isinstance(again.n_grid, tuple)


def test_config_rejects_unknown_and_wrong_schema():
    with pytest.raises(ValueError, match="unknown config fields: beta_max"):
        ExperimentConfig.from_json('{"kind": "spectra", "beta_max": 1}')
    with pytest.raises(ValueError, match="schema"):
        ExperimentConfig.from_json('{"schema": 99, "kind": "spectra"}')


def test_validate_unknown_kind_suggests():
    errs = validate_config(ExperimentConfig(kind="spectre"))
    assert len(errs) == 1
    assert "did you mean 'spectra'" in errs[0]
    assert "acceptance-sweep" in errs[0]     # catalog listed in the message


def test_validate_field_errors(tmp_path):
    cfg = ExperimentConfig(kind="posterior", s=1.5, beta=0.0, sigma=-1.0)
    errs = validate_config(cfg)
    joined = "\n".join(errs)
    assert "s: must exceed the intrinsic dimension" in joined
    assert "beta: must lie in (0, 1]" in joined
    assert "sigma: must be positive" in joined

    cfg = ExperimentConfig(kind="acceptance-sweep", n_grid=(40, 80), p=50)
    assert any("p: exceeds the smallest cloud" in e
               for e in validate_config(cfg))

    cfg = ExperimentConfig(kind="oracle-compare", n_grid=(40,), p=10,
                           noise="probit")
    assert any("gaussian" in e for e in validate_config(cfg))

    assert validate_config(ExperimentConfig(kind="spectra", n=60)) == []
    assert validate_config(ExperimentConfig(kind="spectra", n=60,
                                            alpha=0.0)) == []

    # Configs that used to validate and then fail partway through a run.
    C = ExperimentConfig
    for cfg, field in [
        # every prior keeps the constant mode, so alpha = 0 cannot run
        (C(kind="posterior", n=60, p=10, alpha=0.0), "alpha"),
        (C(kind="prior-sample", n=30, alpha=0.0), "alpha"),
        (C(kind="oracle-compare", n_grid=(40,), p=10, alpha=0.0), "alpha"),
        (C(kind="regularity", n=50, alpha=0.0), "alpha"),
        (C(kind="acceptance-sweep", n_grid=(40,), p=10, alpha=0.0), "alpha"),
        # too few retained samples for the IACT
        (C(kind="posterior", n=60, p=10, iterations=10, burn_in=8),
         "iterations"),
        (C(kind="supervised-sweep", n_grid=(40,), iterations=100, burn_in=10,
           thinning=40), "iterations"),
        (C(kind="oracle-compare", n_grid=(5, 40), p=5, knn_k=6), "knn_k"),
        (C(kind="posterior", n=3, p=2), "n"),
    ]:
        errs = validate_config(cfg)
        assert any(e.startswith(field + ": ") for e in errs), (cfg, errs)
        with pytest.raises(ValueError, match="invalid config"):
            run_experiment(cfg, out_dir=str(tmp_path))
    assert os.listdir(tmp_path) == []


def test_catalog_covers_all_kinds():
    assert set(ex.catalog()) == set(ex.KINDS)


def test_run_rejects_invalid_config(tmp_path):
    with pytest.raises(ValueError, match="invalid config"):
        run_experiment(ExperimentConfig(kind="nope"), out_dir=str(tmp_path))


def test_truth_coefficient_placement():
    cont = ContinuumBasis(6)
    coeffs = truth_coefficients(cont)
    for label, value in DEFAULT_TRUTH:
        assert coeffs[cont.labels.index(label)] == value
    assert np.count_nonzero(coeffs) == len(DEFAULT_TRUTH)


def toy_cfg(kind, **overrides):
    """Every kind at a size that runs in well under a second."""
    chain = dict(k_n=4, l_max=3, beta=0.3, iterations=200, burn_in=50)
    base = {
        "spectra": dict(n=60, eps_multipliers=(2.0,)),
        "regularity": dict(n=50, s_grid=(2, 4), draws=3),
        "posterior": dict(n=60, p=20, grid_size=150, **chain),
        "acceptance-sweep": dict(n_grid=(40, 60), p=10, replicates=2, **chain),
        "supervised-sweep": dict(n_grid=(40, 60), replicates=2, t=0.0,
                                 **chain),
        "oracle-compare": dict(n_grid=(40, 60), p=10, k_n=4, l_max=3,
                               replicates=2, grid_size=100),
        "prior-sample": dict(n=30, k_n=5, draws=2),
    }[kind]
    base.update(overrides)
    return ExperimentConfig(kind=kind, **base)


def test_spectra_run_outputs(tmp_path):
    path = run_experiment(toy_cfg("spectra"), out_dir=str(tmp_path))
    man = json.load(open(path))
    assert man["schema"] == 1
    assert man["kind"] == "spectra"
    assert sorted(os.listdir(tmp_path)) == sorted(
        man["outputs"] + ["manifest.json"]
    )
    assert man["seeds"] == [{"n": 60, "replicate": 0, "cloud_seed": 100,
                             "data_seed": 500, "chain_seed": 900}]
    assert "2" in man["metrics"]["mean_rel_error_modes_2_9"]
    assert set(man["versions"]) == {"package", "python", "numpy", "scipy"}
    csv = open(tmp_path / "spectra_eps2.csv").read().strip().split("\n")
    assert csv[0] == "index,graph_lambda,continuum_lambda"
    assert len(csv) == 51      # header + min(50, n) modes
    first = csv[1].split(",")
    assert float(first[1]) == pytest.approx(0.0, abs=1e-8)
    assert float(first[2]) == 0.0


def run_outputs(cfg, out, jobs=1):
    """Run cfg into out; return every output's bytes, wall time dropped."""
    run_experiment(cfg, out_dir=str(out), jobs=jobs)
    files = {name: (out / name).read_bytes() for name in os.listdir(out)}
    man = json.loads(files.pop("manifest.json"))
    assert sorted(files) == man["outputs"]
    del man["wall_time_s"]
    return files, man


REPLAY_CASES = {
    "spectra": toy_cfg("spectra"),
    "regularity": toy_cfg("regularity"),
    "posterior": toy_cfg("posterior"),
    "posterior-probit": toy_cfg("posterior", noise="probit"),
    "acceptance-sweep-auto": toy_cfg("acceptance-sweep", k_n="auto"),
    "supervised-sweep": toy_cfg("supervised-sweep"),
    "oracle-compare-auto-knn2": toy_cfg("oracle-compare", k_n="auto",
                                        knn_k=2),
    "prior-sample-calibration": toy_cfg("prior-sample", calibration=2.0),
}


@pytest.mark.parametrize("cfg", REPLAY_CASES.values(), ids=REPLAY_CASES)
def test_manifest_reruns_identically(tmp_path, cfg):
    files, man = run_outputs(cfg, tmp_path / "a")
    cfg2 = ExperimentConfig.from_json(
        (tmp_path / "a" / "manifest.json").read_text())
    assert cfg2 == cfg
    again, man2 = run_outputs(cfg2, tmp_path / "b")
    assert again == files
    assert man2 == man


def test_seed_moves_the_cloud(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    run_experiment(toy_cfg("spectra"), out_dir=str(a))
    run_experiment(toy_cfg("spectra", seed=1), out_dir=str(b))
    assert (a / "spectra_eps2.csv").read_bytes() != \
        (b / "spectra_eps2.csv").read_bytes()


def test_failed_write_leaves_no_partial_outputs(tmp_path, monkeypatch):
    def boom(*a, **k):
        raise OSError("disk full")

    monkeypatch.setattr(ex.json, "dump", boom)
    with pytest.raises(OSError):
        run_experiment(toy_cfg("spectra"), out_dir=str(tmp_path))
    assert os.listdir(tmp_path) == []


def test_regularity_run(tmp_path):
    cfg = ExperimentConfig(kind="regularity", n=50, s_grid=(2, 4), draws=3)
    path = run_experiment(cfg, out_dir=str(tmp_path))
    man = json.load(open(path))
    assert isinstance(man["metrics"]["inversions"], int)
    rows = open(tmp_path / "regularity.csv").read().strip().split("\n")
    assert rows[0] == "s,max_osc,log_max_osc"
    assert len(rows) == 3
    s2, s4 = (float(r.split(",")[1]) for r in rows[1:])
    assert s2 > 0 and s4 > 0


def test_posterior_run(tmp_path):
    cfg = ExperimentConfig(
        kind="posterior", n=60, p=20, k_n=9, l_max=3, beta=0.2,
        iterations=300, burn_in=100, grid_size=150,
    )
    path = run_experiment(cfg, out_dir=str(tmp_path))
    man = json.load(open(path))
    for key in ("acceptance", "iact_u_x1", "rel_l2_mean_error_vs_oracle"):
        assert key in man["metrics"]
    assert 0.0 < man["metrics"]["acceptance"] <= 1.0
    rows = open(tmp_path / "posterior_mean.csv").read().strip().split("\n")
    assert rows[0] == "x,y,z,chain_mean,oracle_mean,oracle_sd"
    assert len(rows) == 61
    push = open(tmp_path / "pushforward.csv").read().strip().split("\n")
    assert push[0] == "x,y,z,value"
    assert len(push) == 151


def test_probit_posterior_classifies(tmp_path):
    cfg = ExperimentConfig(
        kind="posterior", n=60, p=20, k_n=9, l_max=3, beta=0.2,
        iterations=300, burn_in=100, grid_size=150, noise="probit",
    )
    path = run_experiment(cfg, out_dir=str(tmp_path))
    man = json.load(open(path))
    assert "rel_l2_mean_error_vs_oracle" not in man["metrics"]
    rows = open(tmp_path / "posterior_mean.csv").read().strip().split("\n")
    assert rows[0] == "x,y,z,chain_mean,class"
    labels = {r.split(",")[4] for r in rows[1:]}
    assert labels <= {"1", "-1"}


def test_sweep_run(tmp_path):
    path = run_experiment(toy_cfg("acceptance-sweep"), out_dir=str(tmp_path))
    man = json.load(open(path))
    assert set(man["metrics"]["acceptance"]) == {"40", "60"}
    assert len(man["seeds"]) == 4
    acc = open(tmp_path / "acceptance.csv").read().strip().split("\n")
    assert acc[0] == "n,acceptance"
    assert [r.split(",")[0] for r in acc[1:]] == ["40", "60"]
    runs = open(tmp_path / "acceptance_runs.csv").read().strip().split("\n")
    assert runs[0] == "replicate,n,acceptance,iact"
    assert len(runs) == 5
    # per-grid medians in the summary file agree with the raw runs
    accs = [float(r.split(",")[2]) for r in runs[1:] if r.split(",")[1] == "40"]
    assert float(acc[1].split(",")[1]) == pytest.approx(np.median(accs))


def test_sweep_parallel_matches_serial(tmp_path):
    a, b = tmp_path / "serial", tmp_path / "parallel"
    run_experiment(toy_cfg("acceptance-sweep"), out_dir=str(a), jobs=1)
    run_experiment(toy_cfg("acceptance-sweep"), out_dir=str(b), jobs=2)
    assert (a / "acceptance_runs.csv").read_bytes() == \
        (b / "acceptance_runs.csv").read_bytes()


def test_compare_parallel_matches_serial(tmp_path):
    cfg = toy_cfg("oracle-compare")
    serial, _ = run_outputs(cfg, tmp_path / "serial", jobs=1)
    parallel, _ = run_outputs(cfg, tmp_path / "parallel", jobs=2)
    assert parallel["consistency.csv"] == serial["consistency.csv"]


@pytest.mark.parametrize("kind", ["acceptance-sweep", "oracle-compare"])
def test_grid_builds_one_graph_per_point(tmp_path, monkeypatch, kind):
    built = []
    build = ex.build_eps_graph

    def counting(cloud, *args, **kwargs):
        built.append((cloud.n, cloud.seed))
        return build(cloud, *args, **kwargs)

    monkeypatch.setattr(ex, "build_eps_graph", counting)
    cfg = toy_cfg(kind)
    run_experiment(cfg, out_dir=str(tmp_path), jobs=1)
    assert sorted(built) == sorted(
        (n, 100 + cfg.seed + r) for n in cfg.n_grid
        for r in range(cfg.replicates))


def test_supervised_sweep_labels_everything(tmp_path):
    # p is ignored in favor of p = n; exceeding the smallest n is fine here
    cfg = toy_cfg("supervised-sweep", n_grid=(40,), p=99999, replicates=1)
    assert validate_config(cfg) == []
    path = run_experiment(cfg, out_dir=str(tmp_path))
    man = json.load(open(path))
    assert set(man["metrics"]["acceptance"]) == {"40"}


def test_compare_run(tmp_path):
    cfg = ExperimentConfig(kind="oracle-compare", n_grid=(40,), p=10, k_n=4,
                           l_max=3, replicates=1, grid_size=100)
    path = run_experiment(cfg, out_dir=str(tmp_path))
    man = json.load(open(path))
    assert set(man["metrics"]["median_distance"]) == {"40"}
    rows = open(tmp_path / "consistency.csv").read().strip().split("\n")
    assert rows[0] == "replicate,n,distance"
    assert len(rows) == 2
    assert float(rows[1].split(",")[2]) > 0


def test_prior_sample_run(tmp_path):
    cfg = ExperimentConfig(kind="prior-sample", n=30, k_n=5, draws=2)
    run_experiment(cfg, out_dir=str(tmp_path))
    rows = open(tmp_path / "prior_draws.csv").read().strip().split("\n")
    assert rows[0] == "x,y,z,draw_0,draw_1"
    assert len(rows) == 31
