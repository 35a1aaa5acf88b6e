"""Experiment harness: config handling, outputs, determinism, cleanup."""

import dataclasses
import json
import math
import os

import numpy as np
import pytest

import graphheat.experiments as ex
import graphheat.sampler
import graphheat.spectral
from graphheat import (
    ContinuumBasis,
    DEFAULT_TRUTH,
    ExperimentConfig,
    PointCloud,
    run_experiment,
    truth_coefficients,
    validate_config,
)
from graphheat.likelihood import GaussianMisfit


def test_config_json_round_trip():
    cfg = ExperimentConfig(
        kind="acceptance-sweep", n_grid=(40, 60), p=10, beta=0.3,
        iterations=500, burn_in=100, replicates=2, seed=7, k_n=4,
    )
    again = ExperimentConfig.from_json(cfg.to_json())
    assert again == cfg
    assert isinstance(again.n_grid, tuple)


def test_numpy_integers_validate_and_serialize(tmp_path):
    # validate_config takes numpy integers in every integer field, k_n
    # included, so to_json writes them and the run's manifest gets written.
    numpy_ints = toy_cfg("prior-sample", n=np.int64(60), k_n=np.int64(8))
    assert validate_config(numpy_ints) == []
    assert numpy_ints.to_json() == toy_cfg("prior-sample", n=60,
                                           k_n=8).to_json()
    path = run_experiment(numpy_ints, out_dir=str(tmp_path))
    assert json.load(open(path))["config"]["n"] == 60

    # a numpy seed makes numpy seed records, which the manifest writes too
    def seeds(seed, name):
        path = run_experiment(toy_cfg("prior-sample", seed=seed),
                              out_dir=str(tmp_path / name))
        return json.load(open(path))["seeds"]

    assert seeds(np.int64(3), "numpy") == seeds(3, "int")
    sweep = toy_cfg("acceptance-sweep", n_grid=tuple(np.array([40, 60])))
    assert validate_config(sweep) == []
    assert (ExperimentConfig.from_json(sweep.to_json())
            == toy_cfg("acceptance-sweep"))


def test_csv_writes_each_value_in_full():
    text = ex._csv(("i", "x", "nan", "inf", "zero"),
                   [(3, -0.1, float("nan"), float("-inf"), -0.0)])
    assert text == "i,x,nan,inf,zero\n3,-0.10000000000000001,nan,-inf,-0\n"


def test_continuum_degree_matches_the_counting_loop():
    # The largest L with (L + 1)^2 <= k_n harmonics, capped at l_max.
    for k_n in range(1, 61):
        for l_max in range(3, 9):
            degree = 0
            while (degree + 2) ** 2 <= k_n and degree < l_max:
                degree += 1
            assert ex._continuum_degree(k_n, l_max) == degree


def test_config_rejects_unknown_and_wrong_schema():
    with pytest.raises(ValueError, match="unknown config fields: beta_max"):
        ExperimentConfig.from_json('{"kind": "spectra", "beta_max": 1}')
    with pytest.raises(ValueError, match="schema"):
        ExperimentConfig.from_json('{"schema": 99, "kind": "spectra"}')
    with pytest.raises(ValueError, match="JSON object"):
        ExperimentConfig.from_json('[1, 2]')


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
        (C(kind="supervised-sweep", n_grid=(40,), iterations=13, burn_in=10),
         "iterations"),
        (C(kind="oracle-compare", n_grid=(5, 40), p=5, knn_k=6), "knn_k"),
        (C(kind="posterior", n=3, p=2), "n"),
        # both would write spectra_eps2.csv
        (C(kind="spectra", n=60, eps_multipliers=(2.0, 2.0000001)),
         "eps_multipliers"),
        # wrongly typed fields, as a JSON config can give them
        (C(kind="spectra", n=3.5), "n"),
        (C(kind="spectra", seed="a"), "seed"),
        (C(kind="spectra", n_grid=5), "n_grid"),
        (C(kind="acceptance-sweep", n_grid=(40.5,), p=10), "n_grid"),
        (C(kind="spectra", eps_multipliers=("2",)), "eps_multipliers"),
        (C(kind="posterior", n=60, p=10, beta=True), "beta"),
        (C(kind="posterior", n=60, p=10, k_n=True), "k_n"),
        (C(kind="spectra", out=5), "out"),
        # a repeated size would run its points twice on the same seeds
        (C(kind="acceptance-sweep", n_grid=(40, 60, 40), p=10), "n_grid"),
        (C(kind="oracle-compare", n_grid=(40, 40), p=10), "n_grid"),
        # numpy refuses negative seeds partway through the run
        (C(kind="spectra", n=60, seed=-101), "seed"),
        (C(kind="prior-sample", n=30, seed=-1), "seed"),
        # lambda^s is infinite on the zero eigenvalue for s < 0
        (C(kind="regularity", n=80, s_grid=(-1, 2), draws=3), "s_grid"),
    ]:
        errs = validate_config(cfg)
        assert any(e.startswith(field + ": ") for e in errs), (cfg, errs)
        with pytest.raises(ValueError, match="invalid config"):
            run_experiment(cfg, out_dir=str(tmp_path))
    assert os.listdir(tmp_path) == []
    # lambda^0 = 1 on every mode, the zero eigenvalue included
    assert validate_config(C(kind="regularity", n=80, s_grid=(0, 2),
                             draws=3)) == []


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", ex._NUMBERS + ("eps_multipliers",
                                                 "s_grid"))
def test_non_finite_numbers_are_refused(field, value):
    # every comparison with NaN is false, so the value checks alone let it
    # through to scipy or to a graph radius, whose errors name no field
    listed = field in ex._LISTS
    cfg = ExperimentConfig(kind="posterior", n=60, p=10,
                           **{field: (2.0, value) if listed else value})
    errs = validate_config(cfg)
    assert len(errs) == 1 and errs[0].startswith(field + ": must be a "), errs
    assert "finite" in errs[0]


# Per part of a config that only some kinds read: a value validate_config
# refuses for those kinds, and the field its error names.
BAD_PART = {
    "n_grid": (dict(n_grid=(40, 40)), "n_grid"),
    "s": (dict(s=2.0), "s"),
    "chain": (dict(beta=0.0), "beta"),
    "p": (dict(p=0), "p"),
    "labels": (dict(sigma=0.0), "sigma"),
    "gaussian": (dict(noise="probit"), "noise"),
    "draws": (dict(draws=0), "draws"),
    "s_grid": (dict(s_grid=(-1, 2)), "s_grid"),
    "eps_multipliers": (dict(eps_multipliers=()), "eps_multipliers"),
    "knn_k": (dict(knn_k=41), "knn_k"),
    "pushforward": (dict(n=3, p=2), "n"),
}


@pytest.mark.parametrize("kind", ex.KINDS)
def test_each_kind_checks_exactly_the_parts_it_reads(kind):
    parts = ex._KINDS[kind][2]
    assert set(parts) <= set(BAD_PART)
    assert validate_config(toy_cfg(kind)) == []
    for part, (bad, field) in BAD_PART.items():
        errs = validate_config(toy_cfg(kind, **bad))
        named = any(e.startswith(field + ": ") for e in errs)
        assert named == (part in parts), (part, errs)


def test_manifest_with_the_old_m_field(tmp_path):
    # manifests once echoed m, the sphere's intrinsic dimension 2, the chain
    # thinning 1 and the Laplacian calibration "sphere": each replays at
    # that value, and any other is refused
    files, man = run_outputs(toy_cfg("posterior"), tmp_path / "a")
    old = json.loads((tmp_path / "a" / "manifest.json").read_text())
    old["config"].update(m=2, thinning=1, calibration="sphere")
    cfg = ExperimentConfig.from_json(json.dumps(old))
    assert cfg == toy_cfg("posterior")
    assert run_outputs(cfg, tmp_path / "b") == (files, man)
    for field, value in [("m", 3), ("m", 1), ("m", 2.0), ("m", True),
                         ("m", "2"), ("thinning", 2), ("thinning", 1.0),
                         ("thinning", True), ("calibration", 3.0),
                         ("calibration", 1)]:
        bad = dict(old, config=dict(old["config"], **{field: value}))
        with pytest.raises(ValueError, match="^%s: " % field):
            ExperimentConfig.from_json(json.dumps(bad))


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
    # Gaussian runs are not screened
    assert "potential_evaluations" not in man["metrics"]
    assert 0.0 < man["metrics"]["acceptance"] <= 1.0
    # 200 states kept after burn-in; ESS is kept samples over the IACT
    assert man["metrics"]["ess_u_x1"] == pytest.approx(
        200 / man["metrics"]["iact_u_x1"], rel=1e-12)
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
    # the chain is screened: it calls the potential at the start and for
    # the proposals that pass the Laplace screen, which all accepted
    # proposals did
    calls = man["metrics"]["potential_evaluations"]
    assert man["metrics"]["screen_pass"] == (calls - 1) / 300
    assert round(man["metrics"]["acceptance"] * 300) <= calls - 1 < 300
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
    # ESS per n is the median over replicates of kept samples / IACT
    assert set(man["metrics"]["ess"]) == {"40", "60"}
    for n in ("40", "60"):
        iacts = [float(r.split(",")[3]) for r in runs[1:]
                 if r.split(",")[1] == n]
        assert man["metrics"]["ess"][n] == pytest.approx(
            np.median([150 / tau for tau in iacts]), rel=1e-12)


@pytest.mark.parametrize("kind, beta", [("acceptance-sweep", 0.05),
                                        ("supervised-sweep", 0.02)])
def test_sweep_acceptance_matches_prediction(tmp_path, kind, beta):
    # Each point's measured acceptance lies within Monte Carlo error of the
    # stationary acceptance predicted from its closed-form posterior.  The
    # betas put the predictions between 0.3 and 0.5.
    cfg = toy_cfg(kind, n_grid=(60, 120), replicates=1, iterations=40000,
                  burn_in=1000, beta=beta)
    man = json.load(open(run_experiment(cfg, out_dir=str(tmp_path / "g"))))
    got, want = (man["metrics"][key]
                 for key in ("acceptance", "predicted_acceptance"))
    assert set(want) == {"60", "120"}
    for n in want:
        assert got[n] == pytest.approx(want[n], abs=0.02)
    probit = dataclasses.replace(cfg, noise="probit", n_grid=(40,),
                                 iterations=200, burn_in=50)
    man = json.load(open(run_experiment(probit,
                                        out_dir=str(tmp_path / "p"))))
    assert "predicted_acceptance" not in man["metrics"]


@pytest.mark.parametrize("kind, beta", [("acceptance-sweep", 0.05),
                                        ("supervised-sweep", 0.02)])
def test_sweep_stationary_acceptance_matches_prediction(tmp_path, kind, beta):
    # The post-burn-in acceptance is the stationary chain's, which the
    # closed-form posterior predicts.
    cfg = toy_cfg(kind, n_grid=(60, 120), replicates=2, iterations=20000,
                  burn_in=2000, beta=beta)
    man = json.load(open(run_experiment(cfg, out_dir=str(tmp_path))))
    got, want = (man["metrics"][key]
                 for key in ("stationary_acceptance", "predicted_acceptance"))
    assert set(got) == set(want) == {"60", "120"}
    for n in want:
        assert got[n] == pytest.approx(want[n], abs=0.02)


def test_posterior_records_stationary_acceptance(tmp_path):
    man = json.load(open(run_experiment(toy_cfg("posterior"),
                                        out_dir=str(tmp_path))))
    assert 0.0 < man["metrics"]["stationary_acceptance"] <= 1.0


# k_n="auto" at this bandwidth gives k = 3, 3, 4, 4 over the grid.
AUTO_SWEEP = dict(k_n="auto", eps_multiplier=0.7, n_grid=(40, 60, 80, 120))


def test_auto_sweep_runs_each_k_in_lockstep_as_if_alone(tmp_path,
                                                       monkeypatch):
    # The sweep hands every chain to one pcn call, which steps the four
    # chains of each k together; the outputs equal those of every chain
    # run alone.  These small-bandwidth graphs have many components.
    calls, groups = [], []
    run, batch = ex.pcn, GaussianMisfit.batch

    def recording(bases, specs, phis, configs, readout):
        calls.append(([b.count for b in bases], [c.seed for c in configs]))
        return run(bases, specs, phis, configs, readout=readout)

    def counted_batch(misfits):
        groups.append(len(misfits))
        return batch(misfits)

    def one_by_one(bases, specs, phis, configs, readout):
        chains = []
        for args, vector in zip(zip(bases, specs, phis, configs), readout):
            chain = run(*args)
            chain.trace = chain.samples @ vector
            chains.append(chain)
        return chains

    monkeypatch.setattr(GaussianMisfit, "batch", staticmethod(counted_batch))
    cfg = toy_cfg("acceptance-sweep", **AUTO_SWEEP)
    monkeypatch.setattr(ex, "pcn", recording)
    together, man = run_outputs(cfg, tmp_path / "together")
    assert calls == [([3] * 4 + [4] * 4, [900, 901] * 4)]
    assert groups == [4, 4]
    monkeypatch.setattr(ex, "pcn", one_by_one)
    alone, man_alone = run_outputs(cfg, tmp_path / "alone")
    assert groups == [4, 4]
    assert together == alone
    assert man == man_alone


@pytest.mark.parametrize("kind, extra", [
    ("acceptance-sweep", {}), ("supervised-sweep", {}),
    ("acceptance-sweep", AUTO_SWEEP)], ids=["acceptance", "supervised",
                                             "auto-k"])
def test_sweeps_keep_the_tracing_contract(tmp_path, monkeypatch, kind, extra):
    # The benchmark tracer wraps these two names as below.  It expects one
    # potential call per chain step plus one per chain at the zero start,
    # and reads the step count from the proposed total of what pcn returns.
    counts = {"calls": 0, "proposed": 0}
    factory, run = ex.potential_from_design_matrix, ex.pcn

    def counted_factory(*args, **kwargs):
        phi = factory(*args, **kwargs)

        def counted(a):
            counts["calls"] += 1
            return phi(a)

        return counted

    def counted_pcn(*args, **kwargs):
        result = run(*args, **kwargs)
        counts["proposed"] += result.proposed
        return result

    monkeypatch.setattr(ex, "potential_from_design_matrix", counted_factory)
    monkeypatch.setattr(ex, "pcn", counted_pcn)
    cfg = toy_cfg(kind, **extra)
    run_experiment(cfg, out_dir=str(tmp_path))
    chains = len(cfg.n_grid) * cfg.replicates
    assert counts["proposed"] == chains * cfg.iterations
    assert counts["calls"] == counts["proposed"] + chains


@pytest.mark.parametrize("kind, extra, streams", [
    ("acceptance-sweep", dict(n_grid=(40, 60, 80)), 2),
    ("supervised-sweep", dict(replicates=1), 1)],
    ids=["acceptance", "supervised"])
def test_sweeps_draw_one_stream_per_replicate(tmp_path, monkeypatch, kind,
                                              extra, streams):
    # Every cloud size of replicate r runs on chain seed 900 + seed + r, so
    # the chains of one replicate share one generator.
    generators, draw = [], graphheat.sampler._draw

    def counted_draw(rng, xi, uniforms):
        generators.append(rng)
        draw(rng, xi, uniforms)

    monkeypatch.setattr(graphheat.sampler, "_draw", counted_draw)
    run_experiment(toy_cfg(kind, **extra), out_dir=str(tmp_path))
    assert len({id(rng) for rng in generators}) == streams


def test_wall_time_ignores_clock_jumps(tmp_path, monkeypatch):
    # The manifest's wall time comes from a monotonic clock: a system clock
    # that jumps a day at every reading does not move it.
    import time

    jumps = iter(range(0, 10**9, 86400))
    monkeypatch.setattr(time, "time", lambda: float(next(jumps)))
    man = json.load(open(run_experiment(toy_cfg("prior-sample"),
                                        out_dir=str(tmp_path))))
    assert 0.0 <= man["wall_time_s"] < 60.0


def test_sweep_parallel_matches_serial(tmp_path):
    a, b = tmp_path / "serial", tmp_path / "parallel"
    run_experiment(toy_cfg("acceptance-sweep"), out_dir=str(a), jobs=1)
    run_experiment(toy_cfg("acceptance-sweep"), out_dir=str(b), jobs=2)
    assert (a / "acceptance_runs.csv").read_bytes() == \
        (b / "acceptance_runs.csv").read_bytes()


def test_grid_starts_no_more_workers_than_points(tmp_path, monkeypatch):
    import concurrent.futures

    started = []

    class SerialPool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    cfg = toy_cfg("oracle-compare", replicates=1)
    serial, _ = run_outputs(cfg, tmp_path / "serial", jobs=1)
    pooled, _ = run_outputs(cfg, tmp_path / "pooled", jobs=10**6)
    assert started == [2]
    assert pooled == serial


@pytest.mark.parametrize("kind", ["acceptance-sweep", "oracle-compare"])
def test_uneven_strides_match_serial(tmp_path, kind):
    # 2 sizes x 2 replicates over 3 workers: one worker takes two points,
    # the others one each
    cfg = toy_cfg(kind)
    serial = run_outputs(cfg, tmp_path / "serial", jobs=1)
    assert run_outputs(cfg, tmp_path / "parallel", jobs=3) == serial


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


def test_runs_call_no_dense_distances(tmp_path, monkeypatch):
    dense = []
    reference = PointCloud.pairwise_distances

    def counting(cloud):
        dense.append(cloud.n)
        return reference(cloud)

    monkeypatch.setattr(PointCloud, "pairwise_distances", counting)
    for kind in ("oracle-compare", "posterior", "regularity"):
        run_experiment(toy_cfg(kind), out_dir=str(tmp_path / kind), jobs=1)
    assert dense == []


def test_truncated_runs_form_no_dense_laplacian(tmp_path, monkeypatch):
    # every truncated basis (2k < n) comes from the sparse solver; only the
    # full spectrum of the regularity study takes the dense matrix
    dense = []
    reference = graphheat.spectral.linalg.eigh

    def counting(a, *args, **kwargs):
        dense.append(a.shape[0])
        return reference(a, *args, **kwargs)

    monkeypatch.setattr(graphheat.spectral.linalg, "eigh", counting)
    for cfg in (toy_cfg("posterior"), toy_cfg("oracle-compare"),
                toy_cfg("acceptance-sweep"), toy_cfg("spectra", n=120)):
        run_experiment(cfg, out_dir=str(tmp_path / cfg.kind), jobs=1)
    assert dense == []
    run_experiment(toy_cfg("regularity"), out_dir=str(tmp_path / "reg"))
    assert dense == [50]


@pytest.mark.parametrize("kind", ex.KINDS)
def test_manifest_names_the_eigensolver(tmp_path, monkeypatch, kind):
    # The eigensolver metrics are keyed by exactly the cloud sizes whose
    # bases the run built, and the seed records list each built cloud once,
    # in build order (spectra builds several bases on one cloud).
    built = []
    basis = ex._basis

    def recording(cfg, cl, *args):
        built.append((cl.n, cl.seed))
        return basis(cfg, cl, *args)

    monkeypatch.setattr(ex, "_basis", recording)
    extra = {"eps_multipliers": (2.0, 3.0)} if kind == "spectra" else {}
    man = json.load(open(run_experiment(toy_cfg(kind, **extra),
                                        out_dir=str(tmp_path))))
    solver, residual = (man["metrics"]["eigensolver"],
                        man["metrics"]["eigen_residual"])
    assert set(solver) == set(residual) == {str(n) for n, _ in built}
    assert all(0.0 <= r < 1e-10 for r in residual.values())
    # a basis of at least half the cloud comes from the dense solver
    dense = kind in ("regularity", "spectra")
    assert set(solver.values()) == {"dense" if dense else "lanczos"}
    clouds = list(dict.fromkeys(built))
    assert [(s["n"], s["cloud_seed"]) for s in man["seeds"]] == clouds
    assert len({(s["n"], s["replicate"]) for s in man["seeds"]}) == \
        len(clouds)


@pytest.mark.parametrize("kind", ["posterior", "acceptance-sweep",
                                  "oracle-compare"])
def test_manifest_seeds_are_the_seeds_used(tmp_path, monkeypatch, kind):
    used = {"cloud": [], "data": [], "chain": []}
    sample, synthesize, run = ex.sample_sphere, ex.synthesize_data, ex.pcn

    def sampling(n, seed):
        used["cloud"].append((n, seed))
        return sample(n, seed)

    def synthesizing(*args, seed):
        used["data"].append(seed)
        return synthesize(*args, seed=seed)

    def running(basis, spec, phi, config, **kwargs):
        configs = [config] if hasattr(config, "seed") else config
        used["chain"] += [c.seed for c in configs]
        return run(basis, spec, phi, config, **kwargs)

    monkeypatch.setattr(ex, "sample_sphere", sampling)
    monkeypatch.setattr(ex, "synthesize_data", synthesizing)
    monkeypatch.setattr(ex, "pcn", running)
    man = json.load(open(run_experiment(toy_cfg(kind),
                                        out_dir=str(tmp_path))))
    seeds = man["seeds"]
    assert len(seeds) == (1 if kind == "posterior" else 4)
    assert used["cloud"] == [(s["n"], s["cloud_seed"]) for s in seeds]
    assert used["data"] == [s["data_seed"] for s in seeds]
    chains = [] if kind == "oracle-compare" else seeds
    assert used["chain"] == [s["chain_seed"] for s in chains]


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
