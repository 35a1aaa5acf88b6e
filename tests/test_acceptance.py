"""Full-size acceptance runs, one test per shipped claim.

Every test prints a single PASS/FAIL line with the measured numbers next to
the limits, runs the real experiment code paths at the published
configurations, and is exactly reproducible (all seeds fixed).
"""

import json
import math

import numpy as np
import pytest

from graphheat import (
    ExperimentConfig,
    LabeledData,
    PriorSpec,
    SamplerConfig,
    build_eps_graph,
    default_eps,
    eigendecompose,
    first_p_design,
    graph_posterior,
    heat,
    laplacian,
    pcn,
    run_experiment,
    sample_sphere,
    sphere_calibration,
)

N_GRID = (300, 600, 900, 1200, 1500, 2000)
CHAIN = dict(iterations=100000, burn_in=10000)


def report(ok, name, detail):
    print("%s %s: %s" % ("PASS" if ok else "FAIL", name, detail))


def run_in(tmp_path_factory, cfg, label):
    out = tmp_path_factory.mktemp(label)
    path = run_experiment(cfg, out_dir=str(out))
    return json.load(open(path)), out


@pytest.fixture(scope="module")
def semi_supervised_sweep(tmp_path_factory):
    # Shared by the acceptance-band and autocorrelation tests below.
    cfg = ExperimentConfig(
        kind="acceptance-sweep", n_grid=N_GRID, p=200, k_n=16,
        t=0.1, sigma=0.1, beta=0.01, replicates=3, seed=0, **CHAIN,
    )
    return run_in(tmp_path_factory, cfg, "sweep")[0]


def test_criterion_1_prior_preservation():
    # Zero potential: the chain must leave the prior invariant.  Marginal
    # variances within 5% of the prior scales, means within 3 standard
    # errors (the pCN lag-1 autocorrelation is known in closed form here).
    n, kn, beta = 1000, 50, 0.5
    cl = sample_sphere(n, seed=100)
    lap = laplacian(build_eps_graph(cl, default_eps(n, 2, 2.0)),
                    sphere_calibration(n))
    basis = eigendecompose(lap, kn)
    spec = PriorSpec(alpha=1.0, s=5.0, k_n=kn, m=2)
    chain = pcn(basis, spec, lambda a: 0.0,
                SamplerConfig(beta=beta, seed=910, **CHAIN))

    scales = spec.coefficient_scales(basis.eigenvalues[:kn])
    var_err = np.max(np.abs(chain.samples.var(axis=0) / scales**2 - 1.0))
    rho = math.sqrt(1.0 - beta**2)
    iact = (1.0 + rho) / (1.0 - rho)
    se = scales * math.sqrt(iact / chain.samples.shape[0])
    z = np.max(np.abs(chain.samples.mean(axis=0)) / se)
    ok = var_err <= 0.05 and z <= 3.0
    report(ok, "prior preservation",
           "max variance deviation %.4f (limit 0.05), max |z| %.2f (limit 3)"
           % (var_err, z))
    assert var_err <= 0.05
    assert z <= 3.0


def test_criterion_2_sampler_matches_oracle(tmp_path_factory):
    cfg = ExperimentConfig(
        kind="posterior", n=1000, p=200, k_n=16, t=0.1, sigma=0.1,
        beta=0.02, seed=0, **CHAIN,
    )
    man = run_in(tmp_path_factory, cfg, "posterior")[0]
    err = man["metrics"]["rel_l2_mean_error_vs_oracle"]
    ok = err <= 0.05
    report(ok, "sampler vs closed form",
           "relative L2 mean error %.4f (limit 0.05)" % err)
    assert err <= 0.05


def test_criterion_3_semi_supervised_acceptance_band(semi_supervised_sweep):
    acc = [semi_supervised_sweep["metrics"]["acceptance"][str(n)]
           for n in N_GRID]
    spread = max(acc) - min(acc)
    in_band = all(0.18 <= a <= 0.30 for a in acc)
    flat = spread <= 0.06
    detail = ("acceptance %s, spread %.4f (limit 0.06), band [0.18, 0.30]"
              % (["%.4f" % a for a in acc], spread))
    report(in_band and flat, "semi-supervised acceptance band", detail)
    assert flat, detail
    assert in_band, detail


def test_criterion_4_supervised_acceptance_decay(tmp_path_factory):
    cfg = ExperimentConfig(
        kind="supervised-sweep", n_grid=N_GRID, k_n=16, t=0.0, sigma=0.1,
        beta=0.01, replicates=1, seed=0, **CHAIN,
    )
    man = run_in(tmp_path_factory, cfg, "supervised")[0]
    acc = [man["metrics"]["acceptance"][str(n)] for n in N_GRID]
    monotone = all(b <= a + 1e-12 for a, b in zip(acc, acc[1:]))
    first_ok = 0.37 <= acc[0] <= 0.53
    last_ok = 0.07 <= acc[-1] <= 0.16
    ok = monotone and first_ok and last_ok
    report(ok, "supervised acceptance decay",
           "acceptance %s; first in [0.37, 0.53], last in [0.07, 0.16]"
           % ["%.4f" % a for a in acc])
    assert monotone
    assert first_ok
    assert last_ok


def test_criterion_5_spectral_agreement(tmp_path_factory):
    errs1, errs2 = [], []
    for seed in (0, 1, 2):
        cfg = ExperimentConfig(kind="spectra", n=1000,
                               eps_multipliers=(1.0, 2.0), seed=seed)
        man = run_in(tmp_path_factory, cfg, "spectra%d" % seed)[0]
        errs1.append(man["metrics"]["mean_rel_error_modes_2_9"]["1"])
        errs2.append(man["metrics"]["mean_rel_error_modes_2_9"]["2"])
    med1, med2 = float(np.median(errs1)), float(np.median(errs2))
    ok = med2 <= 0.25 and med1 > med2
    report(ok, "spectral agreement",
           "median rel error %.3f at the default bandwidth (limit 0.25), "
           "%.3f at half bandwidth (must be larger)" % (med2, med1))
    assert med2 <= 0.25
    assert med1 > med2


def test_criterion_6_regularity_trend(tmp_path_factory):
    cfg = ExperimentConfig(kind="regularity", n=1000,
                           s_grid=(2, 3, 4, 5, 6, 7, 8), draws=100, seed=0)
    man, out = run_in(tmp_path_factory, cfg, "regularity")
    rows = open(out / "regularity.csv").read().strip().split("\n")[1:]
    osc = [float(r.split(",")[1]) for r in rows]
    rises = [(a, b) for a, b in zip(osc, osc[1:]) if b > a]
    ok = len(rises) <= 1 and all(b <= 1.05 * a for a, b in rises)
    report(ok, "regularity trend",
           "max oscillation %s; %d inversions (1 allowed, at most 5%%)"
           % (["%.2e" % v for v in osc], len(rises)))
    assert len(rises) <= 1
    for a, b in rises:
        assert b <= 1.05 * a


def test_criterion_7_structure_suite():
    # Fast structural identities on one mid-size cloud, all at tight
    # tolerances: semigroup algebra, operator symmetry, posterior sanity.
    n = 300
    cl = sample_sphere(n, seed=100)
    lap = laplacian(build_eps_graph(cl, default_eps(n, 2, 2.0)),
                    sphere_calibration(n))
    basis = eigendecompose(lap, 20)
    rng = np.random.default_rng(0)
    checks = {}

    dense = lap.dense()
    checks["laplacian row sums"] = np.max(np.abs(dense.sum(axis=1))) < 1e-8
    checks["laplacian psd"] = (
        np.min(np.linalg.eigvalsh((dense + dense.T) / 2)) > -1e-8
    )
    gram = basis.eigenvectors.T @ basis.eigenvectors / n
    checks["orthonormal basis"] = np.max(np.abs(gram - np.eye(20))) < 1e-8

    u = rng.standard_normal(20)
    v = rng.standard_normal(20)
    nodal = basis.synthesize
    two_step = heat(heat(u, basis, 0.3), basis, 0.2)
    checks["semigroup law"] = np.allclose(
        nodal(two_step), nodal(heat(u, basis, 0.5)), atol=1e-10)
    norm = lambda w: math.sqrt(float(np.mean(w**2)))
    checks["contraction"] = (
        norm(nodal(heat(u, basis, 0.4))) <= norm(nodal(u)) + 1e-12
    )
    lhs = float(np.mean(nodal(heat(u, basis, 0.4)) * nodal(v)))
    rhs = float(np.mean(nodal(u) * nodal(heat(v, basis, 0.4))))
    checks["self-adjointness"] = abs(lhs - rhs) < 1e-10

    spec = PriorSpec(alpha=1.0, s=5.0, k_n=20, m=2)
    design = first_p_design(40)
    ya = LabeledData(rng.standard_normal(40), design, 0.1, "gaussian", 0.1)
    yb = LabeledData(rng.standard_normal(40), design, 0.1, "gaussian", 0.1)
    pa = graph_posterior(ya, basis, spec, 0.1, 0.1)
    pb = graph_posterior(yb, basis, spec, 0.1, 0.1)
    prior_var = ((basis.eigenvectors[:, :20] ** 2)
                 @ spec.truncated_scales(basis) ** 2)
    checks["posterior variance bound"] = bool(
        np.all(pa.variance <= prior_var + 1e-12)
        and np.all(pa.variance >= 0)
    )
    checks["variance ignores labels"] = np.array_equal(pa.variance,
                                                       pb.variance)

    bad = sorted(k for k, v in checks.items() if not v)
    report(not bad, "structure suite",
           "%d/%d identities hold%s" % (len(checks) - len(bad), len(checks),
                                        "" if not bad else "; failed: "
                                        + ", ".join(bad)))
    assert not bad, bad


def test_criterion_8_autocorrelation_flatness(semi_supervised_sweep):
    iact = [semi_supervised_sweep["metrics"]["iact"][str(n)] for n in N_GRID]
    ratio = max(iact) / min(iact)
    ok = ratio <= 2.0
    report(ok, "autocorrelation flatness",
           "median IACT %s; max/min %.2f (limit 2)"
           % (["%.0f" % v for v in iact], ratio))
    assert ratio <= 2.0


def test_criterion_9_posterior_consistency(tmp_path_factory):
    cfg = ExperimentConfig(
        kind="oracle-compare", n_grid=(300, 1000, 2000), p=200, k_n=16,
        t=0.1, sigma=0.1, replicates=3, seed=0,
    )
    man = run_in(tmp_path_factory, cfg, "consistency")[0]
    dist = [man["metrics"]["median_distance"][str(n)]
            for n in (300, 1000, 2000)]
    ok = all(b <= a for a, b in zip(dist, dist[1:]))
    report(ok, "posterior consistency",
           "median L2 distance to the continuum posterior %s "
           "over n = 300, 1000, 2000 (must be non-increasing)"
           % ["%.4f" % d for d in dist])
    assert ok, dist
