"""The four benchmark workloads: experiment configs, toy sizes and gates.

Each workload is one experiment config run through ``graphheat.cli.main``.
The full sizes are the ones the benchmark measures; the toy sizes exist only
for the smoke test and keep each run under a second.  A gate reads the
files a run wrote (plus graph component counts observed during the run) and
returns the problems it found, none when the outputs are correct.
"""

import csv
import json
import math
import os

# Each repetition takes about three seconds on a 2-vCPU 2.0 GHz Xeon, so a
# run holds several and reports their median.  Regularity uses n=600: the
# dense eigensolve's time depends on the cloud (0.3 s or 0.9 s at n=1000,
# by seed), and at n=600 it is a few percent of a repetition, which leaves
# the prior's oscillation calls to set the time.
FULL = {
    "chain-sweep": dict(
        kind="acceptance-sweep", n_grid=[300, 600, 1000], p=200, k_n=16,
        t=0.1, sigma=0.1, noise="gaussian", beta=0.01, iterations=30000,
        burn_in=3000, replicates=3),
    "geometry-sweep": dict(
        kind="oracle-compare", n_grid=[500, 1000, 2000], p=200, k_n=16,
        t=0.1, sigma=0.1, replicates=1, grid_size=5000, knn_k=1),
    "probit-posterior": dict(
        kind="posterior", noise="probit", n=2000, p=1000, k_n=16, t=0.1,
        sigma=0.1, beta=0.02, iterations=30000, burn_in=3000),
    "regularity": dict(
        kind="regularity", n=600, s_grid=[2, 3, 4, 5, 6, 7, 8], draws=200),
}

TOY = {
    "chain-sweep": dict(FULL["chain-sweep"], n_grid=[40, 60, 80], p=10,
                        k_n=4, l_max=3, iterations=400, burn_in=100,
                        replicates=2),
    "geometry-sweep": dict(FULL["geometry-sweep"], n_grid=[100, 200, 400],
                           p=50, grid_size=500),
    "probit-posterior": dict(FULL["probit-posterior"], n=200, p=100,
                             iterations=400, burn_in=100, grid_size=500),
    "regularity": dict(FULL["regularity"], n=150, draws=5),
}

NAMES = tuple(FULL)

# Gate limits.  Acceptance flatness is criterion 3's spread limit; the
# acceptance band of criterion 3 is deliberately not gated (known failure).
ACCEPTANCE_SPREAD = 0.06
# Fraction of cloud points where the probit chain mean has the sign of the
# noiseless truth.  Seeds 1, 2, 30-39 and 50-69 at the commit that added
# the benchmark gave 0.89-0.94; chance agreement is 0.5.
PROBIT_SIGN_FLOOR = 0.85
# Criterion 6: at most one rise along the s grid, and by at most 5%.
REGULARITY_RISES = 1
REGULARITY_RISE_FACTOR = 1.05


def config(name, seed, toy=False):
    """The experiment config of a workload as a JSON-ready dict."""
    cfg = dict((TOY if toy else FULL)[name])
    cfg["seed"] = int(seed)
    return cfg


def _rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _manifest(out):
    with open(os.path.join(out, "manifest.json")) as fh:
        return json.load(fh)


def gate(name, cfg, out, components):
    """Check a finished run's outputs.

    Returns (problems, facts): problems is empty when the outputs are
    correct, and facts holds the gated quantities for the run's report.
    """
    return _GATES[name](cfg, out, components)


def _gate_chain(cfg, out, components):
    metrics = _manifest(out)["metrics"]
    acc = [metrics["acceptance"][str(n)] for n in cfg["n_grid"]]
    problems = []
    spread = max(acc) - min(acc)
    if spread > ACCEPTANCE_SPREAD:
        problems.append("acceptance spread %.4f exceeds %.2f (%s)"
                        % (spread, ACCEPTANCE_SPREAD, acc))
    iacts = [float(r["iact"]) for r in _rows(os.path.join(
        out, "acceptance_runs.csv"))]
    if len(iacts) != len(cfg["n_grid"]) * cfg["replicates"]:
        problems.append("expected one IACT per chain, got %d" % len(iacts))
    if not all(math.isfinite(x) for x in iacts):
        problems.append("non-finite IACT in %s" % iacts)
    return problems, {"acceptance": acc, "acceptance_spread": spread}


def _gate_geometry(cfg, out, components):
    dist = _manifest(out)["metrics"]["median_distance"]
    dist = [dist[str(n)] for n in cfg["n_grid"]]
    problems = []
    if not all(b <= a for a, b in zip(dist, dist[1:])):
        problems.append("median distance increases with n: %s" % dist)
    if len(components) != len(cfg["n_grid"]) * cfg["replicates"]:
        problems.append("expected one graph per sweep point, saw %d"
                        % len(components))
    if any(c != 1 for c in components):
        problems.append("disconnected graph: components %s" % components)
    return problems, {"median_distance": dist, "components": components}


def _gate_probit(cfg, out, components):
    import numpy as np
    from graphheat import ContinuumBasis, truth_coefficients

    rows = _rows(os.path.join(out, "posterior_mean.csv"))
    pts = np.array([[float(r["x"]), float(r["y"]), float(r["z"])]
                    for r in rows])
    mean = np.array([float(r["chain_mean"]) for r in rows])
    cont = ContinuumBasis(cfg.get("l_max", 6))
    truth = cont.synthesize(truth_coefficients(cont), pts)
    agree = float(np.mean(np.sign(mean) == np.sign(truth)))
    problems = []
    if len(rows) != cfg["n"]:
        problems.append("expected %d rows, got %d" % (cfg["n"], len(rows)))
    if not agree >= PROBIT_SIGN_FLOOR:
        problems.append("sign agreement %.4f below floor %.2f"
                        % (agree, PROBIT_SIGN_FLOOR))
    return problems, {"sign_agreement": agree}


def _gate_regularity(cfg, out, components):
    rows = _rows(os.path.join(out, "regularity.csv"))
    osc = [float(r["max_osc"]) for r in rows]
    rises = [(a, b) for a, b in zip(osc, osc[1:]) if b > a]
    problems = []
    if len(osc) != len(cfg["s_grid"]):
        problems.append("expected %d rows, got %d"
                        % (len(cfg["s_grid"]), len(osc)))
    if (len(rises) > REGULARITY_RISES
            or any(b > REGULARITY_RISE_FACTOR * a for a, b in rises)):
        problems.append("regularity trend broken: max oscillation %s" % osc)
    return problems, {"max_osc": osc}


_GATES = {
    "chain-sweep": _gate_chain,
    "geometry-sweep": _gate_geometry,
    "probit-posterior": _gate_probit,
    "regularity": _gate_regularity,
}
