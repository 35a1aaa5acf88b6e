"""Declarative experiment harness: configs, runners, CSV/SVG/manifest output.

Seven experiment kinds cover the studies this package exists for: Laplacian
spectra against the sphere, prior regularity versus smoothness, a full
posterior run with its closed-form check, the two acceptance-rate sweeps,
the graph-versus-continuum consistency trend, and plain prior draws.

Seed conventions, shared by every kind so runs are comparable: replicate r
of a config with base seed ``seed`` uses cloud seed 100+seed+r, data-noise
seed 500+seed+r and chain seed 900+seed+r (``_seed_record``).  Prior draw j
uses seed 700+seed+j; regularity redraws start at 700+seed+draws+1.  Clouds
sampled at different n with the same seed are nested (the smaller is a
prefix of the larger), so sweep points at a fixed replicate share geometry
and data.

All result files are byte-deterministic for a given config at a fixed BLAS
thread count; across thread counts the regularity study's values agree to
about 1e-13 relative, because its draws do not depend on which eigenvectors
the dense solver picks inside a near-repeated eigenvalue.  The manifest
also records wall time and library versions, so only it differs between
identical runs.  Its metrics name, per cloud size n, the
eigensolver behind the bases (``eigensolver``) and their largest relative
residual (``eigen_residual``).  Chain runs record the acceptance with
burn-in (``acceptance``) and after it (``stationary_acceptance``), and the
effective sample size of the node-1 trace, kept samples / IACT (``ess`` per
n in the sweeps, ``ess_u_x1`` in a posterior run); Gaussian sweeps also
record the stationary acceptance the closed-form posterior predicts
(``predicted_acceptance``).

Every kind builds its cloud, basis, prior and labels through ``_problem``,
except spectra and regularity, which need only the eigenbasis from
``_basis``.  Each runner returns its files, its metrics and the points
(n, replicate, solver, residual) of every basis it built; ``run_experiment``
turns the points into the manifest's seed and eigensolver records.  The
acceptance and supervised sweeps build all their points first and then run
every chain through one ``pcn`` call; under ``jobs`` > 1, worker w of W
runs grid points w, w+W, w+2W, ... of any kind.  Pipeline functions are
called through the names this module imports, because ``bench/tracing.py``
rebinds them here to trace them.
"""

import dataclasses
import json
import math
import numbers
import os
import time
from dataclasses import dataclass

import numpy as np

from . import __version__
from .cloud import sample_sphere
from .forward import design_matrix
from .graph import build_eps_graph, default_eps, laplacian, sphere_calibration
from .interpolate import knn_interpolate, sphere_mc_grid, l2_distance
from .likelihood import (NoiseModel, potential_from_design_matrix,
                         synthesize_data)
from .oracle import continuum_posterior, graph_posterior, predicted_acceptance
from .prior import (PriorSpec, default_truncation, regularity_experiment,
                    sample_graph_prior)
from .sampler import (
    SamplerConfig,
    acceptance_rate,
    integrated_autocorr_time,
    pcn,
    posterior_mean,
    stationary_acceptance,
)
from .spectral import ContinuumBasis, eigendecompose, spectral_error

SCHEMA_VERSION = 1

# Ground truth for synthetic data: a fixed band-limited combination of
# spherical harmonics, degrees 1 through 3.  Chosen once and documented
# here; every posterior-style experiment uses it.
DEFAULT_TRUTH = (
    ((1, 0), 1.0),
    ((1, 1), 0.5),
    ((2, -1), 0.7),
    ((2, 2), 0.4),
    ((3, 0), 0.3),
    ((3, 3), 0.2),
)

DEFAULT_N_GRID = (300, 600, 900, 1200, 1500, 2000)

# Field types that validate_config checks before any value.
_INTS = ("n", "p", "iterations", "burn_in", "thinning", "seed",
         "replicates", "l_max", "draws", "grid_size", "knn_k")
_NUMBERS = ("eps_multiplier", "alpha", "s", "t", "sigma", "beta")
_LISTS = ("n_grid", "eps_multipliers", "s_grid")


@dataclass(frozen=True)
class ExperimentConfig:
    kind: str
    n: int = 1000
    n_grid: tuple = DEFAULT_N_GRID
    p: int = 200
    eps_multiplier: float = 2.0
    eps_multipliers: tuple = (1.0, 2.0, 3.0)
    alpha: float = 1.0
    s: float = 5.0
    k_n: object = 16          # positive int, or "auto" for the built-in rule
    t: float = 0.1
    sigma: float = 0.1
    noise: str = "gaussian"
    beta: float = 0.01
    iterations: int = 100000
    burn_in: int = 10000
    thinning: int = 1
    seed: int = 0
    replicates: int = 1
    l_max: int = 6
    s_grid: tuple = (2, 3, 4, 5, 6, 7, 8)
    draws: int = 100
    calibration: object = "sphere"   # "sphere" for the S^2 rate, or a number
    grid_size: int = 10000
    knn_k: int = 1
    out: str = "results"

    def to_json(self):
        d = {"schema": SCHEMA_VERSION}
        d.update(dataclasses.asdict(self))
        return json.dumps(d, indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, text):
        d = json.loads(text)
        if not isinstance(d, dict):
            raise ValueError("a config must be a JSON object")
        if "config" in d and isinstance(d["config"], dict):
            d = d["config"]          # accept a manifest as a config source
        schema = d.pop("schema", SCHEMA_VERSION)
        if schema != SCHEMA_VERSION:
            raise ValueError("unsupported config schema %r" % (schema,))
        # older manifests echo m, the intrinsic dimension of the sphere
        m = d.pop("m", 2)
        if not (_is(m, numbers.Integral) and m == 2):
            raise ValueError("m: must be 2 (the sphere), got %r" % (m,))
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(d) - known)
        if unknown:
            raise ValueError("unknown config fields: %s" % ", ".join(unknown))
        for key in _LISTS:
            if isinstance(d.get(key), list):
                d[key] = tuple(d[key])
        return cls(**d)


def _is(value, kind):
    return isinstance(value, kind) and not isinstance(value, bool)


def validate_config(cfg):
    """Field-level problems with a config, empty when it is runnable."""
    if cfg.kind not in KINDS:
        import difflib

        near = difflib.get_close_matches(str(cfg.kind), KINDS, n=1)
        hint = "; did you mean %r" % near[0] if near else ""
        return ["kind: unknown %r%s (catalog: %s)"
                % (cfg.kind, hint, ", ".join(KINDS))]
    errs = ["%s: must be an integer" % f for f in _INTS
            if not _is(getattr(cfg, f), numbers.Integral)]
    errs += ["%s: must be a number" % f for f in _NUMBERS
             if not _is(getattr(cfg, f), numbers.Real)]
    for f in _LISTS:
        kind, what = ((numbers.Integral, "integers") if f == "n_grid"
                      else (numbers.Real, "numbers"))
        v = getattr(cfg, f)
        if not (isinstance(v, (list, tuple)) and all(_is(x, kind) for x in v)):
            errs.append("%s: must be a list of %s" % (f, what))
    if not isinstance(cfg.out, str):
        errs.append("out: must be a string")
    if errs:     # the value checks below cannot compare such fields
        return errs
    parts = _KINDS[cfg.kind][2]
    sizes = cfg.n_grid if "n_grid" in parts else (cfg.n,)
    if not sizes:
        errs.append("n_grid: must not be empty")
        sizes = (cfg.n,)
    elif len(set(sizes)) < len(sizes):
        errs.append("n_grid: each cloud size may appear only once")
    if any(int(n) < 2 for n in sizes):
        errs.append("n: every cloud size must be at least 2")
    elif "pushforward" in parts and cfg.n < 4:
        errs.append("n: the k=4 push-forward needs at least 4 points")
    if cfg.eps_multiplier <= 0:
        errs.append("eps_multiplier: must be positive")
    if "eps_multipliers" in parts:
        labels = ["%g" % x for x in cfg.eps_multipliers]
        if not labels or any(x <= 0 for x in cfg.eps_multipliers):
            errs.append("eps_multipliers: need a nonempty list of positive "
                        "values")
        elif len(set(labels)) < len(labels):
            errs.append("eps_multipliers: each needs its own %%g label, which "
                        "names its output file (got %s)" % ", ".join(labels))
    if cfg.alpha < 0:
        errs.append("alpha: must be nonnegative")
    elif cfg.alpha == 0 and ("s" in parts or "s_grid" in parts):
        errs.append("alpha: must be positive, the prior keeps the constant "
                    "mode")
    if "s" in parts and cfg.s <= 2:
        errs.append("s: must exceed the intrinsic dimension m=2 of the sphere")
    if cfg.k_n != "auto" and (not _is(cfg.k_n, int) or cfg.k_n < 1):
        errs.append('k_n: must be a positive integer or "auto"')
    if "chain" in parts:
        if not 0.0 < cfg.beta <= 1.0:
            errs.append("beta: must lie in (0, 1]")
        if cfg.iterations < 1:
            errs.append("iterations: must be positive")
        if not 0 <= cfg.burn_in < cfg.iterations:
            errs.append("burn_in: must lie in [0, iterations)")
        if cfg.thinning < 1:
            errs.append("thinning: must be at least 1")
        elif (0 <= cfg.burn_in < cfg.iterations and len(range(
                cfg.burn_in, cfg.iterations, cfg.thinning)) < 4):
            errs.append("iterations: the IACT needs at least 4 samples kept "
                        "after burn_in and thinning")
    if "p" in parts:
        if cfg.p < 1:
            errs.append("p: must be positive")
        elif any(cfg.p > int(n) for n in sizes):
            errs.append("p: exceeds the smallest cloud size in the sweep")
    if "labels" in parts:
        if cfg.sigma <= 0:
            errs.append("sigma: must be positive")
        if cfg.noise not in ("gaussian", "probit"):
            errs.append('noise: must be "gaussian" or "probit"')
        if cfg.t < 0:
            errs.append("t: must be nonnegative")
        truth_degree = max(l for (l, _), _ in DEFAULT_TRUTH)
        if cfg.l_max < truth_degree:
            errs.append("l_max: must be at least %d to carry the ground truth"
                        % truth_degree)
    if "gaussian" in parts and cfg.noise == "probit":
        errs.append("noise: %s requires the gaussian model" % cfg.kind)
    if "s_grid" in parts:
        if not cfg.s_grid:
            errs.append("s_grid: must not be empty")
        elif any(x < 0 for x in cfg.s_grid):
            errs.append("s_grid: must be nonnegative, lambda^s is infinite "
                        "on the zero eigenvalue for s < 0")
    if "draws" in parts and cfg.draws < 1:
        errs.append("draws: must be at least 1")
    if cfg.replicates < 1:
        errs.append("replicates: must be at least 1")
    if cfg.seed < 0:
        errs.append("seed: must be nonnegative")
    if cfg.calibration != "sphere" and not (
            _is(cfg.calibration, numbers.Real) and cfg.calibration > 0):
        errs.append('calibration: must be "sphere" or a positive number')
    if cfg.grid_size < 1:
        errs.append("grid_size: must be positive")
    if cfg.knn_k < 1:
        errs.append("knn_k: must be at least 1")
    elif "knn_k" in parts and any(cfg.knn_k > int(n) for n in sizes):
        errs.append("knn_k: exceeds the smallest cloud size in the sweep")
    return errs


# --- shared pieces -------------------------------------------------------


def _calibration(cfg, n):
    if cfg.calibration == "sphere":
        return sphere_calibration(n)
    return float(cfg.calibration)


def _seed_record(cfg, n, replicate):
    """The cloud, data-noise and chain seeds of the point (n, replicate)."""
    return {
        "n": int(n),
        "replicate": int(replicate),
        "cloud_seed": 100 + cfg.seed + replicate,
        "data_seed": 500 + cfg.seed + replicate,
        "chain_seed": 900 + cfg.seed + replicate,
    }


def _cloud(cfg, n, replicate):
    return sample_sphere(n, seed=_seed_record(cfg, n, replicate)["cloud_seed"])


def _basis(cfg, cl, k, eps_multiplier=None):
    eps = default_eps(cl.n, cl.intrinsic_dim,
                      eps_multiplier or cfg.eps_multiplier)
    g = build_eps_graph(cl, eps)
    lap = laplacian(g, calibration=_calibration(cfg, cl.n))
    return eigendecompose(lap, k), eps


def _truncation(cfg, cl):
    if cfg.k_n == "auto":
        m = cl.intrinsic_dim
        return default_truncation(
            cl.n, default_eps(cl.n, m, cfg.eps_multiplier), m)
    return min(int(cfg.k_n), cl.n)


def truth_coefficients(cont):
    """DEFAULT_TRUTH as a coefficient vector in the given harmonic basis."""
    coeffs = np.zeros(cont.count)
    for label, value in DEFAULT_TRUTH:
        coeffs[cont.labels.index(label)] = value
    return coeffs


def _problem(cfg, n, replicate, p=None):
    """Cloud, truncated basis and prior of one (n, replicate) point.

    Given p, also the labels synthesized from DEFAULT_TRUTH at the first p
    cloud points; otherwise the labels are None.
    """
    cl = _cloud(cfg, n, replicate)
    kn = _truncation(cfg, cl)
    basis, _ = _basis(cfg, cl, kn)
    spec = PriorSpec(alpha=cfg.alpha, s=cfg.s, k_n=kn, m=cl.intrinsic_dim)
    y = None
    if p is not None:
        cont = ContinuumBasis(cfg.l_max)
        seed = _seed_record(cfg, n, replicate)["data_seed"]
        y = synthesize_data(truth_coefficients(cont), cont, cfg.t, p, cl,
                            NoiseModel(cfg.noise, cfg.sigma), seed=seed)
    return cl, basis, spec, y


def _chain_problem(cfg, n, p, replicate):
    """Build one posterior end to end, up to its pCN chain.

    Returns the problem, the design matrix, the misfit potential and the
    chain's config.
    """
    cl, basis, spec, y = _problem(cfg, n, replicate, p)
    mat = design_matrix(basis, cfg.t, p)
    phi = potential_from_design_matrix(mat, y,
                                       NoiseModel(cfg.noise, cfg.sigma))
    sc = SamplerConfig(beta=cfg.beta, iterations=cfg.iterations,
                       burn_in=cfg.burn_in, thinning=cfg.thinning,
                       seed=_seed_record(cfg, n, replicate)["chain_seed"])
    return cl, basis, spec, y, mat, phi, sc


def _eigensolver_metrics(points):
    """Solver and largest relative residual per cloud size, keyed by str(n).

    points holds (n, replicate, solver, residual) per basis a run built.
    """
    solver, residual = {}, {}
    for n, _, name, res in points:
        solver[str(n)] = name
        residual[str(n)] = max(res, residual.get(str(n), 0.0))
    return {"eigensolver": solver, "eigen_residual": residual}


def _medians(cfg, results, key):
    """Median of results[(n, r)][key] over the replicates, keyed by str(n)."""
    return {str(n): float(np.median([results[(n, r)][key]
                                     for r in range(cfg.replicates)]))
            for n in cfg.n_grid}


def _sweep_points(cfg, pairs):
    """Chain diagnostics of the sweep points (n, replicate) in pairs, in order.

    Every problem is built first, keeping only what its chain and the
    diagnostics read.  Then all the chains run in one pcn call, each
    keeping the trace of its state at node 1.
    """
    problems = []
    for n, replicate in pairs:
        p = n if cfg.kind == "supervised-sweep" else cfg.p
        _, basis, spec, y, mat, phi, sc = _chain_problem(cfg, n, p, replicate)
        predicted = None
        if cfg.noise == "gaussian":
            predicted = predicted_acceptance(
                mat, spec.truncated_scales(basis) ** 2, y, cfg.sigma,
                cfg.beta, seed=sc.seed)
        problems.append((basis, spec, phi, sc, predicted))
    bases, specs, phis, configs, predicted = zip(*problems)
    chains = pcn(bases, specs, phis, configs,
                 readout=[b.eigenvectors[0, :] for b in bases])
    values = []
    for basis, chain, prediction in zip(bases, chains, predicted):
        iact = integrated_autocorr_time(chain.trace)
        values.append({
            "acceptance": acceptance_rate(chain),
            "stationary_acceptance": stationary_acceptance(chain),
            "predicted_acceptance": prediction,
            "iact": iact,
            "ess": chain.n_retained / iact,
            "solver": basis.solver,
            "residual": basis.residual,
        })
    return values


def _compare_points(cfg, pairs):
    return [_compare_point(cfg, n, replicate) for n, replicate in pairs]


def _compare_point(cfg, n, replicate):
    cl, basis, spec, y = _problem(cfg, n, replicate, cfg.p)
    model = NoiseModel(cfg.noise, cfg.sigma)
    orc = graph_posterior(y, basis, spec, cfg.t, model)
    grid = sphere_mc_grid(cfg.grid_size)
    push = knn_interpolate(orc.mean, cl, cfg.knn_k, grid.points)
    # Continuum prior truncated at the same harmonic count as the graph
    # prior, so the two posteriors see matching model classes.
    l_cont = 0
    while (l_cont + 2) ** 2 <= spec.k_n and l_cont < cfg.l_max:
        l_cont += 1
    co = continuum_posterior(y, ContinuumBasis(l_cont), spec, cfg.t, model,
                             grid.points, cl)
    return {"distance": float(l2_distance(push, co.mean)),
            "solver": basis.solver, "residual": basis.residual}


# Top level so a process pool can pickle it.
def _grid_worker(args):
    points, cfg_json, pairs = args
    return points(ExperimentConfig.from_json(cfg_json), pairs)


def _run_grid(cfg, jobs, points):
    """points(cfg, pairs) over cfg.n_grid x replicates, in `jobs` processes.

    points maps a list of (n, r) pairs to their results, in order.  Worker
    w of W takes pairs w, w+W, w+2W, ... in one call, so a sweep worker's
    chains share one pcn call and the cloud sizes spread evenly over the
    workers.  Returns the results keyed by (n, r) and the points
    (n, r, solver, residual) in grid order.
    """
    pairs = [(n, r) for n in cfg.n_grid for r in range(cfg.replicates)]
    if jobs <= 1 or len(pairs) <= 1:
        values = points(cfg, pairs)
    else:
        from concurrent.futures import ProcessPoolExecutor

        workers = min(jobs, len(pairs))
        args = [(points, cfg.to_json(), pairs[w::workers])
                for w in range(workers)]
        values = [None] * len(pairs)
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for w, part in enumerate(pool.map(_grid_worker, args)):
                values[w::workers] = part
    points = [(n, r, v["solver"], v["residual"])
              for (n, r), v in zip(pairs, values)]
    return dict(zip(pairs, values)), points


# --- CSV / SVG formatting ------------------------------------------------


def _fmt(x):
    if isinstance(x, float):
        return "%.17g" % x
    return str(x)


def _csv(header, rows):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(x) for x in row))
    return "\n".join(lines) + "\n"


def _svg_line_plot(title, xlabel, ylabel, series):
    """Tiny line plot over (label, xs, ys) triples.  Quick-look only.

    Hand-rolled so byte-identical reruns need nothing beyond the stdlib;
    every coordinate is formatted with a fixed precision.
    """
    width, height = 480, 320
    left, right, top, bottom = 56, 16, 28, 40
    pw, ph = width - left - right, height - top - bottom
    xs_all = [x for _, xs, _ in series for x in xs]
    ys_all = [y for _, _, ys in series for y in ys]
    x0, x1 = min(xs_all), max(xs_all)
    y0, y1 = min(ys_all), max(ys_all)
    if x1 == x0:
        x1 = x0 + 1.0
    if y1 == y0:
        y1 = y0 + 1.0

    def px(x):
        return left + pw * (x - x0) / (x1 - x0)

    def py(y):
        return top + ph * (1.0 - (y - y0) / (y1 - y0))

    palette = ("#1f5fa8", "#c44e52", "#55a868", "#8172b2")
    parts = [
        '<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d">'
        % (width, height),
        '<rect width="%d" height="%d" fill="white"/>' % (width, height),
        '<text x="%d" y="18" font-size="13" text-anchor="middle">%s</text>'
        % (width // 2, title),
        '<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="black"/>'
        % (left, top + ph, left + pw, top + ph),
        '<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="black"/>'
        % (left, top, left, top + ph),
        '<text x="%d" y="%d" font-size="11" text-anchor="middle">%s</text>'
        % (left + pw // 2, height - 8, xlabel),
        '<text x="14" y="%d" font-size="11" text-anchor="middle" '
        'transform="rotate(-90 14 %d)">%s</text>'
        % (top + ph // 2, top + ph // 2, ylabel),
    ]
    for tick in (x0, 0.5 * (x0 + x1), x1):
        parts.append(
            '<text x="%.2f" y="%d" font-size="10" text-anchor="middle">'
            "%.4g</text>" % (px(tick), top + ph + 14, tick))
    for tick in (y0, 0.5 * (y0 + y1), y1):
        parts.append(
            '<text x="%d" y="%.2f" font-size="10" text-anchor="end">'
            "%.4g</text>" % (left - 4, py(tick) + 3, tick))
    for i, (label, xs, ys) in enumerate(series):
        color = palette[i % len(palette)]
        pts = " ".join("%.2f,%.2f" % (px(x), py(y)) for x, y in zip(xs, ys))
        parts.append('<polyline points="%s" fill="none" stroke="%s" '
                     'stroke-width="1.5"/>' % (pts, color))
        if label:
            parts.append(
                '<text x="%d" y="%d" font-size="10" fill="%s">%s</text>'
                % (left + pw - 90, top + 14 + 13 * i, color, label))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


# --- experiment bodies ---------------------------------------------------
# Each returns (files: name -> text, metrics, points), with points holding
# (n, replicate, solver, residual) for every basis it built, in build order.


def _run_spectra(cfg, jobs):
    files, errs, series, points = {}, {}, [], []
    cl = _cloud(cfg, cfg.n, 0)
    cont = ContinuumBasis(12)
    lam_cont = cont.eigenvalues
    for mult in cfg.eps_multipliers:
        basis, _ = _basis(cfg, cl, min(50, cfg.n), mult)
        points.append((cfg.n, 0, basis.solver, basis.residual))
        lam = [float(x) for x in basis.eigenvalues]
        rows = [(i + 1, lam[i],
                 float(lam_cont[i]) if i < lam_cont.size else math.nan)
                for i in range(basis.count)]
        files["spectra_eps%g.csv" % mult] = _csv(
            ("index", "graph_lambda", "continuum_lambda"), rows)
        if basis.count >= 9:
            errs["%g" % mult] = float(np.mean(spectral_error(basis, cont, 9)))
        series.append(("eps x%g" % mult,
                       [float(i + 1) for i in range(basis.count)], lam))
    n_rows = len(series[0][1])
    series.append(("sphere", list(range(1, n_rows + 1)),
                   [float(lam_cont[i]) for i in range(n_rows)]))
    files["spectra.svg"] = _svg_line_plot(
        "graph vs sphere spectrum (n=%d)" % cfg.n, "index", "eigenvalue",
        series)
    return files, {"mean_rel_error_modes_2_9": errs}, points


def _run_regularity(cfg, jobs):
    cl = _cloud(cfg, cfg.n, 0)
    basis, eps = _basis(cfg, cl, cfg.n)
    table = regularity_experiment(basis, cl, eps, cfg.s_grid, cfg.draws,
                                  700 + cfg.seed, alpha=cfg.alpha)
    rows = [(s, mx, float(np.log(mx)) if mx > 0 else -math.inf)
            for s, mx in table]
    files = {"regularity.csv": _csv(("s", "max_osc", "log_max_osc"), rows)}
    xs = [s for s, _ in table]
    files["regularity.svg"] = _svg_line_plot(
        "max oscillation of normalized prior draws (n=%d)" % cfg.n,
        "s", "log max osc", [("", xs, [r[2] for r in rows])])
    inversions = sum(1 for i in range(len(table) - 1)
                     if table[i + 1][1] > table[i][1])
    return (files, {"inversions": inversions},
            [(cfg.n, 0, basis.solver, basis.residual)])


def _run_posterior(cfg, jobs):
    cl, basis, spec, y, _, phi, sc = _chain_problem(cfg, cfg.n, cfg.p, 0)
    chain = pcn(basis, spec, phi, sc)
    mean = posterior_mean(chain, basis)
    trace = chain.samples @ basis.eigenvectors[0, :]
    iact = integrated_autocorr_time(trace)
    metrics = {
        "acceptance": acceptance_rate(chain),
        "stationary_acceptance": stationary_acceptance(chain),
        "iact_u_x1": iact,
        "ess_u_x1": chain.n_retained / iact,
    }
    header = ["x", "y", "z", "chain_mean"]
    cols = [cl.points[:, 0], cl.points[:, 1], cl.points[:, 2], mean]
    if cfg.noise == "gaussian":
        orc = graph_posterior(y, basis, spec, cfg.t,
                              NoiseModel(cfg.noise, cfg.sigma))
        header += ["oracle_mean", "oracle_sd"]
        cols += [orc.mean, np.sqrt(orc.variance)]
        ref = l2_distance(orc.mean, np.zeros_like(orc.mean))
        err = l2_distance(mean, orc.mean)
        metrics["rel_l2_mean_error_vs_oracle"] = err / ref if ref else math.nan
    else:
        # probit: classify by the sign of the posterior mean, zero -> +1
        header += ["class"]
        cols += [np.where(mean >= 0.0, 1, -1)]
    rows = list(zip(*[np.asarray(c, dtype=float) for c in cols]))
    files = {"posterior_mean.csv": _csv(header, rows)}
    grid = sphere_mc_grid(cfg.grid_size)
    push = knn_interpolate(mean, cl, 4, grid.points)   # k=4 for fields
    files["pushforward.csv"] = _csv(
        ("x", "y", "z", "value"),
        list(zip(grid.points[:, 0], grid.points[:, 1], grid.points[:, 2],
                 push)))
    return files, metrics, [(cfg.n, 0, basis.solver, basis.residual)]


def _run_sweep(cfg, jobs):
    results, points = _run_grid(cfg, jobs, _sweep_points)
    # medians over replicates; stationary_acceptance counts after burn-in,
    # ess is kept samples / iact, and predicted_acceptance is the
    # closed-form posterior's
    names = ["acceptance", "iact", "ess", "stationary_acceptance"]
    if cfg.noise == "gaussian":
        names.append("predicted_acceptance")
    metrics = {name: _medians(cfg, results, name) for name in names}
    acc_rows = [(n, metrics["acceptance"][str(n)]) for n in cfg.n_grid]
    iact_rows = [(n, metrics["iact"][str(n)]) for n in cfg.n_grid]
    run_rows = [(r, n, results[(n, r)]["acceptance"], results[(n, r)]["iact"])
                for n in cfg.n_grid for r in range(cfg.replicates)]
    files = {
        "acceptance.csv": _csv(("n", "acceptance"), acc_rows),
        "iact.csv": _csv(("n", "iact"), iact_rows),
        "acceptance_runs.csv": _csv(("replicate", "n", "acceptance", "iact"),
                                    run_rows),
    }
    files["acceptance.svg"] = _svg_line_plot(
        "pCN acceptance rate" + (" (p = n)" if cfg.kind == "supervised-sweep"
                                 else " (p = %d)" % cfg.p),
        "n", "acceptance",
        [("", [float(n) for n, _ in acc_rows], [a for _, a in acc_rows])])
    return files, metrics, points


def _run_compare(cfg, jobs):
    results, points = _run_grid(cfg, jobs, _compare_points)
    rows = [(r, n, results[(n, r)]["distance"])
            for n in cfg.n_grid for r in range(cfg.replicates)]
    medians = _medians(cfg, results, "distance")
    files = {"consistency.csv": _csv(("replicate", "n", "distance"), rows)}
    files["consistency.svg"] = _svg_line_plot(
        "graph vs continuum posterior mean", "n", "L2 distance",
        [("", [float(n) for n in cfg.n_grid],
          [medians[str(n)] for n in cfg.n_grid])])
    return files, {"median_distance": medians}, points


def _run_prior_sample(cfg, jobs):
    cl, basis, spec, _ = _problem(cfg, cfg.n, 0)
    draws = [sample_graph_prior(basis, spec, 700 + cfg.seed + j)
             for j in range(cfg.draws)]
    header = ["x", "y", "z"] + ["draw_%d" % j for j in range(cfg.draws)]
    cols = [cl.points[:, 0], cl.points[:, 1], cl.points[:, 2]]
    cols += draws
    files = {"prior_draws.csv": _csv(header, list(zip(*cols)))}
    return files, {}, [(cfg.n, 0, basis.solver, basis.residual)]


# kind -> (runner, catalog line, the parts validate_config checks: cloud
# sizes from "n_grid", the prior's "s", "chain", "p", "labels", "gaussian"
# noise only, "draws", "s_grid", "eps_multipliers", "knn_k", "pushforward")
_KINDS = {
    "spectra": (_run_spectra, "graph Laplacian eigenvalues vs the sphere "
                "spectrum, one CSV per bandwidth multiplier",
                ("eps_multipliers",)),
    "regularity": (_run_regularity, "max oscillation of seminorm-normalized "
                   "prior draws over a smoothness grid", ("s_grid", "draws")),
    "posterior": (_run_posterior, "one full pCN run with closed-form "
                  "cross-check and pushforward field",
                  ("s", "chain", "p", "labels", "pushforward")),
    "acceptance-sweep": (_run_sweep, "pCN acceptance rate and nodal IACT "
                         "over a cloud-size grid at fixed p",
                         ("n_grid", "s", "chain", "p", "labels")),
    "supervised-sweep": (_run_sweep, "same sweep with every point labeled "
                         "(p = n)", ("n_grid", "s", "chain", "labels")),
    "oracle-compare": (_run_compare, "graph posterior mean vs continuum "
                       "posterior mean on a Monte Carlo grid, over a "
                       "cloud-size grid",
                       ("n_grid", "s", "p", "labels", "gaussian", "knn_k")),
    "prior-sample": (_run_prior_sample, "raw prior draws as nodal fields",
                     ("s", "draws")),
}
KINDS = tuple(_KINDS)


def catalog():
    """One-line description per experiment kind."""
    return {kind: line for kind, (_, line, _) in _KINDS.items()}


def run_experiment(cfg, out_dir=None, jobs=1):
    """Run one experiment; returns the manifest path.

    Results are computed fully before anything is written.  If writing
    fails partway, files written by this call are removed again.
    """
    errs = validate_config(cfg)
    if errs:
        raise ValueError("invalid config:\n  " + "\n  ".join(errs))
    out = out_dir if out_dir is not None else cfg.out
    start = time.time()
    files, metrics, points = _KINDS[cfg.kind][0](cfg, jobs)
    metrics.update(_eigensolver_metrics(points))
    built = dict.fromkeys((n, r) for n, r, _, _ in points)
    manifest = {
        "schema": SCHEMA_VERSION,
        "config": json.loads(cfg.to_json()),
        "kind": cfg.kind,
        "outputs": sorted(files),
        "seeds": [_seed_record(cfg, n, r) for n, r in built],
        "metrics": metrics,
        "versions": _versions(),
        "wall_time_s": round(time.time() - start, 3),
    }
    os.makedirs(out, exist_ok=True)
    written = []
    try:
        for name in sorted(files):
            path = os.path.join(out, name)
            written.append(path)       # before open: creation counts
            with open(path, "w") as fh:
                fh.write(files[name])
        path = os.path.join(out, "manifest.json")
        written.append(path)
        with open(path, "w") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")
    except BaseException:
        for path in written:
            try:
                os.remove(path)
            except OSError:
                pass
        raise
    return os.path.join(out, "manifest.json")


def _versions():
    import platform

    import scipy

    return {
        "package": __version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }
