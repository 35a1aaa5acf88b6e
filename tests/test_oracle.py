"""Closed-form posterior checks, anchored by a fully hand-worked tiny graph
and by the p x p kernel formula evaluated in exact rational arithmetic."""

import logging
import math
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from scipy import special

from graphheat import experiments as ex
from graphheat import (
    ContinuumBasis,
    NoiseModel,
    PointCloud,
    PriorSpec,
    SamplerConfig,
    SpectralBasis,
    build_eps_graph,
    coefficient_posterior,
    continuum_posterior,
    design_matrix,
    eigendecompose,
    graph_posterior,
    kernel_weight,
    laplace_surrogate,
    laplacian,
    pcn,
    potential_from_design_matrix,
    predicted_acceptance,
    sample_sphere,
)


def prior_variance(spec, basis):
    # c_u(x, x) = sum_i d_i psi_i(x)^2 over the retained modes
    d_u = spec.truncated_scales(basis) ** 2
    return (basis.eigenvectors[:, :d_u.shape[0]] ** 2) @ d_u


def two_node_setup():
    cl = PointCloud([[0.0, 0.0], [1.0, 0.0]], 1)
    basis = eigendecompose(laplacian(build_eps_graph(cl, 1.5)), 2)
    spec = PriorSpec(alpha=1.0, s=4.0, k_n=2, m=1)
    return cl, basis, spec


def test_two_node_posterior_by_hand():
    # Eigenpairs: lambda = (0, 2w) with vectors (1,1) and (1,-1), w the
    # common kernel weight.  Observing node 0 through the heat map at time t
    # gives scalar formulas, written out below with no linear algebra.
    cl, basis, spec = two_node_setup()
    w = kernel_weight(2, 1, 1.5)
    t, sigma, y = 0.5, 0.3, 0.7

    d0, d1 = 1.0, (1.0 + 2.0 * w) ** -2.0     # (alpha+lambda)^(-s/2)
    e0, e1 = 1.0, math.exp(-2.0 * w * t)
    cv = d0 + d1 * e1 * e1                    # Cov of the noisy observable
    cw_at0 = d0 + d1 * e1                     # cross-cov, query node 0
    cw_at1 = d0 - d1 * e1                     # query node 1 flips psi_2
    cu = d0 + d1                              # prior pointwise variance
    denom = cv + sigma * sigma

    got = graph_posterior(np.array([y]), basis, spec, t,
                          NoiseModel("gaussian", sigma))
    assert got.mean[0] == pytest.approx(cw_at0 * y / denom, rel=1e-12)
    assert got.mean[1] == pytest.approx(cw_at1 * y / denom, rel=1e-12)
    assert got.variance[0] == pytest.approx(cu - cw_at0**2 / denom, rel=1e-12)
    assert got.variance[1] == pytest.approx(cu - cw_at1**2 / denom, rel=1e-12)


def test_variance_ignores_labels():
    cl, basis, spec = two_node_setup()
    model = NoiseModel("gaussian", 0.3)
    pa = graph_posterior(np.array([0.7]), basis, spec, 0.5, model)
    pb = graph_posterior(np.array([-2.0]), basis, spec, 0.5, model)
    assert np.array_equal(pa.variance, pb.variance)
    assert not np.array_equal(pa.mean, pb.mean)


def test_posterior_variance_below_prior(basis120):
    spec = PriorSpec(alpha=1.0, s=5.0, k_n=basis120.count)
    rng = np.random.default_rng(0)
    y = rng.standard_normal(25)
    post = graph_posterior(y, basis120, spec, 0.2, NoiseModel("gaussian", 0.1))
    prior_var = prior_variance(spec, basis120)
    assert np.all(post.variance <= prior_var + 1e-12)
    assert np.all(post.variance >= 0.0)


def test_kernel_damping_relations(basis120):
    # The posterior is the kernel formula of the module docstring, with c_v
    # and c_w the prior series damped by exp(-2 lambda t) and exp(-lambda t).
    spec = PriorSpec(alpha=1.0, s=5.0, k_n=10)
    t, sigma = 0.4, 0.3
    lam = basis120.eigenvalues[:10]
    d_u = spec.coefficient_scales(lam) ** 2
    assert np.array_equal(spec.truncated_scales(basis120) ** 2, d_u)
    psi = basis120.eigenvectors[:, :10]
    c_u = psi @ np.diag(d_u) @ psi.T
    c_v = psi @ np.diag(d_u * np.exp(-2.0 * lam * t)) @ psi.T
    c_w = psi @ np.diag(d_u * np.exp(-lam * t)) @ psi.T
    assert np.allclose(prior_variance(spec, basis120), np.diag(c_u),
                       rtol=1e-12)
    obs = [0, 1, 2]
    y = np.array([0.3, -0.2, 0.8])
    post = graph_posterior(y, basis120, spec, t, NoiseModel("gaussian", sigma))
    a = c_v[np.ix_(obs, obs)] + sigma**2 * np.eye(3)
    assert np.allclose(post.mean, c_w[:, obs] @ np.linalg.solve(a, y),
                       rtol=1e-10)
    gain = np.linalg.solve(a, c_w[obs, :])
    assert np.allclose(post.variance,
                       np.diag(c_u) - np.sum(c_w[:, obs] * gain.T, axis=1),
                       rtol=1e-10, atol=1e-14)


def test_weak_noise_recovers_labels(basis120):
    # p = n, t = 0, sigma tiny: the posterior mean interpolates the labels
    # up to the truncation of the prior to the retained span
    spec = PriorSpec(alpha=1.0, s=5.0, k_n=basis120.count)
    truth = basis120.synthesize(
        np.random.default_rng(1).standard_normal(basis120.count) * 0.2
    )
    post = graph_posterior(truth, basis120, spec, 0.0,
                           NoiseModel("gaussian", 1e-6))
    assert np.allclose(post.mean, truth, atol=1e-4)
    assert np.max(post.variance) < 1e-6


def test_strong_noise_reverts_to_prior(basis120):
    spec = PriorSpec(alpha=1.0, s=5.0, k_n=20)
    post = graph_posterior(np.array([5.0]), basis120, spec, 0.1,
                           NoiseModel("gaussian", 1e6))
    assert np.max(np.abs(post.mean)) < 1e-6
    assert np.allclose(post.variance, prior_variance(spec, basis120),
                       rtol=1e-6)


def test_near_zero_noise_jitter_path(basis120):
    spec = PriorSpec(alpha=1.0, s=5.0, k_n=basis120.count)
    y = np.array([0.4, -0.1])
    post = graph_posterior(y, basis120, spec, 0.0,
                           NoiseModel("gaussian", 1e-12))
    assert np.all(np.isfinite(post.mean))
    assert np.allclose(post.mean[:2], y, atol=1e-3)


def test_probit_data_rejected(basis120):
    spec = PriorSpec(alpha=1.0, s=5.0, k_n=10)
    model = NoiseModel("probit", 0.5)
    with pytest.raises(ValueError, match="gaussian noise"):
        graph_posterior(np.array([1.0]), basis120, spec, 0.1, model)
    cl = sample_sphere(10, seed=1)
    with pytest.raises(ValueError, match="gaussian noise"):
        continuum_posterior(np.array([1.0]), ContinuumBasis(2), spec, 0.1,
                            model, cl.points, cl)


def test_labels_must_be_a_vector(basis120):
    spec = PriorSpec(alpha=1.0, s=5.0, k_n=10)
    with pytest.raises(ValueError, match=r"labels must be a vector.*\(3, 1\)"):
        graph_posterior(np.ones((3, 1)), basis120, spec, 0.1,
                        NoiseModel("gaussian", 0.5))


def test_continuum_posterior_small_case():
    cl = sample_sphere(60, seed=5)
    cont = ContinuumBasis(2)
    spec = PriorSpec(alpha=1.0, s=5.0, k_n=None)
    rng = np.random.default_rng(6)
    coeffs = rng.standard_normal(cont.count) * 0.5
    truth_at = cont.synthesize(coeffs, cl.points[:10])
    post = continuum_posterior(truth_at, cont, spec, 0.0,
                               NoiseModel("gaussian", 1e-6), cl.points[:10],
                               cl)
    assert np.allclose(post.mean, truth_at, atol=1e-3)


@pytest.mark.parametrize("t", [0.0, 0.1, 0.2])
@pytest.mark.parametrize("sigma", [0.05, 0.1, 1.0])
# the first 20 nodes (p = k = 20), and every node (p = n, as in the
# supervised sweep)
@pytest.mark.parametrize("p", [20, 120], ids=["pointwise", "supervised"])
def test_matches_coefficient_space_posterior(basis120, t, sigma, p):
    # Independent closed form: with G(a) = M a for the design matrix M the
    # chains use, the coefficient posterior is N(mu, C) with precision
    # D_u^-1 + M^T M / sigma^2; at the nodes it has mean Psi mu and
    # variance diag(Psi C Psi^T).
    spec = PriorSpec(alpha=1.0, s=5.0, k_n=basis120.count)
    y = np.random.default_rng(4).standard_normal(p)
    post = graph_posterior(y, basis120, spec, t, NoiseModel("gaussian", sigma))

    mat = design_matrix(basis120, t, p)
    d_u = spec.coefficient_scales(basis120.eigenvalues) ** 2
    cov = np.linalg.inv(np.diag(1.0 / d_u) + mat.T @ mat / sigma**2)
    mu = cov @ mat.T @ y / sigma**2
    psi = basis120.eigenvectors
    for got, want in ((post.mean, psi @ mu),
                      (post.variance, np.sum((psi @ cov) * psi, axis=1))):
        assert np.max(np.abs(got - want)) <= 1e-9 * np.max(np.abs(want))


# --- the kernel formula in exact arithmetic --------------------------------


def exact_solve(a, b):
    """a^-1 b by Gauss-Jordan elimination over the rationals."""
    n = len(a)
    rows = [list(a[i]) + list(b[i]) for i in range(n)]
    for col in range(n):
        piv = next(r for r in range(col, n) if rows[r][col] != 0)
        rows[col], rows[piv] = rows[piv], rows[col]
        inv = 1 / rows[col][col]
        rows[col] = [x * inv for x in rows[col]]
        for r in range(n):
            f = rows[r][col]
            if r != col and f != 0:
                rows[r] = [x - f * z for x, z in zip(rows[r], rows[col])]
    return [row[n:] for row in rows]


def kernel_reference(rows, queries, d_u, y, sigma):
    """Mean and covariance at the query features by the p x p kernel formula.

    With c_v = R D R^T + sigma^2 I over the design rows R and the cross
    covariance c_w = Q D R^T to the query features Q:
      mean = c_w c_v^-1 y,   cov = Q D Q^T - c_w c_v^-1 c_w^T,
    evaluated exactly on the rationals the float inputs stand for, so no
    conditioning limits it however small sigma is.
    """
    def exact(a):
        return [[Fraction(float(v)) for v in row] for row in np.atleast_2d(a)]

    r, q = exact(rows), exact(queries)
    d = [Fraction(float(v)) for v in d_u]
    s2 = Fraction(float(sigma)) ** 2

    def dot(a, b):
        return sum(x * di * z for x, di, z in zip(a, d, b))

    c_v = [[dot(a, b) + (s2 if i == j else 0) for j, b in enumerate(r)]
           for i, a in enumerate(r)]
    c_w = [[dot(a, b) for b in r] for a in q]
    rhs = [[c_w[j][i] for j in range(len(q))] + [Fraction(float(y[i]))]
           for i in range(len(r))]
    sol = exact_solve(c_v, rhs)
    mean = [sum(c_w[j][i] * sol[i][-1] for i in range(len(r)))
            for j in range(len(q))]
    cov = [[dot(q[a], q[b]) - sum(c_w[a][i] * sol[i][b] for i in range(len(r)))
            for b in range(len(q))] for a in range(len(q))]
    return np.array(mean, dtype=float), np.array(cov, dtype=float)


def assert_close(got, want, rtol):
    assert np.max(np.abs(got - want)) <= rtol * np.max(np.abs(want))


SIGMAS = [1e-12, 1e-6, 0.1, 1e6]


@pytest.mark.parametrize("sigma", SIGMAS)
@pytest.mark.parametrize("p", [3, 6, 10])
def test_coefficient_posterior_matches_exact_kernel_form(p, sigma):
    # k = 6 modes against fewer, as many and more labels; entries on a
    # 1/8 grid and dyadic prior variances keep the rationals small.
    rng = np.random.default_rng(p)
    k = 6
    mat = np.round(8 * rng.standard_normal((p, k))) / 8
    y = np.round(8 * rng.standard_normal(p)) / 8
    d_u = 2.0 ** -np.arange(k)
    mean, cov = coefficient_posterior(mat, d_u, y, sigma)
    want_mean, want_cov = kernel_reference(mat, np.eye(k), d_u, y, sigma)
    assert_close(mean, want_mean, 1e-12)
    assert_close(cov, want_cov, 1e-12)
    assert np.array_equal(cov, cov.T)
    assert np.min(np.linalg.eigvalsh(cov)) >= -1e-15 * np.max(d_u)


@pytest.mark.parametrize("sigma", SIGMAS)
@pytest.mark.parametrize("p", [4, 9, 12])
def test_continuum_posterior_matches_exact_kernel_form(p, sigma):
    # l_max = 2 carries k = 9 harmonics; queries off the labeled points
    cl = sample_sphere(p + 5, seed=p)
    cont = ContinuumBasis(2)
    spec = PriorSpec(alpha=1.0, s=5.0, k_n=None)
    t = 0.1
    y = np.random.default_rng(p).standard_normal(p)
    query = cl.points[p - 2:]
    post = continuum_posterior(y, cont, spec, t, NoiseModel("gaussian", sigma),
                               query, cl)
    d_u = spec.coefficient_scales(cont.eigenvalues) ** 2
    rows = cont.evaluate(cl.points[:p]) * np.exp(-cont.eigenvalues * t)
    mean, cov = kernel_reference(rows, cont.evaluate(query), d_u, y, sigma)
    assert_close(post.mean, mean, 1e-12)
    assert_close(post.variance, np.diag(cov), 1e-12)


def test_graph_posterior_memory_is_linear_in_labels():
    # p = n = 4000: the kernel form held 4000 x 4000 matrices (over 100 MB)
    n, k = 4000, 16
    rng = np.random.default_rng(0)
    vecs = np.linalg.qr(rng.standard_normal((n, k)))[0] * np.sqrt(n)
    basis = SpectralBasis(np.linspace(0.0, 30.0, k), vecs, "dense", 0.0)
    spec = PriorSpec(alpha=1.0, s=5.0, k_n=k)
    y, model = rng.standard_normal(n), NoiseModel("gaussian", 0.1)
    tracemalloc.start()
    try:
        post = graph_posterior(y, basis, spec, 0.1, model)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert post.mean.shape == (n,)
    assert peak < 20e6


@pytest.mark.parametrize("p", [3, 30])
def test_predicted_acceptance_matches_direct_draws(p):
    # Direct Monte Carlo in the original coordinates: a ~ N(mu, C) through
    # a Cholesky factor, the pCN proposal with the prior scales, and the
    # misfit as the quadratic form a^T H a / 2 - g^T a.
    rng = np.random.default_rng(p)
    k, sigma = 5, 0.5
    mat = rng.standard_normal((p, k))
    y = rng.standard_normal(p)
    d_u = 1.0 / (1.0 + np.arange(k)) ** 2
    mean, cov = coefficient_posterior(mat, d_u, y, sigma)
    h = mat.T @ mat / sigma**2
    g = mat.T @ y / sigma**2
    draws = 200000
    a = mean + rng.standard_normal((draws, k)) @ np.linalg.cholesky(cov).T
    xi = rng.standard_normal((draws, k))

    def misfit(x):
        return 0.5 * np.einsum("ij,jk,ik->i", x, h, x) - x @ g

    for beta in (0.05, 0.3, 0.9):
        moved = np.sqrt(1.0 - beta**2) * a + beta * np.sqrt(d_u) * xi
        direct = np.minimum(1.0, np.exp(misfit(a) - misfit(moved))).mean()
        got = predicted_acceptance(mat, d_u, y, sigma, beta, draws=draws,
                                   seed=p)
        # each estimate has standard error below 0.5 / sqrt(draws)
        assert got == pytest.approx(direct, abs=0.006)
    with pytest.raises(ValueError):
        predicted_acceptance(mat, d_u, y, sigma, 0.0)
    for draws in (0, -5):
        with pytest.raises(ValueError, match="draws"):
            predicted_acceptance(mat, d_u, y, sigma, 0.3, draws=draws)


def test_predicted_acceptance_ignores_singular_vector_signs():
    # Negating the labels or the design flips signs of U^T y; the estimate
    # must not move with them.  The design is an acceptance sweep's n = 300
    # point (cloud seed 100, k = 16, p = 40).
    cfg = ex.ExperimentConfig(kind="acceptance-sweep", n_grid=(300,), p=40,
                              k_n=16, beta=0.01)
    _, basis, spec, y, mat, _, sc = ex._chain_problem(cfg, 300, 40, 0)
    d_u = spec.truncated_scales(basis) ** 2

    def estimate(m, labels):
        return predicted_acceptance(m, d_u, labels, cfg.sigma, cfg.beta,
                                    seed=sc.seed)

    base = estimate(mat, y)
    assert estimate(mat, -y) == base
    assert estimate(-mat, y) == pytest.approx(base, rel=1e-12, abs=0)


def probit_problem(p, k, sigma, seed, noise=0.3):
    """Random p x k design, prior variances and +-1 labels from a truth."""
    rng = np.random.default_rng(seed)
    mat = rng.standard_normal((p, k))
    d_u = 1.0 / (1.0 + np.arange(k))
    truth = np.sqrt(d_u) * rng.standard_normal(k)
    y = np.where(mat @ truth + noise * rng.standard_normal(p) >= 0, 1.0, -1.0)
    return mat, d_u, y


def surrogate_map(surrogate, d_u):
    # minimizer of |z - R a|^2 + c + a^T D^-1 a / 2
    r, z = surrogate.matrix, surrogate.target
    return np.linalg.solve(2.0 * r.T @ r + np.diag(1.0 / d_u), 2.0 * r.T @ z)


def probit_gradient(mat, y, sigma, d_u, a):
    # gradient of Phi(a) + a^T D^-1 a / 2, with lambda = psi / Psi
    t = y * (mat @ a) / sigma
    lam = np.exp(-0.5 * t * t - 0.5 * math.log(2 * math.pi)
                 - special.log_ndtr(t))
    return a / d_u - mat.T @ (y * lam) / sigma


def test_laplace_surrogate_is_the_expansion_at_the_map(caplog):
    # At the MAP the gradient of Phi + a^T D^-1 a / 2 vanishes, and the
    # surrogate's differences are Phi's second-order Taylor expansion
    # there: central first and second differences agree to relative
    # O(h^2), the order of the expansion's remainder.
    sigma = 0.5
    mat, d_u, y = probit_problem(60, 5, sigma, seed=3)
    model = NoiseModel("probit", sigma)
    with caplog.at_level(logging.INFO, logger="graphheat.oracle"):
        surrogate = laplace_surrogate(mat, y, model, d_u)
    assert re.search(r"Laplace fit: \d+ Newton steps, gradient norm",
                     caplog.text)
    a = surrogate_map(surrogate, d_u)
    scale = np.abs(mat.T @ y).max() / sigma
    assert np.abs(probit_gradient(mat, y, sigma, d_u, a)).max() < 1e-10 * scale
    phi = potential_from_design_matrix(mat, y, model)
    rng = np.random.default_rng(4)
    direction = rng.standard_normal(5)
    for h in (1e-2, 1e-3, 1e-4):
        d = h * direction
        slope = [f(a + d) - f(a - d) for f in (phi, surrogate)]
        curve = [f(a + d) + f(a - d) - 2.0 * f(a) for f in (phi, surrogate)]
        assert slope[1] == pytest.approx(slope[0], rel=50 * h * h)
        assert curve[1] == pytest.approx(curve[0], rel=50 * h * h)


def test_laplace_surrogate_refuses_gaussian_noise():
    mat, d_u, y = probit_problem(10, 3, 0.5, seed=3)
    with pytest.raises(ValueError, match="probit"):
        laplace_surrogate(mat, y, NoiseModel("gaussian", 0.5), d_u)


def test_laplace_surrogate_at_large_margins():
    # Noiseless labels at sigma = 1e-3 put most margins at the MAP far
    # beyond 38, where the curvature w underflows to 0; those rows drop
    # out, the surrogate stays finite, and the screened chain moves.
    sigma = 1e-3
    mat, d_u, y = probit_problem(60, 5, sigma, seed=5, noise=0.0)
    model = NoiseModel("probit", sigma)
    surrogate = laplace_surrogate(mat, y, model, d_u)
    for part in (surrogate.matrix, surrogate.target, surrogate.offset):
        assert np.all(np.isfinite(part))
    margins = y * (mat @ surrogate_map(surrogate, d_u)) / sigma
    assert np.sum(margins > 40.0) > 10
    # prior variances (0 + lambda_i)^(-2/2) = d_u
    basis = SpectralBasis(1.0 + np.arange(5), np.eye(5), "dense", 0.0)
    spec = PriorSpec(alpha=0.0, s=2.0, m=1)
    assert np.allclose(spec.truncated_scales(basis) ** 2, d_u)
    cfg = SamplerConfig(beta=0.05, iterations=3000, seed=6)
    chain = pcn(basis, spec, potential_from_design_matrix(mat, y, model), cfg,
                surrogate=surrogate)
    assert np.all(np.isfinite(chain.samples))
    assert 0 < chain.accepted < chain.potential_calls - 1 < cfg.iterations
    assert len(np.unique(chain.samples[:, 0])) > 1
