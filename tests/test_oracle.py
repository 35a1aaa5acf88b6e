"""Closed-form posterior checks, anchored by a fully hand-worked tiny graph."""

import math

import numpy as np
import pytest

from graphheat import (
    ContinuumBasis,
    LabeledData,
    ObservationDesign,
    PointCloud,
    PriorSpec,
    build_eps_graph,
    continuum_posterior,
    design_matrix,
    eigendecompose,
    first_p_design,
    graph_posterior,
    kernel_weight,
    laplacian,
    sample_sphere,
)
from graphheat.oracle import covariance_kernels


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

    data = LabeledData(np.array([y]), first_p_design(1), t, "gaussian", sigma)
    got = graph_posterior(data, basis, spec, t, sigma)
    assert got.mean[0] == pytest.approx(cw_at0 * y / denom, rel=1e-12)
    assert got.mean[1] == pytest.approx(cw_at1 * y / denom, rel=1e-12)
    assert got.variance[0] == pytest.approx(cu - cw_at0**2 / denom, rel=1e-12)
    assert got.variance[1] == pytest.approx(cu - cw_at1**2 / denom, rel=1e-12)


def test_variance_ignores_labels():
    cl, basis, spec = two_node_setup()
    design = first_p_design(1)
    a = LabeledData(np.array([0.7]), design, 0.5, "gaussian", 0.3)
    b = LabeledData(np.array([-2.0]), design, 0.5, "gaussian", 0.3)
    pa = graph_posterior(a, basis, spec, 0.5, 0.3)
    pb = graph_posterior(b, basis, spec, 0.5, 0.3)
    assert np.array_equal(pa.variance, pb.variance)
    assert not np.array_equal(pa.mean, pb.mean)


def test_posterior_variance_below_prior(basis120):
    spec = PriorSpec(alpha=1.0, s=5.0, k_n=basis120.count)
    kern = covariance_kernels(spec, 0.2, basis120)
    rng = np.random.default_rng(0)
    y = rng.standard_normal(25)
    data = LabeledData(y, first_p_design(25), 0.2, "gaussian", 0.1)
    post = graph_posterior(data, basis120, spec, 0.2, 0.1)
    prior_var = kern.prior_variance()
    assert np.all(post.variance <= prior_var + 1e-12)
    assert np.all(post.variance >= 0.0)


def test_kernel_damping_relations(basis120):
    # The posterior is the kernel formula of the module docstring, with c_v
    # and c_w the prior series damped by exp(-2 lambda t) and exp(-lambda t).
    spec = PriorSpec(alpha=1.0, s=5.0, k_n=10)
    t, sigma = 0.4, 0.3
    kern = covariance_kernels(spec, t, basis120)
    lam = basis120.eigenvalues[:10]
    assert np.array_equal(kern.d_u, spec.coefficient_scales(lam) ** 2)
    psi = basis120.eigenvectors[:, :10]
    c_u = psi @ np.diag(kern.d_u) @ psi.T
    c_v = psi @ np.diag(kern.d_u * np.exp(-2.0 * lam * t)) @ psi.T
    c_w = psi @ np.diag(kern.d_u * np.exp(-lam * t)) @ psi.T
    assert np.allclose(kern.prior_variance(), np.diag(c_u), rtol=1e-12)
    obs = [0, 5, 9]
    y = np.array([0.3, -0.2, 0.8])
    data = LabeledData(y, ObservationDesign(obs), t, "gaussian", sigma)
    post = graph_posterior(data, basis120, spec, t, sigma)
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
    data = LabeledData(truth[:120], first_p_design(120), 0.0, "gaussian", 1e-6)
    post = graph_posterior(data, basis120, spec, 0.0, 1e-6)
    assert np.allclose(post.mean, truth, atol=1e-4)
    assert np.max(post.variance) < 1e-6


def test_strong_noise_reverts_to_prior(basis120):
    spec = PriorSpec(alpha=1.0, s=5.0, k_n=20)
    kern = covariance_kernels(spec, 0.1, basis120)
    data = LabeledData(np.array([5.0]), first_p_design(1), 0.1, "gaussian", 1e6)
    post = graph_posterior(data, basis120, spec, 0.1, 1e6)
    assert np.max(np.abs(post.mean)) < 1e-6
    assert np.allclose(post.variance, kern.prior_variance(), rtol=1e-6)


def test_near_zero_noise_jitter_path(basis120):
    spec = PriorSpec(alpha=1.0, s=5.0, k_n=basis120.count)
    y = np.array([0.4, -0.1])
    data = LabeledData(y, first_p_design(2), 0.0, "gaussian", 1e-12)
    post = graph_posterior(data, basis120, spec, 0.0, 1e-12)
    assert np.all(np.isfinite(post.mean))
    assert np.allclose(post.mean[:2], y, atol=1e-3)


def test_probit_data_rejected(basis120):
    spec = PriorSpec(alpha=1.0, s=5.0, k_n=10)
    data = LabeledData(np.array([1.0]), first_p_design(1), 0.1, "probit", 0.5)
    with pytest.raises(ValueError):
        graph_posterior(data, basis120, spec, 0.1, 0.5)


def test_ball_design_needs_cloud(sphere120, basis120):
    spec = PriorSpec(alpha=1.0, s=5.0, k_n=10)
    design = ObservationDesign((0, 4), mode="ball", delta=0.4)
    y = np.array([0.2, -0.3])
    data = LabeledData(y, design, 0.1, "gaussian", 0.2)
    post = graph_posterior(data, basis120, spec, 0.1, 0.2, cloud=sphere120)
    assert post.mean.shape == (120,)
    assert np.all(np.isfinite(post.mean))


def test_continuum_posterior_small_case():
    cl = sample_sphere(60, seed=5)
    cont = ContinuumBasis(2)
    spec = PriorSpec(alpha=1.0, s=5.0, k_n=None)
    rng = np.random.default_rng(6)
    coeffs = rng.standard_normal(cont.count) * 0.5
    truth_at = cont.synthesize(coeffs, cl.points[:10])
    data = LabeledData(truth_at, first_p_design(10), 0.0, "gaussian", 1e-6)
    post = continuum_posterior(data, cont, spec, 0.0, 1e-6, cl.points[:10], cl)
    assert np.allclose(post.mean, truth_at, atol=1e-3)
    ball = ObservationDesign((0,), mode="ball", delta=0.3)
    bad = LabeledData(np.array([0.1]), ball, 0.0, "gaussian", 0.1)
    with pytest.raises(ValueError):
        continuum_posterior(bad, cont, spec, 0.0, 0.1, cl.points[:1], cl)


@pytest.mark.parametrize("t", [0.0, 0.1, 0.2])
@pytest.mark.parametrize("sigma", [0.05, 0.1, 1.0])
@pytest.mark.parametrize("mode", ["pointwise", "ball"])
def test_matches_coefficient_space_posterior(sphere120, basis120, t, sigma,
                                             mode):
    # Independent closed form: with G(a) = M a for the design matrix M the
    # chains use, the coefficient posterior is N(mu, C) with precision
    # D_u^-1 + M^T M / sigma^2; at the nodes it has mean Psi mu and
    # variance diag(Psi C Psi^T).
    spec = PriorSpec(alpha=1.0, s=5.0, k_n=basis120.count)
    if mode == "ball":
        design = ObservationDesign(range(0, 60, 3), "ball", 0.4)
        cloud = sphere120
    else:
        design, cloud = ObservationDesign(range(0, 60, 3)), None
    y = np.random.default_rng(4).standard_normal(design.p)
    post = graph_posterior(LabeledData(y, design, t, "gaussian", sigma),
                           basis120, spec, t, sigma, cloud=cloud)

    mat = design_matrix(basis120, t, design, sphere120)
    d_u = spec.coefficient_scales(basis120.eigenvalues) ** 2
    cov = np.linalg.inv(np.diag(1.0 / d_u) + mat.T @ mat / sigma**2)
    mu = cov @ mat.T @ y / sigma**2
    psi = basis120.eigenvectors
    for got, want in ((post.mean, psi @ mu),
                      (post.variance, np.sum((psi @ cov) * psi, axis=1))):
        assert np.max(np.abs(got - want)) <= 1e-9 * np.max(np.abs(want))
