"""Chain mechanics, exactness on conjugate targets, and the IACT estimator."""

import logging
import math

import numpy as np
import pytest

from graphheat import (
    PriorSpec,
    SamplerConfig,
    acceptance_rate,
    integrated_autocorr_time,
    pcn,
    posterior_mean,
    rwm,
)

ZERO_POTENTIAL = lambda a: 0.0


class FlatBasis:
    """Stand-in basis: k unit-eigenvalue modes over an abstract cloud."""

    def __init__(self, k, n=None):
        self.count = k
        self.n = n or k
        self.eigenvalues = np.ones(k)
        self.eigenvectors = np.eye(self.n, k)

    def synthesize(self, coeffs):
        return self.eigenvectors @ coeffs


SPEC = PriorSpec(alpha=0.0, s=4.0, k_n=None, m=2)
# alpha=0 with unit eigenvalues gives unit prior scales


def test_config_validation():
    with pytest.raises(ValueError):
        SamplerConfig(beta=0.0, iterations=10)
    with pytest.raises(ValueError):
        SamplerConfig(beta=1.5, iterations=10)
    with pytest.raises(ValueError):
        SamplerConfig(beta=0.5, iterations=0)
    with pytest.raises(ValueError):
        SamplerConfig(beta=0.5, iterations=10, burn_in=10)
    with pytest.raises(ValueError):
        SamplerConfig(beta=0.5, iterations=10, thinning=0)


def test_chain_deterministic():
    cfg = SamplerConfig(beta=0.4, iterations=500, burn_in=100, seed=21)
    a = pcn(FlatBasis(3), SPEC, ZERO_POTENTIAL, cfg)
    b = pcn(FlatBasis(3), SPEC, ZERO_POTENTIAL, cfg)
    assert np.array_equal(a.samples, b.samples)
    assert a.accepted == b.accepted


def test_retention_bookkeeping():
    cfg = SamplerConfig(beta=0.5, iterations=10, burn_in=4, thinning=2, seed=0)
    chain = pcn(FlatBasis(2), SPEC, ZERO_POTENTIAL, cfg)
    # kept at iterations 4, 6, 8
    assert chain.n_retained == 3
    assert chain.potentials.shape == (10,)
    assert chain.proposed == 10


def test_zero_potential_always_accepts():
    cfg = SamplerConfig(beta=0.3, iterations=2000, seed=1)
    chain = pcn(FlatBasis(2), SPEC, ZERO_POTENTIAL, cfg)
    assert acceptance_rate(chain) == 1.0


def test_prior_preserved_at_modest_length():
    # with Phi = 0 the chain's invariant law is exactly the prior
    cfg = SamplerConfig(beta=0.5, iterations=60000, burn_in=2000, seed=2)
    chain = pcn(FlatBasis(3), SPEC, ZERO_POTENTIAL, cfg)
    var = chain.samples.var(axis=0)
    assert np.allclose(var, 1.0, rtol=0.1)
    assert np.allclose(chain.samples.mean(axis=0), 0.0, atol=0.1)


def test_beta_one_is_independence_sampler():
    cfg = SamplerConfig(beta=1.0, iterations=4000, seed=3)
    chain = pcn(FlatBasis(1), SPEC, ZERO_POTENTIAL, cfg)
    x = chain.samples[:, 0]
    lag1 = np.corrcoef(x[:-1], x[1:])[0, 1]
    assert abs(lag1) < 0.05


def test_infinite_potential_at_start_raises():
    cfg = SamplerConfig(beta=0.5, iterations=10)
    with pytest.raises(ValueError):
        pcn(FlatBasis(1), SPEC, lambda a: math.inf, cfg)


def test_nonfinite_proposals_rejected_with_one_warning(caplog):
    # finite only at the zero state: every proposal is auto-rejected
    def phi(a):
        return 0.0 if np.all(a == 0.0) else math.nan

    cfg = SamplerConfig(beta=0.5, iterations=50, seed=4)
    with caplog.at_level(logging.WARNING):
        chain = pcn(FlatBasis(1), SPEC, phi, cfg)
    assert acceptance_rate(chain) == 0.0
    assert np.all(chain.samples == 0.0)
    warnings = [r for r in caplog.records if "auto-rejected" in r.message]
    assert len(warnings) == 1


def conjugate_posterior_stats():
    # prior N(0,1), likelihood y=1 with unit noise: posterior N(1/2, 1/2)
    return 0.5, 0.5


def test_pcn_hits_conjugate_posterior():
    phi = lambda a: 0.5 * float((1.0 - a[0]) ** 2)
    cfg = SamplerConfig(beta=0.5, iterations=60000, burn_in=5000, seed=5)
    chain = pcn(FlatBasis(1), SPEC, phi, cfg)
    mean, var = conjugate_posterior_stats()
    assert chain.samples[:, 0].mean() == pytest.approx(mean, abs=0.04)
    assert chain.samples[:, 0].var() == pytest.approx(var, rel=0.12)


def test_rwm_hits_conjugate_posterior():
    phi = lambda a: 0.5 * float((1.0 - a[0]) ** 2)
    cfg = SamplerConfig(beta=0.5, iterations=60000, burn_in=5000, seed=6)
    chain = rwm(FlatBasis(1), SPEC, phi, cfg, step=1.0)
    mean, var = conjugate_posterior_stats()
    assert chain.samples[:, 0].mean() == pytest.approx(mean, abs=0.04)
    assert chain.samples[:, 0].var() == pytest.approx(var, rel=0.12)
    with pytest.raises(ValueError):
        rwm(FlatBasis(1), SPEC, phi, cfg, step=-1.0)


def test_posterior_mean_and_averages():
    cfg = SamplerConfig(beta=0.9, iterations=300, burn_in=50, seed=7)
    basis = FlatBasis(2, n=5)
    chain = pcn(basis, SPEC, ZERO_POTENTIAL, cfg)
    fn = posterior_mean(chain, basis)
    manual = basis.synthesize(chain.samples.mean(axis=0))
    assert np.allclose(fn.values, manual)


def test_iact_iid_is_near_one():
    x = np.random.default_rng(8).standard_normal(20000)
    assert 0.5 < integrated_autocorr_time(x) < 1.6


def test_iact_ar1_matches_formula():
    # AR(1) with rho = 0.8 has IACT (1+rho)/(1-rho) = 9
    rng = np.random.default_rng(9)
    n, rho = 200000, 0.8
    x = np.empty(n)
    x[0] = rng.standard_normal()
    innov = math.sqrt(1 - rho**2) * rng.standard_normal(n)
    for i in range(1, n):
        x[i] = rho * x[i - 1] + innov[i]
    est = integrated_autocorr_time(x)
    assert est == pytest.approx(9.0, rel=0.25)


def test_iact_constant_trace_floors_at_one():
    assert integrated_autocorr_time(np.full(100, 3.3)) == 1.0
