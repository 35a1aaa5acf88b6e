"""Chain mechanics, exactness on conjugate targets, and the IACT estimator."""

import dataclasses
import logging
import math

import numpy as np
import pytest

from graphheat import (
    NoiseModel,
    PriorSpec,
    SamplerConfig,
    acceptance_rate,
    integrated_autocorr_time,
    pcn,
    posterior_mean,
    potential_from_design_matrix,
    stationary_acceptance,
)
from graphheat.likelihood import GaussianMisfit
from graphheat.sampler import _draw

ZERO_POTENTIAL = lambda a: 0.0


class FlatBasis:
    """Stand-in basis: k modes over an abstract cloud, unit eigenvalues by default."""

    def __init__(self, k, n=None, eigenvalues=None):
        self.count = k
        self.n = n or k
        self.eigenvalues = (np.ones(k) if eigenvalues is None
                            else np.asarray(eigenvalues, dtype=float))
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


def reference_chain(scales, potential, config, proposal):
    """Serial reference for the chain kernel: fresh arrays every step.

    The step loop the allocation-free kernel replaced, less its warning.
    Any change to the random stream, the proposal arithmetic or the
    acceptance rule makes the kernel disagree with this loop.
    """
    k = scales.shape[0]
    rng = np.random.default_rng(config.seed)
    state = np.zeros(k)
    phi = potential(state)
    retained = []
    accepted = 0
    for j in range(config.iterations):
        xi = rng.standard_normal(k)
        log_u = np.log(rng.uniform())
        cand, log_extra = proposal(state, xi, scales)
        phi_cand = potential(cand)
        if np.isfinite(phi_cand) and log_u <= phi - phi_cand + log_extra:
            state = cand
            phi = phi_cand
            accepted += 1
        if j >= config.burn_in and (j - config.burn_in) % config.thinning == 0:
            retained.append(state.copy())
    return np.array(retained), accepted


def reference_pcn(beta):
    contraction = np.sqrt(1.0 - beta**2)

    def proposal(state, xi, sc):
        return contraction * state + beta * sc * xi, 0.0

    return proposal


def gaussian_design_problem(k, p, sigma, seed):
    """Random p x k design, labels, and the closure the chains use."""
    rng = np.random.default_rng(seed)
    mat = rng.standard_normal((p, k))
    y = 0.5 * rng.standard_normal(p)
    return mat, y, potential_from_design_matrix(
        mat, y, NoiseModel("gaussian", sigma))


def residual_potential(mat, y, sigma):
    inv_two_sigma2 = 1.0 / (2.0 * sigma**2)

    def phi(a):
        r = y - mat @ a
        return float(r @ r) * inv_two_sigma2

    return phi


def finite_near_zero(a):
    return math.inf if a[0] > 0.5 else 0.5 * float(a @ a)


REFERENCE_BASIS = FlatBasis(4, eigenvalues=[0.0, 2.0, 2.0, 6.0])
REFERENCE_SPEC = PriorSpec(alpha=1.0, s=5.0)


@pytest.mark.parametrize("sampler", ["pcn"])
@pytest.mark.parametrize("target", ["design", "non-finite"])
def test_kernel_reproduces_reference_loop(sampler, target):
    cfg = SamplerConfig(beta=0.3, iterations=3000, burn_in=500, thinning=3,
                        seed=11)
    scales = REFERENCE_SPEC.truncated_scales(REFERENCE_BASIS)
    if target == "design":
        mat, y, fast = gaussian_design_problem(4, 12, 0.4, seed=12)
        slow = residual_potential(mat, y, 0.4)
    else:
        fast = slow = finite_near_zero
    chain = pcn(REFERENCE_BASIS, REFERENCE_SPEC, fast, cfg)
    proposal = reference_pcn(cfg.beta)
    samples, accepted = reference_chain(scales, slow, cfg, proposal)
    assert 0 < accepted < cfg.iterations
    assert chain.samples.shape == samples.shape == (834, 4)
    assert np.array_equal(chain.samples, samples)
    assert chain.accepted == accepted
    assert chain.proposed == cfg.iterations


def probit_design_potential(k, p, sigma, seed):
    rng = np.random.default_rng(seed)
    mat = rng.standard_normal((p, k))
    y = np.where(rng.standard_normal(p) >= 0.0, 1.0, -1.0)
    return potential_from_design_matrix(mat, y, NoiseModel("probit", sigma))


def test_lockstep_chains_match_each_chain_alone(caplog):
    # Chains of three kinds, each on its own seed and prior scales: a
    # Gaussian design chain, a probit design chain and two chains whose
    # potential is infinite away from zero.  In lockstep every chain is
    # bit-identical to itself run alone.  4097 kept states leave a one-row
    # tail after a full readout block; with these readouts a product over
    # that row alone differs in the last bit for three of the chains.
    cfg = SamplerConfig(beta=0.3, iterations=4597, burn_in=500)
    potentials = [gaussian_design_problem(4, 12, 0.4, seed=12)[2],
                  probit_design_potential(4, 9, 0.5, seed=16),
                  finite_near_zero, finite_near_zero]
    bases = [REFERENCE_BASIS, FlatBasis(4, eigenvalues=[0.0, 1.0, 3.0, 5.0]),
             FlatBasis(4, eigenvalues=[0.5, 0.5, 4.0, 9.0]), REFERENCE_BASIS]
    specs = [REFERENCE_SPEC] * 4
    configs = [dataclasses.replace(cfg, seed=s) for s in (31, 32, 33, 34)]
    readouts = list(np.random.default_rng(22).standard_normal((4, 4)))

    def auto_rejects():
        found = [r.getMessage() for r in caplog.records
                 if "auto-rejected" in r.getMessage()]
        caplog.clear()
        return sorted(found)

    with caplog.at_level(logging.WARNING):
        alone = [pcn(*args) for args in zip(bases, specs, potentials,
                                            configs)]
        warned_alone = auto_rejects()
        states = pcn(bases, specs, potentials, configs)
        assert auto_rejects() == warned_alone
        traces = pcn(bases, specs, potentials, configs, readout=readouts)
        assert auto_rejects() == warned_alone
    assert [w.split(":")[0] for w in warned_alone] == ["chain seed 33",
                                                       "chain seed 34"]
    for batch in (states, traces):
        assert len(batch) == 4
        assert sum(chain.proposed for chain in batch) == 4 * cfg.iterations
        assert (sum(chain.accepted for chain in batch)
                == sum(chain.accepted for chain in alone))
    for i, single in enumerate(alone):
        assert 0 < single.accepted < cfg.iterations
        assert single.samples.shape == (4097, 4)
        for chain in (states[i], traces[i]):
            assert chain.accepted == single.accepted
            assert chain.stationary_accepted == single.stationary_accepted
        assert np.array_equal(states[i].samples, single.samples)
        assert traces[i].samples is None
        assert np.array_equal(traces[i].trace, single.samples @ readouts[i])


def test_batched_misfits_match_the_per_chain_path(monkeypatch):
    # Gaussian misfits of one shape are evaluated for all chains in one
    # batched product per step; wrapped in plain closures, the same chains
    # call their potentials one by one.  Both paths give the same states,
    # traces and ledgers, bit for bit.  The designs have p = k, p = n and
    # p < k rows; misfits of mixed shapes run one after another, and a
    # single chain calls its misfit.
    batches = []
    batch, call = GaussianMisfit.batch, GaussianMisfit.__call__

    def counted_batch(misfits):
        evaluate = batch(misfits)

        def counted(states, out):
            batches.append(states.shape[0])
            return evaluate(states, out)

        return counted

    def counted_call(self, a):
        batches.append(1)
        return call(self, a)

    monkeypatch.setattr(GaussianMisfit, "batch", staticmethod(counted_batch))
    monkeypatch.setattr(GaussianMisfit, "__call__", counted_call)
    cfg = SamplerConfig(beta=0.3, iterations=4597, burn_in=500)
    for rows, batched in (([4, 9, 30], True), ([3, 3], True),
                          ([2, 3, 12], False), ([9], False)):
        chains = len(rows)
        misfits = [gaussian_design_problem(4, p, 0.4, seed=40 + p)[2]
                   for p in rows]
        closures = [lambda a, phi=phi: phi(a) for phi in misfits]
        bases = [FlatBasis(4, n=30, eigenvalues=[0.0, 1.0 + c, 3.0, 5.0])
                 for c in range(chains)]
        specs = [REFERENCE_SPEC] * chains
        configs = [dataclasses.replace(cfg, seed=60 + c)
                   for c in range(chains)]
        readouts = list(np.random.default_rng(61).standard_normal((chains, 4)))
        for readout in (None, readouts):
            batches.clear()
            fast = pcn(bases, specs, misfits, configs, readout=readout)
            assert batches == [1] * chains + (
                [chains] * cfg.iterations if batched
                else [1] * (chains * cfg.iterations))
            slow = pcn(bases, specs, closures, configs, readout=readout)
            for a, b in zip(fast, slow):
                assert 0 < a.accepted < cfg.iterations
                assert a.accepted == b.accepted
                assert a.stationary_accepted == b.stationary_accepted
                if readout is None:
                    assert np.array_equal(a.samples, b.samples)
                else:
                    assert np.array_equal(a.trace, b.trace)


def test_block_draws_follow_the_generator_stream():
    # The kernel draws a block of steps ahead, into strided views of its
    # buffers; the block holds what a step-by-step chain draws: k normals,
    # then rng.random(), per step, and leaves the stream where it would be.
    for seed in (0, 7, 2**40 + 3):
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        xi, uniforms = np.empty((500, 2, 3)), np.empty((500, 2))
        _draw(rng, xi[:, 1], uniforms[:, 1])
        for j in range(500):
            assert np.array_equal(xi[j, 1], ref.standard_normal(3))
            assert uniforms[j, 1] == ref.random()
        assert rng.random() == ref.random()


def test_lockstep_refuses_mismatched_chains():
    phi = [ZERO_POTENTIAL] * 2
    cfg = SamplerConfig(beta=0.5, iterations=10)
    with pytest.raises(ValueError, match="one basis, prior spec"):
        pcn([FlatBasis(2)], [SPEC] * 2, phi, [cfg] * 2)
    with pytest.raises(ValueError, match="one basis, prior spec"):
        pcn([FlatBasis(2)] * 2, [SPEC] * 2, phi, [cfg] * 2,
            readout=[np.ones(2)])


def test_pcn_groups_any_chains_as_if_alone(monkeypatch):
    # One call over a shuffled mix: Gaussian misfits of shapes (4, 4) and
    # (2, 3), under two betas, a probit closure and a zero potential.  pcn
    # steps together exactly the misfits of one shape and one config but
    # the seed (groups a, b and c), one batched evaluator per group, and
    # every chain is bit-identical to itself run alone.  2100 kept states
    # leave a tail after a full readout block.
    table = ([("a", 4, 12, 0.3)] * 3 + [("b", 4, 12, 0.4)] * 2
             + [("c", 3, 2, 0.3)] * 2
             + [("probit", 3, 9, 0.3), ("zero", 2, 0, 0.4)])
    table = [table[c] for c in np.random.default_rng(91).permutation(9)]
    potentials = [ZERO_POTENTIAL if group == "zero"
                  else probit_design_potential(k, p, 0.5, seed=16)
                  if group == "probit"
                  else gaussian_design_problem(k, p, 0.4, seed=80 + c)[2]
                  for c, (group, k, p, _) in enumerate(table)]
    cfg = SamplerConfig(beta=0.3, iterations=2600, burn_in=500)
    configs = [dataclasses.replace(cfg, beta=beta, seed=70 + c)
               for c, (_, _, _, beta) in enumerate(table)]
    bases = [FlatBasis(k, n=12, eigenvalues=np.arange(k) + 0.5 * c)
             for c, (_, k, _, _) in enumerate(table)]
    specs = [REFERENCE_SPEC] * 9
    readouts = [np.random.default_rng(90 + c).standard_normal(k)
                for c, (_, k, _, _) in enumerate(table)]
    evaluators = []
    batch = GaussianMisfit.batch

    def counted_batch(misfits):
        evaluate, steps = batch(misfits), [0]
        evaluators.append(([c for c, f in enumerate(potentials)
                            if any(f is m for m in misfits)], steps))

        def counted(states, out):
            steps[0] += 1
            return evaluate(states, out)

        return counted

    monkeypatch.setattr(GaussianMisfit, "batch", staticmethod(counted_batch))
    alone = [pcn(*args) for args in zip(bases, specs, potentials, configs)]
    assert evaluators == []
    states = pcn(bases, specs, potentials, configs)
    traces = pcn(bases, specs, potentials, configs, readout=readouts)
    groups = [[c for c, row in enumerate(table) if row[0] == group]
              for group in "abc"]
    assert sorted(members for members, _ in evaluators) == sorted(groups * 2)
    assert all(steps == [cfg.iterations] for _, steps in evaluators)
    for c, single in enumerate(alone):
        if table[c][0] != "zero":
            assert 0 < single.accepted < cfg.iterations
        for chain in (states[c], traces[c]):
            assert chain.config is configs[c]
            assert chain.accepted == single.accepted
            assert chain.stationary_accepted == single.stationary_accepted
        assert np.array_equal(states[c].samples, single.samples)
        assert traces[c].samples is None
        assert np.array_equal(traces[c].trace, single.samples @ readouts[c])


def test_stationary_acceptance_counts_after_burn_in():
    # The first burn_in steps of a chain are a shorter chain on the same
    # stream, so the accepts after burn-in are the total less its accepts.
    phi = gaussian_design_problem(4, 12, 0.4, seed=12)[2]
    cfg = SamplerConfig(beta=0.3, iterations=3000, burn_in=500, seed=11)
    chain = pcn(REFERENCE_BASIS, REFERENCE_SPEC, phi, cfg)
    prefix = pcn(REFERENCE_BASIS, REFERENCE_SPEC, phi,
                 dataclasses.replace(cfg, iterations=500, burn_in=0))
    assert 0 < prefix.accepted < chain.accepted
    assert prefix.stationary_accepted == prefix.accepted
    assert chain.stationary_accepted == chain.accepted - prefix.accepted
    assert stationary_acceptance(chain) == chain.stationary_accepted / 2500


def test_pcn_acceptance_matches_stationary_prediction():
    # Conjugate target: prior N(0, D), D = diag(scales^2), and Gaussian
    # labels give the coefficient posterior N(mu, C), C = (D^-1 + H)^-1,
    # mu = C g.  At stationarity the pCN acceptance is the mean of
    # min(1, exp(Phi(a) - Phi(a'))) over a ~ N(mu, C) and a' its proposal.
    sigma = 0.5
    mat, y, phi = gaussian_design_problem(4, 30, sigma, seed=13)
    scales = REFERENCE_SPEC.truncated_scales(REFERENCE_BASIS)
    h = mat.T @ mat / sigma**2
    g = mat.T @ y / sigma**2
    cov = np.linalg.inv(np.diag(scales**-2.0) + h)
    mu = cov @ g
    rng = np.random.default_rng(14)
    draws = 200000
    a = mu + rng.standard_normal((draws, 4)) @ np.linalg.cholesky(cov).T
    xi = rng.standard_normal((draws, 4))

    def misfit(x):
        return 0.5 * np.einsum("ij,jk,ik->i", x, h, x) - x @ g

    for beta in (0.1, 0.3, 0.6):
        moved = np.sqrt(1.0 - beta**2) * a + beta * scales * xi
        predicted = np.minimum(1.0, np.exp(misfit(a) - misfit(moved))).mean()
        cfg = SamplerConfig(beta=beta, iterations=20000, seed=15)
        chain = pcn(REFERENCE_BASIS, REFERENCE_SPEC, phi, cfg)
        assert acceptance_rate(chain) == pytest.approx(predicted, abs=0.02)


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


def test_posterior_mean_and_averages():
    cfg = SamplerConfig(beta=0.9, iterations=300, burn_in=50, seed=7)
    basis = FlatBasis(2, n=5)
    chain = pcn(basis, SPEC, ZERO_POTENTIAL, cfg)
    mean = posterior_mean(chain, basis)
    manual = basis.synthesize(chain.samples.mean(axis=0))
    assert np.array_equal(mean, manual)


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
