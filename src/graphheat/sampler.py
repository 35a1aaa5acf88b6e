"""Preconditioned Crank-Nicolson chains in KL coefficient space, plus diagnostics.

The state is the vector of k_n coefficients; the pCN proposal is
a -> sqrt(1 - beta^2) a + beta * scale * xi with scale_i = (alpha+lambda_i)^(-s/4),
which equals the function-space proposal sqrt(1-beta^2) u + beta zeta because
the prior is diagonal in the eigenbasis.  Acceptance depends only on the
misfit potential.  A prior-preconditioned random-walk baseline and an
initial-monotone-sequence autocorrelation estimator round out the module.

Stream contract: each step draws k standard normals, then one uniform, from
the chain's own ``np.random.default_rng(seed)``, so a config and seed fix the
chain bit for bit.  The log of the uniform is taken with ``np.log`` on
purpose: ``math.log`` differs from it in the last bit on some uniforms,
which can flip an acceptance and change every later state.
"""

import logging
import math
from dataclasses import dataclass

import numpy as np

from .prior import CloudFunction

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class SamplerConfig:
    """Chain length and proposal parameters.

    beta in (0, 1]; burn_in iterations are discarded, the rest kept every
    `thinning` steps.  Identical config and seed give bit-identical chains:
    every step draws k normals, then one uniform, from default_rng(seed).
    """

    beta: float
    iterations: int
    burn_in: int = 0
    seed: int = 0
    thinning: int = 1

    def __post_init__(self):
        if not 0.0 < self.beta <= 1.0:
            raise ValueError("beta must be in (0, 1]")
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if not 0 <= self.burn_in < self.iterations:
            raise ValueError("burn_in must be in [0, iterations)")
        if self.thinning < 1:
            raise ValueError("thinning must be >= 1")


class ChainResult:
    """Retained samples plus the acceptance ledger and potential trace.

    Attributes
    ----------
    samples : (n_retained, k) array
        Post burn-in states, thinned.
    accepted, proposed : int
        Acceptance ledger over all iterations.
    potentials : (iterations,) array
        Potential of the state after each iteration.
    """

    def __init__(self, samples, accepted, proposed, potentials, config):
        self.samples = samples
        self.accepted = int(accepted)
        self.proposed = int(proposed)
        self.potentials = potentials
        self.config = config

    @property
    def n_retained(self):
        return self.samples.shape[0]


def _run_chain(scales, potential, config, propose):
    """The one chain loop behind pcn and rwm; the loop allocates no arrays.

    propose(state, xi, cand) writes the candidate into cand (it may
    overwrite xi) and returns the log of any extra acceptance factor.
    """
    k = scales.shape[0]
    rng = np.random.default_rng(config.seed)
    state = np.zeros(k)
    phi = potential(state)
    if not math.isfinite(phi):
        raise ValueError("potential is not finite at the zero initial state")
    kept = range(config.burn_in, config.iterations, config.thinning)
    samples = np.empty((len(kept), k))
    potentials = np.empty(config.iterations)
    cand = np.empty(k)
    xi = np.empty(k)
    accepted = 0
    row = 0
    warned = False
    for j in range(config.iterations):
        rng.standard_normal(out=xi)
        log_u = np.log(rng.random())
        log_extra = propose(state, xi, cand)
        phi_cand = potential(cand)
        if not math.isfinite(phi_cand):
            if not warned:
                logger.warning("non-finite potential at a proposal; auto-rejected")
                warned = True
        elif log_u <= phi - phi_cand + log_extra:
            state, cand = cand, state
            phi = phi_cand
            accepted += 1
        potentials[j] = phi
        if j in kept:
            samples[row] = state
            row += 1
    return ChainResult(samples, accepted, config.iterations, potentials, config)


def pcn(basis, prior_spec, potential, config):
    """Run the graph pCN chain; the prior is exactly preserved when Phi == 0.

    Parameters
    ----------
    basis : SpectralBasis (or any object with eigenvalues and count)
    prior_spec : PriorSpec
    potential : callable mapping a coefficient vector to the misfit Phi, a
        float.  It is called on a buffer the chain reuses, so it must not
        keep its argument.
    config : SamplerConfig
    """
    scales = prior_spec.truncated_scales(basis)
    contraction = np.sqrt(1.0 - config.beta**2)
    beta_scales = config.beta * scales

    def propose(state, xi, cand):
        np.multiply(xi, beta_scales, xi)
        np.multiply(state, contraction, cand)
        np.add(cand, xi, cand)
        return 0.0

    return _run_chain(scales, potential, config, propose)


def rwm(basis, prior_spec, potential, config, step):
    """Random-walk Metropolis baseline with prior-preconditioned steps.

    Proposal a + step * scale * xi; the acceptance ratio carries the prior
    density ratio, unlike pCN.
    """
    if step < 0:
        raise ValueError("step must be >= 0")
    scales = prior_spec.truncated_scales(basis)
    safe = np.where(scales > 0, scales, 1.0)
    step_scales = step * scales

    def propose(state, xi, cand):
        np.multiply(xi, step_scales, xi)
        np.add(state, xi, cand)
        return 0.5 * (np.sum((state / safe) ** 2) - np.sum((cand / safe) ** 2))

    return _run_chain(scales, potential, config, propose)


def acceptance_rate(chain):
    return chain.accepted / chain.proposed


def posterior_mean(chain, basis):
    """Coefficient-wise mean of the retained samples, as a cloud function."""
    if chain.n_retained == 0:
        raise ValueError("no retained samples")
    return CloudFunction.from_coefficients(basis, chain.samples.mean(axis=0))


def _autocovariance(x):
    n = x.shape[0]
    x = x - x.mean()
    # FFT-based autocovariance, normalized by n (biased, standard for IACT)
    size = 1 << (2 * n - 1).bit_length()
    fx = np.fft.rfft(x, size)
    acov = np.fft.irfft(fx * np.conj(fx), size)[:n].real
    return acov / n


def integrated_autocorr_time(trace):
    """IACT by Geyer's initial monotone sequence estimator.

    Sums autocorrelations in lag pairs while the pair sums stay positive,
    enforces monotone decrease, and returns tau = 2 * sum(pairs) - 1, floored
    at 1.  A white-noise trace gives tau close to 1.
    """
    x = np.asarray(trace, dtype=float)
    if x.ndim != 1 or x.shape[0] < 4:
        raise ValueError("need a 1-d trace with at least 4 points")
    acov = _autocovariance(x)
    if acov[0] <= 0:
        return 1.0
    rho = acov / acov[0]
    pair_sums = []
    for k in range(0, x.shape[0] - 1, 2):
        g = rho[k] + rho[k + 1]
        if g <= 0:
            break
        if pair_sums and g > pair_sums[-1]:
            g = pair_sums[-1]
        pair_sums.append(g)
    tau = 2.0 * sum(pair_sums) - 1.0
    return float(max(tau, 1.0))
