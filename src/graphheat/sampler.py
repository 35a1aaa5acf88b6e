"""Preconditioned Crank-Nicolson chains in KL coefficient space, plus diagnostics.

The state is the vector of k_n coefficients; the pCN proposal is
a -> sqrt(1 - beta^2) a + beta * scale * xi with scale_i = (alpha+lambda_i)^(-s/4),
which equals the function-space proposal sqrt(1-beta^2) u + beta zeta because
the prior is diagonal in the eigenbasis.  Acceptance depends only on the
misfit potential.  An initial-monotone-sequence autocorrelation estimator
rounds out the module.

One kernel advances C chains in lockstep: three ufuncs over (C, k) arrays
form every chain's proposal and one ``np.log`` takes the logs of their C
uniforms, while each chain calls its own potential and accepts or rejects on
its own.  A single chain is the case C = 1.

Stream contract: each step draws k standard normals, then one uniform, from
the chain's own ``np.random.default_rng(seed)``, so a config and seed fix the
chain bit for bit, whether it runs alone or in lockstep with others.  The log
of the uniform is taken with ``np.log`` on purpose: ``math.log`` differs from
it in the last bit on some uniforms, which can flip an acceptance and change
every later state.  ``np.log`` over the C uniforms gives each the bits of
``np.log`` on it alone.
"""

import dataclasses
import logging
import math
from dataclasses import dataclass

import numpy as np

logger = logging.getLogger(__name__)

# Kept states per chain between readout products.  A product over a block
# that starts at a multiple of 2048 rows gives each row the bits of the same
# row in one product over all kept states; a block of a single row would be
# a dot product instead, so a one-row tail joins the block before it.
_BLOCK = 2048


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
    """Retained states or their readout, and the acceptance ledger.

    Attributes
    ----------
    samples : (n_retained, k) array, or None
        Post burn-in states, thinned; None when the chain kept a readout.
    trace : (n_retained,) array, or None
        state @ readout at the same steps; None when the chain kept states.
    accepted, proposed : int
        Acceptance ledger over all iterations.
    stationary_accepted : int
        Accepts among the proposed - burn_in steps after burn-in.
    """

    def __init__(self, samples, accepted, proposed, config,
                 stationary_accepted=0, trace=None):
        self.samples = samples
        self.trace = trace
        self.accepted = int(accepted)
        self.proposed = int(proposed)
        self.stationary_accepted = int(stationary_accepted)
        self.config = config

    @property
    def n_retained(self):
        kept = self.samples if self.samples is not None else self.trace
        return kept.shape[0]


class ChainBatch(tuple):
    """The ChainResults of chains run in lockstep, in input order.

    ``accepted`` and ``proposed`` total the ledgers of its chains.
    """

    @property
    def accepted(self):
        return sum(chain.accepted for chain in self)

    @property
    def proposed(self):
        return sum(chain.proposed for chain in self)


def _lockstep(bases, prior_specs, potentials, configs, readouts):
    """Advance len(potentials) pCN chains together.

    Returns one ChainResult per chain, each equal bit for bit to the chain
    run alone.  Per step the loop allocates only the C logs of the
    uniforms.
    """
    chains = len(potentials)
    if chains == 0:
        raise ValueError("need at least one chain")
    if not (len(bases) == len(prior_specs) == len(configs) == chains
            and (readouts is None or len(readouts) == chains)):
        raise ValueError("need one basis, prior spec, config and readout "
                         "per potential")
    config = configs[0]
    if any(dataclasses.replace(c, seed=config.seed) != config
           for c in configs):
        raise ValueError("lockstep chains must share every config field "
                         "but the seed")
    scales = [spec.truncated_scales(basis)
              for basis, spec in zip(bases, prior_specs)]
    if len({s.shape for s in scales}) != 1:
        raise ValueError("lockstep chains must share the truncation k")
    k = scales[0].shape[0]
    beta_scales = config.beta * np.array(scales)
    contraction = np.sqrt(1.0 - config.beta**2)
    rngs = [np.random.default_rng(c.seed) for c in configs]
    normals = [rng.standard_normal for rng in rngs]
    randoms = [rng.random for rng in rngs]
    seeds = [c.seed for c in configs]
    state = np.zeros((chains, k))
    cand = np.empty((chains, k))
    xi = np.empty((chains, k))
    states, cands, xis = list(state), list(cand), list(xi)
    phi = [potential(a) for potential, a in zip(potentials, states)]
    for c in range(chains):
        if not math.isfinite(phi[c]):
            raise ValueError("potential is not finite at the zero initial "
                             "state (chain seed %d)" % seeds[c])
    burn_in = config.burn_in
    kept = range(burn_in, config.iterations, config.thinning)
    n_kept = len(kept)
    if readouts is None:
        ends = [n_kept]
        block = np.empty((chains, n_kept, k))
    else:
        ends = list(range(_BLOCK, n_kept, _BLOCK)) + [n_kept]
        if len(ends) > 1 and ends[-1] - ends[-2] == 1:
            del ends[-2]
        block = np.empty((chains, min(n_kept, _BLOCK + 1), k))
        traces = [np.empty(n_kept) for _ in range(chains)]
    ends = iter(ends)
    row, start, end = 0, 0, next(ends)
    uniforms = np.empty(chains)
    accepted = [0] * chains
    before = None            # accepts before burn-in, copied at that step
    warned = [False] * chains
    order = range(chains)
    for j in range(config.iterations):
        if j == burn_in:
            before = accepted[:]
        for c in order:
            normals[c](out=xis[c])
            uniforms[c] = randoms[c]()
        log_u = np.log(uniforms).tolist()
        np.multiply(xi, beta_scales, xi)
        np.multiply(state, contraction, cand)
        np.add(cand, xi, cand)
        for c in order:
            phi_cand = potentials[c](cands[c])
            if not math.isfinite(phi_cand):
                if not warned[c]:
                    logger.warning("chain seed %d: non-finite potential at a "
                                   "proposal; auto-rejected", seeds[c])
                    warned[c] = True
            elif log_u[c] <= phi[c] - phi_cand:
                states[c][:] = cands[c]
                phi[c] = phi_cand
                accepted[c] += 1
        if j in kept:
            block[:, row - start] = state
            row += 1
            if row == end and readouts is not None:
                for c in order:
                    traces[c][start:end] = block[c, :end - start] @ readouts[c]
                start, end = end, next(ends, None)
    return [ChainResult(block[c] if readouts is None else None, accepted[c],
                        config.iterations, configs[c],
                        stationary_accepted=accepted[c] - before[c],
                        trace=None if readouts is None else traces[c])
            for c in order]


def pcn(basis, prior_spec, potential, config, readout=None):
    """Run the graph pCN chain; the prior is exactly preserved when Phi == 0.

    Parameters
    ----------
    basis : SpectralBasis (or any object with eigenvalues and count)
    prior_spec : PriorSpec
    potential : callable mapping a coefficient vector to the misfit Phi, a
        float.  It is called on a buffer the chain reuses, so it must not
        keep its argument.
    config : SamplerConfig
    readout : optional (k,) vector.  Given, the chain keeps
        ``trace = samples @ readout``, bit for bit, instead of ``samples``.

    Returns a ChainResult.  To run C chains in lockstep, pass basis,
    prior_spec, potential, config and readout (if any) as sequences of C
    entries, one per chain; the chains must share k and every config field
    but the seed.  That returns a ChainBatch whose chains equal the same
    chains run alone, bit for bit.
    """
    if callable(potential):
        return _lockstep([basis], [prior_spec], [potential], [config],
                         None if readout is None else [readout])[0]
    return ChainBatch(_lockstep(basis, prior_spec, potential, config, readout))


def acceptance_rate(chain):
    """Accepted fraction of every proposal, burn-in included."""
    return chain.accepted / chain.proposed


def stationary_acceptance(chain):
    """Accepted fraction of the proposals after burn-in.

    The chain starts at the prior mean, and its transient accepts more often
    than the stationary chain; this rate leaves the transient out.
    """
    return chain.stationary_accepted / (chain.proposed - chain.config.burn_in)


def posterior_mean(chain, basis):
    """Coefficient-wise mean of the retained samples, as nodal values."""
    if chain.n_retained == 0:
        raise ValueError("no retained samples")
    return basis.synthesize(chain.samples.mean(axis=0))


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
