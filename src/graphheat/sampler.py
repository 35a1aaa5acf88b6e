"""Preconditioned Crank-Nicolson chains in KL coefficient space, plus diagnostics.

The state is the vector of k_n coefficients; the pCN proposal is
a -> sqrt(1 - beta^2) a + beta * scale * xi with scale_i = (alpha+lambda_i)^(-s/4),
which equals the function-space proposal sqrt(1-beta^2) u + beta zeta because
the prior is diagonal in the eigenbasis.  Acceptance depends only on the
misfit potential.  An initial-monotone-sequence autocorrelation estimator
rounds out the module.

One kernel advances C chains in lockstep, a block of steps at a time.  It
first takes the block's draws, chain by chain, scales the normals and takes
the logs of the uniforms in bulk; then each step forms all C proposals with
two ufuncs over (C, k) arrays.  ``pcn`` takes any list of chains and alone
decides which step together: those whose potentials are ``GaussianMisfit``
of one shape under one config apart from the seed.  One batched product
then gives all C misfits, and the accepts go through masks; misfits of
mixed shapes are not stacked, because padding them to one row count would
change the bits of the shorter designs' rows.  Every other chain (a probit
closure, a misfit without a partner of its shape and config) runs alone,
one after another, as a single chain (C = 1) that calls its potential and
accepts on its own.

Stream contract: each step draws k standard normals, then one uniform, from
the chain's own ``np.random.default_rng(seed)``, so a config and seed fix the
chain bit for bit, whether it runs alone or in lockstep with others, and
whichever path evaluates its potential.  Drawing a block ahead keeps that
order; a uniform is formed from the bit generator's raw 64-bit output as
``Generator.random`` forms it, (raw >> 11) * 2^-53.  The log of the uniform
is taken with ``np.log`` on purpose: ``math.log`` differs from it in the
last bit on some uniforms, which can flip an acceptance and change every
later state.  ``np.log`` over a block of uniforms gives each the bits of
``np.log`` on it alone.
"""

import dataclasses
import logging
import math
from dataclasses import dataclass

import numpy as np

from .likelihood import GaussianMisfit

logger = logging.getLogger(__name__)

# Kept states per chain between readout products.  A product over a block
# that starts at a multiple of 2048 rows gives each row the bits of the same
# row in one product over all kept states; a block of a single row would be
# a dot product instead, so a one-row tail joins the block before it.
_BLOCK = 2048
# Bytes of draws, proposals' potentials and accept flags held per block of
# steps; the block of a call has as many steps as fit, at least one.
_DRAW_BYTES = 1 << 17


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

    ``accepted`` and ``proposed`` total the ledgers of its chains, for
    callers that count steps across a lockstep call, such as a tracer.
    """

    @property
    def accepted(self):
        return sum(chain.accepted for chain in self)

    @property
    def proposed(self):
        return sum(chain.proposed for chain in self)


def _draw(rng, xi, uniforms):
    """Fill each row of xi with standard normals, then draw one uniform.

    The uniforms go to ``uniforms`` in row order, so the stream is the one a
    step-by-step chain draws: k normals, then ``rng.random()``, per step.
    A raw draw costs less than a ``random()`` call and gives the same bits.
    """
    normal, raw = rng.standard_normal, rng.bit_generator.random_raw
    drawn = []
    for row in xi:
        normal(out=row)
        drawn.append(raw())
    np.multiply(np.array(drawn, dtype=np.uint64) >> 11, 2.0**-53, out=uniforms)


def _lockstep(bases, prior_specs, potentials, configs, readouts):
    """Advance one chain, or GaussianMisfit chains of one shape, together.

    The chains share every config field but the seed.  Returns one
    ChainResult per chain, each equal bit for bit to the chain run alone.
    A single chain calls even a GaussianMisfit, which costs fewer ufuncs
    per step than the masks.
    """
    chains = len(potentials)
    config = configs[0]
    if chains > 1:
        batch = GaussianMisfit.batch(potentials)
    beta_scales = config.beta * np.array(
        [spec.truncated_scales(b) for b, spec in zip(bases, prior_specs)])
    k = beta_scales.shape[1]
    contraction = np.sqrt(1.0 - config.beta**2)
    rngs = [np.random.default_rng(c.seed) for c in configs]
    seeds = [c.seed for c in configs]
    state = np.zeros((chains, k))
    cand = np.empty((chains, k))
    potential, state_row, cand_row = potentials[0], state[0], cand[0]
    phi = np.array([f(a) for f, a in zip(potentials, state)], dtype=float)
    for c in range(chains):
        if not math.isfinite(phi[c]):
            raise ValueError("potential is not finite at the zero initial "
                             "state (chain seed %d)" % seeds[c])
    steps = min(config.iterations,
                max(1, _DRAW_BYTES // (8 * chains * (k + 3))))
    xi = np.empty((steps, chains, k))
    log_u = np.empty((steps, chains))
    phi_cand = np.empty((steps, chains))
    ok = np.empty((steps, chains), dtype=bool)
    diff = np.empty(chains)
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
    accepted = np.zeros(chains, dtype=np.int64)
    before = None            # accepts before burn-in, set in its block
    warned = np.zeros(chains, dtype=bool)
    order = range(chains)
    for first in range(0, config.iterations, steps):
        size = min(steps, config.iterations - first)
        for c in order:
            _draw(rngs[c], xi[:size, c], log_u[:size, c])
        np.multiply(xi[:size], beta_scales, xi[:size])
        np.log(log_u[:size], log_u[:size])
        for j, xi_j, log_u_j, phi_j, ok_j in zip(range(first, first + size),
                                                 xi, log_u, phi_cand, ok):
            np.multiply(state, contraction, cand)
            np.add(cand, xi_j, cand)
            if chains == 1:
                phi_j[0] = value = potential(cand_row)
                ok_j[0] = accept = (math.isfinite(value)
                                    and log_u_j[0] <= phi[0] - value)
                if accept:
                    state_row[:] = cand_row
                    phi[0] = value
            else:
                batch(cand, phi_j)
                np.subtract(phi, phi_j, diff)
                np.less_equal(log_u_j, diff, ok_j)
                np.copyto(state, cand, where=ok_j[:, None])
                np.copyto(phi, phi_j, where=ok_j)
            if j in kept:
                block[:, row - start] = state
                row += 1
                if row == end and readouts is not None:
                    for c in order:
                        traces[c][start:end] = (block[c, :end - start]
                                                @ readouts[c])
                    start, end = end, next(ends, None)
        if first <= burn_in < first + size:
            before = accepted + ok[:burn_in - first].sum(axis=0)
        accepted += ok[:size].sum(axis=0)
        bad = ~np.isfinite(phi_cand[:size]).all(axis=0) & ~warned
        for c in np.flatnonzero(bad):
            logger.warning("chain seed %d: non-finite potential at a "
                           "proposal; auto-rejected", seeds[c])
        warned |= bad
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

    Returns a ChainResult.  To run C chains, pass basis, prior_spec,
    potential, config and readout (if any) as sequences of C entries, one
    per chain.  That returns a tuple of ChainResults in input order (a
    ChainBatch, which also totals their ledgers), each equal bit for bit to
    the same chain run alone.  Which chains step together is pcn's own
    business (see the module docstring); a chain run alone keeps its
    design in cache through its whole run.
    """
    if callable(potential):
        return _lockstep([basis], [prior_spec], [potential], [config],
                         None if readout is None else [readout])[0]
    chains = len(potential)
    if not (len(basis) == len(prior_spec) == len(config) == chains
            and (readout is None or len(readout) == chains)):
        raise ValueError("need one basis, prior spec, config and readout "
                         "per potential")
    groups = {}
    for c, (f, cfg) in enumerate(zip(potential, config)):
        key = ((f.matrix.shape, dataclasses.replace(cfg, seed=0))
               if isinstance(f, GaussianMisfit) else c)
        groups.setdefault(key, []).append(c)
    results = [None] * chains
    for members in groups.values():
        args = [None if seq is None else [seq[c] for c in members]
                for seq in (basis, prior_spec, potential, config, readout)]
        for c, chain in zip(members, _lockstep(*args)):
            results[c] = chain
    return ChainBatch(results)


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
