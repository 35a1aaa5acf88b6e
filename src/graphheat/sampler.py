"""Preconditioned Crank-Nicolson chains in KL coefficient space, plus diagnostics.

The state is the vector of k_n coefficients; the pCN proposal is
a -> sqrt(1 - beta^2) a + beta * scale * xi with scale_i = (alpha+lambda_i)^(-s/4),
which equals the function-space proposal sqrt(1-beta^2) u + beta zeta because
the prior is diagonal in the eigenbasis.  Acceptance depends only on the
misfit potential.  An initial-monotone-sequence autocorrelation estimator
rounds out the module.

One kernel advances C chains in lockstep, a block of steps at a time: it
takes the block's draws stream by stream, scales the normals and logs the
uniforms in bulk, then forms each step's C proposals with two ufuncs over
(C, k) arrays.  ``pcn`` alone decides which chains step together: those
whose potentials are ``GaussianMisfit`` of one shape under one config
apart from the seed.  Misfits of mixed shapes are not stacked, because
padding them to one row count would change the bits of the shorter
designs' rows.  Every other chain (a probit closure, a misfit without a
partner) runs alone, one after another, as a single chain (C = 1).

The accept rule is delayed acceptance (Christen & Fox, 2005): a cheap
potential S, the ``surrogate``, screens each proposal before the potential
Phi is called.  With ds = S(a) - S(a'), d = Phi(a) - Phi(a') and log u the
step's one uniform, the proposal is rejected without calling Phi when
log u > min(0, ds), and otherwise accepted iff
log u <= min(0, ds) + min(0, d - ds): with probability
min(1, e^ds) min(1, e^(d - ds)), a kernel reversible for the same
posterior, so S decides only how many calls Phi takes.  A proposal where S
is not finite is rejected.  A chain without a surrogate has S = 0, whose
screen passes every proposal (log u <= 0), which leaves plain pCN's
log u <= d bit for bit; so does S = Phi.  A single chain steps this scalar
rule.  C > 1 chains take no surrogate: they evaluate their misfits in one
batched product and accept through masks.  The probit posterior run
screens with ``oracle.laplace_surrogate``'s S.

Stream contract: each step draws k standard normals, then one uniform, from
the chain's own ``np.random.default_rng(seed)``, so a config and seed fix the
chain bit for bit, whether it runs alone or in lockstep with others, and
whichever path evaluates its potential; a screened chain draws the same
stream.  Chains of one lockstep group with equal seeds share one stream,
drawn once per block: the sweeps pair their cloud sizes by common random
numbers, so the chains of one shape draw one stream per replicate.  Each
chain still scales the stream's normals by its own prior scales.  Drawing
a block ahead keeps the stream's order; a uniform is formed from the bit
generator's raw 64-bit output as ``Generator.random`` forms it,
(raw >> 11) * 2^-53.  The log of the uniform is taken with ``np.log`` on
purpose: ``math.log`` differs from it in the last bit on some uniforms,
which can flip an acceptance and change every later state.  ``np.log``
over a block of uniforms gives each the bits of ``np.log`` on it alone.
"""

import dataclasses
import logging
import math
import numbers
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

    beta in (0, 1]; burn_in iterations are discarded, every later state is
    kept.  Identical config and seed give bit-identical chains: every step
    draws k normals, then one uniform, from default_rng(seed).
    """

    beta: float
    iterations: int
    burn_in: int = 0
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.beta <= 1.0:
            raise ValueError("beta must be in (0, 1]")
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if not 0 <= self.burn_in < self.iterations:
            raise ValueError("burn_in must be in [0, iterations)")
        if (not isinstance(self.seed, numbers.Integral)
                or isinstance(self.seed, bool) or self.seed < 0):
            raise ValueError("seed must be a non-negative integer, got %r"
                             % (self.seed,))


class ChainResult:
    """Retained states or their readout, and the acceptance ledger.

    Attributes
    ----------
    samples : (n_retained, k) array, or None
        Post burn-in states; None when the chain kept a readout.
    trace : (n_retained,) array, or None
        state @ readout at the same steps; None when the chain kept states.
    accepted, proposed : int
        Acceptance ledger over all iterations.
    stationary_accepted : int
        Accepts among the proposed - burn_in steps after burn-in.
    potential_calls : int
        Calls of the potential, the one at the initial state included:
        1 + the proposals that passed the screen, which is proposed + 1
        for a chain without a surrogate.
    """

    def __init__(self, samples, accepted, proposed, config,
                 stationary_accepted=0, trace=None, potential_calls=0):
        self.samples = samples
        self.trace = trace
        self.accepted = int(accepted)
        self.proposed = int(proposed)
        self.stationary_accepted = int(stationary_accepted)
        self.config = config
        self.potential_calls = int(potential_calls)

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


def _lockstep(scales, potentials, configs, readouts, surrogate):
    """Advance one chain, or GaussianMisfit chains of one shape, together.

    scales holds each chain's prior scales, all of one length k.  The
    chains share every config field but the seed.  Returns one
    ChainResult per chain, each equal bit for bit to the chain run alone.
    A single chain takes the scalar step, S = 0 without a surrogate, and
    calls even a GaussianMisfit, which costs fewer ufuncs per step than
    the masks; C > 1 chains take the masked step (see the module docstring).
    """
    chains = len(potentials)
    config = configs[0]
    if chains > 1:
        batch = GaussianMisfit.batch(potentials)
    beta_scales = config.beta * np.array(scales)
    k = beta_scales.shape[1]
    contraction = np.sqrt(1.0 - config.beta**2)
    seeds = [c.seed for c in configs]
    # One generator per distinct seed draws into the rows of the seed's
    # first chain; each later chain on that seed (``shared``) copies the
    # rows of its first (``lead``).
    streams = {}
    for c, seed in enumerate(seeds):
        if seed not in streams:
            streams[seed] = c, np.random.default_rng(seed)
    first_of = np.array([streams[seed][0] for seed in seeds])
    shared = np.flatnonzero(first_of != np.arange(chains))
    lead = first_of[shared]
    state = np.zeros((chains, k))
    cand = np.empty((chains, k))
    potential, state_row, cand_row = potentials[0], state[0], cand[0]
    phi = np.array([f(a) for f, a in zip(potentials, state)], dtype=float)
    for c in range(chains):
        if not math.isfinite(phi[c]):
            raise ValueError("potential is not finite at the zero initial "
                             "state (chain seed %d)" % seeds[c])
    screened = 0.0 if surrogate is None else surrogate(state_row)
    if not math.isfinite(screened):
        raise ValueError("surrogate is not finite at the zero initial "
                         "state (chain seed %d)" % seeds[0])
    # proposals that reach the potential: all of them past the masks
    reached = 0 if chains == 1 else config.iterations
    steps = min(config.iterations,
                max(1, _DRAW_BYTES // (8 * chains * (k + 3))))
    xi = np.empty((steps, chains, k))
    log_u = np.empty((steps, chains))
    phi_cand = np.empty((steps, chains))
    ok = np.empty((steps, chains), dtype=bool)
    diff = np.empty(chains)
    burn_in = config.burn_in
    n_kept = config.iterations - burn_in
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
        for c, rng in streams.values():
            _draw(rng, xi[:size, c], log_u[:size, c])
        xi[:size, shared] = xi[:size, lead]
        log_u[:size, shared] = log_u[:size, lead]
        np.multiply(xi[:size], beta_scales, xi[:size])
        np.log(log_u[:size], log_u[:size])
        for j, xi_j, log_u_j, phi_j, ok_j in zip(range(first, first + size),
                                                 xi, log_u, phi_cand, ok):
            np.multiply(state, contraction, cand)
            np.add(cand, xi_j, cand)
            if chains == 1:
                value = 0.0 if surrogate is None else surrogate(cand_row)
                drop = screened - value
                screen = min(0.0, drop)
                ok_j[0] = accept = False
                phi_j[0] = 0.0      # no potential call, so nothing to warn of
                if math.isfinite(value) and log_u_j[0] <= screen:
                    reached += 1
                    phi_j[0] = full = potential(cand_row)
                    ok_j[0] = accept = (
                        math.isfinite(full) and log_u_j[0]
                        <= screen + min(0.0, phi[0] - full - drop))
                if accept:
                    state_row[:] = cand_row
                    phi[0], screened = full, value
            else:
                batch(cand, phi_j)
                np.subtract(phi, phi_j, diff)
                np.less_equal(log_u_j, diff, ok_j)
                np.copyto(state, cand, where=ok_j[:, None])
                np.copyto(phi, phi_j, where=ok_j)
            if j >= burn_in:
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
                        trace=None if readouts is None else traces[c],
                        potential_calls=1 + reached)
            for c in order]


def pcn(basis, prior_spec, potential, config, readout=None, surrogate=None):
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
    surrogate : optional callable like potential, finite wherever the
        posterior has mass, that screens each proposal before potential is
        called (delayed acceptance, see the module docstring); a proposal
        where it is not finite is rejected.  The chain keeps its target
        and random stream; its acceptance is the screened chain's, lower
        than plain pCN's by as much as S misjudges Phi.  Without one the
        screen is S = 0, which passes every proposal, so the chain is
        plain pCN.  Single-chain form only.

    Returns a ChainResult.  To run C chains, pass basis, prior_spec,
    potential, config and readout (if any) as sequences of C entries, one
    per chain.  That returns a tuple of ChainResults in input order (a
    ChainBatch, which also totals their ledgers), each equal bit for bit to
    the same chain run alone.  Which chains step together is pcn's own
    business (see the module docstring); a chain run alone keeps its
    design in cache through its whole run.  Chains that step together on
    equal seeds share one random stream, drawn once per block.
    """
    single = callable(potential)
    if single:
        basis, prior_spec, potential, config = ([basis], [prior_spec],
                                                [potential], [config])
        readout = None if readout is None else [readout]
    elif surrogate is not None:
        raise ValueError("a surrogate screens a single chain: pass one "
                         "potential, not a sequence")
    chains = len(potential)
    if not (len(basis) == len(prior_spec) == len(config) == chains
            and (readout is None or len(readout) == chains)):
        raise ValueError("need one basis, prior spec, config and readout "
                         "per potential")
    scales = [spec.truncated_scales(b) for b, spec in zip(basis, prior_spec)]
    for c, vector in enumerate(() if readout is None else readout):
        k = scales[c].shape
        if np.shape(vector) != k:
            raise ValueError("readout %d: need shape %s, one entry per "
                             "coefficient, got %s" % (c, k, np.shape(vector)))
    groups = {}
    for c, (f, cfg) in enumerate(zip(potential, config)):
        key = ((f.matrix.shape, dataclasses.replace(cfg, seed=0))
               if isinstance(f, GaussianMisfit) else c)
        groups.setdefault(key, []).append(c)
    results = [None] * chains
    for members in groups.values():
        args = [None if seq is None else [seq[c] for c in members]
                for seq in (scales, potential, config, readout)]
        for c, chain in zip(members, _lockstep(*args, surrogate)):
            results[c] = chain
    return results[0] if single else ChainBatch(results)


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
    if chain.samples is None:
        raise ValueError("the chain kept a trace, not its states: run it "
                         "without a readout to take its mean")
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
