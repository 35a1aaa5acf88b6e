"""Closed-form Gaussian posteriors for the linear heat-observation model.

The prior puts independent N(0, d_i) laws on the k retained coefficients,
d_i = (alpha+lambda_i)^(-s/2), and labels are y = M a + N(0, sigma^2 I),
where the p x k design M holds the eigenfeatures at the labeled points
damped by exp(-lambda_i t).  The posterior on the coefficients is the
conjugate Gaussian N(mu, C) (Stuart, 2010, Inverse problems: a Bayesian
perspective):

  C = (D^-1 + M^T M / sigma^2)^-1,    mu = C M^T y / sigma^2,

a k x k problem however many labels or query points there are.
``coefficient_posterior`` computes it from an SVD of the whitened design
B = M D^(1/2) / sigma = U S V^T, with V square (k x k) and the singular
values s padded with zeros past min(p, k):

  C = D^(1/2) V diag(1/(1+s^2)) V^T D^(1/2),
  mu = D^(1/2) V diag(s/(1+s^2)) U^T y / sigma,

which stays finite and positive semi-definite as sigma -> 0, where
I + B^T B is numerically singular.  The SVD costs O(p k^2) and holds
nothing larger than max(p, k) x k.  At query features psi (one row per
point) the mean is psi mu and the variance the diagonal of psi C psi^T.
``graph_posterior`` takes M from ``forward.design_matrix``, the rows the
pCN chains use; ``continuum_posterior`` builds it from spherical
harmonics.  These are the ground truth the pCN chains are validated
against; gaussian noise only.

In the same whitened coordinates z = D^(-1/2) a the pCN proposal is
z' = sqrt(1-beta^2) z + beta xi, and the misfit sees only the components
w = V^T z along the r = min(p, k) singular directions, where the posterior
is a product of independent one-dimensional Gaussians.
``predicted_acceptance`` uses this to predict a chain's stationary
acceptance rate from Monte Carlo draws, without running a chain.

Probit noise has no closed form.  ``laplace_surrogate`` finds its MAP by
damped Newton, each step a ``coefficient_posterior`` of reweighted labels
(iteratively reweighted least squares), and returns the probit potential's
second-order expansion there as a Gaussian misfit.  A posterior run's pCN
chain screens its proposals with it (``sampler.pcn``'s ``surrogate``).
"""

import logging
import math
from dataclasses import dataclass

import numpy as np
from scipy import linalg
from scipy.special import log_ndtr

from .forward import design_matrix, heat
from .likelihood import (GAUSSIAN, PROBIT, NoiseModel, potential,
                         potential_from_design_matrix)

logger = logging.getLogger(__name__)

# Newton steps at most in laplace_surrogate.  The fit stops sooner, when a
# step no longer lowers the objective at any damping; on the benchmark's
# probit problem that takes a handful of steps.
_NEWTON_STEPS = 100


@dataclass
class PosteriorSummary:
    """Mean and pointwise variance at query locations."""

    mean: np.ndarray
    variance: np.ndarray


def _whitened_svd(mat, d_u, y, sigma):
    """Singular values s, the k x k right factor V^T and U^T y / sigma.

    For p < k the SVD is taken in full, so V^T is always square; its rows
    past len(s) span the directions the labels do not see.
    """
    mat = np.asarray(mat, dtype=float)
    if np.ndim(y) != 1:
        raise ValueError("labels must be a vector, got shape %s"
                         % (np.shape(y),))
    p, k = len(y), len(d_u)
    if mat.shape != (p, k):
        raise ValueError("design shape %s does not match %d labels and %d "
                         "modes" % (mat.shape, p, k))
    b = mat * (np.sqrt(d_u) / sigma)[None, :]
    u, s, vt = linalg.svd(b, full_matrices=b.shape[0] < b.shape[1])
    return s, vt, (u.T @ y) / sigma


def coefficient_posterior(mat, d_u, y, sigma):
    """Mean mu and covariance C of the coefficients given y = M a + noise.

    mat is the p x k design M, d_u the prior variances of the k
    coefficients, y the p labels and sigma the noise standard deviation.
    The work is one SVD of a p x k matrix; for p > k nothing p x p is formed.
    """
    s, vt, proj = _whitened_svd(mat, d_u, y, sigma)
    root = np.sqrt(d_u)
    r = s.shape[0]
    shrink = np.ones(vt.shape[0])
    shrink[:r] = 1.0 / (1.0 + s * s)
    mean = root * (vt[:r].T @ (s * shrink[:r] * proj))
    factor = vt.T * (root[:, None] * np.sqrt(shrink)[None, :])
    return mean, factor @ factor.T


def _at(features, mean, cov):
    # mean and rowwise variance of the coefficient posterior at query rows
    variance = np.sum((features @ cov) * features, axis=1)
    return PosteriorSummary(features @ mean, np.maximum(variance, 0.0))


# Monte Carlo draws per block in predicted_acceptance.
_BLOCK = 1000


def predicted_acceptance(mat, d_u, y, sigma, beta, draws=10**4, seed=0):
    """Stationary pCN acceptance for the Gaussian posterior of (mat, y).

    The mean over `draws` Monte Carlo pairs of min(1, exp(Phi(a) - Phi(a')))
    with a ~ N(mu, C) from coefficient_posterior and a' its pCN proposal at
    step beta.  Both are drawn in the whitened singular coordinates, where
    the posterior and the proposal are diagonal, so a draw costs O(min(p, k))
    and no chain or misfit closure is involved.  Its standard error is at
    most 0.5 / sqrt(draws).
    """
    if not 0.0 < beta <= 1.0:
        raise ValueError("beta must lie in (0, 1]")
    if draws < 1:
        raise ValueError("draws must be at least 1, got %r" % (draws,))
    s, _, proj = _whitened_svd(mat, d_u, y, sigma)
    shrink = 1.0 / (1.0 + s * s)
    rho = np.sqrt(1.0 - beta**2)
    rng = np.random.default_rng(seed)
    total = 0.0
    # Phi(w) = |e|^2 / 2 up to a constant, with residual e = proj - s w;
    # w ~ N(s shrink proj, shrink) gives e ~ N(shrink proj, s^2 shrink), and
    # the proposal w' = rho w + beta xi has residual
    # e' = rho e + (1 - rho) proj - beta s xi, formed in e's buffer.  Draws
    # go in blocks so the buffers stay small next to a chain's samples.
    for start in range(0, draws, _BLOCK):
        e = rng.standard_normal((min(_BLOCK, draws - start), s.shape[0]))
        e *= s * np.sqrt(shrink)
        e += shrink * proj
        log_ratio = 0.5 * np.einsum("ij,ij->i", e, e)
        e *= rho
        e += (1.0 - rho) * proj
        xi = rng.standard_normal(e.shape)
        xi *= -beta * s
        e += xi
        log_ratio -= 0.5 * np.einsum("ij,ij->i", e, e)
        total += float(np.sum(np.exp(np.minimum(log_ratio, 0.0))))
    return total / draws


def graph_posterior(y, basis, spec, t, model):
    """Closed-form posterior mean/variance at every node of the graph.

    y holds the labels at the first len(y) nodes.  The observation rows are
    the design matrix the chains use, cut to the prior's k retained modes.
    """
    if model.kind != GAUSSIAN:
        raise ValueError("closed-form posterior requires gaussian noise")
    d_u = spec.truncated_scales(basis) ** 2
    k = d_u.shape[0]
    rows = design_matrix(basis, t, len(y))[:, :k]
    mean, cov = coefficient_posterior(rows, d_u, y, model.sigma)
    return _at(basis.eigenvectors[:, :k], mean, cov)


def continuum_posterior(y, cont, spec, t, model, query_points, cloud):
    """Closed-form posterior on the sphere, queryable at arbitrary points.

    y holds the labels at the first len(y) cloud points.  The prior is
    truncated at the basis l_max.
    """
    if model.kind != GAUSSIAN:
        raise ValueError("closed-form posterior requires gaussian noise")
    d_u = spec.coefficient_scales(cont.eigenvalues) ** 2
    rows = heat(cont.evaluate(cloud.points[:len(y)]), cont, t)
    mean, cov = coefficient_posterior(rows, d_u, y, model.sigma)
    return _at(cont.evaluate(np.atleast_2d(query_points)), mean, cov)


def _probit_expansion(mat, y, sigma, a):
    """The probit potential's expansion about a, as Gaussian misfit data.

    With t = y (M a) / sigma and lambda = psi(t) / Psi(t), -log Psi(t) has
    slope -lambda and curvature w = t lambda + lambda^2, so to second order
    in t it is w (t - t*)^2 / 2 plus a constant, t* = t + lambda / w.
    Returns lambda, the rows sqrt(w) M and the labels sqrt(w) sigma y t* of
    a Gaussian misfit with noise sigma equal to that expansion.  Rows whose
    w underflows to 0 (margins beyond about 38) drop out: their expansion
    is flat, and t* would be 0/0.
    """
    t = y * (mat @ a) / sigma
    lam = np.exp(-0.5 * t * t - 0.5 * math.log(2.0 * math.pi) - log_ndtr(t))
    w = t * lam + lam * lam
    keep = w > 0.0
    root = np.sqrt(w[keep])
    labels = root * sigma * y[keep] * (t[keep] + lam[keep] / w[keep])
    return lam, root[:, None] * mat[keep], labels


def laplace_surrogate(mat, y, model, d_u):
    """The probit potential's second-order expansion at the posterior MAP.

    mat is the p x k design M, y the +-1 labels, model the probit
    NoiseModel and d_u the prior variances of the k coefficients.  The MAP
    minimizes Phi(a) + a^T D^-1 a / 2 with Phi(a) = -sum log Psi(y (M a) /
    sigma); each damped Newton step is the Gaussian posterior mean of the
    expansion at the current point, halved until the objective does not
    rise.  Returns a GaussianMisfit whose differences between two states
    match Phi's to second order about the MAP, at O(min(p, k) k) per call.
    The step count and the final gradient norm are logged at INFO.
    """
    if model.kind != PROBIT:
        raise ValueError("the Laplace surrogate is for probit noise")
    mat = np.asarray(mat, dtype=float)
    y = np.asarray(y, dtype=float)
    d_u = np.asarray(d_u, dtype=float)
    sigma = model.sigma

    def objective(a):
        return potential(mat @ a, y, model) + 0.5 * float(np.sum(a * a / d_u))

    a = np.zeros(d_u.shape[0])
    value = objective(a)
    steps = 0
    while steps < _NEWTON_STEPS:
        _, rows, labels = _probit_expansion(mat, y, sigma, a)
        step = coefficient_posterior(rows, d_u, labels, sigma)[0] - a
        cand = a + step
        while not np.array_equal(cand, a):
            cand_value = objective(cand)
            if cand_value <= value:
                break
            step *= 0.5
            cand = a + step
        if np.array_equal(cand, a) or cand_value == value:
            break
        a, value = cand, cand_value
        steps += 1
    lam, rows, labels = _probit_expansion(mat, y, sigma, a)
    gradient = a / d_u - mat.T @ (y * lam) / sigma
    logger.info("Laplace fit: %d Newton steps, gradient norm %.3g",
                steps, math.sqrt(gradient @ gradient))
    return potential_from_design_matrix(rows, labels,
                                        NoiseModel(GAUSSIAN, sigma))
