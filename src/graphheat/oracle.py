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
"""

from dataclasses import dataclass

import numpy as np
from scipy import linalg

from .forward import design_matrix, heat
from .likelihood import GAUSSIAN


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


def graph_posterior(data, basis, spec, t, sigma):
    """Closed-form posterior mean/variance at every node of the graph.

    The observation rows are the design matrix the chains use, cut to the
    prior's k retained modes.
    """
    if data.kind != GAUSSIAN:
        raise ValueError("closed-form posterior requires gaussian noise")
    d_u = spec.truncated_scales(basis) ** 2
    k = d_u.shape[0]
    rows = design_matrix(basis, t, data.design)[:, :k]
    mean, cov = coefficient_posterior(rows, d_u, data.y, sigma)
    return _at(basis.eigenvectors[:, :k], mean, cov)


def continuum_posterior(data, cont, spec, t, sigma, query_points, cloud):
    """Closed-form posterior on the sphere, queryable at arbitrary points.

    The prior is truncated at the basis l_max.
    """
    if data.kind != GAUSSIAN:
        raise ValueError("closed-form posterior requires gaussian noise")
    d_u = spec.coefficient_scales(cont.eigenvalues) ** 2
    rows = cont.evaluate(cloud.points[list(data.design.labeled)])
    mean, cov = coefficient_posterior(heat(rows, cont, t), d_u, data.y, sigma)
    return _at(cont.evaluate(np.atleast_2d(query_points)), mean, cov)
