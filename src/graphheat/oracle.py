"""Closed-form Gaussian posteriors for the linear heat-observation model.

The prior covariance c_u and the heat map F^t give three kernels, each a
series over the retained eigenpairs:

  c_u(x, x~) = sum_i (alpha+lambda_i)^(-s/2) psi_i(x) psi_i(x~)
  c_v        = same series with an extra factor exp(-2 lambda_i t)   (v = F u)
  c_w        = same with factor exp(-lambda_i t)                     (cross)

The posterior mean given y at observed locations X is
  m(x) = c_w(x, X) (c_v(X, X) + sigma^2 I)^{-1} y
and the pointwise variance
  var(x) = c_u(x, x) - c_w(x, X) (c_v(X, X) + sigma^2 I)^{-1} c_w(X, x).

``_kernel_posterior`` evaluates both from the eigenfeatures psi_i at X and
at the query points; ``graph_posterior`` feeds it graph eigenvectors and
``continuum_posterior`` spherical harmonics.  These are the ground truth
the pCN chains are validated against; gaussian noise only.  The noise
variance written gamma^2 in some regression treatments is the same sigma^2
used everywhere here.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .forward import observation_matrix
from .likelihood import GAUSSIAN


@dataclass
class PosteriorSummary:
    """Mean and pointwise variance at query locations."""

    mean: np.ndarray
    variance: np.ndarray


class CovarianceKernels:
    """The prior kernel c_u over a truncated graph eigenbasis.

    d_u holds the prior variances (alpha+lambda_i)^(-s/2) of the retained
    modes and psi their eigenvectors; prior_variance() is c_u(x, x) at every
    node.  c_u does not depend on the heat time t; the argument is kept so
    callers pass the same (spec, t, basis) as to graph_posterior.
    """

    def __init__(self, spec, t, basis):
        self.d_u = spec.truncated_scales(basis) ** 2
        self.psi = basis.eigenvectors[:, :self.d_u.shape[0]]

    def prior_variance(self):
        return (self.psi**2) @ self.d_u


def covariance_kernels(spec, t, basis):
    return CovarianceKernels(spec, t, basis)


def _kernel_posterior(d_u, lam, t, psi_x, psi_q, y, sigma):
    """Posterior mean and variance at the query features psi_q.

    d_u are the prior variances of the modes with eigenvalues lam; psi_x
    and psi_q hold the mode features at the observations and the queries.
    """
    d_v = d_u * np.exp(-2.0 * lam * t)
    d_w = d_u * np.exp(-lam * t)
    cvXX = (psi_x * d_v[None, :]) @ psi_x.T
    cwQX = (psi_q * d_w[None, :]) @ psi_x.T
    p = cvXX.shape[0]
    a = cvXX + sigma**2 * np.eye(p)
    if sigma < 1e-8:
        a = a + 1e-12 * (np.trace(cvXX) / p + 1.0) * np.eye(p)
    try:
        fac = cho_factor(a, lower=True)
    except np.linalg.LinAlgError as err:
        raise RuntimeError(
            "observation covariance factorization failed (sigma=%g)" % sigma
        ) from err
    mean = cwQX @ cho_solve(fac, y)
    solved = cho_solve(fac, cwQX.T)
    variance = (psi_q**2) @ d_u - np.sum(cwQX * solved.T, axis=1)
    return PosteriorSummary(mean, np.maximum(variance, 0.0))


def graph_posterior(data, basis, spec, t, sigma, cloud=None):
    """Closed-form posterior mean/variance at every node of the graph.

    The observation rows come from the design in `data` (pointwise or
    ball-average); ball mode needs the cloud to build the averaging operator.
    """
    if data.kind != GAUSSIAN:
        raise ValueError("closed-form posterior requires gaussian noise")
    kern = CovarianceKernels(spec, t, basis)
    if data.design.mode == "pointwise" and cloud is None:
        obs_psi = kern.psi[np.array(data.design.labeled)]
    else:
        obs_psi = observation_matrix(data.design, cloud) @ kern.psi
    lam = basis.eigenvalues[:kern.d_u.shape[0]]
    return _kernel_posterior(kern.d_u, lam, t, obs_psi, kern.psi, data.y,
                             sigma)


def continuum_posterior(data, cont, spec, t, sigma, query_points, cloud):
    """Closed-form posterior on the sphere, queryable at arbitrary points.

    Pointwise observation only; the kernels are truncated at the basis l_max
    and the neglected tail mass is available from the prior module.
    """
    if data.kind != GAUSSIAN:
        raise ValueError("closed-form posterior requires gaussian noise")
    if data.design.mode != "pointwise":
        raise ValueError("continuum posterior supports pointwise observation only")
    d_u = spec.coefficient_scales(cont.eigenvalues) ** 2
    psi_x = cont.evaluate(cloud.points[list(data.design.labeled)])
    psi_q = cont.evaluate(np.atleast_2d(query_points))
    return _kernel_posterior(d_u, cont.eigenvalues, t, psi_x, psi_q, data.y,
                             sigma)
