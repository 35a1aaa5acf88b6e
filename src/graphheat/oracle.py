"""Closed-form Gaussian posteriors for the linear heat-observation model.

With prior covariance c_u and the heat map F^t, three kernels appear:

  c_u(x, x~) = sum_i (alpha+lambda_i)^(-s/2) psi_i(x) psi_i(x~)
  c_v        = same series with an extra factor exp(-2 lambda_i t)   (v = F u)
  c_w        = same with factor exp(-lambda_i t)                     (cross)

The posterior mean given y at observed locations X is
  m(x) = c_w(x, X) (c_v(X, X) + sigma^2 I)^{-1} y
and the pointwise variance
  var(x) = c_u(x, x) - c_w(x, X) (c_v(X, X) + sigma^2 I)^{-1} c_w(X, x).

These are the ground truth the pCN chains are validated against; gaussian
noise only.  The noise variance written gamma^2 in some regression treatments
is the same sigma^2 used everywhere here.
"""

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .forward import observation_matrix
from .likelihood import GAUSSIAN


@dataclass
class PosteriorSummary:
    """Mean and pointwise variance at query locations, from oracle or chain."""

    mean: np.ndarray
    variance: np.ndarray
    provenance: str
    model: dict = field(default_factory=dict)
    locations: np.ndarray = None

    def __post_init__(self):
        self.mean = np.asarray(self.mean, dtype=float)
        if self.variance is not None:
            self.variance = np.asarray(self.variance, dtype=float)


class CovarianceKernels:
    """Evaluators for c_u, c_v, c_w over a truncated eigenbasis.

    For graph bases the evaluators take node index arrays; diagonal() gives
    the pointwise prior variance at every node.
    """

    def __init__(self, spec, t, basis):
        k = spec.truncation(basis.count)
        lam = basis.eigenvalues[:k]
        self.d_u = spec.coefficient_scales(lam) ** 2  # (alpha+lambda)^(-s/2)
        self.d_v = self.d_u * np.exp(-2.0 * lam * t)
        self.d_w = self.d_u * np.exp(-lam * t)
        self.psi = basis.eigenvectors[:, :k]
        self.t = float(t)

    def _gram(self, weights, rows, cols):
        pr = self.psi[rows]
        pc = self.psi[cols]
        return (pr * weights[None, :]) @ pc.T

    def c_u(self, rows, cols):
        return self._gram(self.d_u, rows, cols)

    def c_v(self, rows, cols):
        return self._gram(self.d_v, rows, cols)

    def c_w(self, rows, cols):
        return self._gram(self.d_w, rows, cols)

    def prior_variance(self):
        return (self.psi**2) @ self.d_u


def covariance_kernels(spec, t, basis):
    return CovarianceKernels(spec, t, basis)


def _solve_posterior(cvXX, cwQX, cuQ_diag, y, sigma):
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
    variance = cuQ_diag - np.sum(cwQX * solved.T, axis=1)
    return mean, np.maximum(variance, 0.0)


def graph_posterior(data, basis, spec, t, sigma, cloud=None):
    """Closed-form posterior mean/variance at every node of the graph.

    The observation rows come from the design in `data` (pointwise or
    ball-average); ball mode needs the cloud to build the averaging operator.
    """
    if data.kind != GAUSSIAN:
        raise ValueError("closed-form posterior requires gaussian noise")
    kern = CovarianceKernels(spec, t, basis)
    if data.design.mode == "pointwise" and cloud is None:
        rows = np.array(data.design.labeled)
        obs_psi = kern.psi[rows]
    else:
        obs_psi = observation_matrix(data.design, cloud) @ kern.psi
    cvXX = (obs_psi * kern.d_v[None, :]) @ obs_psi.T
    cwQX = (kern.psi * kern.d_w[None, :]) @ obs_psi.T
    mean, variance = _solve_posterior(
        cvXX, cwQX, kern.prior_variance(), data.y, sigma
    )
    return PosteriorSummary(
        mean,
        variance,
        provenance="oracle",
        model={"alpha": spec.alpha, "s": spec.s, "t": t, "sigma": sigma,
               "p": data.design.p},
        locations=np.arange(basis.n),
    )


def continuum_posterior(data, cont, spec, t, sigma, query_points, cloud):
    """Closed-form posterior on the sphere, queryable at arbitrary points.

    Pointwise observation only; the kernels are truncated at the basis l_max
    and the neglected tail mass is available from the prior module.
    """
    if data.kind != GAUSSIAN:
        raise ValueError("closed-form posterior requires gaussian noise")
    if data.design.mode != "pointwise":
        raise ValueError("continuum posterior supports pointwise observation only")
    kern_scales = spec.coefficient_scales(cont.eigenvalues) ** 2
    lam = cont.eigenvalues
    d_v = kern_scales * np.exp(-2.0 * lam * t)
    d_w = kern_scales * np.exp(-lam * t)
    psi_x = cont.evaluate(cloud.points[list(data.design.labeled)])
    psi_q = cont.evaluate(np.atleast_2d(query_points))
    cvXX = (psi_x * d_v[None, :]) @ psi_x.T
    cwQX = (psi_q * d_w[None, :]) @ psi_x.T
    cuQ = (psi_q**2) @ kern_scales
    mean, variance = _solve_posterior(cvXX, cwQX, cuQ, data.y, sigma)
    return PosteriorSummary(
        mean,
        variance,
        provenance="oracle",
        model={"alpha": spec.alpha, "s": spec.s, "t": t, "sigma": sigma,
               "p": data.design.p, "l_max": cont.l_max},
        locations=np.atleast_2d(query_points),
    )


@dataclass
class ErrorReport:
    rel_mean_error: float
    max_abs_mean_diff: float
    max_abs_var_diff: float
    rel_var_error: float


def compare(summary_a, summary_b, weights=None):
    """Differences of two summaries on matched locations; b is the reference.

    rel_mean_error is the weighted L^2 norm of the mean difference over the
    norm of the reference mean (uniform 1/n weights by default, the
    L^2(gamma_n) pairing).
    """
    if summary_a.mean.shape != summary_b.mean.shape:
        raise ValueError("summaries have mismatched query locations")
    if weights is None:
        weights = np.full(summary_a.mean.shape[0], 1.0 / summary_a.mean.shape[0])
    diff = summary_a.mean - summary_b.mean
    ref = np.sqrt(np.sum(weights * summary_b.mean**2))
    rel = np.sqrt(np.sum(weights * diff**2)) / max(ref, 1e-300)
    if summary_a.variance is not None and summary_b.variance is not None:
        vdiff = float(np.max(np.abs(summary_a.variance - summary_b.variance)))
        vref = float(np.max(np.abs(summary_b.variance)))
        vrel = vdiff / max(vref, 1e-300)
    else:
        vdiff = vrel = float("nan")
    return ErrorReport(float(rel), float(np.max(np.abs(diff))), vdiff, vrel)
