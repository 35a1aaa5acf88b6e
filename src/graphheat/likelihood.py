"""Noise models, misfit potentials and data synthesis.

Two observation models:
  gaussian  phi(w) = |y - w|^2 / (2 sigma^2)
  probit    phi(w) = -sum_i log Psi(y_i w_i; sigma),  Psi the N(0, sigma^2) CDF
The chains compose the misfit with the forward map G through its design
matrix.  The Gaussian composite is a quadratic form in the k coefficients,
precomputed once, so a chain step costs O(k^2) however many labels p there
are; its absolute error is about 1e-16 * |y|^2 / (2 sigma^2).
"""

from dataclasses import dataclass

import numpy as np
from scipy.special import log_ndtr

from . import forward
from .spectral import ContinuumBasis

GAUSSIAN = "gaussian"
PROBIT = "probit"


@dataclass(frozen=True)
class NoiseModel:
    kind: str
    sigma: float

    def __post_init__(self):
        if self.kind not in (GAUSSIAN, PROBIT):
            raise ValueError("kind must be %r or %r" % (GAUSSIAN, PROBIT))
        if self.sigma <= 0:
            raise ValueError("sigma must be positive")


def _labels(y, model):
    # labels are a vector over the first len(y) points; probit ones are +-1
    y = np.asarray(y, dtype=float)
    if y.ndim != 1:
        raise ValueError("labels must be a vector, got shape %s" % (y.shape,))
    if model.kind == PROBIT and not np.all(np.abs(y) == 1.0):
        raise ValueError("probit labels must be exactly +-1")
    return y


def potential(w, y, model):
    """Misfit phi^y(w) of predicted observations w against the labels.

    The probit branch evaluates log Psi through a stable log-CDF, so very
    negative margins give large finite potentials instead of overflowing.
    """
    w = np.asarray(w, dtype=float)
    y = _labels(y, model)
    if w.shape != y.shape:
        raise ValueError("prediction/label dimension mismatch")
    if model.kind == GAUSSIAN:
        r = y - w
        return float(r @ r) / (2.0 * model.sigma**2)
    return float(-np.sum(log_ndtr(y * w / model.sigma)))


def potential_from_design_matrix(mat, y, model):
    """Closure a -> phi^y(M a) for coefficient-space samplers.

    mat is the p x k design matrix of G, one row per label.  Gaussian noise
    gives a^T (H/2) a - g^T a + c with H = M^T M / sigma^2, g = M^T y / sigma^2
    and c = |y|^2 / (2 sigma^2), so a call costs O(k^2), not O(pk).  Probit
    noise evaluates the p margins in one buffer, so no call allocates.
    """
    mat = np.asarray(mat, dtype=float)
    y = _labels(y, model)
    if mat.ndim != 2 or mat.shape[0] != y.shape[0]:
        raise ValueError("design matrix shape %s does not match label shape %s"
                         % (mat.shape, y.shape))
    if model.kind == GAUSSIAN:
        inv_sigma2 = 1.0 / model.sigma**2
        half_h = (0.5 * inv_sigma2) * (mat.T @ mat)
        g = inv_sigma2 * (mat.T @ y)
        c = (0.5 * inv_sigma2) * float(y @ y)

        def phi(a):
            return float(a.dot(half_h.dot(a) - g)) + c

        return phi

    y_over_sigma = y / model.sigma
    w = np.empty(mat.shape[0])

    def phi(a):
        # -sum(log_ndtr(y/sigma * (M a))), formed in one buffer
        np.dot(mat, a, out=w)
        np.multiply(w, y_over_sigma, out=w)
        log_ndtr(w, out=w)
        return -float(w.sum())

    return phi


def synthesize_data(u_truth, carrier, t, p, cloud, model, seed):
    """The label vector at the first p cloud points, drawn from the model.

    gaussian: y = G(u) + eta, eta ~ N(0, sigma^2 I).  probit: y is the sign of
    the same noisy vector, with exact zeros mapped to +1.  u_truth is a
    harmonic coefficient vector of the continuum basis carrier.
    """
    if not isinstance(carrier, ContinuumBasis):
        raise ValueError("carrier must be a ContinuumBasis, got %s"
                         % type(carrier).__name__)
    if not 1 <= p <= cloud.n:
        raise ValueError("need 1 <= p <= n, got p=%d n=%d" % (p, cloud.n))
    w = carrier.synthesize(forward.heat(u_truth, carrier, t),
                           cloud.points[:p])
    rng = np.random.default_rng(seed)
    noisy = w + model.sigma * rng.standard_normal(w.shape[0])
    if model.kind == GAUSSIAN:
        return noisy
    return np.where(noisy >= 0.0, 1.0, -1.0)
