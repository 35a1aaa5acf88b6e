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


@dataclass(frozen=True)
class LabeledData:
    """Label vector with the design and synthesis parameters it came from."""

    y: np.ndarray
    design: forward.ObservationDesign
    t: float
    kind: str
    sigma: float
    seed: int = None

    def __post_init__(self):
        y = np.asarray(self.y, dtype=float)
        y.setflags(write=False)
        object.__setattr__(self, "y", y)
        if y.shape != (self.design.p,):
            raise ValueError("label vector length must match the design")
        if self.kind == PROBIT and not np.all(np.abs(y) == 1.0):
            raise ValueError("probit labels must be exactly +-1")


def potential(w, data, model):
    """Misfit phi^y(w) of predicted observations w against the labels.

    The probit branch evaluates log Psi through a stable log-CDF, so very
    negative margins give large finite potentials instead of overflowing.
    """
    w = np.asarray(w, dtype=float)
    y = data.y
    if w.shape != y.shape:
        raise ValueError("prediction/label dimension mismatch")
    if model.kind == GAUSSIAN:
        r = y - w
        return float(r @ r) / (2.0 * model.sigma**2)
    return float(-np.sum(log_ndtr(y * w / model.sigma)))


def potential_from_design_matrix(mat, data, model):
    """Closure a -> phi^y(M a) for coefficient-space samplers.

    mat is the p x k design matrix of G, one row per label.  Gaussian noise
    gives a^T (H/2) a - g^T a + c with H = M^T M / sigma^2, g = M^T y / sigma^2
    and c = |y|^2 / (2 sigma^2), so a call costs O(k^2), not O(pk).  Probit
    noise evaluates the p margins in one buffer, so no call allocates.
    """
    mat = np.asarray(mat, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != data.y.shape[0]:
        raise ValueError("design matrix shape %s does not match label shape %s"
                         % (mat.shape, data.y.shape))
    if model.kind == GAUSSIAN:
        y = data.y
        inv_sigma2 = 1.0 / model.sigma**2
        half_h = (0.5 * inv_sigma2) * (mat.T @ mat)
        g = inv_sigma2 * (mat.T @ y)
        c = (0.5 * inv_sigma2) * float(y @ y)

        def phi(a):
            return float(a.dot(half_h.dot(a) - g)) + c

        return phi

    y_over_sigma = data.y / model.sigma
    w = np.empty(mat.shape[0])

    def phi(a):
        # -sum(log_ndtr(y/sigma * (M a))), formed in one buffer
        np.dot(mat, a, out=w)
        np.multiply(w, y_over_sigma, out=w)
        log_ndtr(w, out=w)
        return -float(w.sum())

    return phi


def synthesize_data(u_truth, carrier, t, design, cloud, model, seed):
    """Draw labels from the model at the forward image of a ground truth.

    gaussian: y = G(u) + eta, eta ~ N(0, sigma^2 I).  probit: y is the sign of
    the same noisy vector, with exact zeros mapped to +1.  u_truth is a
    harmonic coefficient vector of the continuum basis carrier.
    """
    if not isinstance(carrier, ContinuumBasis):
        raise ValueError("carrier must be a ContinuumBasis, got %s"
                         % type(carrier).__name__)
    w = carrier.synthesize(forward.heat(u_truth, carrier, t),
                           cloud.points[list(design.labeled)])
    rng = np.random.default_rng(seed)
    noisy = w + model.sigma * rng.standard_normal(w.shape[0])
    if model.kind == GAUSSIAN:
        y = noisy
    else:
        y = np.where(noisy >= 0.0, 1.0, -1.0)
    return LabeledData(y, design, float(t), model.kind, model.sigma, seed)
