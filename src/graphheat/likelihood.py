"""Noise models, misfit potentials and data synthesis.

Two observation models:
  gaussian  phi(w) = |y - w|^2 / (2 sigma^2)
  probit    phi(w) = -sum_i log Psi(y_i w_i; sigma),  Psi the N(0, sigma^2) CDF
The chains compose the misfit with the forward map G through its design
matrix M.  The Gaussian composite is kept in reduced residual form: with the
thin SVD M / (sigma sqrt 2) = U S V^T, r = min(p, k) singular values and
R = S V^T of r rows, phi(M a) = |z - R a|^2 + c for z = U^T y / (sigma sqrt 2)
and c the squared norm of the part of y / (sigma sqrt 2) outside the range
of U.  A chain step then costs O(rk) however many labels p there are, and no
term of size |y|^2 is cancelled, so a near-fit keeps its relative accuracy.
``GaussianMisfit.batch`` evaluates the forms of many chains in one pass.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy import linalg
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


class GaussianMisfit:
    """The Gaussian misfit a -> |z - R a|^2 + c of one design.

    matrix R (r, k), target z (r,) and offset c >= 0 are the reduced
    residual form of the module docstring.
    """

    def __init__(self, matrix, target, offset):
        self.matrix = matrix
        self.target = target
        self.offset = offset

    def __call__(self, a):
        w = self.target - self.matrix.dot(a)
        return float(w.dot(w)) + self.offset

    @staticmethod
    def batch(misfits):
        """evaluate(states, out): out[i] = misfits[i](states[i]), in one pass.

        The misfits must share one shape.  The products run over a stack of
        their forms and give each value the bits of the misfit's own call:
        a stacked matrix-vector or dot product is the same BLAS call per
        design as the unstacked one.
        """
        matrices = np.stack([m.matrix for m in misfits])
        targets = np.stack([m.target for m in misfits])
        offsets = np.array([m.offset for m in misfits])
        w = np.empty(targets.shape)
        w_col, w_row = w[:, :, None], w[:, None, :]

        def evaluate(states, out):
            np.matmul(matrices, states[:, :, None], out=w_col)
            np.subtract(targets, w, w)
            np.matmul(w_row, w_col, out=out[:, None, None])
            np.add(out, offsets, out)
            return out

        return evaluate


def potential_from_design_matrix(mat, y, model):
    """The potential a -> phi^y(M a) for coefficient-space samplers.

    mat is the p x k design matrix of G, one row per label.  Gaussian noise
    gives a GaussianMisfit in reduced residual form, from one thin SVD of
    M, whose call costs O(min(p, k) k), not O(pk).  Probit noise gives a
    closure that evaluates the p margins in one buffer, so no call
    allocates.
    """
    mat = np.asarray(mat, dtype=float)
    y = _labels(y, model)
    if mat.ndim != 2 or mat.shape[0] != y.shape[0]:
        raise ValueError("design matrix shape %s does not match label shape %s"
                         % (mat.shape, y.shape))
    if model.kind == GAUSSIAN:
        scale = 1.0 / (model.sigma * math.sqrt(2.0))
        u, sv, vt = linalg.svd(scale * mat, full_matrices=False)
        b = scale * y
        z = u.T @ b
        rest = b - u @ z
        return GaussianMisfit(sv[:, None] * vt, z, float(rest @ rest))

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
