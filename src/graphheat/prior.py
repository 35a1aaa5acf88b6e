"""Truncated Gaussian priors in the Laplacian eigenbasis and regularity diagnostics.

A prior draw is u = sum_{i<k_n} (alpha + lambda_i)^(-s/4) xi_i psi_i with
i.i.d. standard normal xi.  Every draw takes xi from nodal white noise z,
xi = Psi^T z / sqrt(n) (``_white_noise_coefficients``), so u is a function
of the Laplacian applied to z: the same bits whichever sign the solver gave
each psi_i, and over the full basis the same draw whichever orthonormal
eigenvectors it picked inside a repeated eigenvalue.  The regularity
diagnostic is the oscillation statistic over closed eps-balls of draws
normalized to unit H^s seminorm.  It runs over the cloud's cached CSR ball
lists (``PointCloud.eps_balls``), built once per (cloud, eps), so each call
costs O(number of ball entries) rather than O(n^2).  The regularity study
shares one z across every s.
"""

import math
import numbers
from dataclasses import dataclass

import numpy as np

UNTRUNCATED = None  # sentinel for k_n = n

# Draws per chunk of the regularity study.  The oscillation gather is one
# row at a time, so the chunk bounds only the (len(s_grid) * chunk, n)
# array of synthesized values.
DRAW_CHUNK = 16


def _mode_scales(alpha, s, eigenvalues):
    """The prior's standard deviations (alpha + lambda_i)^(-s/4), per mode.

    alpha must be finite, >= 0, and > 0 on a spectrum that starts at 0 (the
    constant mode); a NaN fails each check.  () checks alpha alone.
    """
    lam = np.asarray(eigenvalues, dtype=float)
    if not 0 <= alpha < math.inf:
        raise ValueError("alpha must be >= 0 and finite, got %r" % (alpha,))
    if not (alpha > 0 or lam.size == 0 or lam[0] >= 1e-14):
        raise ValueError("alpha=0 with a zero eigenvalue makes the "
                         "constant mode singular; alpha must be positive")
    return (alpha + lam) ** (-s / 4.0)


@dataclass(frozen=True)
class PriorSpec:
    """Parameters (alpha, s, k_n) of the spectral prior.

    alpha >= 0 shifts the spectrum (``_mode_scales`` holds its rule); s is
    the smoothness exponent and must exceed the intrinsic dimension m; k_n
    is the truncation level, a positive integer, or UNTRUNCATED (None) for
    the full basis.
    """

    alpha: float
    s: float
    k_n: int = UNTRUNCATED
    m: int = 2

    def __post_init__(self):
        _mode_scales(self.alpha, self.s, ())     # the alpha rule, no spectrum
        # a comparison that a NaN fails
        if not self.m < self.s < math.inf:
            raise ValueError(
                "smoothness s must be finite and exceed intrinsic dimension m "
                "(s=%g, m=%d)" % (self.s, self.m)
            )
        if self.k_n is not UNTRUNCATED and (
                not isinstance(self.k_n, numbers.Integral)
                or isinstance(self.k_n, bool) or self.k_n < 1):
            raise ValueError("k_n must be a positive integer or None "
                             "(UNTRUNCATED), got %r" % (self.k_n,))

    def truncation(self, available):
        """Resolve k_n against the number of available eigenpairs."""
        if self.k_n is UNTRUNCATED:
            return available
        if self.k_n > available:
            raise ValueError(
                "k_n=%d exceeds the %d available eigenpairs" % (self.k_n, available)
            )
        return self.k_n

    def coefficient_scales(self, eigenvalues):
        """Standard deviations (alpha + lambda_i)^(-s/4) per retained mode."""
        return _mode_scales(self.alpha, self.s, eigenvalues)

    def truncated_scales(self, basis):
        """coefficient_scales of the first truncation(basis.count) modes."""
        k = self.truncation(basis.count)
        return self.coefficient_scales(basis.eigenvalues[:k])


def default_truncation(n, eps, m):
    """Truncation rule k_n = max(2, floor(eps^-m / log n)), clamped to n.

    Grows without bound while k_n * eps^m -> 0 under the bandwidth scalings
    used here; the divisor log n is one concrete choice inside that window.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    if not eps > 0:
        raise ValueError("eps must be positive")
    k = max(2, math.floor(eps ** (-m) / math.log(n)))
    return min(k, n)


def _white_noise_coefficients(psi, seeds):
    # Psi^T z / sqrt(n) for the nodal white noise z of each seed, one row
    # each: i.i.d. standard normal, since Psi / sqrt(n) has orthonormal
    # columns, and negated exactly with any column of Psi
    n = psi.shape[0]
    z = np.array([np.random.default_rng(a).standard_normal(n) for a in seeds])
    return z @ psi / math.sqrt(n)


def sample_graph_prior(basis, spec, seed):
    """One prior draw in a graph eigenbasis, as nodal values.

    The coefficients are the first k_n of the nodal white noise of ``seed``
    (``_white_noise_coefficients``), scaled by ``spec.truncated_scales``.
    """
    scales = spec.truncated_scales(basis)
    psi = basis.eigenvectors[:, :scales.shape[0]]
    return basis.synthesize(scales * _white_noise_coefficients(psi, [seed])[0])


def _seminorm(eigenvalues, coeffs, s):
    # the H^s seminorm of one coefficient vector, or of each row of a batch
    lam = eigenvalues[: coeffs.shape[-1]]
    return np.sum(lam**s * coeffs**2, axis=-1)


def oscillation(u, cloud, eps):
    """Per-point oscillation over closed eps-balls and its maximum.

    osc(x_i) = max - min of the nodal values over all cloud points within
    distance eps of x_i (self included, so isolated points give 0).  The
    balls are the cloud's cached CSR lists from ``cloud.eps_balls(eps)``,
    built once per (cloud, eps); max and min are exact, so the result does
    not depend on how the balls are stored.  An (m, n) batch of functions,
    one per row, gives an (m, n) array and the m row maxima.
    """
    values = np.asarray(u, dtype=float)
    if values.ndim not in (1, 2) or values.shape[-1] != cloud.n:
        raise ValueError("expected %d nodal values, got shape %s"
                         % (cloud.n, values.shape))
    indptr, indices = cloud.eps_balls(eps)
    # every ball contains its own point, so no segment is empty
    starts = indptr[:-1]
    osc = np.empty(values.shape)
    # one row at a time: a 1-D gather and reduceat beat their 2-D forms
    for row, out in zip(np.atleast_2d(values), np.atleast_2d(osc)):
        ball = row[indices]
        np.subtract(np.maximum.reduceat(ball, starts),
                    np.minimum.reduceat(ball, starts), out=out)
    if values.ndim == 1:
        return osc, float(osc.max())
    return osc, osc.max(axis=1)


def regularity_experiment(basis, cloud, eps, s_grid, draws, seed, alpha=1.0):
    """Max oscillation of seminorm-normalized prior draws, per smoothness s.

    Draw j takes the nodal white noise of seed + j over the full supplied
    basis (``_white_noise_coefficients``).  One draw serves every s >= 0 in
    s_grid: scaled by (alpha + lambda_i)^(-s/4), it is f_s(L) z for a
    function f_s of the Laplacian, so a rotation of the eigenvectors inside
    a repeated eigenvalue (the solver's free choice) cancels, in the draw
    and in the H^s seminorm it is divided by.  The result per s is the
    maximum of the osc statistic over all draws and points.  ValueError
    names alpha when it breaks PriorSpec's rule (``_mode_scales``), and s
    when s is negative, or when lambda_i^s * scale_i^2 is 0 for every mode
    (an eps-graph without edges), so that no draw has a positive seminorm.

    Draws go in chunks of DRAW_CHUNK: one product with Psi^T gives their
    coefficients, and one product with Psi synthesizes them at every s for
    a single ``oscillation`` call.
    """
    if draws < 1:
        raise ValueError("draws must be >= 1")
    lam = basis.eigenvalues
    s_values = [float(s) for s in s_grid]
    scales = []
    for s in s_values:
        if not s >= 0:
            raise ValueError("s=%g: the smoothness must be >= 0, since "
                             "lambda^s is infinite at the zero eigenvalue" % s)
        # not through PriorSpec: the study spans s at and below the
        # intrinsic dimension on purpose, which PriorSpec refuses
        scales.append(_mode_scales(alpha, s, lam))
        if not np.any(lam**s * scales[-1]**2 > 0):
            raise ValueError(
                "s=%g: the H^s weight lambda_i^s (alpha + lambda_i)^(-s/2) is 0 "
                "for every mode, so no prior draw has a positive seminorm; the "
                "eps-graph has no edges or its spectrum is too small (raise "
                "eps_multiplier or calibration)" % s
            )
    psi = basis.eigenvectors
    worst = np.zeros(len(s_values))
    for lo in range(0, draws, DRAW_CHUNK):
        xi = _white_noise_coefficients(
            psi, range(seed + lo, seed + min(lo + DRAW_CHUNK, draws)))
        unit = []
        for s, scale in zip(s_values, scales):
            coeffs = scale * xi
            unit.append(coeffs / np.sqrt(_seminorm(lam, coeffs, s))[:, None])
        _, maxima = oscillation(np.concatenate(unit) @ psi.T, cloud, eps)
        worst = np.maximum(worst, maxima.reshape(len(s_values), -1).max(axis=1))
    return [(s, float(w)) for s, w in zip(s_values, worst)]
