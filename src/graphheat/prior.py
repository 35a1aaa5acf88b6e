"""Truncated Gaussian priors in the Laplacian eigenbasis and regularity diagnostics.

A prior draw is u = sum_{i<k_n} (alpha + lambda_i)^(-s/4) xi_i psi_i with
i.i.d. standard normal xi.  The regularity diagnostic is the oscillation
statistic over closed eps-balls of draws normalized to unit H^s seminorm.
It runs over the cloud's cached CSR ball lists (``PointCloud.eps_balls``),
built once per (cloud, eps), so each call costs O(number of ball entries)
rather than O(n^2).  The regularity study takes xi from nodal white noise
z, xi = Psi^T z / sqrt(n), and shares one z across every s: each draw is
then a function of the Laplacian applied to z, the same whichever
orthonormal eigenvectors the solver picked inside a repeated eigenvalue.
"""

import math
from dataclasses import dataclass

import numpy as np

UNTRUNCATED = None  # sentinel for k_n = n

# Consecutive redraws of one regularity draw (seminorm below 1e-14) before
# the study gives up on that s.
MAX_REDRAWS = 100
# Draws per chunk of the regularity study.  The oscillation gather is one
# row at a time, so the chunk bounds only the (len(s_grid) * chunk, n)
# array of synthesized values.
DRAW_CHUNK = 16


@dataclass(frozen=True)
class PriorSpec:
    """Parameters (alpha, s, k_n) of the spectral prior.

    alpha >= 0 shifts the spectrum; s is the smoothness exponent and must
    exceed the intrinsic dimension m; k_n is the truncation level, or
    UNTRUNCATED (None) for the full basis.  alpha = 0 is refused on a
    spectrum with a zero eigenvalue, whose constant mode it makes singular.
    """

    alpha: float
    s: float
    k_n: int = UNTRUNCATED
    m: int = 2

    def __post_init__(self):
        if self.alpha < 0:
            raise ValueError("alpha must be >= 0")
        if self.s <= self.m:
            raise ValueError(
                "smoothness s must exceed intrinsic dimension m (s=%g, m=%d)"
                % (self.s, self.m)
            )
        if self.k_n is not UNTRUNCATED and self.k_n < 1:
            raise ValueError("k_n must be >= 1")

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
        lam = np.asarray(eigenvalues, dtype=float)
        if self.alpha == 0 and lam[0] < 1e-14:
            raise ValueError("alpha=0 with a zero eigenvalue makes the "
                             "constant mode singular; alpha must be positive")
        return (self.alpha + lam) ** (-self.s / 4.0)

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
    if eps <= 0:
        raise ValueError("eps must be positive")
    k = max(2, math.floor(eps ** (-m) / math.log(n)))
    return min(k, n)


def sample_graph_prior(basis, spec, seed):
    """One prior draw in a graph eigenbasis, as nodal values."""
    scales = spec.truncated_scales(basis)
    rng = np.random.default_rng(seed)
    return basis.synthesize(scales * rng.standard_normal(scales.shape[0]))


def _seminorm(eigenvalues, coeffs, s):
    # the H^s seminorm of one coefficient vector, or of each row of a batch
    lam = eigenvalues[: coeffs.shape[-1]]
    return np.sum(lam**s * coeffs**2, axis=-1)


def _nodal_values(u, cloud):
    values = np.asarray(u, dtype=float)
    if values.ndim not in (1, 2) or values.shape[-1] != cloud.n:
        raise ValueError(
            "expected %d nodal values, got shape %s" % (cloud.n, values.shape)
        )
    return values


def oscillation(u, cloud, eps):
    """Per-point oscillation over closed eps-balls and its maximum.

    osc(x_i) = max - min of the nodal values over all cloud points within
    distance eps of x_i (self included, so isolated points give 0).  The
    balls are the cloud's cached CSR lists from ``cloud.eps_balls(eps)``,
    built once per (cloud, eps); max and min are exact, so the result does
    not depend on how the balls are stored.  An (m, n) batch of functions,
    one per row, gives an (m, n) array and the m row maxima.
    """
    values = _nodal_values(u, cloud)
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

    Draw j reads ``default_rng(seed + j).standard_normal(n)`` as nodal white
    noise z and takes the coefficients Psi^T z / sqrt(n) over the full
    supplied basis, i.i.d. standard normal because Psi / sqrt(n) has
    orthonormal columns.  One draw serves every s in s_grid: scaled by
    (alpha + lambda_i)^(-s/4), it is f_s(L) z for a function f_s of the
    Laplacian, so a rotation of the eigenvectors inside a repeated
    eigenvalue (the solver's free choice) cancels, in the draw and in the
    H^s seminorm it is rescaled to 1 by.  The result per s is the maximum
    of the osc statistic over all draws and points.  A draw whose seminorm
    at some s is below 1e-14 is redrawn for that s from fresh offsets
    seed + draws + 1, + 2, ..., counted per s.  ValueError names s when no
    draw can reach that threshold: at once when lambda_i^s * scale_i^2 is 0
    for every mode (an eps-graph without edges), otherwise after
    MAX_REDRAWS consecutive redraws of one draw.

    Draws go in chunks of DRAW_CHUNK: one product with Psi^T gives their
    coefficients, and one product with Psi synthesizes them at every s for
    a single ``oscillation`` call.
    """
    if draws < 1:
        raise ValueError("draws must be >= 1")
    if alpha <= 0:
        raise ValueError("alpha must be positive here; the constant mode is kept")
    lam = basis.eigenvalues
    s_values = [float(s) for s in s_grid]
    # Scales computed directly: the study spans s at and below the
    # intrinsic dimension on purpose, which PriorSpec would reject.
    scales = [(alpha + lam) ** (-s / 4.0) for s in s_values]
    for s, scale in zip(s_values, scales):
        if not np.any(lam**s * scale**2 > 0):
            raise ValueError(
                "s=%g: the H^s weight lambda_i^s (alpha + lambda_i)^(-s/2) is 0 "
                "for every mode, so no prior draw has a positive seminorm; the "
                "eps-graph has no edges or its spectrum is too small (raise "
                "eps_multiplier or calibration)" % s
            )
    psi = basis.eigenvectors
    n = basis.n

    def white_noise_coefficients(first, stop):
        z = np.array([np.random.default_rng(a).standard_normal(n)
                      for a in range(first, stop)])
        return z @ psi / math.sqrt(n)

    worst = np.zeros(len(s_values))
    extra = [0] * len(s_values)
    for lo in range(0, draws, DRAW_CHUNK):
        xi = white_noise_coefficients(seed + lo,
                                      seed + min(lo + DRAW_CHUNK, draws))
        unit = []
        for a, (s, scale) in enumerate(zip(s_values, scales)):
            coeffs = scale * xi
            sem = _seminorm(lam, coeffs, s)
            for i in np.flatnonzero(sem < 1e-14):
                for _ in range(MAX_REDRAWS):
                    extra[a] += 1
                    attempt = seed + draws + extra[a]
                    coeffs[i] = scale * white_noise_coefficients(
                        attempt, attempt + 1)[0]
                    sem[i] = _seminorm(lam, coeffs[i], s)
                    if sem[i] >= 1e-14:
                        break
                else:
                    raise ValueError(
                        "s=%g: %d consecutive prior draws had H^s seminorm "
                        "below 1e-14; the graph spectrum is too small for "
                        "this s (raise calibration or eps_multiplier)"
                        % (s, MAX_REDRAWS + 1)
                    )
            unit.append(coeffs / np.sqrt(sem)[:, None])
        _, maxima = oscillation(np.concatenate(unit) @ psi.T, cloud, eps)
        worst = np.maximum(worst, maxima.reshape(len(s_values), -1).max(axis=1))
    return [(s, float(w)) for s, w in zip(s_values, worst)]
