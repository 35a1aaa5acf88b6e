"""Truncated Gaussian priors in the Laplacian eigenbasis and regularity diagnostics.

A prior draw is u = sum_{i<k_n} (alpha + lambda_i)^(-s/4) xi_i psi_i with
i.i.d. standard normal xi.  The regularity diagnostic is the oscillation
statistic over closed eps-balls of draws normalized to unit H^s seminorm.
It runs over the cloud's cached CSR ball lists (``PointCloud.eps_balls``),
built once per (cloud, eps), so each call costs O(number of ball entries)
rather than O(n^2).
"""

import math
from dataclasses import dataclass

import numpy as np

UNTRUNCATED = None  # sentinel for k_n = n

# Consecutive redraws of one regularity draw (seminorm below 1e-14) before
# the study gives up on that s.
MAX_REDRAWS = 100


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


class CloudFunction:
    """A function on the cloud: nodal values, optionally KL coefficients."""

    def __init__(self, values, coefficients=None, basis=None):
        self.values = np.asarray(values, dtype=float)
        self.coefficients = (
            None if coefficients is None else np.asarray(coefficients, dtype=float)
        )
        self.basis = basis

    @classmethod
    def from_coefficients(cls, basis, coefficients):
        coefficients = np.asarray(coefficients, dtype=float)
        return cls(basis.synthesize(coefficients), coefficients, basis)

    @property
    def n(self):
        return self.values.shape[0]


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
    """One prior draw in a graph eigenbasis; coefficients are stored."""
    scales = spec.truncated_scales(basis)
    rng = np.random.default_rng(seed)
    coeffs = scales * rng.standard_normal(scales.shape[0])
    return CloudFunction.from_coefficients(basis, coeffs)


def _coefficients(u, basis):
    if u.coefficients is not None and u.basis is basis:
        return u.coefficients
    return basis.project(u.values)


def _seminorm(eigenvalues, coeffs, s):
    lam = eigenvalues[: coeffs.shape[0]]
    return float(np.sum(lam**s * coeffs**2))


def _nodal_values(u, cloud):
    values = u.values if isinstance(u, CloudFunction) else np.asarray(u, dtype=float)
    if values.shape != (cloud.n,):
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
    not depend on how the balls are stored.
    """
    values = _nodal_values(u, cloud)
    indptr, indices = cloud.eps_balls(eps)
    ball = values[indices]
    # every ball contains its own point, so no segment is empty
    starts = indptr[:-1]
    osc = np.maximum.reduceat(ball, starts) - np.minimum.reduceat(ball, starts)
    return osc, float(osc.max())


def regularity_experiment(basis, cloud, eps, s_grid, draws, seed, alpha=1.0):
    """Max oscillation of seminorm-normalized prior draws, per smoothness s.

    For each s in s_grid: take `draws` prior samples over the full supplied
    basis, rescale each to unit H^s seminorm, and record the maximum of the
    osc statistic over all draws and points.  Draw j of a batch uses seed
    seed + j; draws with seminorm below 1e-14 are redrawn from fresh offsets.
    ValueError names s when no draw can reach that threshold: at once when
    lambda_i^s * scale_i^2 is 0 for every mode (an eps-graph without edges),
    otherwise after MAX_REDRAWS consecutive redraws of one draw.
    """
    if draws < 1:
        raise ValueError("draws must be >= 1")
    if alpha <= 0:
        raise ValueError("alpha must be positive here; the constant mode is kept")
    lam = basis.eigenvalues
    rows = []
    for s in s_grid:
        s = float(s)
        # Scales computed directly: the study spans s at and below the
        # intrinsic dimension on purpose, which PriorSpec would reject.
        scales = (alpha + lam) ** (-s / 4.0)
        if not np.any(lam**s * scales**2 > 0):
            raise ValueError(
                "s=%g: the H^s weight lambda_i^s (alpha + lambda_i)^(-s/2) is 0 "
                "for every mode, so no prior draw has a positive seminorm; the "
                "eps-graph has no edges or its spectrum is too small (raise "
                "eps_multiplier or calibration)" % s
            )
        worst = 0.0
        extra = 0
        for j in range(draws):
            attempt = seed + j
            for _ in range(MAX_REDRAWS + 1):
                rng = np.random.default_rng(attempt)
                coeffs = scales * rng.standard_normal(basis.count)
                sem = _seminorm(lam, coeffs, s)
                if sem >= 1e-14:
                    break
                extra += 1
                attempt = seed + draws + extra
            else:
                raise ValueError(
                    "s=%g: %d consecutive prior draws had H^s seminorm below "
                    "1e-14; the graph spectrum is too small for this s (raise "
                    "calibration or eps_multiplier)" % (s, MAX_REDRAWS + 1)
                )
            u = CloudFunction.from_coefficients(basis, coeffs / np.sqrt(sem))
            _, mx = oscillation(u, cloud, eps)
            worst = max(worst, mx)
        rows.append((s, worst))
    return rows
