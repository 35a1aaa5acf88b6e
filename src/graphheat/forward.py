"""The heat-semigroup forward map and pointwise observation; their composition.

The heat map ``heat`` damps KL coefficients by exp(-lambda_i t), the same
map on a graph eigenbasis and on the sphere's harmonics.  Observation
evaluates a function at the labeled points, which are the first p points of
the cloud (the points are i.i.d., so which p carry labels does not matter).
G = O o F on KL coefficients is ``design_matrix``: the first p eigenvector
rows damped by exp(-lambda_i t).  It is the one place that builds
observation rows, for the chains and the closed-form posterior alike.
"""

import numpy as np


def heat(coeffs, basis, t):
    """The heat map exp(-t L) on KL coefficients: a_i -> exp(-lambda_i t) a_i.

    basis is a SpectralBasis or a ContinuumBasis; coeffs is one coefficient
    vector or a matrix with one row per vector, of length at most
    basis.count.
    """
    if not t >= 0:
        raise ValueError("t must be >= 0")
    coeffs = np.asarray(coeffs, dtype=float)
    return coeffs * np.exp(-basis.eigenvalues[:coeffs.shape[-1]] * t)


def design_matrix(basis, t, p):
    """The p x k matrix M with M[j, i] = exp(-lambda_i t) * psi_i(x_j).

    The first p rows of the eigenvectors, damped by the heat map, so that
    G(u) = M a for KL coefficient vectors a.  Computed once and shared by
    all chains; the closed-form posterior reads the same rows.
    """
    if not 1 <= p <= basis.n:
        raise ValueError("need 1 <= p <= n, got p=%d n=%d" % (p, basis.n))
    return heat(basis.eigenvectors[:p], basis, t)
