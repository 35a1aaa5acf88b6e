"""The heat-semigroup forward map and pointwise observation; their composition.

The heat map ``heat`` damps KL coefficients by exp(-lambda_i t), the same
map on a graph eigenbasis and on the sphere's harmonics.  Observation
evaluates a function at the labeled points, so G = O o F on KL
coefficients is ``design_matrix``: the labeled eigenvector rows damped by
exp(-lambda_i t).  It is the one place that builds observation rows, for
the chains and the closed-form posterior alike.
"""

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ObservationDesign:
    """Which nodes are labeled, each observed pointwise.

    labeled holds distinct node indices (the convention throughout is that
    labeled points come first in the cloud).
    """

    labeled: tuple

    def __post_init__(self):
        object.__setattr__(self, "labeled", tuple(int(i) for i in self.labeled))
        if len(self.labeled) < 1:
            raise ValueError("need at least one labeled index")
        if len(set(self.labeled)) != len(self.labeled):
            raise ValueError("labeled indices must be distinct")
        if any(i < 0 for i in self.labeled):
            raise ValueError("labeled indices must be nonnegative")

    @property
    def p(self):
        return len(self.labeled)


def first_p_design(p):
    """The default design: the first p cloud indices."""
    return ObservationDesign(tuple(range(p)))


def heat(coeffs, basis, t):
    """The heat map exp(-t L) on KL coefficients: a_i -> exp(-lambda_i t) a_i.

    basis is a SpectralBasis or a ContinuumBasis; coeffs is one coefficient
    vector or a matrix with one row per vector, of length at most
    basis.count.
    """
    if t < 0:
        raise ValueError("t must be >= 0")
    coeffs = np.asarray(coeffs, dtype=float)
    return coeffs * np.exp(-basis.eigenvalues[:coeffs.shape[-1]] * t)


def design_matrix(basis, t, design):
    """The p x k matrix M with M[j, i] = exp(-lambda_i t) * psi_i(x_j).

    The labeled rows of the eigenvectors, damped by the heat map, so that
    G(u) = M a for KL coefficient vectors a.  Computed once and shared by
    all chains; the closed-form posterior reads the same rows.
    """
    if any(i >= basis.n for i in design.labeled):
        raise ValueError("labeled index out of range for cloud of size %d"
                         % basis.n)
    return heat(basis.eigenvectors[list(design.labeled)], basis, t)
