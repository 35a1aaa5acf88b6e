"""Heat-semigroup forward maps and pointwise observation; their composition.

The heat map damps KL coefficients by exp(-lambda_i t) and acts only on the
retained eigenspan; inputs with components outside it are projected first.
Observation evaluates a function at the labeled points, so G = O o F on KL
coefficients is ``design_matrix``: the labeled eigenvector rows damped by
exp(-lambda_i t).  It is the one place that builds observation rows, for
the chains and the closed-form posterior alike.
"""

from dataclasses import dataclass

import numpy as np

from .prior import CloudFunction, _coefficients


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


def heat_graph(u, basis, t):
    """Apply exp(-t * Laplacian) on the retained span: a_i -> exp(-lambda_i t) a_i.

    Nodal-only inputs are projected onto the basis first.
    """
    if t < 0:
        raise ValueError("t must be >= 0")
    coeffs = _coefficients(u, basis)
    damped = coeffs * np.exp(-basis.eigenvalues[: coeffs.shape[0]] * t)
    return CloudFunction.from_coefficients(basis, damped)


def heat_continuum(coeffs, cont, t):
    """Damp harmonic coefficients by exp(-l(l+1) t)."""
    if t < 0:
        raise ValueError("t must be >= 0")
    coeffs = np.asarray(coeffs, dtype=float)
    return coeffs * np.exp(-cont.eigenvalues[: coeffs.shape[0]] * t)


def observe_continuum(coeffs, cont, design, cloud):
    """Evaluate a harmonic expansion at the labeled cloud points."""
    return cont.synthesize(coeffs, cloud.points[list(design.labeled)])


def design_matrix(basis, t, design):
    """The p x k matrix M with M[j, i] = exp(-lambda_i t) * psi_i(x_j).

    The labeled rows of the eigenvectors, damped by the heat map, so that
    G(u) = M a for KL coefficient vectors a.  Computed once and shared by
    all chains; the closed-form posterior reads the same rows.
    """
    if t < 0:
        raise ValueError("t must be >= 0")
    if any(i >= basis.n for i in design.labeled):
        raise ValueError("labeled index out of range for cloud of size %d"
                         % basis.n)
    rows = basis.eigenvectors[list(design.labeled)]
    return rows * np.exp(-basis.eigenvalues * t)[None, :]
