"""Heat-semigroup forward maps and observation maps; their composition G = O o F.

The heat map damps KL coefficients by exp(-lambda_i t) and acts only on the
retained eigenspan; inputs with components outside it are projected first.
Observations are pointwise evaluation at the labeled points (the default) or
averages over closed delta-balls.
"""

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .prior import CloudFunction, _coefficients

POINTWISE = "pointwise"
BALL = "ball"

# Uniform cap samples behind each ball-mode continuum observation.
CAP_SAMPLES = 10**4


@dataclass(frozen=True)
class ObservationDesign:
    """Which nodes are labeled and how they are observed.

    labeled holds distinct node indices (the convention throughout is that
    labeled points come first in the cloud); mode is "pointwise" or "ball";
    delta is the ball radius, required in ball mode.
    """

    labeled: tuple
    mode: str = POINTWISE
    delta: float = None

    def __post_init__(self):
        object.__setattr__(self, "labeled", tuple(int(i) for i in self.labeled))
        if len(self.labeled) < 1:
            raise ValueError("need at least one labeled index")
        if len(set(self.labeled)) != len(self.labeled):
            raise ValueError("labeled indices must be distinct")
        if any(i < 0 for i in self.labeled):
            raise ValueError("labeled indices must be nonnegative")
        if self.mode not in (POINTWISE, BALL):
            raise ValueError("mode must be %r or %r" % (POINTWISE, BALL))
        if self.mode == BALL and (self.delta is None or self.delta <= 0):
            raise ValueError("ball mode needs delta > 0")

    @property
    def p(self):
        return len(self.labeled)


def first_p_design(p):
    """The default design: the first p cloud indices, observed pointwise."""
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


def observation_matrix(design, cloud):
    """The p x n matrix of the observation map O on nodal values, in CSR form.

    Pointwise rows are indicator rows; ball rows average the nodal values over
    the closed delta-ball around each labeled point (the center is always in
    its own ball, so rows are never empty).  Only the nonzeros are stored, so
    p = n costs O(n) memory, not O(n^2).
    """
    p, n = design.p, cloud.n
    if any(i >= n for i in design.labeled):
        raise ValueError("labeled index out of range for cloud of size %d" % n)
    if design.mode == POINTWISE:
        cols = np.array(design.labeled, dtype=np.intp)
        sizes = np.ones(p, dtype=np.intp)
    else:
        indptr, indices = cloud.eps_balls(design.delta)
        cols = np.concatenate([indices[indptr[j]:indptr[j + 1]]
                               for j in design.labeled])
        sizes = np.diff(indptr)[list(design.labeled)]
    rowptr = np.zeros(p + 1, dtype=np.intp)
    np.cumsum(sizes, out=rowptr[1:])
    return sparse.csr_matrix((np.repeat(1.0 / sizes, sizes), cols, rowptr),
                             shape=(p, n))


def _cap_samples(center, delta, rng):
    # rejection-sample CAP_SAMPLES uniform sphere points within ambient
    # distance delta
    accepted = []
    need = CAP_SAMPLES
    # chord delta corresponds to cap fraction delta^2/4 of the sphere area
    frac = min(1.0, delta * delta / 4.0)
    while need > 0:
        batch = max(1000, int(1.2 * need / max(frac, 1e-6)))
        g = rng.standard_normal((batch, 3))
        g /= np.linalg.norm(g, axis=1)[:, None]
        keep = g[np.linalg.norm(g - center, axis=1) <= delta]
        if keep.shape[0] > need:
            keep = keep[:need]
        accepted.append(keep)
        need -= keep.shape[0]
    return np.concatenate(accepted, axis=0)


def observe_continuum(coeffs, cont, design, cloud, seed=0):
    """Observe a harmonic expansion at the labeled cloud points.

    Pointwise mode evaluates the expansion exactly.  Ball mode Monte Carlo
    averages it over CAP_SAMPLES uniform samples of the spherical cap
    B_delta(x_j) (the normalized-integral observation).
    """
    pts = cloud.points[list(design.labeled)]
    if design.mode == POINTWISE:
        return cont.synthesize(coeffs, pts)
    rng = np.random.default_rng(seed)
    vals = np.empty(design.p)
    for row in range(design.p):
        samples = _cap_samples(pts[row], design.delta, rng)
        vals[row] = cont.synthesize(coeffs, samples).mean()
    return vals


def design_matrix(basis, t, design, cloud):
    """The p x k matrix M with M[j, i] = exp(-lambda_i t) * (O psi_i)_j.

    Composing observation with the heat map, so that G(u) = M a for KL
    coefficient vectors a.  Computed once and shared by all chains.
    """
    if t < 0:
        raise ValueError("t must be >= 0")
    obs = observation_matrix(design, cloud) @ basis.eigenvectors
    return obs * np.exp(-basis.eigenvalues * t)[None, :]
