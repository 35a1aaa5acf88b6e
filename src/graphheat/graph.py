"""The eps-neighborhood graph on a point cloud and its unnormalized Laplacian.

Edge weights use the rescaled indicator kernel: every pair within distance eps
gets the common weight (m+2) / (n^2 * alpha_m * eps^(m+2)) where alpha_m is
the volume of the m-dimensional unit ball.  The Laplacian is D - W, optionally
multiplied by a global spectral calibration constant.

The edges are the cloud's closed eps-balls (``PointCloud.eps_balls``) minus
each point itself, so the graph and the ball diagnostics of ``prior`` share
one KD-tree build per (cloud, eps) and no n x n array is formed.  The balls
are the dense ``pairwise_distances() <= eps`` exactly, boundary pairs
included (see ``cloud``), so W equals the dense construction bit for bit.
"""

import logging
import math

import numpy as np
from scipy import sparse
from scipy.sparse.csgraph import connected_components

logger = logging.getLogger(__name__)


def unit_ball_volume(m):
    """Volume of the unit ball in R^m: pi^(m/2) / Gamma(m/2 + 1)."""
    return math.pi ** (m / 2) / math.gamma(m / 2 + 1)


def default_eps(n, m, multiplier=1.0):
    """Connectivity radius multiplier * n^(-1/(m+2)); for m=2 this is n^(-1/4).

    Lies inside the admissible bandwidth window (log n / n)^(1/m) << eps << 1
    at the problem sizes used here.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    if not multiplier > 0:
        raise ValueError("multiplier must be positive")
    return multiplier * float(n) ** (-1.0 / (m + 2))


def sphere_calibration(n):
    """Spectral calibration constant for unit-sphere clouds: 2 * vol(S^2) * n.

    With the kernel scaling above, the Rayleigh quotients of D - W under the
    (1/n)-weighted pairing converge to the continuum Dirichlet form divided by
    2 * vol(M) * n, vol(S^2) = 4*pi.  Multiplying the Laplacian by this factor
    puts the low graph eigenvalues on the Laplace-Beltrami scale l(l+1), which
    is validated against the sphere spectrum in the test suite.
    """
    return 8.0 * math.pi * n


class GeometricGraph:
    """Symmetric weighted eps-graph with a single common edge weight.

    Attributes
    ----------
    weights : scipy.sparse.csr_matrix
        n x n symmetric, zero diagonal; nonzeros all equal kernel_weight.
    n_components : int
        Number of connected components (isolated points count).
    """

    def __init__(self, weights, n_components):
        self.weights = weights
        self.n_components = int(n_components)


def kernel_weight(n, m, eps):
    """Common edge weight (m+2) / (n^2 * alpha_m * eps^(m+2))."""
    return (m + 2) / (n * n * unit_ball_volume(m) * eps ** (m + 2))


def build_eps_graph(cloud, eps):
    """Connect every pair of distinct points within ambient distance eps.

    Self-pairs are excluded from storage: K(0) = 1 would create self-loops,
    but they cancel in D - W, and dropping them keeps the Dirichlet-form
    identity exact.  Disconnected graphs are permitted with a warning; an
    eps that is not positive is refused by ``cloud.eps_balls``.
    """
    n = cloud.n
    indptr, indices = cloud.eps_balls(eps)
    rows = np.repeat(np.arange(n), np.diff(indptr))
    # every ball holds its own centre exactly once; drop it from each row
    weights = sparse.csr_matrix(
        (np.full(indices.size - n, kernel_weight(n, cloud.intrinsic_dim, eps)),
         indices[indices != rows], indptr - np.arange(n + 1)),
        shape=(n, n))
    ncomp, _ = connected_components(weights, directed=False)
    if ncomp > 1:
        logger.warning(
            "eps-graph with eps=%g has %d components; spectra will carry "
            "repeated zero eigenvalues",
            eps,
            ncomp,
        )
    return GeometricGraph(weights, ncomp)


def laplacian(graph, calibration=1.0):
    """calibration * (D - W) as CSR: symmetric, positive semi-definite."""
    if not calibration > 0:
        raise ValueError("calibration must be positive")
    degrees = np.asarray(graph.weights.sum(axis=1)).ravel()
    return (calibration * (sparse.diags(degrees) - graph.weights)).tocsr()
