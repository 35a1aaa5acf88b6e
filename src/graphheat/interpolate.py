"""k-NN interpolation from the cloud to ambient points, and L^2 grid distances.

A posterior is pushed forward by interpolating its nodal fields: the mean
pushes forward exactly, since the interpolant is linear; the exact variance
needs every retained chain sample interpolated first.

The interpolant at x is the mean of the nodal values over the k nearest cloud
points (ambient distance, ties by lower index).  k=1 is the map the theory
and oracle-compare use; k=4 smooths for visualization.  Cross-resolution
comparisons happen on a fixed seeded Monte Carlo sphere grid.

The neighbours come from the cloud's one KD-tree (``cloud._nearest_indices``),
not from a grid x n distance array.  The tree's candidates are re-ranked by
the dense squared distance with ties to the lower index, and a query whose
neighbours the tree's distances cannot settle is answered by a dense row,
because the tree's own rounding can order near-ties differently.  The result
equals a stable argsort of the dense grid x n squared distances, which the
tests keep as the reference.
"""

import numpy as np

from .cloud import _nearest_indices, sample_sphere

DEFAULT_GRID_SEED = 1729
DEFAULT_GRID_SIZE = 10**4


def knn_interpolate(u, cloud, k, queries):
    """Mean of the k nearest nodal values at each query point.

    u is a vector of cloud.n nodal values.
    """
    values = np.asarray(u, dtype=float)
    if values.shape != (cloud.n,):
        raise ValueError("expected %d nodal values, got shape %s"
                         % (cloud.n, values.shape))
    idx = _nearest_indices(cloud, queries, k)
    return values[idx].mean(axis=1)


def sphere_mc_grid(n_points=DEFAULT_GRID_SIZE, seed=DEFAULT_GRID_SEED):
    """The fixed uniform Monte Carlo sphere grid used for L^2 comparisons."""
    return sample_sphere(n_points, seed)


def l2_distance(values_a, values_b):
    """Root-mean-square difference of two fields given on the same grid."""
    a = np.asarray(values_a, dtype=float)
    b = np.asarray(values_b, dtype=float)
    if a.shape != b.shape:
        raise ValueError("grid size mismatch")
    return float(np.sqrt(np.mean((a - b) ** 2)))
