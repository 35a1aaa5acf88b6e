"""k-NN interpolation from the cloud to ambient points, and L^2 grid distances.

The interpolant at x is the mean of the nodal values over the k nearest cloud
points (ambient distance, ties by lower index).  k=1 is the map the theory
uses; k=4 smooths for visualization.  Cross-resolution comparisons happen on
a fixed seeded Monte Carlo sphere grid.
"""

import numpy as np

from .cloud import _nearest_indices, sample_sphere
from .oracle import PosteriorSummary

DEFAULT_GRID_SEED = 1729
DEFAULT_GRID_SIZE = 10**4


def knn_interpolate(u, cloud, k, queries):
    """Mean of the k nearest nodal values at each query point."""
    values = u.values if hasattr(u, "values") else np.asarray(u, dtype=float)
    idx = _nearest_indices(cloud, queries, k)
    return values[idx].mean(axis=1)


def pushforward_summary(summary, cloud, k, queries):
    """Interpolate a posterior summary's fields to the query points.

    The mean field pushes forward exactly (the interpolant is linear).  The
    variance field is interpolated the same way as a plotting convenience;
    for the exact sample-level variance use pushforward_chain.
    """
    queries = np.atleast_2d(np.asarray(queries, dtype=float))
    mean = knn_interpolate(summary.mean, cloud, k, queries)
    variance = (
        None
        if summary.variance is None
        else knn_interpolate(summary.variance, cloud, k, queries)
    )
    return PosteriorSummary(
        mean, variance, summary.provenance, dict(summary.model), queries
    )


def pushforward_chain(chain, basis, cloud, k, queries):
    """Interpolate every retained sample, then summarize: the exact
    Monte Carlo push-forward of the sampled posterior."""
    queries = np.atleast_2d(np.asarray(queries, dtype=float))
    idx = _nearest_indices(cloud, queries, k)
    nodal = chain.samples @ basis.eigenvectors[:, : chain.samples.shape[1]].T
    interp = nodal[:, idx].mean(axis=2)
    return PosteriorSummary(
        interp.mean(axis=0),
        interp.var(axis=0),
        provenance="chain",
        locations=queries,
    )


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
