"""Point clouds on embedded manifolds: sampling and neighbour queries.

A cloud is an immutable n x d coordinate array together with the intrinsic
dimension m of the manifold the points are assumed to lie on.  All distances
are ambient Euclidean distances; no geodesic computations are attempted.

Every neighbour query goes through one KD-tree per cloud (``scipy.spatial``,
imported on first use), so no query forms an n x n array.  The tree only
proposes candidates; membership and order are decided by the same float
arithmetic as the dense distance matrix, so results equal the dense ones bit
for bit.  The tree compares its own squared distances, which disagree with a
dense ``d <= eps`` at the boundary (180 of 800 trials with eps equal to a
pairwise distance).  Hence eps-balls query at ``eps * (1 + 1e-12)`` and keep
the candidates whose recomputed distance is ``<= eps``, and k-nearest
neighbours re-rank a few extra candidates by the dense squared distance,
ties to the lower index, and fall back to a dense row wherever they cannot
prove that no other point is nearer.  ``PointCloud.pairwise_distances`` is
the dense reference the tests compare against.
"""

import numpy as np


class PointCloud:
    """n points in R^d with a declared intrinsic dimension.

    Parameters
    ----------
    points : (n, d) array_like
        Ambient coordinates, one point per row.  Must be finite.
    intrinsic_dim : int
        Manifold dimension m, 1 <= m <= d.  Used by kernel scalings downstream.
    seed : int, optional
        Seed record for clouds produced by a sampler, kept for provenance.
    """

    def __init__(self, points, intrinsic_dim, seed=None):
        pts = np.array(points, dtype=float)
        if pts.ndim != 2 or pts.shape[0] < 1:
            raise ValueError("points must be a nonempty n x d array")
        if not np.all(np.isfinite(pts)):
            raise ValueError("points must have finite coordinates")
        m = int(intrinsic_dim)
        if not 1 <= m <= pts.shape[1]:
            raise ValueError(
                "intrinsic_dim must satisfy 1 <= m <= d, got m=%d d=%d"
                % (m, pts.shape[1])
            )
        pts.setflags(write=False)
        self.points = pts
        self.intrinsic_dim = m
        self.seed = seed
        self._dists = None
        self._tree = None
        self._balls = None

    @property
    def n(self):
        return self.points.shape[0]

    @property
    def d(self):
        return self.points.shape[1]

    def pairwise_distances(self):
        """Full n x n Euclidean distance matrix, computed once and cached.

        No library path calls it; it is the dense reference for tests.
        """
        if self._dists is None:
            diff = self.points[:, None, :] - self.points[None, :, :]
            d = np.sqrt(np.sum(diff * diff, axis=2))
            d.setflags(write=False)
            self._dists = d
        return self._dists

    def _kdtree(self):
        """The cloud's KD-tree, built on first use and cached."""
        if self._tree is None:
            from scipy.spatial import cKDTree

            self._tree = cKDTree(self.points)
        return self._tree

    def eps_balls(self, eps):
        """Closed eps-balls as CSR neighbour lists ``(indptr, indices)``.

        ``indices[indptr[i]:indptr[i + 1]]`` lists, ascending, every j with
        ``pairwise_distances()[i, j] <= eps``; i itself is always among them.
        The lists for the last eps asked for are cached, so the eps-graph and
        the per-draw diagnostics of a regularity study share one build.
        """
        if not eps > 0:
            raise ValueError("eps must be positive")
        if self._balls is None or self._balls[0] != eps:
            self._balls = (eps,) + self._closed_balls(eps)
        return self._balls[1], self._balls[2]

    def _closed_balls(self, eps):
        # The tree's rounding can drop a pair at exactly eps: ask for a
        # little more, then decide by the dense distance arithmetic.
        pairs = self._kdtree().query_pairs(eps * (1 + 1e-12),
                                           output_type="ndarray")
        diff = self.points[pairs[:, 0]] - self.points[pairs[:, 1]]
        pairs = pairs[np.sqrt(np.sum(diff * diff, axis=1)) <= eps]
        diag = np.arange(self.n)
        rows = np.concatenate([pairs[:, 0], pairs[:, 1], diag])
        cols = np.concatenate([pairs[:, 1], pairs[:, 0], diag])
        indices = cols[np.lexsort((cols, rows))]
        indptr = np.zeros(self.n + 1, dtype=np.intp)
        np.cumsum(np.bincount(rows, minlength=self.n), out=indptr[1:])
        indptr.setflags(write=False)
        indices.setflags(write=False)
        return indptr, indices

    def __eq__(self, other):
        if not isinstance(other, PointCloud):
            return NotImplemented
        return (
            self.intrinsic_dim == other.intrinsic_dim
            and self.points.shape == other.points.shape
            and np.array_equal(self.points, other.points)
        )

    def __repr__(self):
        return "PointCloud(n=%d, d=%d, m=%d)" % (self.n, self.d, self.intrinsic_dim)


def sample_sphere(n, seed):
    """Draw n i.i.d. uniform points on the unit 2-sphere in R^3.

    Normalized standard Gaussian triples; deterministic for a fixed seed.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = np.random.default_rng(seed)
    pts = rng.standard_normal((n, 3))
    norms = np.linalg.norm(pts, axis=1)
    # a zero-norm draw has probability zero but would poison the division
    while np.any(norms < 1e-12):
        bad = norms < 1e-12
        pts[bad] = rng.standard_normal((int(bad.sum()), 3))
        norms = np.linalg.norm(pts, axis=1)
    return PointCloud(pts / norms[:, None], intrinsic_dim=2, seed=seed)


# Tree candidates per query beyond the k asked for.  A row is settled when
# the k-th re-ranked distance is clearly below the farthest candidate's, so
# a few spare candidates settle rows with near-ties and duplicated points.
_SPARE_CANDIDATES = 4


def _nearest_indices(cloud, queries, k):
    """The k nearest cloud points to each query: row i holds their indices.

    Equal to the dense ``np.argsort(d2, kind="stable")[:, :k]`` of the
    squared distances ``d2 = np.sum((q - p) ** 2)``: ties go to the lower
    index.
    """
    if not 1 <= k <= cloud.n:
        raise ValueError("k must satisfy 1 <= k <= n, got k=%d n=%d" % (k, cloud.n))
    q = np.atleast_2d(np.asarray(queries, dtype=float))
    if q.ndim != 2 or q.shape[1] != cloud.d:
        raise ValueError("queries must be points in R^%d, got shape %s"
                         % (cloud.d, np.shape(queries)))
    if not np.all(np.isfinite(q)):
        raise ValueError("queries must have finite coordinates")
    spare = min(cloud.n, k + _SPARE_CANDIDATES)
    far, cand = cloud._kdtree().query(q, k=spare)
    cand = np.sort(cand.reshape(len(q), spare), axis=1)
    d2 = np.sum((q[:, None, :] - cloud.points[cand]) ** 2, axis=2)
    order = np.argsort(d2, axis=1, kind="stable")[:, :k]
    nearest = np.take_along_axis(cand, order, axis=1)
    if spare < cloud.n:
        # Every point outside the candidates is at least as far from the
        # query as the farthest candidate, as the tree measures distance;
        # the relative margin covers the tree's own rounding.
        kth = np.take_along_axis(d2, order[:, -1:], axis=1)[:, 0]
        bound = far.reshape(len(q), spare)[:, -1] ** 2
        for row in np.flatnonzero(~(kth * (1 + 1e-12) < bound)):
            d2_row = np.sum((q[row] - cloud.points) ** 2, axis=1)
            nearest[row] = np.argsort(d2_row, kind="stable")[:k]
    return nearest
