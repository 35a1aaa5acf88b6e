"""Point clouds on embedded manifolds: sampling, neighbor queries, CSV round trips.

A cloud is an immutable n x d coordinate array together with the intrinsic
dimension m of the manifold the points are assumed to lie on.  All distances
are ambient Euclidean distances; no geodesic computations are attempted.
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
        self._balls = None

    @property
    def n(self):
        return self.points.shape[0]

    @property
    def d(self):
        return self.points.shape[1]

    def pairwise_distances(self):
        """Full n x n Euclidean distance matrix, computed once and cached."""
        if self._dists is None:
            diff = self.points[:, None, :] - self.points[None, :, :]
            d = np.sqrt(np.sum(diff * diff, axis=2))
            d.setflags(write=False)
            self._dists = d
        return self._dists

    def eps_balls(self, eps):
        """Closed eps-balls as CSR neighbour lists ``(indptr, indices)``.

        ``indices[indptr[i]:indptr[i + 1]]`` lists, ascending, every j with
        ``pairwise_distances()[i, j] <= eps``; i itself is always among them.
        The lists for the last eps asked for are cached, so the per-draw
        diagnostics of a regularity study build them once.
        """
        if not eps > 0:
            raise ValueError("eps must be positive")
        if self._balls is None or self._balls[0] != eps:
            mask = self.pairwise_distances() <= eps
            indptr = np.zeros(self.n + 1, dtype=np.intp)
            np.cumsum(np.count_nonzero(mask, axis=1), out=indptr[1:])
            indices = np.nonzero(mask)[1]
            indptr.setflags(write=False)
            indices.setflags(write=False)
            self._balls = (eps, indptr, indices)
        return self._balls[1], self._balls[2]

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


def neighbors_within(cloud, i, eps):
    """Indices j with |x_i - x_j| <= eps, self included, sorted ascending."""
    if not 0 <= i < cloud.n:
        raise IndexError("point index %d out of range [0, %d)" % (i, cloud.n))
    if eps <= 0:
        raise ValueError("eps must be positive")
    d = np.linalg.norm(cloud.points - cloud.points[i], axis=1)
    return np.flatnonzero(d <= eps)


def knn(cloud, query, k):
    """Indices of the k nearest cloud points to an ambient query point.

    Distances are ambient Euclidean; ties are broken by lower index.
    """
    return _nearest_indices(cloud, query, k)[0]


def _nearest_indices(cloud, queries, k):
    """knn for a batch: row i holds the k nearest indices to queries[i]."""
    if not 1 <= k <= cloud.n:
        raise ValueError("k must satisfy 1 <= k <= n, got k=%d n=%d" % (k, cloud.n))
    q = np.atleast_2d(np.asarray(queries, dtype=float))
    d2 = np.sum((q[:, None, :] - cloud.points[None, :, :]) ** 2, axis=2)
    order = np.argsort(d2, axis=1, kind="stable")
    return order[:, :k]


def save_csv(cloud, path):
    """Write a cloud to CSV: header line `# d=<d> m=<m>`, then one point per row.

    Coordinates are printed with 17 significant digits so the round trip
    through load_csv is exact.
    """
    with open(path, "w") as fh:
        fh.write("# d=%d m=%d\n" % (cloud.d, cloud.intrinsic_dim))
        for row in cloud.points:
            fh.write(",".join("%.17g" % v for v in row) + "\n")


def load_csv(path):
    """Read a cloud written by save_csv; malformed input errors name the line."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise ValueError("%s: empty file, not a point cloud" % path)
    header = lines[0].strip()
    if not header.startswith("#"):
        raise ValueError("%s: line 1: missing `# d=<d> m=<m>` header" % path)
    fields = dict()
    for tok in header.lstrip("#").split():
        if "=" in tok:
            key, _, val = tok.partition("=")
            fields[key] = val
    try:
        d = int(fields["d"])
        m = int(fields["m"])
    except (KeyError, ValueError):
        raise ValueError("%s: line 1: header must declare integer d and m" % path)
    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        toks = line.split(",")
        if len(toks) != d:
            raise ValueError(
                "%s: line %d: expected %d coordinates, got %d"
                % (path, lineno, d, len(toks))
            )
        try:
            rows.append([float(t) for t in toks])
        except ValueError:
            raise ValueError("%s: line %d: non-numeric coordinate" % (path, lineno))
    if not rows:
        raise ValueError("%s: no data rows" % path)
    return PointCloud(np.array(rows), intrinsic_dim=m)
