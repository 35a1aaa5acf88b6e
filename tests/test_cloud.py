import numpy as np
import pytest
from hypothesis import given, strategies as st

from graphheat import PointCloud, sample_sphere
from graphheat.cloud import _SPARE_CANDIDATES, _nearest_indices


def test_basic_shape_and_dim():
    pts = np.zeros((4, 3))
    pts[:, 0] = [0.0, 1.0, 2.0, 3.0]
    cl = PointCloud(pts, 1)
    assert cl.n == 4
    assert cl.d == 3
    assert cl.intrinsic_dim == 1


def test_points_are_read_only():
    cl = PointCloud(np.eye(3), 2)
    with pytest.raises(ValueError):
        cl.points[0, 0] = 7.0


def test_pairwise_distances(line_cloud):
    d = line_cloud.pairwise_distances()
    assert np.allclose(d, [[0, 1, 3], [1, 0, 2], [3, 2, 0]])
    assert d is line_cloud.pairwise_distances()  # cached


def test_sample_sphere_on_unit_sphere():
    cl = sample_sphere(200, seed=0)
    norms = np.linalg.norm(cl.points, axis=1)
    assert np.max(np.abs(norms - 1.0)) < 1e-12
    assert cl.intrinsic_dim == 2


def test_sample_sphere_seeding():
    a = sample_sphere(50, seed=1)
    b = sample_sphere(50, seed=1)
    c = sample_sphere(50, seed=2)
    assert np.array_equal(a.points, b.points)
    assert not np.array_equal(a.points, c.points)


def test_sample_sphere_prefix_nesting():
    # same seed, larger cloud: the smaller cloud is its prefix.  Sweep
    # experiments rely on this to share geometry across sizes.
    big = sample_sphere(300, seed=9)
    small = sample_sphere(120, seed=9)
    assert np.array_equal(big.points[:120], small.points)


def ball(cloud, i, eps):
    indptr, indices = cloud.eps_balls(eps)
    return list(indices[indptr[i]:indptr[i + 1]])


def test_neighbors_within(line_cloud):
    assert ball(line_cloud, 0, 1.0) == [0, 1]
    assert ball(line_cloud, 1, 2.0) == [0, 1, 2]
    assert ball(line_cloud, 2, 0.5) == [2]


def test_neighbors_ball_is_closed(line_cloud):
    # distance exactly eps counts
    assert 1 in ball(line_cloud, 0, 1.0)


def knn(cloud, query, k):
    # the k nearest cloud points to one query
    return _nearest_indices(cloud, [query], k)[0]


def test_knn_hand_case(line_cloud):
    assert list(knn(line_cloud, [0.9, 0.0, 0.0], 1)) == [1]
    assert list(knn(line_cloud, [0.9, 0.0, 0.0], 2)) == [1, 0]


def test_knn_tie_goes_to_lower_index():
    pts = np.array([[-1.0, 0.0], [1.0, 0.0], [5.0, 0.0]])
    cl = PointCloud(pts, 1)
    assert list(knn(cl, [0.0, 0.0], 1)) == [0]


def test_knn_k_out_of_range(line_cloud):
    with pytest.raises(ValueError):
        knn(line_cloud, [0.0, 0.0, 0.0], 4)
    with pytest.raises(ValueError):
        knn(line_cloud, [0.0, 0.0, 0.0], 0)


@given(st.integers(1, 10))
def test_knn_property_distinct_and_sorted_by_distance(k):
    cl = sample_sphere(10, seed=4)
    got = knn(cl, [0.3, 0.4, 0.5], k)
    assert len(set(got)) == k
    d = np.linalg.norm(cl.points[got] - np.array([0.3, 0.4, 0.5]), axis=1)
    assert np.all(np.diff(d) >= -1e-12)


@given(st.floats(0.05, 2.0))
def test_neighborhood_symmetry(eps):
    cl = sample_sphere(40, seed=5)
    members = [set(ball(cl, i, eps)) for i in range(cl.n)]
    for i in range(cl.n):
        assert i in members[i]
        for j in members[i]:
            assert i in members[j]


def test_knn_rejects_bad_queries(line_cloud):
    for bad in ([np.nan, 0.0, 0.0], [np.inf, 0.0, 0.0], [0.0, 0.0],
                np.zeros((2, 4))):
        with pytest.raises(ValueError, match="queries"):
            knn(line_cloud, bad, 1)
        with pytest.raises(ValueError, match="queries"):
            _nearest_indices(line_cloud, np.atleast_2d(bad), 2)
    # two valid points are a batch, not one query
    with pytest.raises(ValueError, match="queries"):
        knn(line_cloud, [[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]], 2)


def _dense_nearest(points, queries, k):
    # the grid x n form the tree replaces, kept as the reference
    d2 = np.sum((queries[:, None, :] - points[None, :, :]) ** 2, axis=2)
    return np.argsort(d2, axis=1, kind="stable")[:, :k]


@given(st.integers(0, 2**32 - 1), st.sampled_from([2, 3]))
def test_nearest_indices_match_dense_reference(seed, d):
    rng = np.random.default_rng(seed)
    base = rng.standard_normal((30, d))
    pair = np.zeros((2, d))
    pair[:, 0] = [20.25, 19.75]   # exactly equidistant from (20, 0, ...)
    crowd = np.full((_SPARE_CANDIDATES + 8, d), -20.0)
    pts = np.vstack([base, base[:6], pair, crowd, np.full((1, d), 50.0)])
    # scatter the duplicates and the crowd over the index range
    pts = pts[rng.permutation(len(pts))]
    cl = PointCloud(pts, 1)
    centre = np.zeros((1, d))
    centre[0, 0] = 20.0
    queries = np.vstack([
        rng.standard_normal((20, d)),
        pts[:12],                  # on cloud points, duplicates among them
        centre,                    # a tie between the two pair points
        np.full((2, d), -20.0),    # more tied points than tree candidates
        np.full((1, d), 49.0),     # nearest to the isolated point
    ])
    for k in (1, 4, cl.n):
        assert np.array_equal(_nearest_indices(cl, queries, k),
                              _dense_nearest(pts, queries, k))
