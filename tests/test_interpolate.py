import numpy as np
import pytest
from hypothesis import given, strategies as st

from graphheat import (
    PointCloud,
    eigendecompose,
    build_eps_graph,
    knn_interpolate,
    l2_distance,
    laplacian,
    sample_sphere,
    sphere_mc_grid,
)


def square_cloud():
    return PointCloud([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]], 2)


def test_nearest_neighbor_identity_on_nodes():
    cl = square_cloud()
    u = np.array([1.0, 2.0, 3.0, 4.0])
    assert np.array_equal(knn_interpolate(u, cl, 1, cl.points), u)


def test_constant_field_stays_constant():
    cl = square_cloud()
    q = np.array([[0.3, 0.9], [5.0, -2.0]])
    assert np.allclose(knn_interpolate(np.full(4, 7.5), cl, 4, q), 7.5)


def test_equidistant_pair_averages():
    cl = PointCloud([[0.0, 0.0], [2.0, 0.0]], 1)
    got = knn_interpolate(np.array([0.0, 1.0]), cl, 2, np.array([[1.0, 0.0]]))
    assert got[0] == pytest.approx(0.5)


def test_tie_goes_to_lower_index():
    cl = PointCloud([[0.0, 0.0], [2.0, 0.0]], 1)
    got = knn_interpolate(np.array([0.0, 1.0]), cl, 1, np.array([[1.0, 0.0]]))
    assert got[0] == 0.0


def test_k_out_of_range():
    cl = square_cloud()
    u = np.zeros(4)
    for k in (0, 5):
        with pytest.raises(ValueError):
            knn_interpolate(u, cl, k, np.array([[0.0, 0.0]]))


def test_bad_queries_rejected():
    # a NaN query used to get an answer; a wrong dimension failed on
    # broadcasting; too many nodal values were accepted and too few gave
    # an IndexError; a batch of rows was indexed along the wrong axis
    cl = square_cloud()
    u = np.arange(4.0)
    q = np.array([[0.5, 0.5]])
    for values, queries, match in (
        (u, [[np.nan, 0.0]], "queries"),
        (u, [[0.0, 0.0, 0.0]], "queries"),
        (u, [[0.0, -np.inf]], "queries"),
        (np.arange(5.0), q, r"4 nodal values, got shape \(5,\)"),
        (np.arange(3.0), q, r"4 nodal values, got shape \(3,\)"),
        (np.zeros((2, 4)), q, r"4 nodal values, got shape \(2, 4\)"),
        (np.zeros((5, 4)), q, r"4 nodal values, got shape \(5, 4\)"),
    ):
        with pytest.raises(ValueError, match=match):
            knn_interpolate(values, cl, 1, np.array(queries))


@given(
    values=st.lists(
        st.floats(-50, 50, allow_nan=False), min_size=4, max_size=4
    ),
    k=st.integers(1, 4),
)
def test_interpolant_is_a_contraction(values, k):
    cl = square_cloud()
    u = np.array(values)
    q = np.array([[0.25, 0.6], [-1.0, 3.0], [0.5, 0.5]])
    got = knn_interpolate(u, cl, k, q)
    assert np.all(got >= u.min() - 1e-12)
    assert np.all(got <= u.max() + 1e-12)


@given(k=st.integers(1, 4), scale=st.floats(-3, 3, allow_nan=False))
def test_interpolant_is_linear(k, scale):
    cl = square_cloud()
    rng = np.random.default_rng(0)
    u, v = rng.standard_normal(4), rng.standard_normal(4)
    q = rng.standard_normal((5, 2))
    lhs = knn_interpolate(u + scale * v, cl, k, q)
    rhs = knn_interpolate(u, cl, k, q) + scale * knn_interpolate(v, cl, k, q)
    assert np.allclose(lhs, rhs)


def test_mc_grid_is_fixed():
    g1 = sphere_mc_grid()
    g2 = sphere_mc_grid()
    assert g1.n == 10**4
    assert np.array_equal(g1.points, g2.points)
    assert np.allclose(np.linalg.norm(g1.points, axis=1), 1.0)
    small = sphere_mc_grid(50)
    assert np.array_equal(small.points, g1.points[:50])


def test_l2_distance_basics():
    a = np.array([1.0, 1.0, 1.0])
    assert l2_distance(a, a) == 0.0
    assert l2_distance(a, a - 2.0) == pytest.approx(2.0)
    with pytest.raises(ValueError):
        l2_distance(a, np.zeros(4))


def test_interpolated_eigenvector_stabilizes_with_n():
    # Coarse and fine graph eigenvectors for the first nonconstant band,
    # carried to a common grid: the fine cloud should land closer to the
    # span of the degree-one harmonics than the coarse one does.
    from graphheat import ContinuumBasis, default_eps, sphere_calibration

    grid = sphere_mc_grid(2000)
    cont = ContinuumBasis(1)
    harm = cont.evaluate(grid.points)[:, 1:4]     # the three degree-1 modes
    proj = harm @ np.linalg.pinv(harm)
    resid = []
    for n in (200, 500):
        cl = sample_sphere(n, seed=21)
        graph = build_eps_graph(cl, default_eps(n, 2, 2.0))
        basis = eigendecompose(laplacian(graph, sphere_calibration(n)), 4)
        vec = basis.eigenvectors[:, 1]
        lifted = knn_interpolate(vec, cl, 1, grid.points)
        resid.append(l2_distance(lifted, proj @ lifted))
    assert resid[1] < resid[0]
