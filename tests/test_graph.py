import logging
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import sparse

from graphheat import (
    GeometricGraph,
    PointCloud,
    build_eps_graph,
    default_eps,
    kernel_weight,
    laplacian,
    sphere_calibration,
    unit_ball_volume,
)


def two_point_cloud(dist=1.0):
    return PointCloud([[0.0, 0.0], [dist, 0.0]], 1)


def test_unit_ball_volume():
    assert unit_ball_volume(1) == pytest.approx(2.0)
    assert unit_ball_volume(2) == pytest.approx(math.pi)
    assert unit_ball_volume(3) == pytest.approx(4.0 * math.pi / 3.0)


def test_default_eps():
    # connectivity-rate bandwidth n^(-1/(m+2)), times a multiplier
    assert default_eps(1000, 2) == pytest.approx(1000.0 ** (-0.25))
    assert default_eps(1000, 2, 2.0) == pytest.approx(2.0 * 1000.0 ** (-0.25))
    assert default_eps(16, 1, 1.0) == pytest.approx(16.0 ** (-1.0 / 3.0))


def test_kernel_weight_hand_value():
    # (m+2)/(n^2 alpha_m eps^(m+2)) at n=2, m=2, eps=1 is 4/(4 pi) = 1/pi
    assert kernel_weight(2, 2, 1.0) == pytest.approx(1.0 / math.pi, rel=1e-15)


def test_sphere_calibration():
    assert sphere_calibration(1) == pytest.approx(8.0 * math.pi)
    assert sphere_calibration(250) == pytest.approx(2000.0 * math.pi)


def test_two_node_laplacian_spectrum():
    cl = two_point_cloud(1.0)
    g = build_eps_graph(cl, 1.5)
    w = kernel_weight(2, 1, 1.5)
    lam = np.linalg.eigvalsh(laplacian(g).dense())
    assert lam[0] == pytest.approx(0.0, abs=1e-15)
    assert lam[1] == pytest.approx(2.0 * w, rel=1e-12)


def test_eps_excludes_far_pairs():
    g = build_eps_graph(two_point_cloud(2.0), 1.0)
    assert g.weights.nnz == 0
    assert g.n_components == 2


def test_eps_ball_is_closed():
    g = build_eps_graph(two_point_cloud(1.0), 1.0)
    assert g.weights.nnz == 2  # both directions stored


def test_no_self_loops(sphere120, graph120):
    assert np.all(graph120.weights.diagonal() == 0.0)


def test_eps_must_be_positive(sphere120):
    with pytest.raises(ValueError):
        build_eps_graph(sphere120, 0.0)


def test_disconnection_warning(caplog):
    cl = two_point_cloud(2.0)
    with caplog.at_level(logging.WARNING):
        g = build_eps_graph(cl, 1.0)
    assert g.n_components == 2
    assert any("components" in r.message for r in caplog.records)


def test_laplacian_row_sums_vanish(graph120):
    lap = laplacian(graph120).dense()
    assert np.max(np.abs(lap.sum(axis=1))) < 1e-12


def test_laplacian_symmetric_psd(graph120):
    lap = laplacian(graph120).dense()
    assert np.array_equal(lap, lap.T)
    lam = np.linalg.eigvalsh(lap)
    assert lam[0] > -1e-12


def test_laplacian_apply_matches_dense(graph120):
    lap = laplacian(graph120)
    u = np.sin(np.arange(120))
    assert np.allclose(lap.matrix @ u, lap.dense() @ u, atol=1e-12)


def test_calibration_scales_linearly(graph120):
    base = laplacian(graph120).dense()
    scaled = laplacian(graph120, calibration=8.0).dense()
    assert np.allclose(scaled, 8.0 * base, rtol=1e-14)


def test_constant_in_kernel(graph120):
    lap = laplacian(graph120)
    assert np.max(np.abs(lap.matrix @ np.ones(120))) < 1e-12


@given(st.integers(0, 2**32 - 1))
def test_dirichlet_form_identity(seed):
    # u' (D - W) u = (1/2) sum_ij W_ij (u_i - u_j)^2
    rng = np.random.default_rng(seed)
    u = rng.standard_normal(40)
    cl = PointCloud(rng.standard_normal((40, 3)), 2)
    g = build_eps_graph(cl, 1.0)
    lap = laplacian(g)
    quad = float(u @ (lap.matrix @ u))
    w = g.weights.toarray()
    direct = 0.5 * float(np.sum(w * (u[:, None] - u[None, :]) ** 2))
    assert quad == pytest.approx(direct, rel=1e-10, abs=1e-12)


def _dense_weights(cloud, eps):
    # the n x n construction the ball lists replace, kept as the reference
    adj = cloud.pairwise_distances() <= eps
    np.fill_diagonal(adj, False)
    return sparse.csr_matrix(adj * kernel_weight(cloud.n, cloud.intrinsic_dim,
                                                 eps))


@given(st.integers(0, 2**32 - 1), st.sampled_from([2, 3]))
def test_eps_graph_matches_dense_reference(seed, d):
    rng = np.random.default_rng(seed)
    # 30 points near the origin plus one far away, which has no edges
    pts = np.vstack([rng.standard_normal((30, d)), np.full((1, d), 50.0)])
    cl = PointCloud(pts, 1)
    i, j = rng.choice(30, size=2, replace=False)
    boundary = cl.pairwise_distances()[i, j]  # an edge at exactly eps
    for eps in (boundary, rng.uniform(0.3, 2.0)):
        g = build_eps_graph(cl, eps)
        ref = _dense_weights(cl, eps)
        for attr in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(g.weights, attr), getattr(ref, attr))
        ref_graph = GeometricGraph(ref, g.n_components)
        assert np.array_equal(laplacian(g).dense(),
                              laplacian(ref_graph).dense())
        assert g.weights[30].nnz == 0
    assert g.n_components >= 2
    g = build_eps_graph(cl, boundary)
    assert g.weights[i, j] == g.weights[j, i] == kernel_weight(
        cl.n, cl.intrinsic_dim, boundary)
