import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from graphheat import (
    CloudFunction,
    PointCloud,
    PriorSpec,
    UNTRUNCATED,
    default_truncation,
    laplacian,
    build_eps_graph,
    default_eps,
    eigendecompose,
    oscillation,
    regularity_experiment,
    sample_graph_prior,
    sample_sphere,
    sphere_calibration,
)
from graphheat.prior import _seminorm


def test_spec_rejects_rough_prior():
    # s > m is required for a well-defined continuum limit
    with pytest.raises(ValueError):
        PriorSpec(alpha=1.0, s=2.0, k_n=4, m=2)
    with pytest.raises(ValueError):
        PriorSpec(alpha=-0.5, s=5.0, k_n=4)


def test_truncation_rules():
    spec = PriorSpec(alpha=1.0, s=5.0, k_n=7)
    assert spec.truncation(100) == 7
    with pytest.raises(ValueError):
        spec.truncation(5)  # asking for more modes than were computed
    full = PriorSpec(alpha=1.0, s=5.0, k_n=UNTRUNCATED)
    assert full.truncation(100) == 100


def test_coefficient_scales_formula():
    spec = PriorSpec(alpha=1.0, s=5.0, k_n=3)
    lam = np.array([0.0, 2.0, 6.0])
    assert np.allclose(spec.coefficient_scales(lam), (1.0 + lam) ** (-1.25))


def test_alpha_zero_needs_constant_excluded():
    spec = PriorSpec(alpha=0.0, s=5.0, k_n=3)
    with pytest.raises(ValueError, match="alpha"):
        spec.coefficient_scales(np.array([0.0, 2.0]))


def test_default_truncation_hand_value():
    # floor(eps^-m / log n) at n=1000, eps=2 n^(-1/4), m=2:
    # eps^-2 = sqrt(1000)/4 = 7.906, log 1000 = 6.908, ratio 1.14 -> floor 1,
    # lifted to the minimum of 2
    assert default_truncation(1000, 2.0 * 1000.0 ** (-0.25), 2) == 2
    # growing with n once eps follows the connectivity rate
    n = 10**6
    assert default_truncation(n, n ** (-0.25), 2) == int(math.sqrt(n) / math.log(n))
    assert default_truncation(5, 0.01, 2) == 5  # clamped to n


def test_sample_graph_prior_deterministic(basis120):
    spec = PriorSpec(alpha=1.0, s=5.0, k_n=6)
    a = sample_graph_prior(basis120, spec, seed=42)
    b = sample_graph_prior(basis120, spec, seed=42)
    assert np.array_equal(a.coefficients, b.coefficients)
    assert a.coefficients.shape == (6,)
    assert a.values.shape == (120,)
    assert np.allclose(a.values, basis120.synthesize(a.coefficients))


def test_hs_seminorm_single_mode(basis120):
    u = CloudFunction.from_coefficients(
        basis120, np.eye(basis120.count)[3] * 2.0
    )
    lam = basis120.eigenvalues[3]
    assert _seminorm(basis120.eigenvalues, u.coefficients, 4.0) == \
        pytest.approx(4.0 * lam**4, rel=1e-10)


def test_hs_seminorm_ignores_constant(basis120):
    u = CloudFunction(np.full(120, 9.0))
    coeffs = basis120.project(u.values)
    assert _seminorm(basis120.eigenvalues, coeffs, 3.0) == \
        pytest.approx(0.0, abs=1e-16)


def test_oscillation_hand_case():
    pts = np.array([[0.0, 0.0, 1.0], [0.0, 0.6, 0.8], [0.0, 0.0, -1.0]])
    cl = PointCloud(pts, 2)
    u = np.array([1.0, 4.0, 9.0])
    per_point, worst = oscillation(u, cl, 0.7)
    assert np.allclose(per_point, [3.0, 3.0, 0.0])
    assert worst == 3.0


def test_oscillation_constant_is_zero(sphere120):
    per_point, worst = oscillation(np.full(120, 2.5), sphere120, 0.5)
    assert np.all(per_point == 0.0)
    assert worst == 0.0


def _dense_oscillation(values, cloud, eps):
    # the n x n mask form the ball lists replace, kept as the reference
    mask = cloud.pairwise_distances() <= eps
    hi = np.where(mask, values[None, :], -np.inf).max(axis=1)
    lo = np.where(mask, values[None, :], np.inf).min(axis=1)
    return hi - lo


@given(st.integers(0, 2**32 - 1), st.sampled_from([2, 3]))
def test_ball_diagnostics_match_dense_reference(seed, d):
    rng = np.random.default_rng(seed)
    # 30 points near the origin plus one far away, whose ball is itself
    pts = np.vstack([rng.standard_normal((30, d)), np.full((1, d), 50.0)])
    cl = PointCloud(pts, 1)
    u = rng.standard_normal(31)
    i, j = rng.choice(30, size=2, replace=False)
    boundary = cl.pairwise_distances()[i, j]  # a ball radius hit exactly
    for eps in (boundary, rng.uniform(0.3, 2.0)):
        per_point, worst = oscillation(u, cl, eps)
        reference = _dense_oscillation(u, cl, eps)
        assert np.array_equal(per_point, reference)
        assert worst == reference.max()
        assert per_point[30] == 0.0
    indptr, indices = cl.eps_balls(boundary)
    assert list(indices[indptr[30]:]) == [30]
    assert j in indices[indptr[i]:indptr[i + 1]]
    assert i in indices[indptr[j]:indptr[j + 1]]


def test_eps_balls_cached_per_eps(sphere120):
    cl = PointCloud(sphere120.points, 2)
    first = cl.eps_balls(0.4)
    assert all(a is b for a, b in zip(cl.eps_balls(0.4), first))
    other = cl.eps_balls(0.5)
    assert other[0] is not first[0] and other[1] is not first[1]
    assert other[1].size > first[1].size
    with pytest.raises(ValueError):
        cl.eps_balls(0.0)
    with pytest.raises(ValueError):
        oscillation(np.zeros(119), cl, 0.4)


def test_regularity_experiment_smoke(basis120, sphere120):
    rows = regularity_experiment(
        basis120, sphere120, 0.6, (2, 4, 6), draws=3, seed=0
    )
    assert [s for s, _ in rows] == [2.0, 4.0, 6.0]
    assert all(mx > 0 for _, mx in rows)
    again = regularity_experiment(
        basis120, sphere120, 0.6, (2, 4, 6), draws=3, seed=0
    )
    assert rows == again


def test_regularity_experiment_builds_balls_once(basis120, sphere120):
    cl = PointCloud(sphere120.points, 2)
    build = cl._closed_balls
    calls = []

    def counted(eps):
        calls.append(eps)
        return build(eps)

    cl._closed_balls = counted
    regularity_experiment(basis120, cl, 0.6, (2, 4, 6), draws=5, seed=0)
    assert calls == [0.6]


def _regularity_inputs(n, eps_multiplier, calibration):
    # the basis and eps that kind="regularity" builds at seed 0
    cl = sample_sphere(n, seed=100)
    eps = default_eps(n, 2, eps_multiplier)
    lap = laplacian(build_eps_graph(cl, eps), calibration=calibration)
    return eigendecompose(lap, n), cl, eps


def test_regularity_experiment_validation(basis120, sphere120):
    with pytest.raises(ValueError):
        regularity_experiment(basis120, sphere120, 0.6, (2,), draws=0, seed=0)
    with pytest.raises(ValueError):
        regularity_experiment(
            basis120, sphere120, 0.6, (2,), draws=1, seed=0, alpha=0.0
        )
    # no edges: every eigenvalue is 0, so no draw has a positive seminorm
    basis, cl, eps = _regularity_inputs(6, 0.01, sphere_calibration(6))
    with pytest.raises(ValueError, match="s=2.*eps_multiplier"):
        regularity_experiment(basis, cl, eps, (2, 3), draws=2, seed=700)
    # connected, but every s=8 draw has seminorm near 3e-16
    basis, cl, eps = _regularity_inputs(300, 2.0, 1.0)
    with pytest.raises(ValueError, match="s=8.*calibration"):
        regularity_experiment(basis, cl, eps, (2, 8), draws=5, seed=700)
