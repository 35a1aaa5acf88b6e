import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from graphheat import (
    NoiseModel,
    PointCloud,
    PriorSpec,
    SpectralBasis,
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


@pytest.mark.parametrize("build, field", [
    pytest.param(lambda: PriorSpec(alpha=math.nan, s=5.0), "alpha",
                 id="alpha-nan"),
    pytest.param(lambda: PriorSpec(alpha=math.inf, s=5.0), "alpha",
                 id="alpha-inf"),
    pytest.param(lambda: PriorSpec(alpha=1.0, s=math.nan), "s=nan",
                 id="s-nan"),
    pytest.param(lambda: PriorSpec(alpha=1.0, s=math.inf), "s=inf",
                 id="s-inf"),
    pytest.param(lambda: NoiseModel("gaussian", math.nan), "sigma",
                 id="sigma-nan"),
    pytest.param(lambda: NoiseModel("probit", math.inf), "sigma",
                 id="sigma-inf"),
    # sample_graph_prior once failed on these with a bare TypeError
    pytest.param(lambda: PriorSpec(alpha=1.0, s=5.0, k_n=2.5), "k_n",
                 id="k_n-float"),
    pytest.param(lambda: PriorSpec(alpha=1.0, s=5.0, k_n=math.nan), "k_n",
                 id="k_n-nan"),
    pytest.param(lambda: PriorSpec(alpha=1.0, s=5.0, k_n=True), "k_n",
                 id="k_n-bool"),
])
def test_non_finite_parameters_are_refused(build, field):
    with pytest.raises(ValueError, match=field):
        build()


def test_truncation_rules():
    spec = PriorSpec(alpha=1.0, s=5.0, k_n=7)
    assert spec.truncation(100) == 7
    with pytest.raises(ValueError):
        spec.truncation(5)  # asking for more modes than were computed
    full = PriorSpec(alpha=1.0, s=5.0, k_n=UNTRUNCATED)
    assert full.truncation(100) == 100
    assert PriorSpec(alpha=1.0, s=5.0, k_n=np.int64(7)).truncation(100) == 7


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
    assert np.array_equal(a, b)
    assert a.shape == (120,)
    # the six retained modes' scales times Psi_6^T z / sqrt(n), z the
    # seed's nodal white noise
    z = np.random.default_rng(42).standard_normal((1, 120))
    xi = (z @ basis120.eigenvectors[:, :6] / math.sqrt(120))[0]
    coeffs = spec.truncated_scales(basis120) * xi
    assert np.array_equal(a, basis120.synthesize(coeffs))


def test_sample_graph_prior_ignores_eigenvector_signs(basis120):
    # the same eigenpairs with 8 of the 20 columns negated
    flip = np.ones(basis120.count)
    flip[[1, 2, 4, 7, 10, 13, 16, 19]] = -1.0
    negated = SpectralBasis(basis120.eigenvalues,
                            basis120.eigenvectors * flip, "dense", 0.0)
    for k_n in (6, UNTRUNCATED):
        spec = PriorSpec(alpha=1.0, s=5.0, k_n=k_n)
        for seed in range(5):
            assert np.array_equal(sample_graph_prior(negated, spec, seed),
                                  sample_graph_prior(basis120, spec, seed))


def test_prior_moments_match_closed_form(basis120):
    # u(x) ~ N(0, var(x)) with var(x) = sum_i scale_i^2 psi_i(x)^2, so over
    # N draws the mean of u^2 has standard error var(x) sqrt(2 / N) and the
    # mean of u has var(x)^(1/2) / sqrt(N).  Four standard errors at each of
    # the 120 nodes.
    spec = PriorSpec(alpha=1.0, s=5.0, k_n=10)
    scales = spec.truncated_scales(basis120)
    var = basis120.eigenvectors[:, :10] ** 2 @ scales**2
    N = 4000
    u = np.array([sample_graph_prior(basis120, spec, seed)
                  for seed in range(N)])
    assert np.all(np.abs((u**2).mean(axis=0) - var)
                  <= 4 * var * math.sqrt(2 / N))
    assert np.all(np.abs(u.mean(axis=0)) <= 4 * np.sqrt(var / N))


def test_hs_seminorm_single_mode(basis120):
    coeffs = np.eye(basis120.count)[3] * 2.0
    lam = basis120.eigenvalues[3]
    assert _seminorm(basis120.eigenvalues, coeffs, 4.0) == \
        pytest.approx(4.0 * lam**4, rel=1e-10)


def test_hs_seminorm_ignores_constant(basis120):
    # the L^2(gamma_n) coefficients <u, psi_i> of a constant function
    coeffs = basis120.eigenvectors.T @ np.full(120, 9.0) / 120
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


def test_batched_oscillation_equals_single_calls(sphere120):
    batch = np.random.default_rng(4).standard_normal((5, 120))
    per_point, maxima = oscillation(batch, sphere120, 0.4)
    assert per_point.shape == (5, 120) and maxima.shape == (5,)
    for row, osc, worst in zip(batch, per_point, maxima):
        single, single_worst = oscillation(row, sphere120, 0.4)
        assert np.array_equal(osc, single)
        assert worst == single_worst
    for bad in (np.zeros((5, 119)), np.zeros((2, 5, 120))):
        with pytest.raises(ValueError, match="expected 120 nodal values"):
            oscillation(bad, sphere120, 0.4)


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
    # connected, but every s=8 draw has seminorm near 3e-16: each is still
    # divided by its own seminorm
    basis, cl, eps = _regularity_inputs(300, 2.0, 1.0)
    rows = regularity_experiment(basis, cl, eps, (2, 8), draws=5, seed=700)
    assert [s for s, _ in rows] == [2.0, 8.0]
    assert all(math.isfinite(mx) and mx > 0 for _, mx in rows)


def test_regularity_experiment_refuses_nan_alpha(basis120, sphere120):
    # the study shares PriorSpec's alpha rule, whose comparisons a NaN
    # fails; its own alpha <= 0 check let NaN through to an error naming s
    with pytest.raises(ValueError, match="alpha") as err:
        regularity_experiment(basis120, sphere120, 0.6, (2,), draws=1, seed=0,
                              alpha=math.nan)
    assert "s=" not in str(err.value)


def test_regularity_experiment_refuses_negative_s(graph120, sphere120):
    # lambda^s is infinite at the zero eigenvalue when s < 0
    basis = eigendecompose(laplacian(graph120, sphere_calibration(120)), 120)
    with pytest.raises(ValueError, match="s=-1"):
        regularity_experiment(basis, sphere120, 0.4, (-1, 2), draws=3, seed=0)


def _white_noise_basis(eigenvalues, seed):
    # an L^2(gamma_n)-orthonormal basis of R^n with the given eigenvalues
    n = len(eigenvalues)
    q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((n, n)))
    return SpectralBasis(eigenvalues, q * np.sqrt(n), "dense", 0.0)


def _reference_regularity(basis, cloud, eps, s_grid, draws, seed, alpha=1.0):
    # the study one draw at a time: nodal noise, one gemv, a 1-D oscillation
    n, lam, psi = basis.n, basis.eigenvalues, basis.eigenvectors
    rows = []
    for s in s_grid:
        scale = (alpha + lam) ** (-s / 4.0)
        worst = 0.0
        for j in range(draws):
            z = np.random.default_rng(seed + j).standard_normal(n)
            coeffs = scale * (psi.T @ z) / np.sqrt(n)
            u = psi @ (coeffs / np.sqrt(np.sum(lam**s * coeffs**2)))
            worst = max(worst, oscillation(u, cloud, eps)[1])
        rows.append((float(s), worst))
    return rows


def _assert_rows_close(got, ref):
    assert [s for s, _ in got] == [s for s, _ in ref]
    for (_, a), (_, b) in zip(got, ref):
        assert abs(a - b) <= 1e-12 * abs(b)


def test_regularity_experiment_matches_per_draw_loop(graph120, sphere120):
    # 40 draws span two full chunks and a partial one
    basis = eigendecompose(laplacian(graph120, sphere_calibration(120)), 120)
    got = regularity_experiment(basis, sphere120, 0.4, (2, 4, 6), draws=40,
                                seed=3)
    ref = _reference_regularity(basis, sphere120, 0.4, (2, 4, 6), 40, 3)
    _assert_rows_close(got, ref)


def test_regularity_tiny_seminorms_match_per_draw_loop():
    # Two modes carry all of the s=2 seminorm, mu^2 / (1 + mu) times a
    # chi-square with 2 degrees of freedom, which falls below 1e-14 for 15
    # of these 20 draws; each draw is divided by its own seminorm all the
    # same.  s=0 weighs every mode by 1.
    n = 64
    mu = 8.45e-8
    basis = _white_noise_basis(np.r_[np.zeros(n - 2), mu, mu], seed=5)
    cloud = sample_sphere(n, seed=6)
    z = np.array([np.random.default_rng(9 + j).standard_normal(n)
                  for j in range(20)])
    coeffs = (1 + basis.eigenvalues) ** -0.5 * (z @ basis.eigenvectors) / 8
    assert np.sum(_seminorm(basis.eigenvalues, coeffs, 2.0) < 1e-14) >= 5
    got = regularity_experiment(basis, cloud, 0.5, (0, 2), draws=20, seed=9)
    _assert_rows_close(got, _reference_regularity(basis, cloud, 0.5, (0, 2),
                                                  20, 9))


def test_regularity_experiment_is_gauge_free():
    # The sphere's spectrum l(l+1), multiplicity 2l+1, held exactly: any
    # orthonormal basis of an eigenspace, with any signs, is a valid
    # eigenbasis, and the study must not depend on which one it is given.
    l_max = 7
    lam = np.repeat([l * (l + 1.0) for l in range(l_max + 1)],
                    [2 * l + 1 for l in range(l_max + 1)])
    basis = _white_noise_basis(lam, seed=1)
    rng = np.random.default_rng(2)
    rotated = basis.eigenvectors.copy()
    for l in range(l_max + 1):
        group = slice(l * l, (l + 1) ** 2)
        q, _ = np.linalg.qr(rng.standard_normal((2 * l + 1, 2 * l + 1)))
        rotated[:, group] = rotated[:, group] @ q
    rotated *= rng.choice([-1.0, 1.0], size=lam.size)
    other = SpectralBasis(lam, rotated, "dense", 0.0)
    cloud = sample_sphere(lam.size, seed=4)
    args = (cloud, 0.5, (2, 3, 4, 6), 20, 0)
    _assert_rows_close(regularity_experiment(other, *args),
                       regularity_experiment(basis, *args))
