"""Eigendecomposition conventions and the spherical harmonic reference basis.

The load-bearing conventions: eigenvectors are orthonormal in the empirical
pairing (1/n) sum u_i v_i, signs are fixed so the largest-magnitude entry is
positive, and the continuum basis is orthonormal for the uniform probability
measure on the sphere with eigenvalues l(l+1).
"""

import math
from types import SimpleNamespace

import numpy as np
import pytest
from scipy import linalg
from scipy.sparse.csgraph import connected_components

from graphheat import (
    ContinuumBasis,
    PointCloud,
    build_eps_graph,
    default_eps,
    eigendecompose,
    kernel_weight,
    laplacian,
    sample_sphere,
    spectral_error,
    sphere_calibration,
)
from graphheat.spectral import _fix_signs


def test_two_node_eigenpairs():
    cl = PointCloud([[0.0, 0.0], [1.0, 0.0]], 1)
    basis = eigendecompose(laplacian(build_eps_graph(cl, 1.5)), 2)
    w = kernel_weight(2, 1, 1.5)
    assert basis.eigenvalues[0] == pytest.approx(0.0, abs=1e-15)
    assert basis.eigenvalues[1] == pytest.approx(2.0 * w, rel=1e-12)
    # empirical-measure normalization and the positive-entry sign rule
    assert np.allclose(basis.eigenvectors[:, 0], [1.0, 1.0])
    assert np.allclose(np.abs(basis.eigenvectors[:, 1]), [1.0, 1.0])
    assert basis.eigenvectors[np.argmax(np.abs(basis.eigenvectors[:, 1])), 1] > 0


def test_orthonormal_in_empirical_pairing(basis120):
    v = basis120.eigenvectors
    gram = (v.T @ v) / 120.0
    assert np.allclose(gram, np.eye(basis120.count), atol=1e-10)


def test_first_eigenvector_constant(basis120):
    assert np.allclose(basis120.eigenvectors[:, 0], 1.0, atol=1e-8)


def test_eigenvalues_sorted_nonnegative(basis120):
    lam = basis120.eigenvalues
    assert lam[0] == 0.0
    assert np.all(np.diff(lam) >= 0)
    assert np.all(lam >= 0)


def test_sign_rule_holds(basis120):
    v = basis120.eigenvectors
    for i in range(v.shape[1]):
        assert v[np.argmax(np.abs(v[:, i])), i] > 0


def test_project_synthesize_round_trip(basis120):
    coeffs = np.sin(np.arange(basis120.count))
    u = basis120.synthesize(coeffs)
    # coefficients are the L^2(gamma_n) pairings <u, psi_i>
    assert np.allclose(basis120.eigenvectors.T @ u / basis120.n, coeffs,
                       atol=1e-10)


def harmonic(l, order, point):
    # the real spherical harmonic psi_{l,order} at one point
    cont = ContinuumBasis(l)
    return cont.evaluate(point)[0, cont.labels.index((l, order))]


def test_harmonics_hand_values():
    north = [0.0, 0.0, 1.0]
    assert harmonic(0, 0, north) == pytest.approx(1.0)
    # zonal harmonics at the pole: sqrt(2l+1) P_l(1) = sqrt(2l+1)
    assert harmonic(1, 0, north) == pytest.approx(math.sqrt(3.0))
    assert harmonic(2, 0, north) == pytest.approx(math.sqrt(5.0))
    # degree-1 sectoral harmonics are +-sqrt(3) x and +-sqrt(3) y
    assert abs(harmonic(1, 1, [1.0, 0.0, 0.0])) == pytest.approx(
        math.sqrt(3.0)
    )
    assert abs(harmonic(1, -1, [0.0, 1.0, 0.0])) == pytest.approx(
        math.sqrt(3.0)
    )


def test_harmonics_reject_off_sphere():
    with pytest.raises(ValueError):
        ContinuumBasis(1).evaluate([0.0, 0.0, 2.0])


def test_addition_theorem():
    # sum_m psi_{l,m}(x)^2 = 2l+1 at every point
    pts = sample_sphere(25, seed=11).points
    cont = ContinuumBasis(4)
    values = cont.evaluate(pts)
    degrees = np.array([l for l, _ in cont.labels])
    for l in range(5):
        total = np.sum(values[:, degrees == l] ** 2, axis=1)
        assert np.allclose(total, 2 * l + 1, rtol=1e-10)


def test_continuum_basis_layout():
    cont = ContinuumBasis(3)
    assert cont.count == 16
    assert cont.labels[0] == (0, 0)
    assert cont.labels[1:4] == [(1, -1), (1, 0), (1, 1)]
    assert np.array_equal(
        cont.eigenvalues, np.repeat([0.0, 2.0, 6.0, 12.0], [1, 3, 5, 7])
    )


def test_continuum_orthonormal_under_uniform_measure():
    # Monte Carlo check of (1/|S^2|) integral psi_i psi_j = delta_ij
    pts = sample_sphere(200000, seed=12).points
    cont = ContinuumBasis(3)
    q = cont.evaluate(pts)
    gram = (q.T @ q) / pts.shape[0]
    assert np.max(np.abs(gram - np.eye(cont.count))) < 0.05


def test_continuum_synthesize_matches_evaluate():
    cont = ContinuumBasis(2)
    coeffs = np.arange(cont.count, dtype=float)
    pts = sample_sphere(10, seed=13).points
    assert np.allclose(cont.synthesize(coeffs, pts), cont.evaluate(pts) @ coeffs)


@pytest.mark.parametrize("kind", ["graph", "continuum"])
def test_synthesize_refuses_a_coefficient_matrix(kind, basis120):
    # a (3, k) input is not one coefficient vector; reading its first axis
    # as the coefficients would misread it silently
    if kind == "graph":
        basis, points = basis120, ()
    else:
        basis, points = ContinuumBasis(2), (sample_sphere(10, seed=13).points,)
    with pytest.raises(ValueError, match=r"one coefficient vector.*\(3, "):
        basis.synthesize(np.ones((3, basis.count)), *points)
    assert basis.synthesize(np.ones(basis.count), *points).ndim == 1


def test_spectral_error_hand_case():
    graph_side = SimpleNamespace(eigenvalues=np.array([0.0, 1.8, 6.6]), count=3)
    sphere_side = SimpleNamespace(eigenvalues=np.array([0.0, 2.0, 6.0]), count=3)
    errs = spectral_error(graph_side, sphere_side, 3)
    assert np.allclose(errs, [0.1, 0.1])
    with pytest.raises(ValueError):
        spectral_error(graph_side, sphere_side, 4)


# --- shift-invert Lanczos against the dense reference --------------------

# index ranges of the sphere's eigenvalue clusters l = 0..3 (multiplicity
# 2l+1); single eigenvectors inside a cluster are only nearly unique, the
# cluster's projector is not
CLUSTERS = ((0, 1), (1, 4), (4, 9), (9, 16))


def sphere_laplacian(n, seed):
    graph = build_eps_graph(sample_sphere(n, seed=seed),
                            default_eps(n, 2, 2.0))
    return laplacian(graph, sphere_calibration(n))


def dense_reference(lap, k):
    """The k lowest eigenpairs from the dense solver, in the basis' scaling."""
    vals, vecs = linalg.eigh(lap.toarray(), subset_by_index=[0, k - 1])
    return vals, _fix_signs(vecs * np.sqrt(lap.shape[0]))


def assert_eigenvalues_close(got, ref):
    assert np.all(np.abs(got - ref) <= 1e-10 * np.maximum(1.0, np.abs(ref)))


def assert_eigenvectors_close(got, ref):
    """Elementwise within 1e-9 under the sign rule.

    Where a column's two largest magnitudes tie to roundoff (an
    antisymmetric mode, such as one living on an isolated pair of points),
    the rule has no sign to pick, so that column is compared up to sign.
    """
    for j in range(ref.shape[1]):
        second, first = np.sort(np.abs(ref[:, j]))[-2:]
        err = np.max(np.abs(got[:, j] - ref[:, j]))
        if first - second <= 1e-9 * first:
            err = min(err, np.max(np.abs(got[:, j] + ref[:, j])))
        assert err <= 1e-9, j


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("n,k", [(200, 4), (400, 16), (800, 20)])
def test_shift_invert_matches_dense(n, k, seed):
    lap = sphere_laplacian(n, seed)
    basis = eigendecompose(lap, k)
    vals, vecs = dense_reference(lap, k)
    assert basis.solver == "shift-invert"
    assert basis.eigenvalues[0] == 0.0
    assert_eigenvalues_close(basis.eigenvalues, vals)
    assert_eigenvectors_close(basis.eigenvectors, vecs)
    for lo, hi in CLUSTERS:
        if hi <= k:
            got = basis.eigenvectors[:, lo:hi]
            ref = vecs[:, lo:hi]
            assert np.max(np.abs(got @ got.T - ref @ ref.T)) / n <= 1e-10


def test_shift_invert_is_bit_reproducible():
    # ARPACK starts from a random vector unless given one; a fixed start
    # vector keeps repeated runs in one process bit-identical
    lap = sphere_laplacian(300, 5)
    first = eigendecompose(lap, 16)
    eigendecompose(sphere_laplacian(250, 6), 16)
    again = eigendecompose(lap, 16)
    assert np.array_equal(first.eigenvalues, again.eigenvalues)
    assert np.array_equal(first.eigenvectors, again.eigenvectors)
    assert first.residual == again.residual


def test_two_components_give_two_exact_zeros():
    # two polar caps, more than eps apart: a two-dimensional null space
    pts = sample_sphere(1000, seed=7).points
    cloud = PointCloud(pts[np.abs(pts[:, 2]) > 0.6], 2)
    graph = build_eps_graph(cloud, default_eps(cloud.n, 2, 2.0))
    assert graph.n_components == 2
    lap = laplacian(graph, sphere_calibration(cloud.n))
    basis = eigendecompose(lap, 6)
    assert basis.solver == "shift-invert"
    assert np.count_nonzero(basis.eigenvalues == 0.0) == 2
    assert basis.eigenvalues[2] > 0.1
    vals, vecs = dense_reference(lap, 6)
    assert_eigenvalues_close(basis.eigenvalues, vals)
    null, ref = basis.eigenvectors[:, :2], vecs[:, :2]
    assert np.max(np.abs(null @ null.T - ref @ ref.T)) / cloud.n <= 1e-10


def test_many_components_match_the_dense_spectrum():
    # 263 components; on the whole space shift-invert found only 202 zero
    # eigenvalues here, and its 269th eigenvalue was 731.7, not 115.39
    n = 600
    graph = build_eps_graph(sample_sphere(n, seed=100),
                            default_eps(n, 2, 0.5))
    assert graph.n_components == 263
    lap = laplacian(graph, sphere_calibration(n))
    basis = eigendecompose(lap, 269)
    assert basis.solver == "shift-invert"
    assert np.count_nonzero(basis.eigenvalues == 0.0) == 263
    assert_eigenvalues_close(basis.eigenvalues,
                             linalg.eigvalsh(lap.toarray())[:269])
    gram = basis.eigenvectors.T @ basis.eigenvectors / n
    assert np.allclose(gram, np.eye(269), atol=1e-10)


@pytest.mark.parametrize("k", [4, 60])
def test_null_space_is_the_component_indicators(k):
    # 47 components; the first min(k, 47) pairs are eigenvalue 0 and the
    # normalized indicators in the order of each component's lowest point,
    # from either solver, and repeated calls agree bit for bit
    n = 80
    graph = build_eps_graph(sample_sphere(n, seed=100),
                            default_eps(n, 2, 0.7))
    lap = laplacian(graph, sphere_calibration(n))
    _, labels = connected_components(graph.weights, directed=False)
    basis = eigendecompose(lap, k)
    assert basis.solver == ("shift-invert" if k == 4 else "dense")
    null = min(k, graph.n_components)
    assert np.array_equal(basis.eigenvalues[:null], np.zeros(null))
    firsts = [int(np.flatnonzero(labels == j)[0]) for j in range(null)]
    assert firsts == sorted(firsts)
    for j in range(null):
        member = labels == j
        assert np.allclose(basis.eigenvectors[:, j],
                           np.where(member, np.sqrt(n / member.sum()), 0.0),
                           rtol=1e-15, atol=0.0)
    assert_eigenvalues_close(basis.eigenvalues,
                             linalg.eigvalsh(lap.toarray())[:k])
    again = eigendecompose(lap, k)
    assert np.array_equal(basis.eigenvalues, again.eigenvalues)
    assert np.array_equal(basis.eigenvectors, again.eigenvectors)


def test_calibration_scales_eigenvalues_only():
    # the shift follows the matrix scale, so calibration 1 (eigenvalues
    # near 1e-5) converges to the same pairs as the sphere calibration
    n = 500
    graph = build_eps_graph(sample_sphere(n, seed=8), default_eps(n, 2, 2.0))
    raw = eigendecompose(laplacian(graph), 16)
    scaled = eigendecompose(laplacian(graph, 8.0 * math.pi * n), 16)
    assert raw.eigenvalues[0] == scaled.eigenvalues[0] == 0.0
    assert np.allclose(raw.eigenvalues[1:] * 8.0 * math.pi * n,
                       scaled.eigenvalues[1:], rtol=1e-10, atol=0.0)
    assert_eigenvectors_close(raw.eigenvectors, scaled.eigenvectors)


def test_shift_sits_below_a_fine_low_spectrum():
    # a path of unit-weight edges: the low eigenvalues 2 - 2cos(pi j/n),
    # about 1e-5 j^2, sit far below 1e-3 of the mean degree, so a shift
    # placed above zero instead of below would pick the wrong eigenvalues
    n = 1000
    cloud = PointCloud(np.c_[np.arange(n, dtype=float), np.zeros(n)], 1)
    graph = build_eps_graph(cloud, 1.5)
    lap = laplacian(graph, 1.0 / kernel_weight(n, 1, 1.5))
    basis = eigendecompose(lap, 4)
    expected = 2.0 - 2.0 * np.cos(np.pi * np.arange(4) / n)
    assert basis.solver == "shift-invert"
    assert basis.eigenvalues[0] == 0.0
    assert np.allclose(basis.eigenvalues, expected, rtol=1e-9, atol=0.0)
    vals, vecs = dense_reference(lap, 4)
    assert_eigenvalues_close(basis.eigenvalues, vals)
    assert_eigenvectors_close(basis.eigenvectors, vecs)


@pytest.mark.parametrize("n", [100, 101])
def test_solver_cut_at_half_the_cloud(n):
    lap = sphere_laplacian(n, 9)
    k = math.ceil(n / 2)
    sparse_side = eigendecompose(lap, k - 1)
    dense_side = eigendecompose(lap, k)
    assert sparse_side.solver == "shift-invert"
    assert dense_side.solver == "dense"
    assert_eigenvalues_close(sparse_side.eigenvalues,
                             dense_side.eigenvalues[:k - 1])
    assert_eigenvectors_close(sparse_side.eigenvectors,
                              dense_side.eigenvectors[:, :k - 1])


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("n,k", [(300, 300), (300, 200)])
def test_dense_branch_matches_mrrr(n, k, seed):
    # divide and conquer (evd) against the MRRR solver (evr) on the same
    # matrix: eigenvalues, the sphere clusters' projectors, and a Laplacian
    # left as it was by the in-place solve
    lap = sphere_laplacian(n, seed)
    before = lap.copy()
    basis = eigendecompose(lap, k)
    vals, vecs = linalg.eigh(lap.toarray(), driver="evr",
                             subset_by_index=[0, k - 1])
    vecs = vecs * np.sqrt(n)
    assert basis.solver == "dense"
    assert basis.count == k
    assert np.all(np.abs(basis.eigenvalues - vals)
                  <= 1e-12 * np.maximum(1.0, np.abs(vals)))
    for lo, hi in CLUSTERS:
        got = basis.eigenvectors[:, lo:hi]
        ref = vecs[:, lo:hi]
        assert np.max(np.abs(got @ got.T - ref @ ref.T)) / n <= 1e-10
    assert basis.residual <= 1e-10
    assert (lap != before).nnz == 0
    assert np.array_equal(lap.indptr, before.indptr)
    assert np.array_equal(lap.indices, before.indices)
    assert np.array_equal(lap.data, before.data)


def test_fix_signs_rule():
    # largest magnitude made positive; on a tie the lowest index decides
    vecs = np.array([[-1.0, 1.0, 0.5, -0.0],
                     [1.0, -1.0, -2.0, 0.0],
                     [0.5, 0.0, 1.0, 0.0]])
    fixed = _fix_signs(vecs.copy())
    assert np.array_equal(fixed, [[1.0, 1.0, -0.5, -0.0],
                                  [-1.0, -1.0, 2.0, 0.0],
                                  [-0.5, 0.0, -1.0, 0.0]])
    # a zero column has no sign to fix and is left bit for bit
    assert np.array_equal(np.signbit(fixed[:, 3]), np.signbit(vecs[:, 3]))


def test_graph_without_edges():
    # L = 0 has trace 0, so the shift cannot follow the matrix scale
    cloud = sample_sphere(50, seed=1)
    basis = eigendecompose(laplacian(build_eps_graph(cloud, 1e-3)), 4)
    assert basis.solver == "shift-invert"
    assert np.array_equal(basis.eigenvalues, np.zeros(4))
    gram = basis.eigenvectors.T @ basis.eigenvectors / 50
    assert np.allclose(gram, np.eye(4), atol=1e-12)


def test_residual_reports_solver_accuracy(basis120):
    assert basis120.solver == "shift-invert"
    assert 0.0 <= basis120.residual < 1e-10
    full = eigendecompose(sphere_laplacian(60, 4), 60)
    assert full.solver == "dense"
    assert 0.0 <= full.residual < 1e-10
