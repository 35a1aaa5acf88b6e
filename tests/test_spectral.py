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

from graphheat import (
    ContinuumBasis,
    PointCloud,
    build_eps_graph,
    eigendecompose,
    kernel_weight,
    laplacian,
    sample_sphere,
    spectral_error,
    sphere_eigenvalue,
    sphere_harmonic,
)


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
    assert np.allclose(basis120.project(u), coeffs, atol=1e-10)


def test_sphere_eigenvalue():
    assert sphere_eigenvalue(0) == (0.0, 1)
    assert sphere_eigenvalue(1) == (2.0, 3)
    assert sphere_eigenvalue(3) == (12.0, 7)


def test_harmonics_hand_values():
    north = [0.0, 0.0, 1.0]
    assert sphere_harmonic(0, 0, north) == pytest.approx(1.0)
    # zonal harmonics at the pole: sqrt(2l+1) P_l(1) = sqrt(2l+1)
    assert sphere_harmonic(1, 0, north) == pytest.approx(math.sqrt(3.0))
    assert sphere_harmonic(2, 0, north) == pytest.approx(math.sqrt(5.0))
    # degree-1 sectoral harmonics are +-sqrt(3) x and +-sqrt(3) y
    assert abs(sphere_harmonic(1, 1, [1.0, 0.0, 0.0])) == pytest.approx(
        math.sqrt(3.0)
    )
    assert abs(sphere_harmonic(1, -1, [0.0, 1.0, 0.0])) == pytest.approx(
        math.sqrt(3.0)
    )


def test_harmonics_reject_off_sphere():
    with pytest.raises(ValueError):
        sphere_harmonic(1, 0, [0.0, 0.0, 2.0])


def test_addition_theorem():
    # sum_m psi_{l,m}(x)^2 = 2l+1 at every point
    pts = sample_sphere(25, seed=11).points
    for l in range(5):
        total = sum(
            np.array([sphere_harmonic(l, m, p) for p in pts]) ** 2
            for m in range(-l, l + 1)
        )
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


def test_spectral_error_hand_case():
    graph_side = SimpleNamespace(eigenvalues=np.array([0.0, 1.8, 6.6]), count=3)
    sphere_side = SimpleNamespace(eigenvalues=np.array([0.0, 2.0, 6.0]), count=3)
    errs = spectral_error(graph_side, sphere_side, 3)
    assert np.allclose(errs, [0.1, 0.1])
    with pytest.raises(ValueError):
        spectral_error(graph_side, sphere_side, 4)
