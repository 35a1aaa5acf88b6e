"""Heat semigroup and observation map: the structure the samplers lean on."""

import numpy as np
import pytest

from graphheat import (
    ContinuumBasis,
    ObservationDesign,
    design_matrix,
    first_p_design,
    heat,
)


KINDS = ("graph", "continuum")
SHAPES = ("vector", "matrix")


def heat_input(kind, shape, basis120, rng):
    """A basis of the given kind and standard normal coefficients for it."""
    basis = basis120 if kind == "graph" else ContinuumBasis(3)
    rows = () if shape == "vector" else (3,)
    return basis, rng.standard_normal(rows + (basis.count,))


def heat_cases(basis120, seed):
    """(label, basis, coeffs) over every kind and shape."""
    rng = np.random.default_rng(seed)
    for kind in KINDS:
        for shape in SHAPES:
            yield (kind + "-" + shape,) + heat_input(kind, shape, basis120,
                                                     rng)


def test_design_validation():
    with pytest.raises(ValueError):
        ObservationDesign(())
    with pytest.raises(ValueError):
        ObservationDesign((0, 0))
    with pytest.raises(ValueError):
        ObservationDesign((-1,))
    d = first_p_design(4)
    assert d.labeled == (0, 1, 2, 3)
    assert d.p == 4


def test_heat_zero_time_is_identity(basis120):
    for _, basis, coeffs in heat_cases(basis120, 0):
        assert np.array_equal(heat(coeffs, basis, 0.0), coeffs)


def test_heat_semigroup_law(basis120):
    for label, basis, coeffs in heat_cases(basis120, 1):
        chained = heat(heat(coeffs, basis, 0.3), basis, 0.5)
        direct = heat(coeffs, basis, 0.8)
        assert chained.shape == coeffs.shape, label
        assert np.allclose(chained, direct, rtol=1e-13), label


def test_heat_contraction(basis120):
    for label, basis, coeffs in heat_cases(basis120, 2):
        for t in (0.05, 0.4, 2.0):
            out = heat(coeffs, basis, t)
            assert np.all(np.abs(out) <= np.abs(coeffs)), label


def test_heat_self_adjoint(basis120):
    # both bases are orthonormal, so <H u, v> = <u, H v> in L^2 is the same
    # identity on coefficients; on the graph it is checked on nodal values
    rng = np.random.default_rng(4)
    for label, basis, coeffs in heat_cases(basis120, 3):
        other = rng.standard_normal(coeffs.shape)
        left = np.sum(heat(coeffs, basis, 0.7) * other, axis=-1)
        right = np.sum(coeffs * heat(other, basis, 0.7), axis=-1)
        assert np.allclose(left, right, rtol=1e-12), label
    psi = basis120.eigenvectors
    u, v = rng.standard_normal((2, basis120.count))
    left = np.mean((psi @ heat(u, basis120, 0.7)) * (psi @ v))
    right = np.mean((psi @ u) * (psi @ heat(v, basis120, 0.7)))
    assert left == pytest.approx(right, rel=1e-10)


def test_heat_rejects_negative_time(basis120):
    for _, basis, coeffs in heat_cases(basis120, 5):
        with pytest.raises(ValueError, match="t must be"):
            heat(coeffs, basis, -0.1)
    with pytest.raises(ValueError, match="t must be"):
        design_matrix(basis120, -0.1, first_p_design(3))


def test_heat_on_harmonics_hand_values():
    # the sphere's eigenvalues are l(l+1): 0, then 2 three times, then 6
    cont = ContinuumBasis(2)
    out = heat(np.ones(cont.count), cont, 0.5)
    assert np.array_equal(out, np.exp(-cont.eigenvalues * 0.5))
    assert out[0] == 1.0
    assert np.allclose(out[1:4], np.exp(-1.0))


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("kind", KINDS)
def test_heat_damps_each_mode(kind, shape, basis120):
    # every row is multiplied by exp(-lambda_i t), bit for bit, and a
    # leading block of modes is damped by the leading eigenvalues only
    basis, coeffs = heat_input(kind, shape, basis120,
                               np.random.default_rng(7))
    out = heat(coeffs, basis, 0.25)
    assert out.shape == coeffs.shape
    damping = np.exp(-basis.eigenvalues * 0.25)
    for row, damped in zip(np.atleast_2d(coeffs), np.atleast_2d(out)):
        assert np.array_equal(damped, row * damping)
    assert np.array_equal(heat(coeffs[..., :4], basis, 0.25), out[..., :4])


def test_observe_index_out_of_range(basis120):
    with pytest.raises(ValueError, match="out of range"):
        design_matrix(basis120, 0.1, ObservationDesign((120,)))


def test_design_matrix_is_the_composition(basis120):
    # M a is the heat image of u = sum a_i psi_i read at the labeled nodes,
    # and M is bit for bit the heat map of the gathered eigenvector rows
    coeffs = np.random.default_rng(8).standard_normal(basis120.count)
    for design in (first_p_design(11), ObservationDesign((2, 40, 8))):
        mat = design_matrix(basis120, 0.3, design)
        assert mat.shape == (design.p, basis120.count)
        rows = basis120.eigenvectors[list(design.labeled)]
        assert np.array_equal(mat, heat(rows, basis120, 0.3))
        assert np.array_equal(mat, rows * np.exp(-basis120.eigenvalues * 0.3))
        composed = basis120.synthesize(heat(coeffs, basis120, 0.3))
        assert np.allclose(mat @ coeffs, composed[list(design.labeled)],
                           rtol=1e-12)
