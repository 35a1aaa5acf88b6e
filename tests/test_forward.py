"""Heat semigroup and observation map: the structure the samplers lean on."""

import numpy as np
import pytest

from graphheat import (
    CloudFunction,
    ContinuumBasis,
    ObservationDesign,
    design_matrix,
    first_p_design,
    heat_continuum,
    heat_graph,
    observe_continuum,
    sample_sphere,
)


def rand_fn(basis, seed):
    rng = np.random.default_rng(seed)
    return CloudFunction.from_coefficients(basis, rng.standard_normal(basis.count))


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
    u = rand_fn(basis120, 0)
    out = heat_graph(u, basis120, 0.0)
    assert np.allclose(out.coefficients, u.coefficients)


def test_heat_semigroup_law(basis120):
    u = rand_fn(basis120, 1)
    chained = heat_graph(heat_graph(u, basis120, 0.3), basis120, 0.5)
    direct = heat_graph(u, basis120, 0.8)
    assert np.allclose(chained.coefficients, direct.coefficients, rtol=1e-13)


def test_heat_contraction(basis120):
    u = rand_fn(basis120, 2)
    norm0 = np.mean(u.values**2)
    for t in (0.05, 0.4, 2.0):
        out = heat_graph(u, basis120, t)
        assert np.mean(out.values**2) <= norm0 + 1e-12


def test_heat_self_adjoint(basis120):
    u, v = rand_fn(basis120, 3), rand_fn(basis120, 4)
    left = np.mean(heat_graph(u, basis120, 0.7).values * v.values)
    right = np.mean(u.values * heat_graph(v, basis120, 0.7).values)
    assert left == pytest.approx(right, rel=1e-10)


def test_heat_rejects_negative_time(basis120):
    with pytest.raises(ValueError):
        heat_graph(rand_fn(basis120, 5), basis120, -0.1)


def test_heat_projects_nodal_input(basis120):
    rng = np.random.default_rng(6)
    u = CloudFunction(rng.standard_normal(120))  # not in the retained span
    out = heat_graph(u, basis120, 0.1)
    # damping acts on the projected coefficients
    coeffs = basis120.project(u.values)
    lam = basis120.eigenvalues
    assert np.allclose(out.coefficients, coeffs * np.exp(-lam * 0.1))


def test_heat_continuum_damping():
    cont = ContinuumBasis(2)
    coeffs = np.ones(cont.count)
    out = heat_continuum(coeffs, cont, 0.5)
    assert np.allclose(out, np.exp(-cont.eigenvalues * 0.5))


def test_observe_index_out_of_range(basis120):
    with pytest.raises(ValueError, match="out of range"):
        design_matrix(basis120, 0.1, ObservationDesign((120,)))


def test_design_matrix_is_the_composition(basis120):
    # M a is the heat image of u = sum a_i psi_i read at the labeled nodes,
    # and each row is exactly the damped eigenvector row of its node
    u = rand_fn(basis120, 8)
    damping = np.exp(-basis120.eigenvalues * 0.3)
    for design in (first_p_design(11), ObservationDesign((2, 40, 8))):
        mat = design_matrix(basis120, 0.3, design)
        assert mat.shape == (design.p, basis120.count)
        rows = basis120.eigenvectors[list(design.labeled)]
        assert np.array_equal(mat, rows * damping)
        composed = heat_graph(u, basis120, 0.3).values[list(design.labeled)]
        assert np.allclose(mat @ u.coefficients, composed, rtol=1e-12)


def test_observe_continuum_pointwise_is_evaluation():
    cl = sample_sphere(40, seed=9)
    cont = ContinuumBasis(3)
    rng = np.random.default_rng(10)
    coeffs = rng.standard_normal(cont.count)
    design = first_p_design(12)
    got = observe_continuum(coeffs, cont, design, cl)
    expect = cont.synthesize(coeffs, cl.points[:12])
    assert np.allclose(got, expect)
