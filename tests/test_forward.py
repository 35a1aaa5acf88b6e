"""Heat semigroup and observation map: the structure the samplers lean on."""

import numpy as np
import pytest

from graphheat import (
    CloudFunction,
    ContinuumBasis,
    ObservationDesign,
    PointCloud,
    design_matrix,
    first_p_design,
    heat_continuum,
    heat_graph,
    observation_matrix,
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
    with pytest.raises(ValueError):
        ObservationDesign((0,), mode="fancy")
    with pytest.raises(ValueError):
        ObservationDesign((0,), mode="ball")  # needs delta
    d = first_p_design(4)
    assert d.labeled == (0, 1, 2, 3)
    assert d.p == 4
    assert d.mode == "pointwise"


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


def test_observation_matrix_pointwise(sphere120):
    design = ObservationDesign((3, 17))
    mat = observation_matrix(design, sphere120).toarray()
    expect = np.zeros((2, 120))
    expect[0, 3] = 1.0
    expect[1, 17] = 1.0
    assert np.array_equal(mat, expect)


def test_observation_matrix_ball_rows_average(sphere120):
    design = ObservationDesign((0, 5), mode="ball", delta=0.5)
    mat = observation_matrix(design, sphere120).toarray()
    assert np.allclose(mat.sum(axis=1), 1.0)
    assert np.all(mat >= 0)
    row = mat[0]
    nz = np.nonzero(row)[0]
    assert 0 in nz
    assert np.allclose(row[nz], 1.0 / len(nz))


def test_observation_matrix_ball_rows_match_dense_reference(sphere120):
    cl = PointCloud(sphere120.points, 2)
    dist = cl.pairwise_distances()
    labeled = (0, 7, 30)
    for far in (5, 40, 99):
        delta = dist[0, far]  # the ball around point 0 reaches `far` exactly
        design = ObservationDesign(labeled, mode="ball", delta=delta)
        ref = np.zeros((len(labeled), cl.n))
        for row, j in enumerate(labeled):
            inside = dist[j] <= delta
            ref[row, inside] = 1.0 / np.count_nonzero(inside)
        mat = observation_matrix(design, cl).toarray()
        assert np.array_equal(mat, ref)
        assert mat[0, far] > 0


def test_observe_index_out_of_range(sphere120):
    with pytest.raises(ValueError, match="out of range"):
        observation_matrix(ObservationDesign((120,)), sphere120)


def test_design_matrix_is_the_composition(sphere120, basis120):
    u = rand_fn(basis120, 8)
    for design in (
        first_p_design(11),
        ObservationDesign((2, 40, 8), mode="ball", delta=0.4),
    ):
        mat = design_matrix(basis120, 0.3, design, sphere120)
        assert mat.shape == (design.p, basis120.count)
        composed = (observation_matrix(design, sphere120)
                    @ heat_graph(u, basis120, 0.3).values)
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


def test_observe_continuum_ball_average():
    cl = sample_sphere(40, seed=9)
    cont = ContinuumBasis(2)
    design = ObservationDesign((0, 1), mode="ball", delta=0.3)
    # constants average to themselves regardless of the cap geometry
    const = np.zeros(cont.count)
    const[0] = 4.2
    got = observe_continuum(const, cont, design, cl, seed=1)
    assert np.allclose(got, 4.2, rtol=1e-12)
    # a smooth function averages close to its center value on a small cap
    rng = np.random.default_rng(11)
    coeffs = rng.standard_normal(cont.count)
    vals = observe_continuum(coeffs, cont, design, cl, seed=2)
    centers = cont.synthesize(coeffs, cl.points[:2])
    assert np.all(np.abs(vals - centers) < 0.2)


def test_observe_continuum_deterministic():
    cl = sample_sphere(30, seed=12)
    cont = ContinuumBasis(2)
    design = ObservationDesign((0,), mode="ball", delta=0.4)
    coeffs = np.ones(cont.count)
    a = observe_continuum(coeffs, cont, design, cl, seed=5)
    b = observe_continuum(coeffs, cont, design, cl, seed=5)
    assert np.array_equal(a, b)
