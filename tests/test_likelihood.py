import math
import re

import numpy as np
import pytest

from graphheat import (
    ContinuumBasis,
    LabeledData,
    NoiseModel,
    ObservationDesign,
    first_p_design,
    heat,
    potential,
    potential_from_design_matrix,
    sample_sphere,
    synthesize_data,
)


def gaussian_data(y, sigma=0.5, t=0.0):
    design = first_p_design(len(y))
    return LabeledData(np.asarray(y, dtype=float), design, t, "gaussian", sigma)


def probit_data(y, sigma=1.0):
    design = first_p_design(len(y))
    return LabeledData(np.asarray(y, dtype=float), design, 0.0, "probit", sigma)


def test_noise_model_validation():
    with pytest.raises(ValueError):
        NoiseModel("laplace", 1.0)
    with pytest.raises(ValueError):
        NoiseModel("gaussian", 0.0)


def test_labeled_data_validation():
    design = first_p_design(2)
    with pytest.raises(ValueError):
        LabeledData(np.zeros(3), design, 0.0, "gaussian", 1.0)
    with pytest.raises(ValueError):
        LabeledData(np.array([1.0, 0.5]), design, 0.0, "probit", 1.0)
    data = gaussian_data([1.0, 2.0])
    with pytest.raises(ValueError):
        data.y[0] = 3.0


def test_gaussian_potential_hand_value():
    # |y - w|^2 / (2 sigma^2) = (1 + 0) / (2 * 0.25) = 2
    data = gaussian_data([1.0, 0.0], sigma=0.5)
    assert potential(np.zeros(2), data, NoiseModel("gaussian", 0.5)) == pytest.approx(
        2.0
    )


def test_probit_potential_hand_value():
    # zero margin: -log Psi(0) = log 2, per observation
    data = probit_data([1.0, -1.0])
    model = NoiseModel("probit", 1.0)
    assert potential(np.zeros(2), data, model) == pytest.approx(2.0 * math.log(2.0))


def test_probit_potential_stable_for_large_negative_margins():
    data = probit_data([1.0])
    model = NoiseModel("probit", 1.0)
    val = potential(np.array([-50.0]), data, model)
    assert np.isfinite(val)
    assert val > 1000.0


def test_potential_shape_mismatch():
    data = gaussian_data([1.0, 0.0])
    with pytest.raises(ValueError):
        potential(np.zeros(3), data, NoiseModel("gaussian", 0.5))


def test_design_matrix_potential_closure(basis120):
    from graphheat import design_matrix

    design = first_p_design(10)
    model = NoiseModel("gaussian", 0.3)
    rng = np.random.default_rng(0)
    y = rng.standard_normal(10)
    data = LabeledData(y, design, 0.2, "gaussian", 0.3)
    mat = design_matrix(basis120, 0.2, design)
    phi = potential_from_design_matrix(mat, data, model)
    for seed in range(3):
        a = np.random.default_rng(seed).standard_normal(basis120.count)
        assert phi(a) == pytest.approx(potential(mat @ a, data, model), rel=1e-12)
    # The quadratic form subtracts terms of size c = |y|^2 / (2 sigma^2);
    # at the least-squares fit of large labels c dwarfs phi itself.
    big = LabeledData(1e3 * y, design, 0.2, "gaussian", 0.3)
    c = float(big.y @ big.y) / (2.0 * 0.3**2)
    phi = potential_from_design_matrix(mat, big, model)
    a_star = np.linalg.lstsq(mat, big.y, rcond=None)[0]
    exact = potential(mat @ a_star, big, model)
    assert c > 1e7 * exact
    assert abs(phi(a_star) - exact) <= 1e-12 * (c + exact)


@pytest.mark.parametrize("kind", ["gaussian", "probit"])
@pytest.mark.parametrize("shape", [(1, 4), (3, 4), (5,)])
def test_design_matrix_must_match_labels(kind, shape):
    y = [1.0, -1.0, 1.0, 1.0, -1.0]
    data = gaussian_data(y) if kind == "gaussian" else probit_data(y)
    model = NoiseModel(kind, 0.5)
    message = "shape %s does not match label shape (5,)" % (shape,)
    with pytest.raises(ValueError, match=re.escape(message)):
        potential_from_design_matrix(np.ones(shape), data, model)


@pytest.mark.parametrize("p, k", [(1, 1), (7, 3), (300, 16), (1000, 13)])
def test_probit_closure_matches_the_direct_formula_exactly(p, k):
    # The closure forms its margins in one reused buffer; every call must
    # give the bits of the allocating formula, also on a row view.
    from scipy.special import log_ndtr

    rng = np.random.default_rng(p + k)
    mat = rng.standard_normal((p, k))
    y = np.where(rng.standard_normal(p) >= 0.0, 1.0, -1.0)
    sigma = 0.3
    phi = potential_from_design_matrix(mat, probit_data(y, sigma),
                                       NoiseModel("probit", sigma))
    states = 3.0 * rng.standard_normal((6, k))
    for a in list(states) + [states[0].copy()]:
        want = float(-np.sum(log_ndtr(y / sigma * (mat @ a))))
        assert phi(a) == want


def test_synthesize_gaussian_continuum():
    cl = sample_sphere(50, seed=2)
    cont = ContinuumBasis(2)
    coeffs = np.zeros(cont.count)
    coeffs[2] = 1.0
    model = NoiseModel("gaussian", 0.1)
    design = first_p_design(20)
    data = synthesize_data(coeffs, cont, 0.3, design, cl, model, seed=77)
    again = synthesize_data(coeffs, cont, 0.3, design, cl, model, seed=77)
    assert np.array_equal(data.y, again.y)
    clean = cont.synthesize(coeffs, cl.points[:20]) * math.exp(-2.0 * 0.3)
    resid = data.y - clean
    # the injected noise has the configured scale
    assert 0.03 < np.std(resid) < 0.3
    assert data.t == 0.3
    assert data.kind == "gaussian"


def test_synthesize_evaluates_then_damps_coefficients():
    # the noiseless labels are the harmonics at the labeled points times the
    # heat-damped coefficients, in that order, bit for bit; damping the
    # evaluated rows instead rounds differently
    cl = sample_sphere(40, seed=4)
    cont = ContinuumBasis(3)
    coeffs = np.random.default_rng(8).standard_normal(cont.count)
    design = ObservationDesign((3, 17, 0, 25))
    model = NoiseModel("gaussian", 0.2)
    data = synthesize_data(coeffs, cont, 0.3, design, cl, model, seed=9)
    clean = cont.evaluate(cl.points[[3, 17, 0, 25]]) @ heat(coeffs, cont, 0.3)
    noise = 0.2 * np.random.default_rng(9).standard_normal(4)
    assert np.array_equal(data.y, clean + noise)


def test_synthesize_probit_labels():
    cl = sample_sphere(50, seed=3)
    cont = ContinuumBasis(2)
    coeffs = np.ones(cont.count)
    model = NoiseModel("probit", 0.5)
    data = synthesize_data(coeffs, cont, 0.1, first_p_design(30), cl, model, seed=5)
    assert set(np.unique(data.y)).issubset({-1.0, 1.0})


def test_synthesize_graph_carrier(basis120, sphere120):
    u = np.eye(basis120.count)[1]
    model = NoiseModel("gaussian", 0.05)
    # labels come from the continuum truth only; a graph basis is refused
    with pytest.raises(ValueError, match="carrier"):
        synthesize_data(u, basis120, 0.0, first_p_design(15), sphere120,
                        model, seed=6)
