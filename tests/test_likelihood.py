import math
import re

import numpy as np
import pytest

from graphheat import (
    ContinuumBasis,
    NoiseModel,
    design_matrix,
    heat,
    potential,
    potential_from_design_matrix,
    sample_sphere,
    synthesize_data,
)
from graphheat.likelihood import GaussianMisfit


def test_noise_model_validation():
    with pytest.raises(ValueError):
        NoiseModel("laplace", 1.0)
    with pytest.raises(ValueError):
        NoiseModel("gaussian", 0.0)


def test_labeled_data_validation():
    # labels are one vector, as long as the predictions or design rows, and
    # probit labels are exactly +-1; potential and the closure refuse alike
    cases = [("gaussian", [1.0, -1.0, 1.0], "mismatch|does not match"),
             ("probit", [1.0, -1.0, 1.0], "mismatch|does not match"),
             ("gaussian", [[1.0], [-1.0]], "labels must be a vector"),
             ("probit", [[1.0], [-1.0]], "labels must be a vector"),
             ("probit", [1.0, 0.5], r"exactly \+-1")]
    for kind, y, message in cases:
        model = NoiseModel(kind, 1.0)
        with pytest.raises(ValueError, match=message):
            potential(np.zeros(2), y, model)
        with pytest.raises(ValueError, match=message):
            potential_from_design_matrix(np.ones((2, 3)), y, model)


def test_gaussian_potential_hand_value():
    # |y - w|^2 / (2 sigma^2) = (1 + 0) / (2 * 0.25) = 2
    model = NoiseModel("gaussian", 0.5)
    assert potential(np.zeros(2), [1.0, 0.0], model) == pytest.approx(2.0)


def test_probit_potential_hand_value():
    # zero margin: -log Psi(0) = log 2, per observation
    model = NoiseModel("probit", 1.0)
    assert potential(np.zeros(2), [1.0, -1.0], model) == pytest.approx(
        2.0 * math.log(2.0))


def test_probit_potential_stable_for_large_negative_margins():
    model = NoiseModel("probit", 1.0)
    val = potential(np.array([-50.0]), [1.0], model)
    assert np.isfinite(val)
    assert val > 1000.0


def test_potential_shape_mismatch():
    with pytest.raises(ValueError):
        potential(np.zeros(3), [1.0, 0.0], NoiseModel("gaussian", 0.5))


def test_design_matrix_potential_closure(basis120):
    model = NoiseModel("gaussian", 0.3)
    rng = np.random.default_rng(0)
    y = rng.standard_normal(10)
    mat = design_matrix(basis120, 0.2, 10)
    phi = potential_from_design_matrix(mat, y, model)
    for seed in range(3):
        a = np.random.default_rng(seed).standard_normal(basis120.count)
        assert phi(a) == pytest.approx(potential(mat @ a, y, model), rel=1e-12)
    # The quadratic form subtracts terms of size c = |y|^2 / (2 sigma^2);
    # at the least-squares fit of large labels c dwarfs phi itself.
    big = 1e3 * y
    c = float(big @ big) / (2.0 * 0.3**2)
    phi = potential_from_design_matrix(mat, big, model)
    a_star = np.linalg.lstsq(mat, big, rcond=None)[0]
    exact = potential(mat @ a_star, big, model)
    assert c > 1e7 * exact
    assert abs(phi(a_star) - exact) <= 1e-12 * (c + exact)


@pytest.mark.parametrize("p, k", [(3, 8), (8, 8), (40, 8)])
def test_gaussian_misfit_matches_the_direct_potential(p, k):
    # The reduced residual form keeps min(p, k) rows and the value of
    # phi(M a) for p below, at and above k.
    rng = np.random.default_rng(p)
    mat = rng.standard_normal((p, k))
    y = rng.standard_normal(p)
    model = NoiseModel("gaussian", 0.3)
    phi = potential_from_design_matrix(mat, y, model)
    assert phi.matrix.shape == (min(p, k), k)
    for a in 2.0 * rng.standard_normal((5, k)):
        assert phi(a) == pytest.approx(potential(mat @ a, y, model),
                                       rel=1e-12)


@pytest.mark.parametrize("chains", [1, 2, 9, 18])
@pytest.mark.parametrize("p", [3, 12, 40])
def test_batched_misfits_give_each_design_its_own_bits(chains, p):
    # The sampler evaluates lockstep chains in one batch; each value must
    # be the bits of that design's misfit called alone.
    rng = np.random.default_rng(chains + p)
    misfits = [potential_from_design_matrix(
        rng.standard_normal((p, 16)), rng.standard_normal(p),
        NoiseModel("gaussian", 0.4)) for _ in range(chains)]
    evaluate = GaussianMisfit.batch(misfits)
    out = np.empty(chains)
    for _ in range(20):
        states = 3.0 * rng.standard_normal((chains, 16))
        evaluate(states, out)
        assert out.tolist() == [phi(a) for phi, a in zip(misfits, states)]


@pytest.mark.parametrize("kind", ["gaussian", "probit"])
@pytest.mark.parametrize("shape", [(1, 4), (3, 4), (5,)])
def test_design_matrix_must_match_labels(kind, shape):
    y = [1.0, -1.0, 1.0, 1.0, -1.0]
    model = NoiseModel(kind, 0.5)
    message = "shape %s does not match label shape (5,)" % (shape,)
    with pytest.raises(ValueError, match=re.escape(message)):
        potential_from_design_matrix(np.ones(shape), y, model)


@pytest.mark.parametrize("p, k", [(1, 1), (7, 3), (300, 16), (1000, 13)])
def test_probit_closure_matches_the_direct_formula_exactly(p, k):
    # The closure forms its margins in one reused buffer; every call must
    # give the bits of the allocating formula, also on a row view.
    from scipy.special import log_ndtr

    rng = np.random.default_rng(p + k)
    mat = rng.standard_normal((p, k))
    y = np.where(rng.standard_normal(p) >= 0.0, 1.0, -1.0)
    sigma = 0.3
    phi = potential_from_design_matrix(mat, y, NoiseModel("probit", sigma))
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
    y = synthesize_data(coeffs, cont, 0.3, 20, cl, model, seed=77)
    again = synthesize_data(coeffs, cont, 0.3, 20, cl, model, seed=77)
    assert y.shape == (20,)
    assert np.array_equal(y, again)
    clean = cont.synthesize(coeffs, cl.points[:20]) * math.exp(-2.0 * 0.3)
    resid = y - clean
    # the injected noise has the configured scale
    assert 0.03 < np.std(resid) < 0.3
    # at least one label, and no more than the cloud has points
    for p in (0, 51):
        with pytest.raises(ValueError, match="p=%d n=50" % p):
            synthesize_data(coeffs, cont, 0.3, p, cl, model, seed=77)


def test_synthesize_evaluates_then_damps_coefficients():
    # the noiseless labels are the harmonics at the first p points times the
    # heat-damped coefficients, in that order, bit for bit; damping the
    # evaluated rows instead rounds differently
    cl = sample_sphere(40, seed=4)
    cont = ContinuumBasis(3)
    coeffs = np.random.default_rng(8).standard_normal(cont.count)
    model = NoiseModel("gaussian", 0.2)
    y = synthesize_data(coeffs, cont, 0.3, 4, cl, model, seed=9)
    clean = cont.evaluate(cl.points[:4]) @ heat(coeffs, cont, 0.3)
    noise = 0.2 * np.random.default_rng(9).standard_normal(4)
    assert np.array_equal(y, clean + noise)


def test_synthesize_probit_labels():
    cl = sample_sphere(50, seed=3)
    cont = ContinuumBasis(2)
    coeffs = np.ones(cont.count)
    model = NoiseModel("probit", 0.5)
    y = synthesize_data(coeffs, cont, 0.1, 30, cl, model, seed=5)
    assert set(np.unique(y)).issubset({-1.0, 1.0})


def test_synthesize_graph_carrier(basis120, sphere120):
    u = np.eye(basis120.count)[1]
    model = NoiseModel("gaussian", 0.05)
    # labels come from the continuum truth only; a graph basis is refused
    with pytest.raises(ValueError, match="carrier"):
        synthesize_data(u, basis120, 0.0, 15, sphere120, model, seed=6)
