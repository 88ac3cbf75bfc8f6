"""Parameter constraints, synthetic generation, centering, projection."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import shapealign as sa
from shapealign.errors import ConstraintViolation, DegenerateAmplitude
from shapealign.model import ConstraintRegime, Regime
from conftest import bandlimited_truth, boxplot_truth, parabola_spectrum


def _valid_theta_a():
    a = np.array([1.1, 0.9])
    return np.array([0.0, 1.0]), a * np.sqrt(2 / (a @ a))


def test_parameter_set_validation():
    theta, a = _valid_theta_a()
    sa.ParameterSet(theta=theta, a=a, upsilon=[0.0, 1.0], sigma=1.0)  # fine
    with pytest.raises(ConstraintViolation):
        sa.ParameterSet(theta=[0.1, 1.0], a=a, upsilon=[0.0, 1.0], sigma=1.0)
    with pytest.raises(ConstraintViolation):
        sa.ParameterSet(theta=theta, a=[1.0, 0.9], upsilon=[0.0, 1.0], sigma=1.0)
    with pytest.raises(ConstraintViolation):
        sa.ParameterSet(theta=theta, a=-a, upsilon=[0.0, 1.0], sigma=1.0)
    with pytest.raises(ConstraintViolation):
        sa.ParameterSet(theta=theta, a=a, upsilon=[0.0, 1.0], sigma=1.0,
                        regime=ConstraintRegime(upsilon_max=0.5))
    with pytest.raises(ConstraintViolation):
        sa.ParameterSet(theta=theta, a=a, upsilon=[0.5, 1.0], sigma=1.0,
                        regime=ConstraintRegime(kind=Regime.A1))
    for sigma in (-1.0, float("nan")):  # NaN would draw a noiseless panel
        with pytest.raises(ConstraintViolation):
            sa.ParameterSet(theta=theta, a=a, upsilon=[0.0, 1.0], sigma=sigma)


def test_generate_noiseless_cosine_identity():
    grid = sa.make_grid(33)
    shape = sa.ShapeSpectrum.from_onesided({1: 0.5})
    truth = sa.ParameterSet(theta=[0.0, 0.0], a=[1.0, 1.0], upsilon=[0.0, 0.0], sigma=0.0)
    panel = sa.generate_panel(truth, shape, grid, seed=0)
    for j in range(2):
        assert_allclose(panel.y[j], np.cos(grid.points), rtol=0, atol=1e-14)


def test_generate_is_bit_reproducible():
    grid = sa.make_grid(41)
    shape = sa.ShapeSpectrum.from_onesided({1: 1.0, 2: 0.25j})
    truth = sa.ParameterSet(theta=[0.0, 2.0], a=[1.0, 1.0], upsilon=[1.0, -1.0], sigma=0.8)
    a = sa.generate_panel(truth, shape, grid, seed=99)
    b = sa.generate_panel(truth, shape, grid, seed=99)
    assert np.array_equal(a.y, b.y)
    c = sa.generate_panel(truth, shape, grid, seed=100)
    assert not np.array_equal(a.y, c.y)


def test_generate_boxplot_configuration_column_means():
    truth, shape = boxplot_truth()
    grid = sa.make_grid(201)
    panel = sa.generate_panel(truth, shape, grid, seed=4)
    for j in range(2):
        # column mean = level + O(sigma / sqrt(n)); 4 sigma margin
        assert abs(panel.y[j].mean() - truth.upsilon[j]) < 4.0 / np.sqrt(201)


def test_generate_noise_variance():
    grid = sa.make_grid(201)
    shape = sa.ShapeSpectrum.from_onesided({1: 1.0, 2: -0.5})
    truth = sa.ParameterSet(theta=[0.0, 1.0], a=[1.0, 1.0], upsilon=[0.3, -0.2], sigma=1.0)
    noiseless = sa.ParameterSet(theta=[0.0, 1.0], a=[1.0, 1.0], upsilon=[0.3, -0.2], sigma=0.0)
    panel = sa.generate_panel(truth, shape, grid, seed=20)
    base = sa.generate_panel(noiseless, shape, grid, seed=20)
    for j in range(2):
        var = np.var(panel.y[j] - base.y[j])
        assert abs(var - 1.0) < 0.15


def test_generate_shift_covariance_of_dft():
    grid = sa.make_grid(101)
    shape = sa.ShapeSpectrum.from_onesided({1: 0.8 - 0.1j, 2: 0.3, 3: 0.05j}, m=3)
    a = np.array([0.9, 1.2])
    a = a * np.sqrt(2 / (a @ a))
    truth = sa.ParameterSet(theta=[0.0, 2.2], a=a, upsilon=[1.5, -0.7], sigma=0.0)
    panel = sa.generate_panel(truth, shape, grid, seed=0)
    for j in range(2):
        block = sa.dft(panel.y[j], grid, 3)
        for l in range(-3, 4):
            expected = truth.a[j] * np.exp(-1j * l * truth.theta[j]) * shape.coeff(l)
            if l == 0:
                expected += truth.upsilon[j]
            assert abs(block[l + 3] - expected) < 1e-10


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), j=st.integers(2, 5), degree=st.integers(1, 8),
       half=st.integers(8, 100), c0=st.floats(-5.0, 5.0))
def test_generate_shift_covariance_of_dft_property(seed, j, degree, half, c0):
    # noiseless panel of a random band-limited truth: each curve's DFT is
    # a_j e^{-il theta_j} c_l + upsilon_j delta_{l0}, the shape mean included
    truth, ac = bandlimited_truth(np.random.default_rng(seed), j=j, degree=degree)
    coeffs = ac.coeffs.copy()
    coeffs[degree] = c0
    shape = sa.ShapeSpectrum(m=degree, coeffs=coeffs)
    grid = sa.make_grid(2 * half + 1)
    panel = sa.generate_panel(truth, shape, grid, seed=seed)
    ls = np.arange(-degree, degree + 1)
    scale = np.abs(coeffs).sum() * np.abs(truth.a).max() + np.abs(truth.upsilon).max()
    for k in range(j):
        expected = truth.a[k] * np.exp(-1j * ls * truth.theta[k]) * coeffs
        expected[degree] += truth.upsilon[k]
        block = sa.dft(panel.y[k], grid, degree)
        assert np.max(np.abs(block - expected)) <= 1e-12 * max(1.0, scale)


def test_center_shape_noop_and_parabola():
    spec = sa.ShapeSpectrum.from_onesided({1: 0.5, 2: 0.2j})
    same, c0 = sa.center_shape(spec)
    assert c0 == 0.0
    assert same is spec

    # quadrature oracle for the parabola mean: (1/2pi) int 20 x(1-x) 2pi dx
    xs = np.linspace(0.0, 1.0, 200_001)
    oracle = np.trapezoid(20.0 * xs * (1.0 - xs), xs)
    assert abs(oracle - 10.0 / 3.0) < 1e-9

    parabola = parabola_spectrum(band=20)
    centered, c0 = sa.center_shape(parabola)
    assert abs(c0 - oracle) < 1e-9
    assert centered.c0 == 0.0
    assert centered.coeff(3) == parabola.coeff(3)


def test_center_pure_level():
    spec = sa.ShapeSpectrum(m=1, coeffs=np.array([0.0, 4.5, 0.0], dtype=complex))
    centered, c0 = sa.center_shape(spec)
    assert c0 == 4.5
    assert centered.power_ac == 0.0


def test_project_valid_input_unchanged():
    theta, a = _valid_theta_a()
    ups = np.array([0.4, -0.2])
    params, flipped = sa.project_to_constraints(theta, a, ups, ConstraintRegime())
    assert not flipped
    assert np.array_equal(params.theta, theta)
    assert np.array_equal(params.a, a)
    assert np.array_equal(params.upsilon, ups)


def test_project_rescales_and_flips():
    params, flipped = sa.project_to_constraints(
        [0.0, 0.0], [2.0, 2.0], [0.0, 0.0], ConstraintRegime())
    assert not flipped
    assert_allclose(params.a, [1.0, 1.0], rtol=0, atol=1e-15)

    params, flipped = sa.project_to_constraints(
        [0.0, 0.0], [-1.0, 1.0], [0.0, 0.0], ConstraintRegime())
    assert flipped
    assert_allclose(params.a, [1.0, -1.0], rtol=0, atol=1e-15)


def test_project_shifts_and_clips():
    params, _ = sa.project_to_constraints(
        [1.0, 0.2], [1.0, 1.0], [10.0, -10.0], ConstraintRegime(upsilon_max=2.0))
    assert params.theta[0] == 0.0
    assert_allclose(params.theta[1], 0.2 - 1.0 + 2 * np.pi, rtol=1e-15)
    assert_allclose(params.upsilon, [2.0, -2.0], rtol=0)


def test_project_idempotent_exactly():
    rng = np.random.default_rng(5)
    for _ in range(25):
        theta = rng.uniform(-10, 10, 4)
        a = rng.normal(size=4)
        if abs(a[0]) < 1e-3:
            a[0] = 0.5
        ups = rng.uniform(-5, 5, 4)
        once, _ = sa.project_to_constraints(theta, a, ups, ConstraintRegime(upsilon_max=3.0))
        twice, flipped = sa.project_to_constraints(
            once.theta, once.a, once.upsilon, ConstraintRegime(upsilon_max=3.0))
        assert not flipped
        assert np.array_equal(once.theta, twice.theta)
        assert np.array_equal(once.a, twice.a)
        assert np.array_equal(once.upsilon, twice.upsilon)


def test_project_degenerate_amplitude():
    with pytest.raises(DegenerateAmplitude):
        sa.project_to_constraints([0.0, 0.0], [0.0, 0.0], [0.0, 0.0], ConstraintRegime())


def test_a1_reparameterization_matches_bitwise():
    # dyadic-friendly values make the algebra exact in floating point
    grid = sa.make_grid(21)
    shape = sa.ShapeSpectrum.from_onesided({1: 0.5 + 0.25j, 2: -0.125}, m=2)
    truth = sa.ParameterSet(theta=[0.0, 1.5], a=[1.0, 1.0], upsilon=[2.5, 0.5], sigma=0.5)
    alt, alt_shape = sa.reparameterize_to_a1(truth, shape)
    assert alt.regime.kind is Regime.A1
    assert alt.upsilon[0] == 0.0
    p0 = sa.generate_panel(truth, shape, grid, seed=9)
    p1 = sa.generate_panel(alt, alt_shape, grid, seed=9)
    assert np.array_equal(p0.y, p1.y)


def test_a1_reparameterization_matches_generic():
    grid = sa.make_grid(21)
    shape = sa.ShapeSpectrum.from_onesided({1: 0.5 + 0.25j, 2: -0.125}, m=2)
    a = np.array([0.9, np.sqrt(2 - 0.81)])
    truth = sa.ParameterSet(theta=[0.0, 1.5], a=a, upsilon=[2.7, 0.3], sigma=0.5)
    alt, alt_shape = sa.reparameterize_to_a1(truth, shape)
    p0 = sa.generate_panel(truth, shape, grid, seed=9)
    p1 = sa.generate_panel(alt, alt_shape, grid, seed=9)
    assert np.max(np.abs(p0.y - p1.y)) < 1e-12


def test_panel_dft_cache_matches_dft():
    grid = sa.make_grid(31)
    rng = np.random.default_rng(0)
    panel = sa.CurvePanel(grid=grid, y=rng.normal(size=(2, 31)))
    blocks = panel.curve_dft(5)
    assert blocks.shape == (2, 11) and not blocks.flags.writeable
    with pytest.raises(ValueError):
        blocks[0, 0] = 0.0
    for j in range(2):
        fresh = sa.dft(panel.y[j], grid, 5)
        assert np.max(np.abs(blocks[j] - fresh)) < 1e-12
    assert panel.curve_dft(5) is blocks  # cached
