"""Parameter constraints, synthetic generation, centering, projection."""

import time
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import shapealign as sa
from hypothesis.extra import numpy as hnp

from shapealign.errors import ConstraintViolation, DegenerateAmplitude, NonFiniteData, ZeroReferenceAmplitude
from shapealign.model import ConstraintRegime, Regime, band_stack, project_rows, validate_rows, wrap_shifts
from conftest import bandlimited_truth, boxplot_truth, parabola_spectrum, sphere_scales
from oracles import generate_panel_per_seed


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


_EDGE_SEEDS = (0, 1, 2**64 - 1, 2**64, 2**128 - 2, 2**128 - 1)


@settings(max_examples=40, deadline=None)
@given(draw=st.integers(0, 2**32 - 1), j=st.integers(2, 6), half=st.integers(1, 60),
       degree=st.integers(1, 8), noisy=st.booleans(),
       seeds=st.lists(st.sampled_from(_EDGE_SEEDS) | st.integers(0, 2**128 - 1), min_size=1, max_size=8))
def test_generate_panels_equal_per_seed_oracle_property(draw, j, half, degree, noisy, seeds):
    # one batch of seeds, duplicates and the ends of Philox's 128-bit key range
    # included, gives each seed's own panel bit for bit, and no two panels alias
    rng = np.random.default_rng(draw)
    degree = min(degree, half)
    truth, ac = bandlimited_truth(rng, j=j, degree=degree, sigma=rng.uniform(0.1, 3.0) if noisy else 0.0)
    coeffs = ac.coeffs.copy()
    coeffs[degree] = rng.uniform(-2.0, 2.0)  # a shape mean, folded into the levels
    shape = sa.ShapeSpectrum(m=degree, coeffs=coeffs)
    grid = sa.make_grid(2 * half + 1)
    ys = sa.generate_panels(truth, shape, grid, seeds)
    assert len(ys) == len(seeds)
    for seed, y in zip(seeds, ys):
        assert y.tobytes() == generate_panel_per_seed(truth, shape, grid, seed).y.tobytes()
    assert sa.generate_panel(truth, shape, grid, seeds[0]).y.tobytes() == ys[0].tobytes()
    for p, q in combinations(ys, 2):
        assert not np.shares_memory(p, q)


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


def test_project_zero_reference_amplitude():
    with pytest.raises(ZeroReferenceAmplitude, match="reference amplitude is zero after rescaling"):
        sa.project_to_constraints([0, 1], [0, 2], [0, 0], ConstraintRegime())


def test_project_rows_raise_at_the_first_bad_row():
    zeros, degenerate, zero_reference = np.zeros((1, 2)), np.zeros((1, 2)), np.array([[0.0, 2.0]])
    for scales, error in (([degenerate, zero_reference], DegenerateAmplitude),
                          ([zero_reference, degenerate], ZeroReferenceAmplitude)):
        with pytest.raises(error):
            project_rows(np.zeros((2, 2)), np.vstack(scales), np.vstack([zeros, zeros]), [False, True], [1.0, 1.0])


_ROWS = st.shared(st.tuples(st.integers(1, 6), st.integers(2, 6)))


@settings(max_examples=100, deadline=None)
@given(theta=_ROWS.flatmap(lambda fj: hnp.arrays(float, fj, elements=st.floats(-20.0, 20.0))),
       a=_ROWS.flatmap(lambda fj: hnp.arrays(float, fj, elements=st.floats(-3.0, 3.0))),
       upsilon=_ROWS.flatmap(lambda fj: hnp.arrays(float, fj, elements=st.floats(-10.0, 10.0))),
       a1=_ROWS.flatmap(lambda fj: hnp.arrays(bool, fj[0])),
       bound=_ROWS.flatmap(lambda fj: hnp.arrays(float, fj[0], elements=st.floats(0.5, 5.0))))
def test_project_rows_equal_each_rows_projection_property(theta, a, upsilon, a1, bound):
    # rows with a_1 of either sign, scales off the sphere, levels beyond the box, A0 and A1 mixed
    a[:, 0] = np.where(np.abs(a[:, 0]) < 0.1, -0.5, a[:, 0])
    out = project_rows(theta, a, upsilon, a1, bound)
    for f in range(len(theta)):
        alone, flipped = sa.project_to_constraints(
            theta[f], a[f], upsilon[f], ConstraintRegime(kind=Regime.A1 if a1[f] else Regime.A0, upsilon_max=bound[f]))
        assert [v[f].tobytes() for v in out[:3]] == [v.tobytes() for v in (alone.theta, alone.a, alone.upsilon)]
        assert out[3][f] == flipped
    again = project_rows(*out[:3], a1, bound)  # rows on the set pass through
    assert [v.tobytes() for v in again[:3]] == [v.tobytes() for v in out[:3]]
    assert not again[3].any()


_ANGLES = st.one_of(st.floats(-50.0, 50.0), st.floats(-1e-15, 1e-15), st.floats(-1e15, 1e15),
                    st.sampled_from([-0.0, np.nan, 2 * np.pi, -2 * np.pi, -1e-17, np.nextafter(2 * np.pi, 0.0)]))


@settings(max_examples=200, deadline=None)
@given(theta=hnp.arrays(float, st.tuples(st.integers(1, 4), st.integers(1, 5)), elements=_ANGLES))
def test_wrap_shifts_keeps_angles_in_range_and_takes_mod_elsewhere_property(theta):
    out = wrap_shifts(theta)
    inside = (theta >= 0.0) & (theta < 2 * np.pi)
    kept = inside | np.isnan(theta)  # -0.0 is in range; NaN is not outside it
    assert out[kept].tobytes() == theta[kept].tobytes()
    rest, moved = np.mod(theta[~kept], 2 * np.pi), out[~kept]
    assert ((moved >= 0.0) & (moved < 2 * np.pi)).all()
    assert np.array_equal(moved, np.where(rest == 2 * np.pi, 0.0, rest))
    assert theta is not out and out.shape == theta.shape


def test_wrap_shifts_maps_a_round_up_to_the_period_onto_zero():
    assert np.mod(-1e-17, 2 * np.pi) == 2 * np.pi
    assert wrap_shifts([-1e-17, -0.0, 2 * np.pi, -np.pi]).tolist() == [0.0, -0.0, 0.0, np.pi]
    assert np.signbit(wrap_shifts([-0.0])[0])
    assert wrap_shifts(-1e-17).shape == ()


def test_sphere_scales_draws_many_curves_in_bounded_time():
    # at J = 120 the redraws succeed about once in 10^9 tries; past 10^4 the draw is direct
    rng = np.random.default_rng(3)
    start = time.perf_counter()
    a = sphere_scales(rng, 120)
    assert time.perf_counter() - start < 1.0
    assert abs(float(a @ a) - 120) <= 1e-10 * 120
    assert a[0] > 0.0 and np.min(np.abs(a)) >= 0.2
    sa.ParameterSet(theta=np.zeros(120), a=a, upsilon=np.zeros(120), sigma=0.0)  # a valid truth


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


def test_parameter_set_holds_read_only_copies():
    # a set is validated once, when built: it keeps read-only copies, and the caller's arrays stay its own
    own = {"theta": np.array([0.0, 1.0]), "a": np.array([1.0, 1.0]), "upsilon": np.array([0.5, -0.5])}
    truth = sa.ParameterSet(sigma=0.5, **own)
    for name, array in own.items():
        value = getattr(truth, name)
        assert not value.flags.writeable and not np.shares_memory(value, array)
        with pytest.raises(ValueError):
            value[1] = 7.0
        array[1] = 7.0  # the caller's array stays writable, and the set keeps its values
        assert value[1] != 7.0


def test_panel_dft_cache_matches_dft():
    grid = sa.make_grid(31)
    rng = np.random.default_rng(0)
    panel = sa.CurvePanel(grid=grid, y=rng.normal(size=(2, 31)))
    blocks = panel.band(5).d_ac
    assert blocks.shape == (2, 11) and not blocks.flags.writeable
    with pytest.raises(ValueError):
        blocks[0, 0] = 0.0
    for j in range(2):  # each row is the DFT of its curve alone, mean column zeroed
        fresh = sa.dft(panel.y[j], grid, 5)
        fresh[5] = 0.0
        assert np.max(np.abs(blocks[j] - fresh)) < 1e-12
    assert panel.band(5).d_ac is blocks  # cached


def test_panel_band_cache_zeroes_the_mean_column_read_only():
    grid = sa.make_grid(31)
    panel = sa.CurvePanel(grid=grid, y=np.random.default_rng(1).normal(size=(3, 31)) + 4.0)
    band = panel.band(5)
    assert panel.band(5) is band  # cached
    assert band.d_ac.shape == (3, 11)
    centred = panel.y - panel.y.mean(axis=1)[:, None]
    expected = sa.dft(centred, grid, 5)
    for j in range(3):  # each row is the DFT of its centred curve alone, up to rounding
        assert np.max(np.abs(expected[j] - sa.dft(centred[j], grid, 5))) < 1e-12
    expected[:, 5] = 0.0
    assert np.array_equal(band.d_ac, expected)
    assert np.array_equal(band.ybar, panel.y.mean(axis=1))
    assert band.mean_sq == float((panel.y**2).sum()) / (31 * 3)
    assert band.spread == float(((panel.y - band.ybar[:, None]) ** 2).sum()) / (31 * 3)
    assert band.ac_trace == float(np.sum(np.abs(expected) ** 2)) / 3
    assert not (band.d_ac.flags.writeable or band.ybar.flags.writeable)
    with pytest.raises(ValueError):
        band.d_ac[0, 0] = 0.0


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), p=st.integers(1, 6), j=st.integers(2, 6), half=st.integers(2, 150),
       band=st.floats(0.0, 1.0), scale=st.sampled_from([1e-3, 1.0, 1e3]), offset=st.sampled_from([0.0, 7.5, -1e4]))
def test_band_stack_rows_equal_lone_panel_bands(seed, p, j, half, band, scale, offset):
    # one stacked pass over P panels gives each panel the bits of CurvePanel.band alone
    n = 2 * half + 1
    m = 1 + int(band * (half - 1))
    grid = sa.make_grid(n)
    y = offset + scale * np.random.default_rng(seed).normal(size=(p, j, n))
    stacked = band_stack(y, grid, m)
    assert stacked.d_ac.shape == (p, j, 2 * m + 1) and not stacked.d_ac.flags.writeable
    for k in range(p):
        alone = sa.CurvePanel(grid=grid, y=y[k]).band(m)
        for field, value in zip(alone._fields, alone):
            assert np.asarray(value).tobytes() == getattr(stacked, field)[k].tobytes(), field


def test_band_stack_of_no_panels_is_empty():
    band = band_stack(np.zeros((0, 3, 21)), sa.make_grid(21), 4)
    assert band.d_ac.shape == (0, 3, 9) and band.ybar.shape == (0, 3)
    assert band.mean_sq.shape == band.ac_trace.shape == band.spread.shape == (0,)


def test_generated_panels_that_overflow_are_band_stack_nonfinite_data():
    # sigma near the float limit overflows the noise: the draw itself warns of nothing (warnings are
    # errors here), the values are not finite, and band_stack, like a lone CurvePanel, rejects them
    theta, a = _valid_theta_a()
    truth = sa.ParameterSet(theta=theta, a=a, upsilon=[0.0, 1.0], sigma=1e308)
    shape, grid = sa.ShapeSpectrum.from_onesided({1: 1.0, 2: 0.3}), sa.make_grid(21)
    ys = sa.generate_panels(truth, shape, grid, [4, 5])
    assert ys.shape == (2, 2, 21) and not np.isfinite(ys).all()
    with pytest.raises(NonFiniteData, match="^panel moments or DFT coefficients are not finite$"):
        band_stack(ys, grid, 3)
    with pytest.raises(NonFiniteData, match="^panel values must be finite$"):
        sa.generate_panel(truth, shape, grid, 4)


def test_band_stack_reports_an_overflowing_panel_as_the_panel_alone_does():
    grid = sa.make_grid(21)
    y = np.random.default_rng(3).normal(size=(4, 3, 21))
    y[2, 1, 4] = 1e308  # finite, but its square overflows the second moment
    with pytest.raises(NonFiniteData) as alone:
        sa.CurvePanel(grid=grid, y=y[2]).band(3)
    with pytest.raises(NonFiniteData) as stacked:
        band_stack(y, grid, 3)
    assert str(stacked.value) == str(alone.value) == "panel moments or DFT coefficients are not finite"
    for k in (0, 1, 3):  # the other panels are fine, alone and stacked without panel 2
        sa.CurvePanel(grid=grid, y=y[k]).band(3)
    band_stack(np.delete(y, 2, axis=0), grid, 3)


_VALID_ROW = dict(theta=[0.0, 1.0, 2.0], a=[1.0, 1.0, 1.0], upsilon=[0.5, -0.25, 2.0], sigma=0.3)
# each row breaks exactly one rule of ParameterSet.validate, in the order the rules are checked
_BROKEN_ROWS = [
    ("reference shift", Regime.A0, dict(theta=[0.1, 1.0, 2.0])),
    ("shift range", Regime.A0, dict(theta=[0.0, -0.1, 2.0])),
    ("shift period", Regime.A0, dict(theta=[0.0, 1.0, 2 * np.pi])),
    ("sphere", Regime.A0, dict(a=[1.0, 1.0, 1.1])),
    ("reference scale", Regime.A0, dict(a=[-1.0, 1.0, 1.0])),
    ("negative sigma", Regime.A0, dict(sigma=-0.5)),
    ("nan sigma", Regime.A0, dict(sigma=float("nan"))),
    ("level box", Regime.A0, dict(upsilon=[0.5, -3.0, 2.0])),
    ("A1 reference level", Regime.A1, dict(upsilon=[0.5, -0.25, 2.0])),
]


@pytest.mark.parametrize("name, kind, change", _BROKEN_ROWS, ids=[row[0] for row in _BROKEN_ROWS])
def test_validate_rows_raises_as_the_one_row_call(name, kind, change):
    regime = ConstraintRegime(kind=kind, upsilon_max=2.5)
    row = {**_VALID_ROW, **change}
    with pytest.raises(ConstraintViolation) as alone:
        sa.ParameterSet(regime=regime, **row)
    # valid A0 and A1 rows around the broken one, and a later row breaking another rule
    good_a0, good_a1 = dict(_VALID_ROW), {**_VALID_ROW, "upsilon": [0.0, -0.25, 2.0]}
    later = {**_VALID_ROW, "a": [0.0, 1.0, 1.0]} if name != "sphere" else {**_VALID_ROW, "theta": [1.0, 1.0, 2.0]}
    rows = [good_a0, good_a1, row, later]
    a1 = [False, True, kind is Regime.A1, False]
    theta, a, upsilon = (np.array([r[key] for r in rows], dtype=float) for key in ("theta", "a", "upsilon"))
    with pytest.raises(ConstraintViolation) as stacked:
        validate_rows(theta, a, upsilon, np.array([r["sigma"] for r in rows]), a1, np.full(4, 2.5))
    assert str(stacked.value) == str(alone.value)
    validate_rows(theta[:2], a[:2], upsilon[:2], np.array([0.3, 0.3]), a1[:2], np.full(2, 2.5))


def test_validate_rows_rejects_mismatched_lengths_as_the_one_row_call():
    with pytest.raises(ConstraintViolation) as alone:
        sa.ParameterSet(theta=[0.0, 1.0], a=[1.0, 1.0, 1.0], upsilon=[0.0, 0.0], sigma=0.1)
    with pytest.raises(ConstraintViolation) as stacked:
        validate_rows(np.zeros((3, 2)), np.ones((3, 3)), np.zeros((3, 2)), np.ones(3), [False] * 3, [1.0] * 3)
    assert str(stacked.value) == str(alone.value) == "theta, a, upsilon must share length J >= 2"
