"""Criterion value/gradient identities against independent oracles."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import shapealign as sa
from shapealign.criterion import (
    criterion_stack,
    shift_constants,
    shift_objective_stack,
)
from shapealign.model import ConstraintRegime, Regime
from conftest import bandlimited_truth, sphere_scales
from oracles import band_levels, contrast_oracle, phase_weight, profile_amplitude

A0 = ConstraintRegime()


def _one_row(band, x, hessian=False):
    """The stacked shift kernel at one row of free shifts ``x`` of one panel's ``band``."""
    return shift_objective_stack(band.d_ac[None], [0], np.atleast_2d(x), band.spread, hessian)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), j=st.integers(2, 6),
       levels=st.lists(st.floats(-1e5, 1e5), min_size=6, max_size=6),
       sigma=st.sampled_from([0.0, 0.3]), n=st.sampled_from([21, 201]))
def test_shift_constant_is_one_for_both_regimes_property(seed, j, levels, sigma, n):
    # under a box that does not bind, both regimes take levels ybar, so the A0 and A1 rows of
    # shift_constants are the spread about the means bit for bit: the constant the fit searches
    # a panel's shifts on
    rng = np.random.default_rng(seed)
    truth, shape = bandlimited_truth(rng, j=j, degree=3, sigma=sigma)
    truth = dataclasses.replace(truth, upsilon=np.array(levels[:j]))
    band = sa.generate_panel(truth, shape, sa.make_grid(n), seed=seed).band(3)
    assert np.abs(band.ybar).max() < A0.upsilon_max
    a0, a1 = shift_constants(np.stack([band.ybar] * 2), band.spread, np.array([False, True]),
                             np.full(2, A0.upsilon_max))
    assert a0.hex() == a1.hex() == band.spread.hex()


def test_contexts_share_the_band_arrays_read_only():
    # every regime reads a panel's one cached band, so nothing may write its arrays
    panel = sa.CurvePanel(grid=sa.make_grid(31), y=np.random.default_rng(2).normal(size=(3, 31)))
    band = panel.band(4)
    assert panel.band(4) is band
    before = band.d_ac.copy(), band.ybar.copy()
    with pytest.raises(ValueError):
        band.d_ac[0, 0] = 1.0
    with pytest.raises(ValueError):
        band.ybar[0] = 1.0
    assert np.array_equal(band.d_ac, before[0]) and np.array_equal(band.ybar, before[1])


def _random_valid_point(rng, j, kind=Regime.A0):
    theta = np.concatenate([[0.0], rng.uniform(0, 2 * np.pi, j - 1)])
    a = sphere_scales(rng, j)
    if kind is Regime.A0:
        ups = rng.uniform(-2, 2, j)
    else:
        ups = np.concatenate([[0.0], rng.uniform(-2, 2, j - 1)])
    return theta, a, ups


def _residual_oracle(panel, spec, theta, a, upsilon, c0=0.0):
    """Mean squared residual by direct substitution of the fitted shape."""
    total = 0.0
    for j in range(panel.n_curves):
        fitted = sa.evaluate_spectrum(spec, panel.grid.points - theta[j]) + c0
        resid = panel.y[j] - a[j] * fitted - upsilon[j]
        total += float(resid @ resid)
    return total / (panel.grid.n * panel.n_curves)


def test_profiled_coefficients_identical_curves():
    grid = sa.make_grid(41)
    shape = sa.ShapeSpectrum.from_onesided({1: 1.0, 2: 0.3 - 0.2j})
    truth = sa.ParameterSet(theta=[0.0, 0.0], a=[1.0, 1.0], upsilon=[0.0, 0.0], sigma=0.0)
    panel = sa.generate_panel(truth, shape, grid, seed=0)
    band = panel.band(4)
    spec = sa.profiled_coefficients(band, [0.0, 0.0], [1.0, 1.0])
    d1 = sa.dft(panel.y, grid, 4)[0]
    for l in range(-4, 5):
        if l == 0:
            continue
        assert abs(spec.coeff(l) - d1[l + 4]) < 1e-13


def test_profiled_coefficients_recover_truth(rng):
    truth, shape = bandlimited_truth(rng, j=3, degree=3)
    grid = sa.make_grid(61)
    panel = sa.generate_panel(truth, shape, grid, seed=1)
    band = panel.band(3)
    spec = sa.profiled_coefficients(band, truth.theta, truth.a)
    for l in range(-3, 4):
        if l == 0:
            continue
        assert abs(spec.coeff(l) - shape.coeff(l)) < 1e-10


def test_profiled_coefficients_phase_equivariance(rng):
    truth, shape = bandlimited_truth(rng, j=2, degree=2)
    grid = sa.make_grid(41)
    delta = 0.9123
    shifted_theta = np.mod(truth.theta + delta, 2 * np.pi)
    shifted_theta -= shifted_theta[0]
    shifted_theta = np.mod(shifted_theta, 2 * np.pi)
    panel = sa.generate_panel(truth, shape, grid, seed=2)
    band = panel.band(2)
    base = sa.profiled_coefficients(band, truth.theta, truth.a)
    # rotating every shift by the same delta multiplies chat_l by e^{il delta}
    rotated = sa.profiled_coefficients(band, truth.theta + delta, truth.a)
    for l in range(-2, 3):
        if l == 0:
            continue
        assert abs(rotated.coeff(l) - np.exp(1j * l * delta) * base.coeff(l)) < 1e-12


def test_level_centering_is_noop_on_banded_coefficients(rng):
    truth, shape = bandlimited_truth(rng, j=2, degree=2, sigma=0.4)
    grid = sa.make_grid(41)
    panel = sa.generate_panel(truth, shape, grid, seed=3)
    band = panel.band(4)
    theta, a, _ = _random_valid_point(rng, 2)
    spec = sa.profiled_coefficients(band, theta, a)
    ups = np.array([17.0, -6.0])
    centered_rows = panel.y - ups[:, None]
    blocks = sa.dft(centered_rows, grid, 4)
    ssq = float(a @ a)
    for l in range(-4, 5):
        if l == 0:
            continue
        manual = sum(a[j] * np.exp(1j * l * theta[j]) * blocks[j, l + 4] for j in range(2)) / ssq
        assert abs(manual - spec.coeff(l)) < 1e-13


def test_criterion_zero_at_truth_noiseless(rng):
    truth, shape = bandlimited_truth(rng, j=3, degree=3)
    panel = sa.generate_panel(truth, shape, sa.make_grid(101), seed=4)
    band = panel.band(5)
    value = sa.criterion_value(band, A0, truth.theta, truth.a, truth.upsilon)
    assert abs(value) < 1e-12


@pytest.mark.parametrize("kind", [Regime.A0, Regime.A1])
def test_criterion_equals_residual_oracle(kind, rng):
    for trial in range(10):
        j = int(rng.integers(2, 5))
        truth, shape = bandlimited_truth(rng, j=j, degree=3, sigma=0.6)
        panel = sa.generate_panel(truth, shape, sa.make_grid(61), seed=100 + trial)
        band, regime = panel.band(5), ConstraintRegime(kind=kind)
        theta, a, ups = _random_valid_point(rng, j, kind)
        spec = sa.profiled_coefficients(band, theta, a)
        c0 = sa.profiled_mean(band, a, ups) if kind is Regime.A1 else 0.0
        oracle = _residual_oracle(panel, spec, theta, a, ups, c0)
        value = sa.criterion_value(band, regime, theta, a, ups)
        assert abs(value - oracle) < 1e-10


def test_criterion_wrong_shift_matches_contrast(rng):
    # single tone, opposite shift: the whole tone energy is lost
    grid = sa.make_grid(41)
    shape = sa.ShapeSpectrum.from_onesided({1: 0.7})
    truth = sa.ParameterSet(theta=[0.0, 0.0], a=[1.0, 1.0], upsilon=[0.0, 0.0], sigma=0.0)
    panel = sa.generate_panel(truth, shape, grid, seed=0)
    band = panel.band(1)
    value = sa.criterion_value(band, A0, [0.0, np.pi], [1.0, 1.0], [0.0, 0.0])
    w = phase_weight([0.0, np.pi], [1.0, 1.0], [1.0, 1.0])
    assert abs(w) < 1e-15
    expected = 2 * 0.7**2 * (1 - abs(w) ** 2)
    assert abs(value - expected) < 1e-12


def test_criterion_invariant_under_full_turns(rng):
    truth, shape = bandlimited_truth(rng, j=3, degree=2, sigma=0.3)
    panel = sa.generate_panel(truth, shape, sa.make_grid(41), seed=6)
    band = panel.band(3)
    theta, a, ups = _random_valid_point(rng, 3)
    v1 = sa.criterion_value(band, A0, theta, a, ups)
    v2 = sa.criterion_value(band, A0, theta + 2 * np.pi * np.array([0, 3, -2]), a, ups)
    assert v1 == v2


def test_gradient_zero_at_noiseless_truth(rng):
    truth, shape = bandlimited_truth(rng, j=3, degree=3)
    panel = sa.generate_panel(truth, shape, sa.make_grid(101), seed=7)
    band = panel.band(5)
    grad = sa.criterion_gradient(band, A0, truth.theta, truth.a, truth.upsilon)
    assert np.max(np.abs(grad)) < 1e-9


@pytest.mark.parametrize("kind", [Regime.A0, Regime.A1])
def test_gradient_matches_finite_differences(kind, rng):
    j = 3
    truth, shape = bandlimited_truth(rng, j=j, degree=3, sigma=0.8)
    panel = sa.generate_panel(truth, shape, sa.make_grid(61), seed=8)
    band, regime = panel.band(5), ConstraintRegime(kind=kind)
    for _ in range(10):
        theta, a, ups = _random_valid_point(rng, j, kind)
        grad = sa.criterion_gradient(band, regime, theta, a, ups)
        free0 = np.concatenate([
            theta[1:], a[1:], ups if kind is Regime.A0 else ups[1:],
        ])

        def value_at(free):
            th = np.concatenate([[0.0], free[: j - 1]])
            tail = free[j - 1 : 2 * (j - 1)]
            aa = np.concatenate([[np.sqrt(j - tail @ tail)], tail])
            uf = free[2 * (j - 1) :]
            u = uf if kind is Regime.A0 else np.concatenate([[0.0], uf])
            return sa.criterion_value(band, regime, th, aa, u)

        h = 1e-6
        fd = np.empty_like(free0)
        for k in range(free0.size):
            e = np.zeros_like(free0)
            e[k] = h
            fd[k] = (value_at(free0 + e) - value_at(free0 - e)) / (2 * h)
        rel = np.max(np.abs(grad - fd)) / max(np.max(np.abs(fd)), 1e-12)
        assert rel < 1e-6


def test_level_gradient_vanishes_at_column_means(rng):
    truth, shape = bandlimited_truth(rng, j=2, degree=2, sigma=0.5)
    panel = sa.generate_panel(truth, shape, sa.make_grid(41), seed=9)
    band = panel.band(3)
    theta, a, _ = _random_valid_point(rng, 2)
    means = panel.y.mean(axis=1)
    grad = sa.criterion_gradient(band, A0, theta, a, means)
    assert np.all(grad[-2:] == 0.0)


def test_level_separability(rng):
    # the column means minimize the criterion in the levels for any (theta, a)
    truth, shape = bandlimited_truth(rng, j=2, degree=2, sigma=0.5)
    panel = sa.generate_panel(truth, shape, sa.make_grid(41), seed=10)
    band = panel.band(3)
    theta, a, _ = _random_valid_point(rng, 2)
    means = panel.y.mean(axis=1)
    best = sa.criterion_value(band, A0, theta, a, means)
    for _ in range(20):
        ups = means + rng.normal(scale=0.5, size=2)
        assert sa.criterion_value(band, A0, theta, a, ups) >= best


def test_phase_weight_bound(rng):
    for _ in range(50):
        j = int(rng.integers(2, 6))
        a = sphere_scales(rng, j, min_abs=0.0)
        a_star = sphere_scales(rng, j, min_abs=0.0)
        offsets = rng.uniform(-10, 10, j)
        assert abs(phase_weight(offsets, a, a_star)) <= 1.0 + 1e-12


def test_contrast_oracle_values(rng):
    truth, shape = bandlimited_truth(rng, j=2, degree=3)
    # zero at the truth, up to sphere-normalization rounding in the scales
    assert abs(contrast_oracle(truth, truth, shape)) < 1e-12

    # one level off by delta: only the level term contributes
    delta = 0.37
    ups = truth.upsilon.copy()
    ups[1] += delta
    beta = sa.ParameterSet(theta=truth.theta, a=truth.a, upsilon=ups, sigma=truth.sigma)
    assert abs(contrast_oracle(beta, truth, shape) - delta**2 / 2) < 1e-14

    # single tone, opposite shift, equal unit scales
    tone = sa.ShapeSpectrum.from_onesided({1: 0.7})
    base = sa.ParameterSet(theta=[0.0, 0.0], a=[1.0, 1.0], upsilon=[0.0, 0.0], sigma=0.0)
    flipped = sa.ParameterSet(theta=[0.0, np.pi], a=[1.0, 1.0], upsilon=[0.0, 0.0], sigma=0.0)
    assert abs(contrast_oracle(flipped, base, tone) - 2 * 0.7**2) < 1e-14


def test_contrast_oracle_nonnegative(rng):
    truth, shape = bandlimited_truth(rng, j=3, degree=3)
    for _ in range(30):
        theta, a, ups = _random_valid_point(rng, 3)
        beta = sa.ParameterSet(theta=theta, a=a, upsilon=ups, sigma=1.0)
        assert contrast_oracle(beta, truth, shape) >= -1e-12


def test_noiseless_criterion_matches_contrast_on_grid(rng):
    # band-limited shape, band covered by the fit: the two agree exactly
    truth, shape = bandlimited_truth(rng, j=2, degree=2)
    panel = sa.generate_panel(truth, shape, sa.make_grid(61), seed=11)
    band = panel.band(2)
    for _ in range(25):
        theta, a, ups = _random_valid_point(rng, 2)
        beta = sa.ParameterSet(theta=theta, a=a, upsilon=ups, sigma=1.0)
        value = sa.criterion_value(band, A0, theta, a, ups)
        oracle = contrast_oracle(beta, truth, shape)
        assert abs(value - oracle) < 1e-10


@pytest.mark.parametrize("kind", [Regime.A0, Regime.A1])
@pytest.mark.parametrize("j", [2, 3, 4, 5])
def test_shift_kernel_matches_criterion_and_gradient(kind, j, rng):
    truth, shape = bandlimited_truth(rng, j=j, degree=3, sigma=0.7)
    panel = sa.generate_panel(truth, shape, sa.make_grid(61), seed=20 + j)
    band, regime = panel.band(4), ConstraintRegime(kind=kind)
    for _ in range(5):
        theta = np.concatenate([[0.0], rng.uniform(0, 2 * np.pi, j - 1)])
        ev = _one_row(band, theta[1:])
        a = profile_amplitude(band, theta).a
        ups = band_levels(band, regime, a)
        value = sa.criterion_value(band, regime, theta, a, ups)
        grad = sa.criterion_gradient(band, regime, theta, a, ups)[: j - 1]
        assert ev.hess is None
        assert abs(ev.value[0] - value) <= 1e-12 * max(1.0, abs(value))
        assert np.max(np.abs(ev.grad[0] - grad)) <= 1e-12 * max(1.0, np.max(np.abs(grad)))


@pytest.mark.parametrize("kind", [Regime.A0, Regime.A1])
@pytest.mark.parametrize("j", [2, 3, 4, 5])
def test_shift_kernel_hessian_matches_finite_differences(kind, j, rng):
    truth, shape = bandlimited_truth(rng, j=j, degree=3, sigma=0.7)
    panel = sa.generate_panel(truth, shape, sa.make_grid(61), seed=40 + j)
    band, regime = panel.band(4), ConstraintRegime(kind=kind)
    h = 1e-6
    for _ in range(5):
        x = rng.uniform(0, 2 * np.pi, j - 1)
        ev = _one_row(band, x, hessian=True)
        assert not ev.tie_break[0]
        fd = np.empty((j - 1, j - 1))
        for k in range(j - 1):
            e = np.zeros(j - 1)
            e[k] = h
            fd[:, k] = (_one_row(band, x + e).grad[0] - _one_row(band, x - e).grad[0]) / (2 * h)
        assert np.max(np.abs(ev.hess[0] - fd)) / max(np.max(np.abs(fd)), 1e-12) < 1e-6


def test_shift_kernel_no_hessian_at_eigenvalue_tie():
    # two identical single-tone curves a quarter period apart: Q is a multiple
    # of the identity, so the leading eigenvalue is tied
    grid = sa.make_grid(41)
    y = np.vstack([np.cos(grid.points), np.cos(grid.points)])
    band = sa.CurvePanel(grid=grid, y=y).band(1)
    ev = _one_row(band, [np.pi / 2], hessian=True)
    assert ev.tie_break[0]
    assert not np.isfinite(ev.hess[0]).any()  # the zero gap leaves no Hessian to use



@pytest.mark.parametrize("m", [3, 11])
@pytest.mark.parametrize("j", [2, 3, 5, 8, 12])
def test_shift_kernel_stack_rows_do_not_interact(j, m, rng):
    # rows of two fits, in any mix: each row's bits equal the lone one-row kernel
    bands = []
    for k in range(2):
        truth, shape = bandlimited_truth(rng, j=j, degree=3, sigma=0.7)
        bands.append(sa.generate_panel(truth, shape, sa.make_grid(41), seed=k).band(m))
    d_ac = np.stack([band.d_ac for band in bands])
    owner = rng.integers(0, 2, 50)
    x = rng.uniform(0, 2 * np.pi, (50, j - 1))
    constant = np.array([band.spread for band in bands])[owner]
    values, grads = shift_objective_stack(d_ac, owner, x, constant)[:2]
    for k in range(50):
        ev = _one_row(bands[owner[k]], x[k])
        assert ev.value[0].tobytes() == values[k].tobytes()
        assert ev.grad[0].tobytes() == grads[k].tobytes()
    subset = rng.permutation(50)[:7]
    sub_values, sub_grads = shift_objective_stack(d_ac, owner[subset], x[subset], constant[subset])[:2]
    assert sub_values.tobytes() == values[subset].tobytes()
    assert sub_grads.tobytes() == grads[subset].tobytes()


@pytest.mark.parametrize("m", [3, 11])
@pytest.mark.parametrize("j", [2, 3, 5, 8])
def test_shift_kernel_stack_hessian_rows_do_not_interact(j, m, rng):
    # stacked Hessians: each row's bits equal the lone one-row kernel's, in any mix
    bands = []
    for k in range(2):
        truth, shape = bandlimited_truth(rng, j=j, degree=3, sigma=0.7)
        bands.append(sa.generate_panel(truth, shape, sa.make_grid(41), seed=k).band(m))
    d_ac = np.stack([band.d_ac for band in bands])
    owner = rng.integers(0, 2, 30)
    x = rng.uniform(0, 2 * np.pi, (30, j - 1))
    constant = np.array([band.spread for band in bands])[owner]
    stack = shift_objective_stack(d_ac, owner, x, constant, hessian=True)
    plain = shift_objective_stack(d_ac, owner, x, constant)
    assert plain.hess is None and stack.hess.shape == (30, j - 1, j - 1)
    for got, want in zip(stack, plain):  # asking for Hessians changes nothing else
        if want is not None:
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
    for k in range(30):
        ev = _one_row(bands[owner[k]], x[k], hessian=True)
        assert ev.tie_break[0] == stack.tie_break[k]
        assert ev.hess[0].tobytes() == stack.hess[k].tobytes()
        assert ev.lead[0].tobytes() == stack.lead[k].tobytes()
    subset = rng.permutation(30)[:7]
    sub = shift_objective_stack(d_ac, owner[subset], x[subset], constant[subset], hessian=True)
    assert sub.hess.tobytes() == stack.hess[subset].tobytes()
    assert sub.value.tobytes() == stack.value[subset].tobytes()


def test_criterion_stack_rows_equal_lone_evaluations(rng):
    # A0 and A1 rows in one stack: each value, coefficient and A1 mean is that row's alone
    bands, regimes, points = [], [], []
    for k in range(6):
        kind = (Regime.A0, Regime.A1)[k % 2]
        truth, shape = bandlimited_truth(rng, j=3, degree=3, sigma=0.7)
        bands.append(sa.generate_panel(truth, shape, sa.make_grid(61), seed=k).band(4))
        regimes.append(ConstraintRegime(kind=kind))
        points.append(_random_valid_point(rng, 3, kind))
    theta, a, ups = (np.array(v) for v in zip(*points))
    d_ac, ybar, spread = (np.array([getattr(band, k) for band in bands]) for k in ("d_ac", "ybar", "spread"))
    a1 = np.array([regime.kind is Regime.A1 for regime in regimes])
    values, coeffs = criterion_stack(d_ac, ybar, spread, a1, theta, a, ups)
    for k, (band, regime) in enumerate(zip(bands, regimes)):
        assert np.float64(sa.criterion_value(band, regime, theta[k], a[k], ups[k])).tobytes() == values[k].tobytes()
        lone = sa.profiled_coefficients(band, theta[k], a[k]).coeffs
        mean = sa.profiled_mean(band, a[k], ups[k]) if regime.kind is Regime.A1 else 0.0
        assert np.delete(lone, 4).tobytes() == np.delete(coeffs[k], 4).tobytes()
        assert coeffs[k][4] == mean
