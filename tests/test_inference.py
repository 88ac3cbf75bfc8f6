"""Information blocks, the alternative-regime covariance, and intervals."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import shapealign as sa
from shapealign.errors import (
    ConfigInvalid,
    DegenerateShape,
    EmptySpectrum,
    NotConverged,
    ZeroAmplitudeCoordinate,
)
from shapealign.inference import two_sided_quantile
from shapealign.model import ConstraintRegime, Regime
from shapealign.normal import inverse_normal_cdf
from conftest import boxplot_truth, random_hermitian_spectrum, sphere_scales
from oracles import confidence_intervals_per_parameter

TONE = sa.ShapeSpectrum.from_onesided({1: 0.5})  # |f|^2 = |f'|^2 = 1/2


def test_two_curve_tone_shift_entry():
    blocks = sa.efficiency_blocks([1.0, 1.0], TONE, sigma=1.0)
    # shift entry of the inverse: (1/|f'|^2) (1/a_2^2 + 1/a_1^2) = 2 * 2 = 4
    assert abs(blocks.h_inv[0, 0] - 4.0) < 1e-12
    assert abs(blocks.h[0, 0] - 0.5 * (1.0 - 0.5)) < 1e-12


def test_identity_residual_random(rng):
    for _ in range(25):
        j = int(rng.integers(2, 6))
        a = sphere_scales(rng, j)
        spec = random_hermitian_spectrum(rng, int(rng.integers(1, 6)))
        blocks = sa.efficiency_blocks(a, spec, sigma=1.3)
        assert blocks.identity_residual() < 1e-10


@pytest.mark.parametrize("j", [2, 3, 5])
def test_closed_form_inverse_matches_numerical(j, rng):
    for _ in range(30):
        a = sphere_scales(rng, j)
        spec = random_hermitian_spectrum(rng, 4)
        blocks = sa.efficiency_blocks(a, spec, sigma=1.0)
        numeric = np.linalg.inv(blocks.h)
        rel = np.linalg.norm(blocks.h_inv - numeric) / np.linalg.norm(numeric)
        assert rel < 1e-8


def test_level_block_is_identity(rng):
    for _ in range(10):
        j = int(rng.integers(2, 6))
        blocks = sa.efficiency_blocks(
            sphere_scales(rng, j), random_hermitian_spectrum(rng, 3), sigma=2.0)
        assert_allclose(blocks.h_inv[2 * (j - 1):, 2 * (j - 1):], np.eye(j), rtol=0, atol=0)
        # cross blocks exactly zero
        assert np.all(blocks.h_inv[: 2 * (j - 1), 2 * (j - 1):] == 0.0)


def test_covariance_scales_with_noise(rng):
    a = sphere_scales(rng, 3)
    spec = random_hermitian_spectrum(rng, 3)
    for regime in Regime:
        cov1 = sa.scaled_covariance(a, spec, 1.0, regime)
        cov2 = sa.scaled_covariance(a, spec, 2.0, regime)
        assert np.array_equal(cov2, 4.0 * cov1)


def test_scaled_covariance_is_the_scaled_regime_blocks(rng):
    for j in (2, 3, 5):
        for _ in range(5):
            a, sigma = sphere_scales(rng, j), float(rng.uniform(0.0, 3.0))
            spec = random_hermitian_spectrum(rng, 4)
            a0 = sa.scaled_covariance(a, spec, sigma, Regime.A0)
            a1 = sa.scaled_covariance(a, spec, sigma, Regime.A1)
            assert a0.tobytes() == (sigma**2 * sa.efficiency_blocks(a, spec, sigma).h_inv).tobytes()
            assert a1.tobytes() == (sigma**2 * sa.a1_covariance(a, spec, sigma).gamma).tobytes()


def test_plug_in_stability(rng):
    a = sphere_scales(rng, 3)
    spec = random_hermitian_spectrum(rng, 3)
    base = sa.efficiency_blocks(a, spec, sigma=1.0).h_inv
    bump = a + np.array([0.0, 1e-6, -1e-6])
    bump = bump * np.sqrt(3.0 / (bump @ bump))
    moved = sa.efficiency_blocks(bump, spec, sigma=1.0).h_inv
    rel = np.max(np.abs(moved - base)) / np.max(np.abs(base))
    assert rel < 1e-4


def test_efficiency_blocks_guards(rng):
    spec = random_hermitian_spectrum(rng, 2)
    with pytest.raises(ZeroAmplitudeCoordinate):
        sa.efficiency_blocks([np.sqrt(2.0), 0.0], spec, sigma=1.0)
    empty = sa.ShapeSpectrum(m=2, coeffs=np.zeros(5, dtype=complex))
    with pytest.raises(EmptySpectrum):
        sa.efficiency_blocks([1.0, 1.0], empty, sigma=1.0)


def test_a1_reduces_to_reference_family_when_centered(rng):
    a = sphere_scales(rng, 3)
    spec = random_hermitian_spectrum(rng, 3)  # mean-free
    alt = sa.a1_covariance(a, spec, sigma=1.0)
    ref = sa.efficiency_blocks(a, spec, sigma=1.0)
    s = 2
    assert np.all(alt.gamma[s: 2 * s, 2 * s:] == 0.0)
    assert_allclose(alt.gamma[s: 2 * s, s: 2 * s], ref.h_inv[s: 2 * s, s: 2 * s], atol=1e-14)
    assert_allclose(alt.gamma[:s, :s], ref.h_inv[:s, :s], atol=1e-14)


def test_a1_cross_sign_opposes_mean(rng):
    a = sphere_scales(rng, 2)
    for c0 in (1.7, -2.4):
        spec = sa.ShapeSpectrum.from_onesided({1: 0.8, 2: 0.1}, c0=c0)
        alt = sa.a1_covariance(a, spec, sigma=1.0)
        assert np.sign(alt.gamma[1, 2]) == -np.sign(c0)
        assert alt.identity_residual() < 1e-12


def test_a1_two_curve_matrix_against_delta_method():
    # independent assembly from the closed-form estimators themselves:
    # level = mean_2 - a_2 * mean_1 / a_1 couples to the scale estimate
    a = np.array([0.8, np.sqrt(2 - 0.64)])
    c0 = 1.9
    spec = sa.ShapeSpectrum.from_onesided({1: 0.6, 2: 0.25 - 0.1j, 3: 0.1}, c0=c0)
    sigma = 1.0
    alt = sa.a1_covariance(a, spec, sigma)

    p_ac = spec.power_ac
    dp = spec.derivative_power
    var_theta = (1 / a[1] ** 2 + 1 / a[0] ** 2) / dp
    b_inv = 1 + a[1] ** 2 / a[0] ** 2
    var_a = (a[0] ** 2 / 2) / p_ac                      # B / p_ac with B = a_1^2/2
    var_u = b_inv * (1 + c0**2 / p_ac)                  # level + mean propagation
    cov_au = -c0 * b_inv * var_a                        # = -c0 / p_ac
    expected = np.array([
        [var_theta, 0.0, 0.0],
        [0.0, var_a, cov_au],
        [0.0, cov_au, var_u],
    ])
    assert_allclose(alt.gamma, expected, rtol=1e-12)


def test_a1_degenerate_shape():
    flat = sa.ShapeSpectrum(m=1, coeffs=np.array([0.0, 3.0, 0.0], dtype=complex))
    with pytest.raises(DegenerateShape):
        sa.a1_covariance([1.0, 1.0], flat, sigma=1.0)


def _tone_fit(n=400, sigma=1.0):
    """Converged fit whose plug-in shift variance entry is exactly 4/n."""
    params = sa.ParameterSet(theta=[0.0, 1.0], a=[1.0, 1.0], upsilon=[0.0, 0.0], sigma=sigma)
    return sa.FitResult(
        beta_hat=params, sigma_hat=sigma, shape_hat=TONE, objective=sigma**2,
        iterations=10, restarts=1, converged=True, zero_noise=sigma == 0.0,
        tie_break=False, n=n, m=1,
    )


def test_interval_arithmetic():
    report = sa.confidence_intervals(_tone_fit(), level=0.95)
    theta_iv = report.intervals[0]
    assert theta_iv.name == "theta_2"
    # half width z * sqrt(4/400) = 1.9599... * 0.1
    assert abs(theta_iv.half_width - 0.196) < 1e-3
    assert abs(theta_iv.half_width - sa.inverse_normal_cdf(0.975) * 0.1) < 1e-12
    assert theta_iv.circular


def test_interval_of_a_half_width_of_pi_or_more_is_the_whole_circle():
    # eleven noisy points of a weak tone: the shift's 99% half-width is about 4.88 > pi
    truth = sa.ParameterSet(theta=[0.0, 1.0], a=[1.0, 1.0], upsilon=[0.0, 0.0], sigma=1.0)
    panel = sa.generate_panel(truth, sa.ShapeSpectrum.from_onesided({1: 0.2}), sa.make_grid(11), seed=2)
    fit = sa.fit(panel, ConstraintRegime())
    assert fit.converged
    theta_iv = sa.confidence_intervals(fit, 0.99).intervals[0]
    assert theta_iv.name == "theta_2" and abs(theta_iv.half_width - 4.88) < 5e-3
    assert (theta_iv.lo, theta_iv.hi) == (0.0, 2 * np.pi)


def _two_tone_fit(theta_2, sigma, n=101):
    """Converged fit of two unit-scale curves of shape {1: 1, 2: 0.5}: the shift's 95% half-width is
    1.96 sigma sqrt(1/(2n)), about 0.138 sigma at n = 101."""
    params = sa.ParameterSet(theta=[0.0, theta_2], a=[1.0, 1.0], upsilon=[0.0, 0.0], sigma=sigma)
    return sa.FitResult(
        beta_hat=params, sigma_hat=sigma, shape_hat=sa.ShapeSpectrum.from_onesided({1: 1.0, 2: 0.5}),
        objective=sigma**2, iterations=1, restarts=1, converged=True, zero_noise=sigma == 0.0,
        tie_break=False, n=n, m=2,
    )


@pytest.mark.parametrize("theta_2", [0.0, 1e-17])
def test_interval_endpoint_a_hair_below_zero_wraps_to_zero(theta_2):
    # the half-width (about 1.4e-17) takes the lower endpoint a hair below 0, where np.mod rounds up to 2*pi
    iv = sa.confidence_intervals(_two_tone_fit(theta_2, 1e-16), 0.95).intervals[0]
    assert iv.name == "theta_2" and 0.0 < iv.half_width < 1e-16
    assert iv.lo == 0.0
    assert 0.0 <= iv.hi < 2 * np.pi


@settings(max_examples=200, deadline=None)
@given(est=st.floats(0.0, 2 * np.pi, exclude_max=True),
       sigma=st.one_of(st.floats(0.0, 1e-12), st.floats(0.0, 72.5)))
def test_shift_interval_endpoints_lie_on_the_circle_property(est, sigma):
    # half-widths from 0 to about 10, tiny ones included: each endpoint lies in [0, 2*pi),
    # or a half-width of pi or more gives exactly the whole circle
    iv = sa.confidence_intervals(_two_tone_fit(est, sigma), 0.95).intervals[0]
    assert iv.estimate == est and iv.half_width <= 10.1
    if iv.half_width >= np.pi:
        assert (iv.lo, iv.hi) == (0.0, 2 * np.pi)
    else:
        assert 0.0 <= iv.lo < 2 * np.pi and 0.0 <= iv.hi < 2 * np.pi


@settings(max_examples=300, deadline=None)
@given(data=st.data(), seed=st.integers(0, 2**32 - 1), j=st.integers(2, 5), kind=st.sampled_from(list(Regime)),
       level=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
       sigma=st.one_of(st.just(0.0), st.floats(0.0, 1e-12), st.floats(0.0, 100.0)), n=st.integers(3, 1001))
def test_confidence_intervals_match_the_per_parameter_oracle(data, seed, j, kind, level, sigma, n):
    # half-widths from 0 to far past pi, and shifts at and near 0 whose endpoints cross it
    rng = np.random.default_rng(seed)
    shift = st.one_of(st.floats(0.0, 2 * np.pi, exclude_max=True), st.sampled_from([0.0, 5e-324, 1e-17]),
                      st.floats(2 * np.pi - 1e-9, 2 * np.pi, exclude_max=True))
    theta = [0.0] + data.draw(st.lists(shift, min_size=j - 1, max_size=j - 1))
    upsilon = rng.uniform(-5.0, 5.0, j)
    if kind is Regime.A1:
        upsilon[0] = 0.0
    params = sa.ParameterSet(theta=theta, a=sphere_scales(rng, j), upsilon=upsilon, sigma=sigma,
                             regime=ConstraintRegime(kind=kind))
    fit = sa.FitResult(
        beta_hat=params, sigma_hat=sigma, shape_hat=random_hermitian_spectrum(rng, int(rng.integers(1, 4))),
        objective=sigma**2, iterations=1, restarts=1, converged=True, zero_noise=sigma == 0.0,
        tie_break=False, n=n, m=3,
    )
    assert _interval_outcome(sa.confidence_intervals, fit, level) == _interval_outcome(
        confidence_intervals_per_parameter, fit, level)


def _interval_outcome(intervals, fit, level):
    """A report's fields, its floats as bytes, or the type and message of its error (a level within
    2**-53 of 1 has no quantile)."""
    try:
        report = intervals(fit, level)
    except Exception as exc:
        return type(exc), str(exc)
    return (report.level, report.labels, report.zero_noise, report.covariance.tobytes(),
            [(iv.name, iv.circular) for iv in report.intervals],
            np.array([[iv.estimate, iv.half_width, iv.lo, iv.hi] for iv in report.intervals]).tobytes())


def test_interval_monotone_in_level():
    fit = _tone_fit()
    widths = [
        sa.confidence_intervals(fit, level).intervals[0].half_width
        for level in (0.5, 0.8, 0.9, 0.95, 0.99)
    ]
    assert all(b > a for a, b in zip(widths, widths[1:]))


def test_interval_guards():
    fit = _tone_fit()
    with pytest.raises(ConfigInvalid):
        sa.confidence_intervals(fit, 1.2)
    bad = _tone_fit()
    bad.converged = False
    with pytest.raises(NotConverged):
        sa.confidence_intervals(bad, 0.95)


@pytest.mark.parametrize("level", [0.9999999999999999, 1.0, 0.0, -0.5, float("nan")])
def test_interval_level_rule_rejects_a_level_without_a_quantile(level):
    # 0.5 * (1 + level) rounds to 1 for a level within 2**-53 of 1: an input error, not a bare ValueError
    with pytest.raises(ConfigInvalid, match="confidence level must lie strictly in"):
        sa.confidence_intervals(_tone_fit(), level)
    with pytest.raises(ConfigInvalid, match="confidence level must lie strictly in"):
        two_sided_quantile(level)


def test_interval_level_rule_keeps_the_largest_level_with_a_quantile():
    level = 0.9999999999999998  # 1 - 2**-52: its quantile argument, 1 - 2**-53, is the largest double below 1
    report = sa.confidence_intervals(_tone_fit(), level)
    assert two_sided_quantile(level) == float(inverse_normal_cdf(1.0 - 2**-53)) > 8.0
    assert all(np.isfinite([iv.lo, iv.hi, iv.half_width]).all() for iv in report.intervals)


def test_interval_zero_noise_degenerates():
    fit = _tone_fit(sigma=0.0)
    fit.zero_noise = True
    report = sa.confidence_intervals(fit, 0.95)
    assert report.zero_noise
    for iv in report.intervals:
        assert iv.half_width == 0.0


def test_coverage_of_intervals():
    # 200 seeded replicates of the two-curve benchmark: empirical coverage
    # of the 95% intervals stays within [0.90, 0.99] per parameter
    truth, shape = boxplot_truth()
    grid = sa.make_grid(201)
    truth_free = truth.free_values()
    hits = np.zeros(truth_free.size)
    total = 0
    for r in range(200):
        panel = sa.generate_panel(truth, shape, grid, seed=100 + r)
        result = sa.fit(panel, ConstraintRegime(), sa.FitConfig(m=5))
        if not result.converged:
            continue
        report = sa.confidence_intervals(result, 0.95)
        total += 1
        for k, iv in enumerate(report.intervals):
            target = truth_free[k]
            if iv.circular:
                dist = abs(np.mod(iv.estimate - target + np.pi, 2 * np.pi) - np.pi)
                hits[k] += dist <= iv.half_width
            else:
                hits[k] += iv.lo <= target <= iv.hi
    coverage = hits / total
    assert total >= 190
    assert np.all(coverage >= 0.90)
    assert np.all(coverage <= 0.99)
