"""Profiling, initialization, and the full fitter."""

import dataclasses
import importlib
import math
import os
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import shapealign as sa
from shapealign.criterion import CriterionContext, shift_objective_stack
from shapealign.errors import ConfigInvalid, DegenerateSpectrum
from shapealign.fit import FitConfig, _lockstep_newton, fit_batch, initialize_shifts
from shapealign.io import dumps_canonical, load_study_config, result_document
from shapealign.model import ConstraintRegime, Regime
from shapealign.montecarlo import run_study
from conftest import bandlimited_truth
from oracles import initialize_shifts_loop, newton_per_start, numeric_hessian, profile_amplitude


def _circ(x, y):
    return np.abs(np.mod(np.asarray(x) - np.asarray(y) + np.pi, 2 * np.pi) - np.pi)


def _scan(contexts, config):
    """Start scan of contexts of one (J, m), given the coefficient and constant stacks the fitter builds."""
    d_ac = np.stack([ctx.d_ac for ctx in contexts])
    return initialize_shifts(contexts, d_ac, np.array([ctx.shift_constant for ctx in contexts]), config)


def test_fit_config_validation():
    with pytest.raises(ConfigInvalid):
        FitConfig(m=0)
    with pytest.raises(ConfigInvalid):
        FitConfig(n_multistart=0)
    with pytest.raises(ConfigInvalid):
        FitConfig(tol_objective=0.0)
    for field in ("tol_objective", "tol_param"):
        with pytest.raises(ConfigInvalid):
            FitConfig(**{field: float("nan")})
    with pytest.raises(ConfigInvalid):
        FitConfig(m=101).resolve_m(201)
    assert FitConfig(m=5).resolve_m(101) == 5
    assert FitConfig().resolve_m(201) == 3       # floor(201**0.25)
    assert FitConfig().resolve_m(3) == 1          # clamped to 2m < n


def test_profile_amplitude_identical_curves():
    grid = sa.make_grid(41)
    shape = sa.ShapeSpectrum.from_onesided({1: 1.0, 2: -0.4})
    truth = sa.ParameterSet(theta=[0.0, 0.0], a=[1.0, 1.0], upsilon=[0.0, 0.0], sigma=0.0)
    panel = sa.generate_panel(truth, shape, grid, seed=0)
    ctx = CriterionContext(panel, 3)
    amp = profile_amplitude(ctx, np.zeros(2))
    assert_allclose(amp.a, [1.0, 1.0], atol=1e-12)


def test_profile_amplitude_recovers_truth(rng):
    truth, shape = bandlimited_truth(rng, j=4, degree=3)
    panel = sa.generate_panel(truth, shape, sa.make_grid(101), seed=1)
    ctx = CriterionContext(panel, 4)
    amp = profile_amplitude(ctx, truth.theta)
    assert np.max(np.abs(amp.a - truth.a)) < 1e-8


def test_profile_amplitude_always_on_sphere(rng):
    truth, shape = bandlimited_truth(rng, j=3, degree=2, sigma=1.0)
    panel = sa.generate_panel(truth, shape, sa.make_grid(61), seed=2)
    ctx = CriterionContext(panel, 3)
    for _ in range(20):
        theta = np.concatenate([[0.0], rng.uniform(0, 2 * np.pi, 2)])
        amp = profile_amplitude(ctx, theta)
        assert abs(float(amp.a @ amp.a) - 3.0) < 1e-12
        assert amp.a[0] > 0


def test_profile_amplitude_degenerate():
    grid = sa.make_grid(21)
    panel = sa.CurvePanel(grid=grid, y=np.ones((2, 21)))
    ctx = CriterionContext(panel, 2)
    with pytest.raises(DegenerateSpectrum):
        profile_amplitude(ctx, np.zeros(2))


def test_initialize_shifts_near_truth(rng):
    truth, shape = bandlimited_truth(rng, j=3, degree=3)
    panel = sa.generate_panel(truth, shape, sa.make_grid(101), seed=3)
    ctx = CriterionContext(panel, 3)
    config = FitConfig(m=3)
    best = _scan([ctx], config)[0][0]
    step = 2 * np.pi / 101
    assert np.all(_circ(best, truth.theta) <= step + 1e-12)


def test_initialize_shifts_identical_curves():
    grid = sa.make_grid(41)
    shape = sa.ShapeSpectrum.from_onesided({1: 1.0, 2: 0.2})
    truth = sa.ParameterSet(theta=[0.0, 0.0], a=[1.0, 1.0], upsilon=[0.0, 0.0], sigma=0.0)
    panel = sa.generate_panel(truth, shape, grid, seed=0)
    ctx = CriterionContext(panel, 3)
    best = _scan([ctx], FitConfig(m=3))[0][0]
    assert best[1] == 0.0


def test_initialize_shifts_grid_equivariance():
    grid = sa.make_grid(41)
    shape = sa.ShapeSpectrum.from_onesided({1: 1.0, 2: 0.3, 3: -0.1})
    truth = sa.ParameterSet(theta=[0.0, 1.0723], a=[1.0, 1.0], upsilon=[0.0, 0.0], sigma=0.0)
    panel = sa.generate_panel(truth, shape, grid, seed=0)
    ctx = CriterionContext(panel, 3)
    best = _scan([ctx], FitConfig(m=3))[0][0]

    rolled = panel.y.copy()
    rolled[1] = np.roll(panel.y[1], 1)  # curve 2 delayed by one grid step
    ctx2 = CriterionContext(sa.CurvePanel(grid=grid, y=rolled), 3)
    best2 = _scan([ctx2], FitConfig(m=3))[0][0]
    step = 2 * np.pi / 41
    assert _circ(best2[1], best[1] + step) < 1e-9


@pytest.mark.parametrize("kind", [Regime.A0, Regime.A1])
@pytest.mark.parametrize("j", [2, 3, 4, 6])
def test_initialize_shifts_matches_loop_oracle(kind, j, rng):
    # J = 6 has 1 + 4 * 5 = 21 candidates; the second config keeps 3 per curve on a 24-point grid
    truth, shape = bandlimited_truth(rng, j=j, degree=3, sigma=0.5)
    panel = sa.generate_panel(truth, shape, sa.make_grid(61), seed=30 + j)
    ctx = CriterionContext(panel, 3, ConstraintRegime(kind=kind))
    for config in (FitConfig(m=3), FitConfig(m=3, n_multistart=3, theta_grid_size=24)):
        batched = _scan([ctx], config)[0]
        looped = initialize_shifts_loop(ctx, config)
        assert len(batched) == len(looped)
        for got, want in zip(batched, looped):
            assert np.array_equal(got, want)


@pytest.mark.parametrize("j", [2, 3, 4, 6])
def test_initialize_shifts_batch_matches_loop_oracle(j, rng):
    # A0 and A1 jobs of one (J, m) in one batch
    contexts = []
    for k, kind in enumerate((Regime.A0, Regime.A1, Regime.A0)):
        truth, shape = bandlimited_truth(rng, j=j, degree=3, sigma=0.5)
        panel = sa.generate_panel(truth, shape, sa.make_grid(61), seed=50 + k)
        contexts.append(CriterionContext(panel, 3, ConstraintRegime(kind=kind)))
    for config in (FitConfig(m=3), FitConfig(m=3, n_multistart=3, theta_grid_size=24)):
        for ctx, batched in zip(contexts, _scan(contexts, config), strict=True):
            looped = initialize_shifts_loop(ctx, config)
            assert len(batched) == len(looped)
            for got, want in zip(batched, looped):
                assert np.array_equal(got, want)


def test_initialize_shifts_batch_equals_lone_scans(rng):
    # 12 jobs at J = 6, A0 and A1 alternating, ranked in one stacked eigenvalue call
    contexts = []
    for k in range(12):
        truth, shape = bandlimited_truth(rng, j=6, degree=3, sigma=0.5)
        panel = sa.generate_panel(truth, shape, sa.make_grid(61), seed=k)
        contexts.append(CriterionContext(panel, 3, ConstraintRegime(kind=(Regime.A0, Regime.A1)[k % 2])))
    config = FitConfig(m=3)
    for ctx, batched in zip(contexts, _scan(contexts, config), strict=True):
        assert np.array_equal(batched, _scan([ctx], config)[0])


def _count_hessian_calls(monkeypatch):
    """Record, per call of the stacked kernel the fitter makes, whether it asked for Hessians."""
    # the package re-exports the function ``fit`` under the submodule's name
    fit_module = importlib.import_module("shapealign.fit")
    kernel = fit_module.shift_objective_stack
    hessians = []

    def counting(d_ac, owner, x, constant, hessian=False):
        hessians.append(hessian)
        return kernel(d_ac, owner, x, constant, hessian)

    monkeypatch.setattr(fit_module, "shift_objective_stack", counting)
    return hessians


def test_fit_polishes_the_best_start_only(rng, monkeypatch):
    truth, shape = bandlimited_truth(rng, j=3, degree=3, sigma=0.5)
    panel = sa.generate_panel(truth, shape, sa.make_grid(101), seed=14)
    hessians = _count_hessian_calls(monkeypatch)
    result = sa.fit(panel, ConstraintRegime(), FitConfig(m=3))
    assert result.restarts == 5
    assert result.converged
    assert 1 <= sum(hessians) <= 8


def test_fit_batch_spends_one_polish_budget_in_total(rng, monkeypatch):
    # six jobs of one (J, m) share each stacked Hessian call: at most 8 in all
    jobs = []
    for k in range(6):
        truth, shape = bandlimited_truth(rng, j=3, degree=3, sigma=0.5)
        panel = sa.generate_panel(truth, shape, sa.make_grid(101), seed=70 + k)
        jobs.append((panel, ConstraintRegime(kind=(Regime.A0, Regime.A1)[k % 2])))
    hessians = _count_hessian_calls(monkeypatch)
    results = fit_batch(jobs, FitConfig(m=3))
    assert all(result.converged for result in results)
    assert 1 <= sum(hessians) <= 8


def _count_search_calls(monkeypatch):
    """Record, per lockstep search the fitter runs, how many stacked kernel calls it makes."""
    fit_module = importlib.import_module("shapealign.fit")
    kernel, search = fit_module.shift_objective_stack, fit_module._lockstep_newton
    calls, searches = [0], []

    def counting(*args, **kwargs):
        calls[0] += 1
        return kernel(*args, **kwargs)

    def counted_search(*args, **kwargs):
        before = calls[0]
        out = search(*args, **kwargs)
        searches.append(calls[0] - before)
        return out

    monkeypatch.setattr(fit_module, "shift_objective_stack", counting)
    monkeypatch.setattr(fit_module, "_lockstep_newton", counted_search)
    return searches


def test_search_needs_few_stacked_kernel_rounds(rng, monkeypatch):
    # the figure-2 study in its 20 five-replicate parts (ten J = 2 fits each, one
    # search per part), then one J = 3 fit; the BFGS search this replaced took about
    # 21 calls a part
    monkeypatch.delenv("SHAPEALIGN_THREADS", raising=False)
    study = load_study_config(os.path.join(os.path.dirname(__file__), "..", "fixtures", "figure2.json"))
    searches = _count_search_calls(monkeypatch)
    for seed in range(study.base_seed, study.base_seed + study.replicates, 5):
        run_study(dataclasses.replace(study, replicates=5, base_seed=seed))
    assert len(searches) == 20 and max(searches) <= 6
    truth, shape = bandlimited_truth(rng, j=3, degree=3, sigma=0.5)
    panel = sa.generate_panel(truth, shape, sa.make_grid(201), seed=15)
    assert sa.fit(panel, ConstraintRegime(), FitConfig()).converged
    assert len(searches) == 21 and searches[-1] <= 6


def test_figure2_part_needs_few_stacked_kernel_calls_in_all(monkeypatch):
    # search and assembly of each five-replicate figure-2 part: the search finishes
    # every row itself, so no polish call re-evaluates its endpoints
    monkeypatch.delenv("SHAPEALIGN_THREADS", raising=False)
    study = load_study_config(os.path.join(os.path.dirname(__file__), "..", "fixtures", "figure2.json"))
    calls = _count_hessian_calls(monkeypatch)
    for seed in range(study.base_seed, study.base_seed + study.replicates, 5):
        before = len(calls)
        run_study(dataclasses.replace(study, replicates=5, base_seed=seed))
        assert 1 <= len(calls) - before <= 7


def test_fit_noiseless_exact_recovery(rng):
    truth, shape = bandlimited_truth(rng, j=3, degree=3)
    panel = sa.generate_panel(truth, shape, sa.make_grid(101), seed=4)
    result = sa.fit(panel, ConstraintRegime(), FitConfig(m=5))
    assert result.converged
    assert np.max(_circ(result.beta_hat.theta, truth.theta)) < 1e-6
    assert np.max(np.abs(result.beta_hat.a - truth.a)) < 1e-6
    assert np.max(np.abs(result.beta_hat.upsilon - truth.upsilon)) < 1e-10
    assert result.sigma_hat < 1e-6
    assert result.objective < 1e-12


def _assert_recovers_noiseless_truth(seed, j, degree, m, n):
    truth, shape = bandlimited_truth(np.random.default_rng(seed), j=j, degree=degree)
    panel = sa.generate_panel(truth, shape, sa.make_grid(n), seed=seed)
    result = sa.fit(panel, ConstraintRegime(), FitConfig(m=m))
    assert result.converged
    assert np.max(_circ(result.beta_hat.theta, truth.theta)) <= 1e-9
    assert np.max(np.abs(result.beta_hat.a - truth.a)) <= 1e-9
    assert np.max(np.abs(result.beta_hat.upsilon - truth.upsilon)) <= 1e-9


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), j=st.integers(2, 6), degree=st.integers(2, 4),
       extra=st.integers(0, 2), n=st.sampled_from([51, 101, 201]))
def test_fit_noiseless_exact_recovery_property(seed, j, degree, extra, n):
    # Degree 1 is left out: with odd harmonics only, f(t + pi) = -f(t) and
    # (theta_j + pi, -a_j) fits curve j >= 2 as well.  So are shapes whose weakest
    # harmonic is below a tenth of the strongest: they lie close to such a symmetry,
    # and the fit can stop at the nearly symmetric local minimum (see the next test).
    # With them, about 1 draw in 2000 fails; without them, none of 30000 did.
    shape = bandlimited_truth(np.random.default_rng(seed), j=j, degree=degree)[1]
    moduli = np.abs(shape.coeffs[degree + 1:])
    assume(moduli.min() >= 0.1 * moduli.max())
    _assert_recovers_noiseless_truth(seed, j, degree, degree + extra, n)


@pytest.mark.xfail(strict=True, reason="the start scan misses the true basin of a nearly symmetric shape")
def test_fit_noiseless_recovery_of_a_nearly_odd_shape():
    # harmonic 2 at 1.5% of the strongest: f(t + pi) is close to -f(t), and the fit
    # converges to a local minimum (objective 1.3e-4) with curve 2 at (theta_2 + pi, -a_2)
    _assert_recovers_noiseless_truth(seed=585, j=6, degree=3, m=3, n=101)


def test_fit_cost_stays_small_at_many_curves(rng):
    # J = 30: the scan ranks 1 + 4 * 29 = 117 start candidates
    truth, shape = bandlimited_truth(rng, j=30, degree=3)
    panel = sa.generate_panel(truth, shape, sa.make_grid(201), seed=16)
    config = FitConfig(m=3)
    sa.fit(panel, ConstraintRegime(), config)  # warm-up
    start = time.perf_counter()
    result = sa.fit(panel, ConstraintRegime(), config)
    elapsed = time.perf_counter() - start
    tracemalloc.start()
    try:
        sa.fit(panel, ConstraintRegime(), config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.converged
    assert np.max(_circ(result.beta_hat.theta, truth.theta)) < 1e-9
    assert elapsed < 1.0
    assert peak < 100 * 2**20


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), j=st.integers(2, 5), sigma=st.sampled_from([0.3, 1.0]),
       c=st.floats(0.1, 10.0), b=st.floats(-100.0, 100.0))
def test_fit_affine_invariance_property(seed, j, sigma, c, b):
    # fitting c*y + b gives the same shifts and scales, levels c*upsilon + b and noise c*sigma
    rng = np.random.default_rng(seed)
    truth, shape = bandlimited_truth(rng, j=j, degree=3, sigma=sigma)
    panel = sa.generate_panel(truth, shape, sa.make_grid(101), seed=seed)
    moved = sa.CurvePanel(grid=panel.grid, y=c * panel.y + b)
    regime = ConstraintRegime(kind=Regime.A0, upsilon_max=math.inf)
    base, fitted = sa.fit(panel, regime), sa.fit(moved, regime)
    assert np.max(_circ(fitted.beta_hat.theta, base.beta_hat.theta)) <= 1e-9
    assert np.max(np.abs(fitted.beta_hat.a - base.beta_hat.a)) <= 1e-9
    levels = c * base.beta_hat.upsilon + b
    assert np.max(np.abs(fitted.beta_hat.upsilon - levels)) <= 1e-9 * np.max(np.abs(levels))
    assert abs(fitted.sigma_hat - c * base.sigma_hat) <= 1e-9 * c * base.sigma_hat


def test_fit_monotone_multistart(rng):
    truth, shape = bandlimited_truth(rng, j=2, degree=3, sigma=1.0)
    panel = sa.generate_panel(truth, shape, sa.make_grid(61), seed=5)
    result = sa.fit(panel, ConstraintRegime(), FitConfig(m=4))
    for _, start_value in result.start_profile:
        assert result.objective <= start_value + 1e-12


def test_fit_label_equivariance(rng):
    truth, shape = bandlimited_truth(rng, j=3, degree=3)
    panel = sa.generate_panel(truth, shape, sa.make_grid(61), seed=6)
    result = sa.fit(panel, ConstraintRegime(), FitConfig(m=4))

    swapped = sa.CurvePanel(grid=panel.grid, y=panel.y[[0, 2, 1]])
    result2 = sa.fit(swapped, ConstraintRegime(), FitConfig(m=4))
    assert np.array_equal(result2.beta_hat.upsilon, result.beta_hat.upsilon[[0, 2, 1]])
    assert np.max(_circ(result2.beta_hat.theta, result.beta_hat.theta[[0, 2, 1]])) < 1e-9
    assert np.max(np.abs(result2.beta_hat.a - result.beta_hat.a[[0, 2, 1]])) < 1e-9


def test_fit_rotation_equivariance(rng):
    truth, shape = bandlimited_truth(rng, j=3, degree=3)
    grid = sa.make_grid(61)
    panel = sa.generate_panel(truth, shape, grid, seed=7)
    result = sa.fit(panel, ConstraintRegime(), FitConfig(m=4))

    k = 9
    rotated = sa.CurvePanel(grid=grid, y=np.roll(panel.y, k, axis=1))
    result2 = sa.fit(rotated, ConstraintRegime(), FitConfig(m=4))
    diffs1 = np.mod(result.beta_hat.theta[1:] - result.beta_hat.theta[0], 2 * np.pi)
    diffs2 = np.mod(result2.beta_hat.theta[1:] - result2.beta_hat.theta[0], 2 * np.pi)
    assert np.max(_circ(diffs1, diffs2)) < 1e-8
    assert np.max(np.abs(result.beta_hat.a - result2.beta_hat.a)) < 1e-8
    assert np.max(np.abs(result.beta_hat.upsilon - result2.beta_hat.upsilon)) < 1e-8


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), j=st.integers(2, 5), sigma=st.sampled_from([0.0, 0.3, 1.0]),
       data=st.data())
def test_fit_label_equivariance_property(seed, j, sigma, data):
    # relabelling curves 2..J relabels every estimate the same way
    order = [0] + data.draw(st.permutations(range(1, j)), label="order")
    rng = np.random.default_rng(seed)
    truth, shape = bandlimited_truth(rng, j=j, degree=3, sigma=sigma)
    panel = sa.generate_panel(truth, shape, sa.make_grid(61), seed=seed)
    base = sa.fit(panel, ConstraintRegime(), FitConfig(m=4))
    moved = sa.fit(sa.CurvePanel(grid=panel.grid, y=panel.y[order]), ConstraintRegime(), FitConfig(m=4))
    assert np.max(_circ(moved.beta_hat.theta, base.beta_hat.theta[order])) < 1e-9
    assert np.max(np.abs(moved.beta_hat.a - base.beta_hat.a[order])) < 1e-9
    assert np.max(np.abs(moved.beta_hat.upsilon - base.beta_hat.upsilon[order])) < 1e-9


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), j=st.integers(2, 5), sigma=st.sampled_from([0.0, 0.3, 1.0]),
       offset=st.integers(1, 60))
def test_fit_rotation_equivariance_property(seed, j, sigma, offset):
    # a cyclic shift of every curve's samples moves all shifts alike, so the free
    # shifts (relative to curve 1), the scales and the levels stay
    rng = np.random.default_rng(seed)
    truth, shape = bandlimited_truth(rng, j=j, degree=3, sigma=sigma)
    panel = sa.generate_panel(truth, shape, sa.make_grid(61), seed=seed)
    base = sa.fit(panel, ConstraintRegime(), FitConfig(m=4))
    moved = sa.fit(sa.CurvePanel(grid=panel.grid, y=np.roll(panel.y, offset, axis=1)),
                   ConstraintRegime(), FitConfig(m=4))
    assert np.max(_circ(moved.beta_hat.theta, base.beta_hat.theta)) < 1e-8
    assert np.max(np.abs(moved.beta_hat.a - base.beta_hat.a)) < 1e-8
    assert np.max(np.abs(moved.beta_hat.upsilon - base.beta_hat.upsilon)) < 1e-8


def test_fit_self_consistency_fixed_point(rng):
    truth, shape = bandlimited_truth(rng, j=3, degree=3, sigma=0.7)
    grid = sa.make_grid(101)
    panel = sa.generate_panel(truth, shape, grid, seed=8)
    result = sa.fit(panel, ConstraintRegime(), FitConfig(m=3))

    # rebuild a noiseless panel from the fitted model and refit
    spec, evaluator = sa.estimate_shape(result)
    y = np.vstack([
        result.beta_hat.a[j] * evaluator(grid.points - result.beta_hat.theta[j])
        + result.beta_hat.upsilon[j]
        for j in range(3)
    ])
    refit = sa.fit(sa.CurvePanel(grid=grid, y=y), ConstraintRegime(), FitConfig(m=3))
    assert np.max(_circ(refit.beta_hat.theta, result.beta_hat.theta)) < 1e-8
    assert np.max(np.abs(refit.beta_hat.a - result.beta_hat.a)) < 1e-8
    assert np.max(np.abs(refit.beta_hat.upsilon - result.beta_hat.upsilon)) < 1e-8


def test_fit_a1_recovers_a1_truth(rng):
    truth, shape = bandlimited_truth(rng, j=2, degree=3)
    alt_truth, alt_shape = sa.reparameterize_to_a1(truth, shape)
    panel = sa.generate_panel(alt_truth, alt_shape, sa.make_grid(101), seed=9)
    regime = ConstraintRegime(kind=Regime.A1)
    result = sa.fit(panel, regime, FitConfig(m=5))
    assert result.converged
    assert np.max(_circ(result.beta_hat.theta, alt_truth.theta)) < 1e-6
    assert np.max(np.abs(result.beta_hat.a - alt_truth.a)) < 1e-6
    assert np.max(np.abs(result.beta_hat.upsilon - alt_truth.upsilon)) < 1e-8
    assert abs(result.shape_hat.c0 - alt_shape.c0) < 1e-8


def test_fit_one_noisy_replicate_within_standard_errors():
    # a single seeded replicate of the two-curve benchmark lands within
    # 5 plug-in standard errors of the truth on every coordinate
    from conftest import boxplot_truth
    truth, shape = boxplot_truth()
    panel = sa.generate_panel(truth, shape, sa.make_grid(201), seed=2)
    result = sa.fit(panel, ConstraintRegime(), FitConfig(m=5))
    report = sa.confidence_intervals(result, 0.95)
    se = np.sqrt(np.diag(report.covariance))
    err = result.beta_hat.free_values() - truth.free_values()
    err[0] = np.mod(err[0] + np.pi, 2 * np.pi) - np.pi
    assert np.all(np.abs(err) <= 5.0 * se)


def test_estimate_shape_noiseless(rng):
    truth, shape = bandlimited_truth(rng, j=3, degree=3)
    grid = sa.make_grid(101)
    panel = sa.generate_panel(truth, shape, grid, seed=10)
    result = sa.fit(panel, ConstraintRegime(), FitConfig(m=5))
    spec, evaluator = sa.estimate_shape(result)
    assert spec.c0 == 0.0
    target = sa.evaluate_spectrum(shape, grid.points)
    assert np.max(np.abs(evaluator(grid.points) - target)) < 1e-9


def test_estimate_shape_requires_convergence(rng):
    truth, shape = bandlimited_truth(rng, j=2, degree=2, sigma=1.0)
    panel = sa.generate_panel(truth, shape, sa.make_grid(41), seed=11)
    result = sa.fit(panel, ConstraintRegime(), FitConfig(m=2, max_iters=1, n_multistart=1))
    if not result.converged:
        with pytest.raises(ConfigInvalid):
            sa.estimate_shape(result)
        sa.estimate_shape(result, allow_unconverged=True)


def test_numeric_hessian_positive_definite_at_minimum(rng):
    truth, shape = bandlimited_truth(rng, j=2, degree=3, sigma=0.5)
    panel = sa.generate_panel(truth, shape, sa.make_grid(101), seed=12)
    result = sa.fit(panel, ConstraintRegime(), FitConfig(m=3))
    ctx = CriterionContext(panel, 3, ConstraintRegime())
    hess = numeric_hessian(ctx, result.beta_hat)
    eigvals = np.linalg.eigvalsh(hess)
    assert np.min(eigvals) > 0.0


def test_numeric_hessian_curvature_scale(rng):
    # curvature at the minimum tracks (2/J) H built from the plug-in blocks
    truth, shape = bandlimited_truth(rng, j=2, degree=3, sigma=0.3)
    panel = sa.generate_panel(truth, shape, sa.make_grid(201), seed=13)
    result = sa.fit(panel, ConstraintRegime(), FitConfig(m=3))
    ctx = CriterionContext(panel, 3, ConstraintRegime())
    hess = numeric_hessian(ctx, result.beta_hat)
    blocks = sa.efficiency_blocks(
        result.beta_hat.a, result.shape_hat, max(result.sigma_hat, 1e-12))
    target = (2.0 / 2) * blocks.h
    diag_ratio = np.diag(hess) / np.diag(target)
    assert np.all(diag_ratio > 0.5)
    assert np.all(diag_ratio < 1.5)


def _start_stack(rng, j, kind, config):
    """Scan starts plus uniform random starts of three panels of one (J, m), as one stack.

    The last row is an eigenvalue tie: J identical single-tone curves at equally
    spaced shifts, as in :func:`_polish_batch`.
    """
    contexts = []
    for seed in range(3):
        truth, shape = bandlimited_truth(rng, j=j, degree=3, sigma=0.5)
        panel = sa.generate_panel(truth, shape, sa.make_grid(61), seed=40 + seed)
        contexts.append(CriterionContext(panel, config.m, ConstraintRegime(kind=kind)))
    x0, owner = [], []
    for i, ctx in enumerate(contexts):
        starts = [theta[1:] for theta in _scan([ctx], config)[0]]
        starts += list(rng.uniform(0.0, 2 * np.pi, (3, j - 1)))
        x0 += starts
        owner += [i] * len(starts)
    grid = sa.make_grid(61)
    tone = sa.CurvePanel(grid=grid, y=np.tile(np.cos(grid.points), (j, 1)))
    contexts.append(CriterionContext(tone, config.m, ConstraintRegime(kind=kind)))
    x0.append(2 * np.pi * np.arange(1, j) / (4 if j == 2 else j))
    owner.append(len(contexts) - 1)
    d_ac = np.stack([ctx.d_ac for ctx in contexts])
    owner = np.array(owner)
    constant = np.array([ctx.shift_constant for ctx in contexts])[owner]

    def fun(xs, rows, hessian=False):
        return shift_objective_stack(d_ac, owner[rows], xs, constant[rows], hessian)

    return fun, np.array(x0)


def _assert_matches_per_start(fun, x0, config):
    x, ev, iterations, f_start = _lockstep_newton(fun, x0, config)
    for k in range(len(x0)):
        def one(xk, k=k):
            ev = fun(xk[None], np.array([k]), True)
            return ev.value[0], ev.grad[0], ev.hess[0], bool(ev.tie_break[0])

        x_ref, f_ref, iters_ref, f0 = newton_per_start(one, x0[k], config)
        assert f_start[k].tobytes() == np.float64(f0).tobytes()
        assert x[k].tobytes() == x_ref.tobytes()
        assert ev.value[k].tobytes() == np.float64(f_ref).tobytes()
        assert iterations[k] == iters_ref
        # the fit certifies from the returned evaluation: it must be a fresh one at x
        fresh = fun(x[k][None], np.array([k]), True)
        assert ev.value[k].tobytes() == fresh.value[0].tobytes()
        assert ev.grad[k].tobytes() == fresh.grad[0].tobytes()
        assert ev.tie_break[k] == fresh.tie_break[0]
    return x, iterations


@pytest.mark.parametrize("kind", [Regime.A0, Regime.A1])
@pytest.mark.parametrize("j", [2, 3, 4, 5, 6])
def test_lockstep_newton_matches_per_start_oracle(kind, j, rng):
    config = FitConfig(m=3)
    fun, x0 = _start_stack(rng, j, kind, config)
    _, iterations = _assert_matches_per_start(fun, x0, config)
    assert len(set(iterations)) > 1  # rows stop at different iterations
    x, iterations = _assert_matches_per_start(fun, x0, FitConfig(m=3, max_iters=1))
    assert np.all(iterations == 1)
    tie = fun(x0[-1:], np.array([len(x0) - 1]))
    assert tie.tie_break[0]
    if j > 2:  # at J = 2 the tie's gradient vanishes; elsewhere it takes a steepest-descent step
        steps = x0[-1] - 0.5 ** np.arange(60)[:, None] * tie.grad[0]
        assert np.any(np.all(steps == x[-1], axis=1)) and np.any(x[-1] != x0[-1])


def test_lockstep_bfgs_line_search_exhaustion_matches_oracle(rng):
    # (named for the BFGS search this test first covered; it now checks the Newton search)
    # every other start moves to 0 and gets a steep kink there, unseen by the
    # gradient: a step of any length, down to 2**-59, is exact and an ascent, so
    # those rows exhaust their 60 halvings in the first iteration; the others go on
    config = FitConfig(m=3)
    smooth, x0 = _start_stack(rng, 3, Regime.A0, config)
    x0[::2] = 0.0
    weight = np.where(np.arange(len(x0)) % 2 == 0, 1e12, 0.0)

    def fun(xs, rows, hessian=False):
        ev = smooth(xs, rows, hessian)
        return ev._replace(value=ev.value + weight[rows] * np.abs(xs).sum(axis=1))

    x, iterations = _assert_matches_per_start(fun, x0, config)
    assert np.all(iterations[::2] == 1) and np.array_equal(x[::2], x0[::2])
    assert np.all(iterations[1::2] > 1)


_BATCH_GRIDS = (21, 41, 81, 257)   # resolved bands m = 2, 2, 3, 4


@settings(max_examples=12, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       jobs=st.lists(st.tuples(st.integers(2, 6), st.sampled_from(_BATCH_GRIDS),
                               st.sampled_from(["a0", "a1"])), min_size=2, max_size=5))
def test_fit_batch_equals_lone_fits_property(seed, jobs):
    rng = np.random.default_rng(seed)
    batch = []
    for k, (j, n, kind) in enumerate(jobs):
        truth, shape = bandlimited_truth(rng, j=j, degree=3, sigma=0.3)
        panel = sa.generate_panel(truth, shape, sa.make_grid(n), seed=k)
        batch.append((panel, ConstraintRegime(kind=Regime(kind))))
    config = FitConfig()
    for (panel, regime), together in zip(batch, fit_batch(batch, config)):
        alone = sa.fit(panel, regime, config)
        assert (dumps_canonical(result_document(together, None))
                == dumps_canonical(result_document(alone, None)))
        assert together.start_profile == alone.start_profile


# Hessian multiplier per panel of the polish batch: as computed, flipped (the
# modified step takes |lambda|, so the same step), zero (every eigenvalue at the
# floor: a long step the line search cuts back), NaN (no Newton step: steepest
# descent, and a stop once the gain is below the tolerance)
_POLISH_FACTORS = (1.0, -1.0, 1.0, 0.0, 1.0, np.nan)


def _polish_batch(rng, j):
    """Contexts of one (J, m) with A0 and A1 mixed, their Hessian factors, and start rows.

    The last context has J identical single-tone curves; its one start, equally
    spaced shifts, is an eigenvalue tie.
    """
    contexts = []
    for k in range(len(_POLISH_FACTORS)):
        truth, shape = bandlimited_truth(rng, j=j, degree=3, sigma=0.5)
        panel = sa.generate_panel(truth, shape, sa.make_grid(61), seed=80 + k)
        contexts.append(CriterionContext(panel, 3, ConstraintRegime(kind=(Regime.A0, Regime.A1)[k % 2])))
    grid = sa.make_grid(61)
    tone = sa.CurvePanel(grid=grid, y=np.tile(np.cos(grid.points), (j, 1)))
    contexts.append(CriterionContext(tone, 3, ConstraintRegime(kind=Regime.A1)))
    x0, owner = [], []
    for i, ctx in enumerate(contexts[:-1]):
        best = _scan([ctx], FitConfig(m=3))[0][0][1:]
        x0 += [best, best + rng.normal(0.0, 1e-3, j - 1), rng.uniform(0.0, 2 * np.pi, j - 1)]
        owner += [i] * 3
    x0.append(2 * np.pi * np.arange(1, j) / (4 if j == 2 else j))
    owner.append(len(contexts) - 1)
    factors = np.array(_POLISH_FACTORS + (1.0,))
    return contexts, factors, np.array(x0), np.array(owner)


@pytest.mark.parametrize("max_iters", [500, 1])
@pytest.mark.parametrize("j", [2, 3, 4, 5, 6])
def test_lockstep_newton_on_polish_batch_matches_per_start_oracle(j, max_iters, rng):
    contexts, factors, x0, owner = _polish_batch(rng, j)
    d_ac = np.stack([ctx.d_ac for ctx in contexts])
    constant = np.array([ctx.shift_constant for ctx in contexts])

    def fun(xs, rows, hessian=False):
        ev = shift_objective_stack(d_ac, owner[rows], xs, constant[owner[rows]], hessian)
        if hessian:
            ev.hess[:] = ev.hess * factors[owner[rows]][:, None, None]
        return ev

    config = FitConfig(m=3, max_iters=max_iters)
    x, iterations = _assert_matches_per_start(fun, x0, config)
    if max_iters == 1:
        assert np.all(iterations == 1)
    else:
        assert len(set(iterations)) > 1  # rows stop at different iterations
