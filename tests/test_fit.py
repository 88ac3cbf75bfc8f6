"""Profiling, initialization, and the full fitter."""

import dataclasses
import importlib
import math
import os
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import shapealign as sa
from shapealign.criterion import ShiftEvaluation, rowdot, shift_constants, shift_objective_stack
from shapealign.errors import ConfigInvalid, DegenerateSpectrum
from shapealign.fit import (
    NOISE_FLOOR,
    FitConfig,
    _best_starts,
    _lockstep_newton,
    _sphere_scales,
    fit_batch,
    initialize_shifts,
)
from shapealign.io import dumps_canonical, load_study_config, read_panel, result_document
from shapealign.model import ConstraintRegime, Regime, generate_panels
from shapealign.montecarlo import run_study
from conftest import bandlimited_truth, sphere_scales
from oracles import (
    band_levels,
    first_best,
    initialize_shifts_loop,
    newton_per_start,
    numeric_hessian,
    profile_amplitude,
    scan_scores,
    score_peaks,
)


def _circ(x, y):
    return np.abs(np.mod(np.asarray(x) - np.asarray(y) + np.pi, 2 * np.pi) - np.pi)


def _scan(bands, n, config):
    """Start scan of panel bands of one (J, m) on n points, from the coefficient and spread stacks the fitter builds."""
    d_ac = np.stack([band.d_ac for band in bands])
    constants = np.array([band.spread for band in bands])
    return initialize_shifts(d_ac, constants, config.theta_grid_size or n, config)


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
    band = panel.band(3)
    amp = profile_amplitude(band, np.zeros(2))
    assert_allclose(amp.a, [1.0, 1.0], atol=1e-12)


def test_profile_amplitude_recovers_truth(rng):
    truth, shape = bandlimited_truth(rng, j=4, degree=3)
    panel = sa.generate_panel(truth, shape, sa.make_grid(101), seed=1)
    band = panel.band(4)
    amp = profile_amplitude(band, truth.theta)
    assert np.max(np.abs(amp.a - truth.a)) < 1e-8


def test_profile_amplitude_always_on_sphere(rng):
    truth, shape = bandlimited_truth(rng, j=3, degree=2, sigma=1.0)
    panel = sa.generate_panel(truth, shape, sa.make_grid(61), seed=2)
    band = panel.band(3)
    for _ in range(20):
        theta = np.concatenate([[0.0], rng.uniform(0, 2 * np.pi, 2)])
        amp = profile_amplitude(band, theta)
        assert abs(float(amp.a @ amp.a) - 3.0) < 1e-12
        assert amp.a[0] > 0


def test_profile_amplitude_degenerate():
    grid = sa.make_grid(21)
    panel = sa.CurvePanel(grid=grid, y=np.ones((2, 21)))
    band = panel.band(2)
    with pytest.raises(DegenerateSpectrum):
        profile_amplitude(band, np.zeros(2))


def test_initialize_shifts_near_truth(rng):
    truth, shape = bandlimited_truth(rng, j=3, degree=3)
    panel = sa.generate_panel(truth, shape, sa.make_grid(101), seed=3)
    band = panel.band(3)
    config = FitConfig(m=3)
    best = _scan([band], 101, config)[0][0]
    step = 2 * np.pi / 101
    assert np.all(_circ(best, truth.theta) <= step + 1e-12)


def test_initialize_shifts_identical_curves():
    grid = sa.make_grid(41)
    shape = sa.ShapeSpectrum.from_onesided({1: 1.0, 2: 0.2})
    truth = sa.ParameterSet(theta=[0.0, 0.0], a=[1.0, 1.0], upsilon=[0.0, 0.0], sigma=0.0)
    panel = sa.generate_panel(truth, shape, grid, seed=0)
    band = panel.band(3)
    best = _scan([band], 41, FitConfig(m=3))[0][0]
    assert best[1] == 0.0


@pytest.mark.parametrize("j", [2, 3])
def test_fit_identical_curves_returns_shifts_of_exactly_zero(j):
    # each score is symmetric about offset 0 bit for bit, so its peak's vertex, the start, is 0 itself
    shape = sa.ShapeSpectrum.from_onesided({1: 1.0, 2: 0.2})
    truth = sa.ParameterSet(theta=[0.0] * j, a=[1.0] * j, upsilon=[0.0] * j, sigma=0.0)
    result = sa.fit(sa.generate_panel(truth, shape, sa.make_grid(41), seed=0), ConstraintRegime(), FitConfig(m=3))
    assert result.converged and np.all(result.beta_hat.theta == 0.0)


def test_initialize_shifts_grid_equivariance():
    grid = sa.make_grid(41)
    shape = sa.ShapeSpectrum.from_onesided({1: 1.0, 2: 0.3, 3: -0.1})
    truth = sa.ParameterSet(theta=[0.0, 1.0723], a=[1.0, 1.0], upsilon=[0.0, 0.0], sigma=0.0)
    panel = sa.generate_panel(truth, shape, grid, seed=0)
    band = panel.band(3)
    best = _scan([band], 41, FitConfig(m=3))[0][0]

    rolled = panel.y.copy()
    rolled[1] = np.roll(panel.y[1], 1)  # curve 2 delayed by one grid step
    band2 = sa.CurvePanel(grid=grid, y=rolled).band(3)
    best2 = _scan([band2], 41, FitConfig(m=3))[0][0]
    step = 2 * np.pi / 41
    assert _circ(best2[1], best[1] + step) < 1e-9


@pytest.mark.parametrize("kind", [Regime.A0, Regime.A1])
@pytest.mark.parametrize("j", [2, 3, 4, 6])
def test_initialize_shifts_matches_loop_oracle(kind, j, rng):
    # J = 6 has 1 + 4 * 5 = 21 candidates; the second config keeps 3 per curve on a 24-point grid
    truth, shape = bandlimited_truth(rng, j=j, degree=3, sigma=0.5)
    panel = sa.generate_panel(truth, shape, sa.make_grid(61), seed=30 + j)
    band, regime = panel.band(3), ConstraintRegime(kind=kind)
    # scan grids of n points, of fewer (even) points and of more (even) points than the panel's 61
    for config in (FitConfig(m=3), FitConfig(m=3, n_multistart=3, theta_grid_size=24),
                   FitConfig(m=3, theta_grid_size=100)):
        batched = _scan([band], 61, config)[0]
        looped = initialize_shifts_loop(band, regime, 61, config)
        assert len(batched) == len(looped)
        for got, want in zip(batched, looped):
            assert np.array_equal(got, want)


@pytest.mark.parametrize("j", [2, 3, 4, 6])
def test_initialize_shifts_batch_matches_loop_oracle(j, rng):
    # A0 and A1 jobs of one (J, m) in one batch
    bands, regimes = [], []
    for k, kind in enumerate((Regime.A0, Regime.A1, Regime.A0)):
        truth, shape = bandlimited_truth(rng, j=j, degree=3, sigma=0.5)
        bands.append(sa.generate_panel(truth, shape, sa.make_grid(61), seed=50 + k).band(3))
        regimes.append(ConstraintRegime(kind=kind))
    for config in (FitConfig(m=3), FitConfig(m=3, n_multistart=3, theta_grid_size=24)):
        for band, regime, batched in zip(bands, regimes, _scan(bands, 61, config), strict=True):
            looped = initialize_shifts_loop(band, regime, 61, config)
            assert len(batched) == len(looped)
            for got, want in zip(batched, looped):
                assert np.array_equal(got, want)


def test_initialize_shifts_batch_equals_lone_scans(rng):
    # 12 panels at J = 6, ranked in one stacked eigenvalue call
    bands = []
    for k in range(12):
        truth, shape = bandlimited_truth(rng, j=6, degree=3, sigma=0.5)
        bands.append(sa.generate_panel(truth, shape, sa.make_grid(61), seed=k).band(3))
    config = FitConfig(m=3)
    for band, batched in zip(bands, _scan(bands, 61, config), strict=True):
        assert np.array_equal(batched, _scan([band], 61, config)[0])


def _within_half_a_step(position, peaks, grid_size):
    """Whether the grid position lies, circularly, within half a step of one of ``peaks``."""
    return any(abs((position - s + grid_size / 2) % grid_size - grid_size / 2) <= 0.5 for s in peaks)


def test_initialize_shifts_starts_at_each_score_peak_not_at_its_neighbours():
    # harmonics 1 and 3 with a weak harmonic 2: curve 2's score peaks at its shift and, a little
    # lower, half a turn away; the five best grid offsets are the first peak and its neighbours
    grid = sa.make_grid(61)
    shape = sa.ShapeSpectrum.from_onesided({1: 1.0, 2: 0.2, 3: 0.5})
    truth = sa.ParameterSet(theta=[0.0, 1.0], a=[1.0, 1.0], upsilon=[0.0, 0.0], sigma=0.0)
    band = sa.generate_panel(truth, shape, grid, seed=0).band(3)
    row = scan_scores(band, 61)[0]
    peaks = sorted(score_peaks(row), key=lambda s: -row[s])
    step = 2 * np.pi / 61
    assert _circ(peaks[0] * step, 1.0) <= step and _circ(peaks[1] * step, 1.0 + np.pi) <= step
    positions = _scan([band], 61, FitConfig(m=3))[0][:, 1] * 61 / (2 * np.pi)
    assert all(_within_half_a_step(p, peaks, 61) for p in positions)
    for peak in peaks[:2]:
        assert any(_within_half_a_step(p, [peak], 61) for p in positions)


@pytest.mark.parametrize("grid_size", [1, 2, 3])
def test_initialize_shifts_on_tiny_scan_grids_keeps_the_best_offset(grid_size, rng):
    # one or two offsets have no neighbours to fit a parabola through; three have one peak
    truth, shape = bandlimited_truth(rng, j=3, degree=3, sigma=0.5)
    band = sa.generate_panel(truth, shape, sa.make_grid(61), seed=1).band(3)
    best = np.argmax(scan_scores(band, grid_size), axis=1)
    starts = _scan([band], 61, FitConfig(m=3, theta_grid_size=grid_size))[0]
    assert np.isfinite(starts).all() and np.all(starts[:, 0] == 0.0)
    positions = starts[:, 1:] * grid_size / (2 * np.pi)
    if grid_size < 3:
        assert np.all(positions == best)
    else:
        assert np.all(np.abs(positions - best) <= 0.5)


def test_initialize_shifts_flat_score_keeps_offset_zero():
    # curve 2 is level: its score is zero at every offset, has no peak, and keeps offset 0
    grid = sa.make_grid(41)
    shape = sa.ShapeSpectrum.from_onesided({1: 1.0, 2: 0.3})
    truth = sa.ParameterSet(theta=[0.0, 0.0, 2.0], a=[1.0, 1.0, 1.0], upsilon=[0.0, 0.0, 0.0], sigma=0.0)
    y = sa.generate_panel(truth, shape, grid, seed=0).y.copy()
    y[1] = 3.0
    band = sa.CurvePanel(grid=grid, y=y).band(3)
    assert score_peaks(scan_scores(band, 41)[0]) == []
    starts = _scan([band], 41, FitConfig(m=3))[0]
    assert np.isfinite(starts).all() and np.all(starts[:, 1] == 0.0)
    assert np.all(_circ(starts[0, 2], 2.0) <= np.pi / 41)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), j=st.integers(2, 5), sigma=st.sampled_from([0.0, 0.5, 2.0]),
       grid_size=st.sampled_from([None, 24, 100]), k=st.integers(1, 7))
def test_initialize_shifts_refines_each_peak_within_half_a_step_property(seed, j, sigma, grid_size, k):
    truth, shape = bandlimited_truth(np.random.default_rng(seed), j=j, degree=3, sigma=sigma)
    band = sa.generate_panel(truth, shape, sa.make_grid(61), seed=seed % 1000).band(3)
    size = grid_size or 61
    peaks = [score_peaks(row) for row in scan_scores(band, size)]
    starts = _scan([band], 61, FitConfig(m=3, theta_grid_size=grid_size, n_multistart=k))[0]
    assert np.isfinite(starts).all()
    for start in starts:
        for position, curve_peaks in zip(start[1:] * size / (2 * np.pi), peaks):
            assert _within_half_a_step(position, curve_peaks, size)


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


def test_lone_fit_without_a_wrap_profiles_at_the_search_evaluation(rng, monkeypatch):
    # shifts far from 0: the endpoints lie in [0, 2*pi), so the assembly reads the
    # search's last evaluation and asks the kernel for no Hessian-free profile
    truth, shape = bandlimited_truth(rng, j=3, degree=3, sigma=0.5)
    truth = dataclasses.replace(truth, theta=np.array([0.0, 1.5, 4.0]))
    panel = sa.generate_panel(truth, shape, sa.make_grid(201), seed=3)
    hessians = _count_hessian_calls(monkeypatch)
    result = sa.fit(panel, ConstraintRegime(), FitConfig(m=3))
    assert result.converged
    assert hessians and all(hessians)


def _wrapping_jobs(seed, j, n, offsets, sigma):
    """Two panels, under A0 and A1, whose true shifts lie within one grid step of 0, on either side."""
    rng = np.random.default_rng(seed)
    jobs = []
    for k in range(2):
        truth, shape = bandlimited_truth(rng, j=j, degree=3, sigma=sigma)
        theta = np.mod(np.concatenate([[0.0], offsets[k * 4:k * 4 + j - 1]]) * 2 * np.pi / n, 2 * np.pi)
        theta[theta >= 2 * np.pi] = 0.0
        panel = sa.generate_panel(dataclasses.replace(truth, theta=theta), shape, sa.make_grid(n), seed=k)
        jobs += [(panel, ConstraintRegime()), (panel, ConstraintRegime(kind=Regime.A1))]
    return jobs


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), j=st.integers(2, 5), n=st.sampled_from([31, 51, 201]),
       offsets=st.lists(st.floats(-1.0, 1.0), min_size=8, max_size=8), sigma=st.sampled_from([0.0, 0.01, 0.3]))
def test_fit_profile_equals_a_fresh_profile_at_the_reported_shifts_property(seed, j, n, offsets, sigma):
    # endpoints just below 0 wrap to just below 2*pi, or to 0, and change bits; the rest
    # keep them: either way scales and tie flag are those of the profile at the reported shifts
    jobs = _wrapping_jobs(seed, j, n, np.array(offsets), sigma)
    config = FitConfig(m=3)
    for (panel, regime), result in zip(jobs, fit_batch(jobs, config), strict=True):
        band = panel.band(3)
        theta = result.beta_hat.theta
        profile = shift_objective_stack(band.d_ac[None], np.zeros(1, dtype=int), theta[None, 1:],
                                        np.array([band.spread]))
        a = _sphere_scales(profile.lead)
        ssq = rowdot(a, a)
        a = np.where((np.abs(ssq - j) > 1e-12 * j)[:, None], a * np.sqrt(j / ssq)[:, None], a)[0]
        assert result.beta_hat.a.tobytes() == a.tobytes()
        assert result.tie_break == bool(profile.tie_break[0])
        alone = sa.fit(panel, regime, config)
        assert (dumps_canonical(result_document(result, None))
                == dumps_canonical(result_document(alone, None)))


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


def test_search_from_one_start_per_peak_needs_at_most_four_kernel_calls(monkeypatch):
    # the synthetic fixture's fit and the first five-replicate figure-2 part: with the k best
    # grid offsets as starts, their searches made 6 and 5 calls, set by the start two steps off
    monkeypatch.delenv("SHAPEALIGN_THREADS", raising=False)
    fixtures = os.path.join(os.path.dirname(__file__), "..", "fixtures")
    study = load_study_config(os.path.join(fixtures, "figure2.json"))
    searches = _count_search_calls(monkeypatch)
    assert sa.fit(read_panel(os.path.join(fixtures, "synthetic_panel.csv")), ConstraintRegime()).converged
    run_study(dataclasses.replace(study, replicates=5))
    assert len(searches) == 2 and max(searches) <= 4


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


def _record_problem_rows(monkeypatch):
    """Record the problems each start scan ranks and the rows of each kernel call inside a search."""
    fit_module = importlib.import_module("shapealign.fit")
    kernel, scan, search = fit_module.shift_objective_stack, fit_module.initialize_shifts, fit_module._lockstep_newton
    scanned, searched, inside = [], [], [False]

    def counting(d_ac, owner, x, constant, hessian=False):
        if inside[0]:
            searched[-1].append(len(x))
        return kernel(d_ac, owner, x, constant, hessian)

    def counted_scan(d_ac, constants, grid_size, config):
        scanned.append(len(d_ac))
        return scan(d_ac, constants, grid_size, config)

    def counted_search(*args, **kwargs):
        searched.append([])
        inside[0] = True
        try:
            return search(*args, **kwargs)
        finally:
            inside[0] = False

    monkeypatch.setattr(fit_module, "shift_objective_stack", counting)
    monkeypatch.setattr(fit_module, "initialize_shifts", counted_scan)
    monkeypatch.setattr(fit_module, "_lockstep_newton", counted_search)
    return scanned, searched


def test_figure2_part_scans_and_searches_each_panel_once_for_both_regimes(monkeypatch):
    # a panel poses one shift problem under both regimes and any box: a five-replicate
    # part scans 5 problems, not 10, and its full search calls carry 5 x 5 starts, not
    # 10 x 5, also under a box that binds every panel (curve means near 5.0 and 4.5 against 1)
    monkeypatch.delenv("SHAPEALIGN_THREADS", raising=False)
    study = load_study_config(os.path.join(os.path.dirname(__file__), "..", "fixtures", "figure2.json"))
    scanned, searched = _record_problem_rows(monkeypatch)
    run_study(dataclasses.replace(study, replicates=5))
    assert scanned == [5] and len(searched) == 1
    assert searched[0][0] == max(searched[0]) == 25
    panels = generate_panels(study.truth, study.shape, sa.make_grid(201), range(study.base_seed, study.base_seed + 5))
    jobs = [(panel, ConstraintRegime(kind=kind, upsilon_max=1.0)) for panel in panels for kind in study.regimes]
    scanned, searched = _record_problem_rows(monkeypatch)
    fit_batch(jobs, study.fit_config)
    assert scanned == [5] and len(searched) == 1
    assert searched[0][0] == max(searched[0]) == 25


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), j=st.integers(2, 5), order=st.permutations(range(5)),
       repeat=st.integers(0, 3))
def test_fit_batch_shared_problems_equal_lone_fits_property(seed, j, order, repeat):
    # one panel under A0, A1 and a binding A0 box, another panel, and one job twice,
    # in any order: the jobs of a panel share its one shift problem and still get their lone bits
    rng = np.random.default_rng(seed)
    panels = []
    for k in range(2):
        truth, shape = bandlimited_truth(rng, j=j, degree=3, sigma=0.3)
        panels.append(sa.generate_panel(truth, shape, sa.make_grid(41), seed=k))
    box = 0.5 * float(np.abs(panels[0].y.mean(axis=1)).max())  # binds at the largest curve mean
    jobs = [(panels[0], ConstraintRegime()), (panels[0], ConstraintRegime(kind=Regime.A1)),
            (panels[0], ConstraintRegime(upsilon_max=box)), (panels[1], ConstraintRegime(kind=Regime.A1))]
    jobs.append(jobs[repeat])
    batch = [jobs[i] for i in order]
    config = FitConfig()
    for (panel, regime), together in zip(batch, fit_batch(batch, config), strict=True):
        alone = sa.fit(panel, regime, config)
        assert (dumps_canonical(result_document(together, None))
                == dumps_canonical(result_document(alone, None)))


@settings(max_examples=300, deadline=None)
@given(data=st.data(), problems=st.integers(1, 5), starts=st.integers(1, 6), free=st.integers(1, 3))
def test_best_starts_equal_the_per_fit_loop_property(data, problems, starts, free):
    # values tie within and beyond the tolerance, shifts tie exactly, and NaN compares as in a tuple
    values = np.array(data.draw(st.lists(st.sampled_from([0.25, 0.25 + 5e-13, 0.25 - 5e-13, 0.25 + 3e-12, 1.0, np.nan]),
                                         min_size=problems * starts, max_size=problems * starts)))
    wrapped = np.array(data.draw(st.lists(st.sampled_from([0.0, -0.0, 1.5, 3.0, np.nan]),
                                          min_size=problems * starts * free, max_size=problems * starts * free)))
    values, wrapped = values.reshape(problems, starts), wrapped.reshape(problems, starts, free)
    expected = [first_best(values[p], wrapped[p], 1e-12) for p in range(problems)]
    assert _best_starts(values, wrapped, 1e-12).tolist() == expected


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
@example(seed=2, j=2, sigma=0.3, c=0.1, b=77.5)  # the residual about zero lost sigma's 1e-9 here
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


def _under_both_regimes(cases):
    """Each case (a tuple) under A0, with the id it had before A1 joined, then under A1."""
    return [pytest.param(*case, kind, id="-".join(map(str, case)) + ("-a1" if kind is Regime.A1 else ""))
            for kind in (Regime.A0, Regime.A1) for case in cases]


@pytest.mark.parametrize("level, tol, kind", _under_both_regimes([(1e2, 1e-10), (1e4, 1e-8), (1e6, 1e-6), (1e8, 1e-7)]))
def test_fit_sigma_keeps_its_digits_under_a_large_level(level, tol, kind):
    # the band and the residual are taken about the curve means, so a level far above the
    # noise (here up to 1e10 sigma) costs sigma_hat only the digits the data lose
    truth, shape = bandlimited_truth(np.random.default_rng(4), j=3, degree=3, sigma=0.01)
    panel = sa.generate_panel(truth, shape, sa.make_grid(201), seed=4)
    regime = ConstraintRegime(kind=kind, upsilon_max=math.inf)
    base = sa.fit(panel, regime)
    moved = sa.fit(sa.CurvePanel(grid=panel.grid, y=panel.y + level), regime)
    assert not moved.zero_noise
    assert abs(moved.sigma_hat - base.sigma_hat) <= tol * base.sigma_hat


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), j=st.integers(2, 5), sigma=st.sampled_from([0.01, 0.3, 1.0]),
       b=st.floats(-1e8, 1e8), kind=st.sampled_from([Regime.A0, Regime.A1]))
def test_fit_sigma_is_invariant_to_a_level_property(seed, j, sigma, b, kind):
    # y + b moves sigma_hat only by the digits the data lose, under either regime
    truth, shape = bandlimited_truth(np.random.default_rng(seed), j=j, degree=3, sigma=sigma)
    panel = sa.generate_panel(truth, shape, sa.make_grid(201), seed=seed)
    regime = ConstraintRegime(kind=kind, upsilon_max=math.inf)
    base, moved = sa.fit(panel, regime), sa.fit(sa.CurvePanel(grid=panel.grid, y=panel.y + b), regime)
    assert abs(moved.sigma_hat - base.sigma_hat) <= 1e-9


@pytest.mark.parametrize("level, kind", _under_both_regimes([(0.0,), (50.0,), (1e4,), (1e6,), (1e8,)]))
def test_fit_noiseless_panel_reports_zero_noise_at_any_level(level, kind):
    # the objective of a noiseless fit is rounding residue of either sign: below the floor it reads as zero
    truth, shape = bandlimited_truth(np.random.default_rng(4), j=3, degree=3)
    truth = dataclasses.replace(truth, upsilon=truth.upsilon + level, regime=ConstraintRegime(upsilon_max=math.inf))
    panel = sa.generate_panel(truth, shape, sa.make_grid(101), seed=4)
    result = sa.fit(panel, ConstraintRegime(kind=kind, upsilon_max=math.inf), FitConfig(m=5))
    assert result.converged and result.zero_noise
    assert result.sigma_hat == 0.0
    band = panel.band(5)
    assert abs(result.objective) <= NOISE_FLOOR * math.sqrt(band.spread * band.mean_sq)


def test_fit_objective_and_sigma_agree_bitwise_across_regimes():
    # with a box that does not bind, both regimes minimize one profile, C - lambda_max(Q) with C the
    # spread, and report it: alone or in one batch, A0 and A1 give the same objective and noise bits,
    # also where the levels stand far above the noise
    truth, shape = bandlimited_truth(np.random.default_rng(11), j=4, degree=3, sigma=0.3)
    truth = dataclasses.replace(truth, upsilon=truth.upsilon + 1e3)
    panel = sa.generate_panel(truth, shape, sa.make_grid(201), seed=11)
    a0, a1 = ConstraintRegime(kind=Regime.A0), ConstraintRegime(kind=Regime.A1)
    results = [sa.fit(panel, a0), sa.fit(panel, a1), *fit_batch([(panel, a0), (panel, a1)])]
    assert not results[0].zero_noise
    for result in results[1:]:
        assert np.float64(result.objective).tobytes() == np.float64(results[0].objective).tobytes()
        assert np.float64(result.sigma_hat).tobytes() == np.float64(results[0].sigma_hat).tobytes()


def _boxed_and_unboxed_fits(seed, j, n, sigma, offset, box):
    """One panel fitted under A0 within ``box`` (a number, or a share of max|ybar| as "half"), A0 unbounded and A1."""
    truth, shape = bandlimited_truth(np.random.default_rng(seed), j=j, degree=3, sigma=sigma)
    truth = dataclasses.replace(truth, upsilon=truth.upsilon + offset, regime=ConstraintRegime(upsilon_max=math.inf))
    panel = sa.generate_panel(truth, shape, sa.make_grid(n), seed=seed)
    if box == "half":
        box = 0.5 * float(np.abs(panel.y.mean(axis=1)).max())
    regimes = [ConstraintRegime(upsilon_max=box), ConstraintRegime(upsilon_max=math.inf),
               ConstraintRegime(kind=Regime.A1)]
    return panel, [sa.fit(panel, regime) for regime in regimes]


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), j=st.integers(2, 5), n=st.sampled_from([41, 201]),
       sigma=st.sampled_from([0.3, 1.0, 2.0]), offset=st.floats(-1e6, 1e6),
       box=st.sampled_from([math.inf, "half", 1.0]))
@example(seed=7, j=5, n=201, sigma=1.0, offset=0.0, box="half")
def test_fit_shifts_and_scales_ignore_the_regime_and_the_level_box_property(seed, j, n, sigma, offset, box):
    # the regime and the A0 box move only the constant C of C - lambda_max(Q), so a panel's shift
    # problem is the one on its spread: every regime and box gets its shifts, scales, search counts,
    # certificate, tie flag and l != 0 shape coefficients bit for bit; only levels, objective and noise differ
    _, (boxed, unbounded, a1) = _boxed_and_unboxed_fits(seed, j, n, sigma, offset, box)
    m = boxed.m
    for other in (unbounded, a1):
        assert boxed.beta_hat.theta.tobytes() == other.beta_hat.theta.tobytes()
        assert boxed.beta_hat.a.tobytes() == other.beta_hat.a.tobytes()
        assert (boxed.iterations, boxed.restarts, boxed.converged, boxed.tie_break) == (
            other.iterations, other.restarts, other.converged, other.tie_break)
        for part in (slice(None, m), slice(m + 1, None)):
            assert boxed.shape_hat.coeffs[part].tobytes() == other.shape_hat.coeffs[part].tobytes()
    assert boxed.objective >= a1.objective  # the box's levels fit no better than the means


def test_fit_certifies_a_binding_box_on_the_panels_own_profile():
    # levels near 1e6 against a box of 1: the A0 shifts are the stationary point of the panel's
    # profile on its spread, as exactly as the A1 fit's
    panel, (boxed, _, a1) = _boxed_and_unboxed_fits(3, 3, 201, 0.3, 1e6, 1.0)
    band = panel.band(boxed.m)
    ev = shift_objective_stack(band.d_ac[None], [0], boxed.beta_hat.theta[None, 1:], band.spread)
    assert shift_constants(band.ybar[None], band.spread, np.array([True]), np.array([1.0]))[0] == band.spread
    assert boxed.converged
    assert np.abs(ev.grad).max() <= 1e-8 * max(1.0, abs(float(ev.value[0])))
    assert boxed.beta_hat.theta.tobytes() == a1.beta_hat.theta.tobytes()
    assert boxed.objective > a1.objective


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), j=st.integers(2, 5), n=st.sampled_from([41, 201]),
       sigma=st.sampled_from([0.0, 0.5]), setup=st.sampled_from(["a0", "box", "a1"]))
def test_fit_objective_is_the_public_criterion_at_its_estimates_property(seed, j, n, sigma, setup):
    # the fit reports its job's C - lambda_max(Q) from the stacked kernel; the public criterion
    # recomputes the residual from the band at the reported (theta, a, upsilon): equal to rounding
    truth, shape = bandlimited_truth(np.random.default_rng(seed), j=j, degree=3, sigma=sigma)
    regime = ConstraintRegime()
    if setup == "box":  # levels of 7 to 13 against a box of 1: every level is clipped
        truth = dataclasses.replace(truth, upsilon=truth.upsilon + 10.0)
        regime = ConstraintRegime(upsilon_max=1.0)
    elif setup == "a1":
        regime = ConstraintRegime(kind=Regime.A1)
    panel = sa.generate_panel(truth, shape, sa.make_grid(n), seed=seed % 1000)
    result = sa.fit(panel, regime)
    est, band = result.beta_hat, panel.band(result.m)
    if setup == "box":
        assert np.all(np.abs(est.upsilon) == 1.0)
    value = sa.criterion_value(band, regime, est.theta, est.a, est.upsilon)
    residual = band.spread + np.mean((band.ybar - est.upsilon) ** 2)
    assert abs(value - result.objective) <= 64 * np.finfo(float).eps * residual


@pytest.mark.xfail(strict=True, reason="the certificate's gradient tolerance is absolute where f is near 0, "
                                       "but the gradient's rounding floor grows with the data")
def test_fit_certifies_a_noiseless_panel_at_any_scale():
    # fit-j3-like noiseless panels (J=3, n=201, m=3): certified as they are, most fail their
    # certificate at y * 1e4, where f is about 6e-8 and max|g| about 2e-8 > 1e-8 max(1, |f|)
    shape = sa.ShapeSpectrum.from_onesided({1: 1.0, 2: 0.5 * np.exp(0.3j), 3: 0.25 * np.exp(1.1j)}, m=3)
    rng, grid = np.random.default_rng(7), sa.make_grid(201)
    for k in range(12):
        truth = sa.ParameterSet(theta=np.concatenate([[0.0], rng.uniform(0.0, 2 * np.pi, 2)]),
                                a=sphere_scales(rng, 3), upsilon=rng.uniform(-5.0, 5.0, 3), sigma=0.0)
        panel = sa.generate_panel(truth, shape, grid, seed=k)
        assert sa.fit(panel, ConstraintRegime()).converged
        assert sa.fit(sa.CurvePanel(grid=grid, y=panel.y * 1e4), ConstraintRegime()).converged


def test_fit_monotone_multistart(rng):
    truth, shape = bandlimited_truth(rng, j=2, degree=3, sigma=1.0)
    panel = sa.generate_panel(truth, shape, sa.make_grid(61), seed=5)
    config = FitConfig(m=4)
    regime = ConstraintRegime()
    result = sa.fit(panel, regime, config)
    band = panel.band(4)
    starts = initialize_shifts(band.d_ac[None], np.array([band.spread]), panel.grid.n, config)[0]
    assert len(starts) == config.n_multistart
    for theta in starts:  # the criterion at each start, scales and levels profiled
        a = profile_amplitude(band, theta).a
        start_value = sa.criterion_value(band, regime, theta, a, band_levels(band, regime, a))
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
    hess = numeric_hessian(panel.band(3), result.beta_hat)
    eigvals = np.linalg.eigvalsh(hess)
    assert np.min(eigvals) > 0.0


def test_numeric_hessian_curvature_scale(rng):
    # curvature at the minimum tracks (2/J) H built from the plug-in blocks
    truth, shape = bandlimited_truth(rng, j=2, degree=3, sigma=0.3)
    panel = sa.generate_panel(truth, shape, sa.make_grid(201), seed=13)
    result = sa.fit(panel, ConstraintRegime(), FitConfig(m=3))
    hess = numeric_hessian(panel.band(3), result.beta_hat)
    blocks = sa.efficiency_blocks(
        result.beta_hat.a, result.shape_hat, max(result.sigma_hat, 1e-12))
    target = (2.0 / 2) * blocks.h
    diag_ratio = np.diag(hess) / np.diag(target)
    assert np.all(diag_ratio > 0.5)
    assert np.all(diag_ratio < 1.5)


def _start_stack(rng, j, config):
    """Scan starts plus uniform random starts of three panels of one (J, m), as one stack.

    The last row is an eigenvalue tie: J identical single-tone curves at equally
    spaced shifts, as in :func:`_polish_batch`.
    """
    bands = []
    for seed in range(3):
        truth, shape = bandlimited_truth(rng, j=j, degree=3, sigma=0.5)
        bands.append(sa.generate_panel(truth, shape, sa.make_grid(61), seed=40 + seed).band(config.m))
    x0, owner = [], []
    for i, band in enumerate(bands):
        starts = [theta[1:] for theta in _scan([band], 61, config)[0]]
        starts += list(rng.uniform(0.0, 2 * np.pi, (3, j - 1)))
        x0 += starts
        owner += [i] * len(starts)
    grid = sa.make_grid(61)
    tone = sa.CurvePanel(grid=grid, y=np.tile(np.cos(grid.points), (j, 1)))
    bands.append(tone.band(config.m))
    x0.append(2 * np.pi * np.arange(1, j) / (4 if j == 2 else j))
    owner.append(len(bands) - 1)
    d_ac = np.stack([band.d_ac for band in bands])
    owner = np.array(owner)
    constant = np.array([band.spread for band in bands])[owner]

    def fun(xs, rows, hessian=False):
        return shift_objective_stack(d_ac, owner[rows], xs, constant[rows], hessian)

    return fun, np.array(x0)


def _assert_matches_per_start(fun, x0, config):
    x, ev, iterations = _lockstep_newton(fun, x0, config)
    for k in range(len(x0)):
        def one(xk, k=k):
            ev = fun(xk[None], np.array([k]), True)
            return ev.value[0], ev.grad[0], ev.hess[0], bool(ev.tie_break[0])

        x_ref, f_ref, iters_ref, _ = newton_per_start(one, x0[k], config)
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
    # the fitter searches a panel's A0 and A1 jobs on its one profile, spread - lambda_max(Q),
    # so the stack, and this check, are the same for either kind
    config = FitConfig(m=3)
    fun, x0 = _start_stack(rng, j, config)
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
    smooth, x0 = _start_stack(rng, 3, config)
    x0[::2] = 0.0
    weight = np.where(np.arange(len(x0)) % 2 == 0, 1e12, 0.0)

    def fun(xs, rows, hessian=False):
        ev = smooth(xs, rows, hessian)
        return ev._replace(value=ev.value + weight[rows] * np.abs(xs).sum(axis=1))

    x, iterations = _assert_matches_per_start(fun, x0, config)
    assert np.all(iterations[::2] == 1) and np.array_equal(x[::2], x0[::2])
    assert np.all(iterations[1::2] > 1)


def test_lockstep_newton_round_of_mixed_rows_matches_oracle():
    # f_k(x) = c_k |x|^2 / 2 + 1 with Hessian h_k c_k I (NaN: none), exact in binary, so that the
    # first round has every kind of row: 0 takes its full step, 1 backtracks to a step of 1/8,
    # 2 is below the Armijo tolerance and its Newton trial is kept, 3 is too and its trial is
    # rejected, and 4 descends by steepest descent until it retires at max_iters
    c = np.array([1.0, 2.0, 1.0, 1.0, 0.1])
    h = np.array([1.0, 0.125, 1.0, 0.25, np.nan])
    x0 = np.array([[1.0, -2.0], [0.5, 1.0], [2.0**-23, -(2.0**-22)], [2.0**-23, 0.0], [3.0, 1.0]])
    calls = []

    def fun(xs, rows, hessian=False):
        calls.append(rows.tolist())
        value = 0.5 * c[rows] * np.sum(xs * xs, axis=1) + 1.0
        hess = (h[rows] * c[rows])[:, None, None] * np.eye(2)
        return ShiftEvaluation(value=value, grad=c[rows, None] * xs, hess=hess, energy=-value,
                               lead=2.0 * xs, tie_break=np.zeros(len(rows), dtype=bool))

    config = FitConfig(max_iters=3)
    x, iterations = _assert_matches_per_start(fun, x0, config)
    assert calls[1:5] == [[0, 1, 2, 3, 4], [1], [1], [1]]  # one round: all five trials, then 1's halvings
    assert iterations.tolist() == [2, 2, 2, 1, 3]
    assert np.all(x[:3] == 0.0) and np.array_equal(x[3], x0[3]) and np.all(x[4] != 0.0)
    ev = _lockstep_newton(fun, x0, config)[1]
    fresh = fun(x, np.arange(len(x0)), True)
    for whole, part in zip(ev, fresh):  # every field of the evaluation is written back
        assert whole.tobytes() == part.tobytes()


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


# Hessian multiplier per panel of the polish batch: as computed, flipped (the
# modified step takes |lambda|, so the same step), zero (every eigenvalue at the
# floor: a long step the line search cuts back), NaN (no Newton step: steepest
# descent, and a stop once the gain is below the tolerance)
_POLISH_FACTORS = (1.0, -1.0, 1.0, 0.0, 1.0, np.nan)


def _polish_batch(rng, j):
    """Panel bands of one (J, m), their Hessian factors, and start rows.

    The last band has J identical single-tone curves; its one start, equally
    spaced shifts, is an eigenvalue tie.
    """
    bands = []
    for k in range(len(_POLISH_FACTORS)):
        truth, shape = bandlimited_truth(rng, j=j, degree=3, sigma=0.5)
        bands.append(sa.generate_panel(truth, shape, sa.make_grid(61), seed=80 + k).band(3))
    grid = sa.make_grid(61)
    tone = sa.CurvePanel(grid=grid, y=np.tile(np.cos(grid.points), (j, 1)))
    bands.append(tone.band(3))
    x0, owner = [], []
    for i, band in enumerate(bands[:-1]):
        best = _scan([band], 61, FitConfig(m=3))[0][0][1:]
        x0 += [best, best + rng.normal(0.0, 1e-3, j - 1), rng.uniform(0.0, 2 * np.pi, j - 1)]
        owner += [i] * 3
    x0.append(2 * np.pi * np.arange(1, j) / (4 if j == 2 else j))
    owner.append(len(bands) - 1)
    factors = np.array(_POLISH_FACTORS + (1.0,))
    return bands, factors, np.array(x0), np.array(owner)


@pytest.mark.parametrize("max_iters", [500, 1])
@pytest.mark.parametrize("j", [2, 3, 4, 5, 6])
def test_lockstep_newton_on_polish_batch_matches_per_start_oracle(j, max_iters, rng):
    bands, factors, x0, owner = _polish_batch(rng, j)
    d_ac = np.stack([band.d_ac for band in bands])
    constant = np.array([band.spread for band in bands])

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
