"""Criterion minimization: profiling, multistart search, and the fitter.

Levels and scales have exact profiles (column means; leading eigenvector
of the cross-coefficient matrix Q), so the search runs only over the J-1
free shifts, where the criterion is C - lambda_max(Q).  One stacked kernel,
:func:`criterion.shift_objective_stack`, gives its value, gradient and
exact Hessian at many rows of shifts, one eigendecomposition per row.
:func:`_fit_group` fits the jobs of one (J, n) from the panels' stacked band
arrays to stacked estimates, each stage in stacked calls whose rows do not
interact: a cross-correlation grid scan whose start candidates, built from each
curve's score peaks and linear in J, are ranked with one eigenvalue call; one
lockstep modified-Newton search with the exact Hessian, a row per start, which
runs each row until its gradient vanishes to rounding or no step can shrink it;
and the assembly of the estimates at each panel's best endpoint, wrapped once,
whose ``converged`` certificate reads the search's last evaluation there, and
which :func:`model.project_rows` puts on the constraint set.  The
regime and the A0 box enter the shift criterion only through C, which cannot
move its minimisers, so each panel is one shift problem, on its spread, whatever
the regimes of its jobs.
:func:`fit_batch` (and :func:`fit`, its batch of one) wraps the estimates in
:class:`FitResult`; a Monte Carlo block reads them as they are.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .criterion import (
    criterion_stack,
    require_energy,
    shift_constants,
    shift_objective_stack,
)
from .errors import ConfigInvalid
from .fourier import TWO_PI, ShapeSpectrum, _twiddle_table, evaluate_spectrum
from .model import (
    Band,
    ConstraintRegime,
    CurvePanel,
    ParameterSet,
    Regime,
    band_stack,
    project_rows,
    rowdot,
    wrap_shifts,
)

# The line search's step lengths, 1, 1/2, ..., 2^-59.
_HALVINGS = tuple(0.5**k for k in range(60))

# An objective at or below NOISE_FLOOR * sqrt(spread * mean_sq) reads as zero noise: a noiseless
# panel leaves rounding residue of either sign up to a few eps times that root, the rounding of
# the centred rows (eps times the level) times the shape's size.
NOISE_FLOOR = 64 * np.finfo(float).eps


@dataclass(frozen=True)
class FitConfig:
    """Fitting knobs.

    ``m`` pins the band explicitly; otherwise m = max(1, floor(n^m_exponent)),
    clamped so 2*m < n.  The default exponent 1/4 keeps the band growth
    slow enough for the plug-in covariance to be trustworthy.
    """

    m: int | None = None
    m_exponent: float = 0.25
    theta_grid_size: int | None = None  # default: one candidate per grid point
    n_multistart: int = 5
    tol_objective: float = 1e-12
    tol_param: float = 1e-9
    max_iters: int = 500

    def __post_init__(self):
        if self.m is not None and self.m < 1:
            raise ConfigInvalid("explicit band limit must be >= 1")
        if not 0.0 < self.m_exponent < 1.0:
            raise ConfigInvalid("band exponent must lie in (0, 1)")
        if self.theta_grid_size is not None and self.theta_grid_size < 1:
            raise ConfigInvalid("theta_grid_size must be >= 1")
        if self.n_multistart < 1 or self.max_iters < 1:
            raise ConfigInvalid("n_multistart and max_iters must be >= 1")
        if not (0 < self.tol_objective <= 1 and self.tol_param > 0):  # NaN fails too
            raise ConfigInvalid("tolerances must be positive, tol_objective (a gain relative to max(1, |f|)) at most 1")

    def resolve_m(self, n: int) -> int:
        if self.m is not None:
            if 2 * self.m >= n:
                raise ConfigInvalid(f"2m < n violated: m={self.m}, n={n}")
            return self.m
        m = max(1, int(math.floor(n**self.m_exponent)))
        return min(m, (n - 1) // 2)


def _profiled_levels(ybar: np.ndarray, a1: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Exact level profiles (F, J) given means and scales (F, J), before :func:`model.project_rows` clips
    or zeroes them: the means, less a_j ybar_1 / a_1 under A1 where ``a1``."""
    ups = ybar.copy()
    with np.errstate(divide="ignore", invalid="ignore"):  # project_rows raises at a zero a_1
        ups[a1] -= a[a1] * (ybar[a1, :1] / a[a1, :1])
    return ups


def initialize_shifts(d_ac: np.ndarray, constants: np.ndarray, grid_size: int, config: FitConfig) -> np.ndarray:
    """Candidate shift vectors of F shift problems of one (J, m), from a cross-correlation scan.

    ``d_ac`` (F, J, 2m+1) and ``constants`` (F,) stack the problems' band coefficients, which must
    carry energy, and shift constants C.  For each curve j >= 2 the score |sum_l d_1l conj(d_jl)
    e^{-il*delta}| on ``grid_size`` offsets, by the DFT's cached twiddle table, peaks near the
    curve's true shift.  Its k = min(n_multistart, grid) highest peaks are kept: offsets s, taken
    circularly, with score_s > score_{s-1} and score_s >= score_{s+1}, each moved to the vertex of
    the parabola through those three scores, at most half a step off.  A curve with fewer peaks
    repeats its best; only a constant score has none, and keeps offset 0.  The candidates are every
    free curve at its best peak, then each curve's other peaks with the rest at their best:
    1 + (k-1)(J-1) rows, ranked by C - lambda_max(Q) in one eigenvalue call.  Returns (F, K, J):
    each problem's best K <= n_multistart shift vectors (theta_1 = 0), best first, bitwise those
    it gets alone.
    """
    j, m = d_ac.shape[1], d_ac.shape[2] // 2
    freqs = np.arange(-m, m + 1)
    k = min(config.n_multistart, grid_size)
    scores = np.abs((d_ac[:, :1] * np.conj(d_ac)) @ _twiddle_table(grid_size, m))[:, 1:]  # (F, J-1, grid)
    ring = np.concatenate([scores[:, :, -1:], scores, scores[:, :, :1]], axis=-1)  # offsets s-1, s, s+1 at s..s+2
    peaks = (scores > ring[:, :, :-2]) & (scores >= ring[:, :, 2:])
    by_score = np.argsort(-np.where(peaks, scores, -1.0), axis=-1, kind="stable")[:, :, :k]  # peaks first
    problem, free = np.arange(len(scores))[:, None, None], np.arange(j - 1)[:, None]  # an open grid over (F, J-1)
    top = np.where(peaks[problem, free, by_score], by_score, by_score[:, :, :1])  # padded with the best
    lower, mid, upper = ring[problem, free, top], ring[problem, free, top + 1], ring[problem, free, top + 2]
    curve = lower - 2 * mid + upper  # negative at a peak up to rounding, 0 for a constant score
    vertex = np.divide(0.5 * (lower - upper), curve, out=np.zeros(curve.shape), where=curve < 0)
    position = top + vertex.clip(-0.5, 0.5, out=vertex)
    # every free curve at its best peak, then each curve's other peaks in turn
    ranks = np.zeros((1 + (k - 1) * (j - 1), j - 1), dtype=int)
    ranks[np.arange(1, len(ranks)), np.repeat(np.arange(j - 1), k - 1)] = np.tile(np.arange(1, k), j - 1)
    combos = position[:, np.arange(j - 1), ranks]  # (F, 1 + (k-1)(J-1), J-1)

    thetas = np.zeros(combos.shape[:2] + (j,))
    thetas[:, :, 1:] = TWO_PI * combos / grid_size
    w = np.exp(1j * thetas[:, :, :, None] * freqs) * d_ac[:, None]
    q = (w @ w.conj().swapaxes(-1, -2)).real / j
    values = constants[:, None] - np.linalg.eigvalsh(q)[:, :, -1]
    order = np.argsort(values, axis=1, kind="stable")[:, : config.n_multistart]
    return thetas[np.arange(len(thetas))[:, None], order]


def _lockstep_newton(fun, x0: np.ndarray, config: FitConfig):
    """Modified Newton search from every row of ``x0`` (K, d) in lockstep, each row to its end.

    ``fun(x, rows, hessian)`` evaluates rows ``rows`` at ``x``.  The Newton step is -H~^-1 g, H~
    the Hessian with eigenvalues |lambda| floored at 1e-8 max(1, max|lambda|); a tie, a
    non-finite Hessian or an uphill step leaves a row with -g instead.  A row stops when
    max|g| <= 1e-15 max(1, |f|) or its budget is spent.  While the predicted gain -g.p exceeds
    ``tol_objective`` max(1, |f|), a backtracking Armijo search takes the step, and the row stops
    when no descent step is representable or when both step and gain drop below their
    tolerances.  Below it f cannot resolve progress: the row tries its full Newton step once
    and keeps it only if it shrinks max|g|, and stops otherwise or without a Newton step.
    Trials carry Hessians for the next round.  Returns, per row, x, the final evaluation
    (``fun``'s fields) and the iterations.
    """
    x = np.array(x0, dtype=float)
    ev = fun(x, np.arange(len(x)), True)
    iterations, live = np.zeros(len(x), dtype=int), np.arange(len(x))
    for _ in range(config.max_iters):  # rows live after the last round stop on their budget
        now = live if live.size < len(x) else slice(None)  # with every row live, views rather than copies
        iterations[now] += 1
        xl, fl, gl, hl, tl = x[now], ev.value[now], ev.grad[now], ev.hess[now], ev.tie_break[now]
        gnorm, scale = np.abs(gl).max(axis=1), np.fmax(1.0, np.abs(fl))
        flat = gnorm <= 1e-15 * scale  # stop: the gradient vanished to rounding
        if flat.any():
            live, xl, fl, gl, hl, tl, gnorm, scale = (a[~flat] for a in (live, xl, fl, gl, hl, tl, gnorm, scale))
        if not live.size:
            break
        curved = ~tl & np.isfinite(hl).all(axis=(1, 2))
        newton = curved if not curved.all() else slice(None)
        lam, vec = np.linalg.eigh(hl[newton])
        lam = np.abs(lam)
        lam = np.fmax(lam, 1e-8 * np.fmax(1.0, lam.max(axis=1, keepdims=True)))[:, :, None]
        direction = -(vec @ (vec.transpose(0, 2, 1) @ gl[newton][:, :, None] / lam))[:, :, 0]
        if newton is curved:  # the other rows take -g below
            direction, steps = np.full_like(gl, np.nan), direction
            direction[curved] = steps
        slope = rowdot(gl, direction)
        steepest = ~(slope < 0.0)
        if steepest.any():
            direction[steepest] = -gl[steepest]
            slope[steepest] = -rowdot(gl[steepest], gl[steepest])
        armijo = ~(-slope <= config.tol_objective * scale)
        search = [live, xl, fl, direction, slope, armijo, gnorm]  # rows still searching
        stalled = ~armijo & steepest  # stop: below the tolerance only a Newton step is tried
        if stalled.any():
            search = [a[~stalled] for a in search]
        survivors = np.zeros(len(x), dtype=bool)
        for step in _HALVINGS:  # stop: rows still searching after the last halving have no descent step
            rows, x_old, f_old, direction, slope, armijo, gnorm = search
            if not rows.size:
                break
            x_try = x_old + step * direction
            trial = fun(x_try, rows, True)
            ok = np.where(armijo, trial.value <= f_old + 1e-4 * step * slope,
                          np.abs(trial.grad).max(axis=1) < gnorm)
            everyone = ok.all()
            took = slice(None) if everyone else ok
            f_new = trial.value[took]  # the stop test reads x_old and f_old, which may view x and ev, before any write
            settled = armijo[took] & (np.abs(x_try[took] - x_old[took]).max(axis=1) <= config.tol_param) & (
                f_old[took] - f_new <= config.tol_objective * np.fmax(1.0, np.abs(f_new)))  # stop: both small
            target = rows[took]
            survivors[target[~settled]] = True
            if everyone and rows.size == len(x):  # every row took its trial: the trial is the new state as it is
                x, ev = x_try, trial
                break
            x[target] = x_try[took]
            for whole, part in zip(ev, trial):  # an accepted trial is the new state
                whole[target] = part[took]
            rejected = ~ok & ~armijo  # stop: the one Newton trial did not shrink max|g|
            retry = ~(ok | rejected)
            if not retry.any():
                break
            search = [a[retry] for a in search]
        live = np.flatnonzero(survivors)
    return x, ev, iterations


@dataclass
class FitResult:
    """Estimates plus optimizer diagnostics for one panel."""

    beta_hat: ParameterSet
    sigma_hat: float
    shape_hat: ShapeSpectrum
    objective: float
    iterations: int
    restarts: int
    converged: bool
    zero_noise: bool
    tie_break: bool
    n: int
    m: int

    @property
    def regime(self) -> ConstraintRegime:
        return self.beta_hat.regime


# Stacked estimates of F jobs, row f job f's: theta, a, upsilon (F, J); sigma (sqrt of an objective
# above the noise floor, else 0), objective (C - lambda_max(Q)), iterations, converged, tie_break (F,);
# the shape coefficients (F, 2m+1); and restarts, the search rows of every job.
Estimates = namedtuple("Estimates", "theta a upsilon sigma objective coeffs iterations converged tie_break restarts")


def fit_batch(jobs, config: FitConfig = FitConfig()) -> list[FitResult]:
    """Fit each ``(panel, regime)`` of ``jobs``: the bands of each (J, n)'s distinct panels in one
    :func:`model.band_stack` call, all before any fit, then each (J, n)'s jobs in one :func:`_fit_group`,
    whose rows do not interact, so each result is bitwise the one :func:`fit` gives."""
    groups: dict[tuple[int, int], list[int]] = {}
    for i, (panel, _) in enumerate(jobs):
        groups.setdefault((panel.n_curves, panel.grid.n), []).append(i)
    stacked = []
    for members in groups.values():
        distinct = {id(jobs[i][0]): jobs[i][0] for i in members}  # each panel once, in order
        row = dict(zip(distinct, range(len(distinct))))
        grid = jobs[members[0]][0].grid
        band = band_stack(np.stack([panel.y for panel in distinct.values()]), grid, config.resolve_m(grid.n))
        stacked.append((members, np.array([row[id(jobs[i][0])] for i in members]), band, grid.n))
    results = [None] * len(jobs)
    for members, rows, band, n in stacked:
        regimes = [jobs[i][1] for i in members]
        est = _fit_group(band, rows, np.array([regime.kind is Regime.A1 for regime in regimes]),
                         np.array([regime.upsilon_max for regime in regimes], dtype=float), n, config)
        m = band.d_ac.shape[2] // 2
        for f, (i, regime, sigma, objective, iterations) in enumerate(zip(
                members, regimes, est.sigma.tolist(), est.objective.tolist(), est.iterations.tolist())):
            results[i] = FitResult(
                beta_hat=ParameterSet(est.theta[f], est.a[f], est.upsilon[f], sigma, regime),
                sigma_hat=sigma, shape_hat=ShapeSpectrum(m=m, coeffs=est.coeffs[f]), objective=objective,
                iterations=iterations, restarts=est.restarts, converged=bool(est.converged[f]),
                zero_noise=sigma == 0.0 and not math.isnan(objective), tie_break=bool(est.tie_break[f]), n=n, m=m)
    return results


def fit(panel: CurvePanel, regime: ConstraintRegime, config: FitConfig = FitConfig()) -> FitResult:
    """Minimize the criterion over the regime's constraint set.

    Levels are profiled in closed form, scales by the leading eigenvector, and the free shifts
    searched by modified Newton from every cross-correlation candidate on the panel's profile
    f = spread - lambda_max(Q), which neither regime nor box changes; the best endpoint, wrapped into
    [0, 2*pi), is the estimate, and the scales are profiled there.  ``converged`` certifies a minimum
    of f from the search's last evaluation at the endpoint: finite estimates, max|g| <= 1e-8 *
    max(1, |f|) and a positive definite shift Hessian (waived at an eigenvalue tie); the best point is
    returned regardless.  The objective is C - lambda_max(Q) at the estimate, C the residual at the
    profiled levels (f unless a box binds), and the noise estimate its sqrt, or zero where it is at
    most :data:`NOISE_FLOOR` times the root of the spread times the mean square (``zero_noise``).
    """
    return fit_batch([(panel, regime)], config)[0]


def _fit_group(band: Band, rows: np.ndarray, a1: np.ndarray, bound: np.ndarray, n: int,
               config: FitConfig) -> Estimates:
    """Scan, search and assemble F jobs on the stacked band of P panels of one (J, n), each stage stacked.

    Job f fits panel ``rows[f]`` under A1 where ``a1[f]``, else within +-``bound[f]``; callers
    validate the estimates.  Each panel is one shift problem, spread - lambda_max(Q), scanned,
    searched, picked and certified once, in one search over every start of every panel.  Its best
    endpoint, wrapped by :func:`model.wrap_shifts` like every ranking key, is the estimate; lambda_max,
    the scales and the tie flag are the search's last evaluation there, or, where the wrap moved the
    endpoint, one Hessian-free kernel row's per panel.  :func:`model.project_rows` puts each job's
    estimates on its constraint set.  Regime and box reach only a job's levels and objective: its own
    :func:`shift_constants` minus that lambda_max.
    """
    require_energy(band.ac_trace, band.mean_sq)
    starts = initialize_shifts(band.d_ac, band.spread, config.theta_grid_size or n, config)
    count, per_problem, j = starts.shape
    owner = np.repeat(np.arange(count), per_problem)

    def kernel(xs, subset, hessian):
        return shift_objective_stack(band.d_ac, owner[subset], xs, band.spread[owner[subset]], hessian)

    x_end, ev, iters = _lockstep_newton(kernel, starts.reshape(-1, j)[:, 1:], config)
    wrapped = wrap_shifts(x_end)  # the ranking key and the estimate
    best = per_problem * np.arange(count) + _best_starts(
        ev.value.reshape(count, per_problem), wrapped.reshape(count, per_problem, j - 1), config.tol_objective)
    value, grad, hess, tie = ev.value[best], ev.grad[best], ev.hess[best], ev.tie_break[best]

    gnorm_ok = np.max(np.abs(grad), axis=1) <= 1e-8 * np.fmax(1.0, np.abs(value))
    certified = gnorm_ok & tie  # the shift Hessian is checked where there is no tie
    need = gnorm_ok & ~tie & np.isfinite(hess).all(axis=(1, 2))
    certified[need] = np.linalg.eigvalsh(hess[need])[:, 0] > 0.0
    moved = best[((x_end[best] < 0.0) | (x_end[best] >= TWO_PI)).any(axis=1)]  # endpoints the wrap moved
    if moved.size:  # profiled anew at their wrapped shifts, a row per panel
        profile = kernel(wrapped[moved], moved, False)
        ev.energy[moved], ev.lead[moved], ev.tie_break[moved] = profile.energy, profile.lead, profile.tie_break
    theta = np.concatenate([np.zeros((count, 1)), wrapped[best]], axis=1)
    theta, energy, lead, tie_break, certified, iterations = (  # each panel's to its jobs
        v[rows] for v in (theta, ev.energy[best], ev.lead[best], ev.tie_break[best], certified,
                          iters.reshape(count, per_problem).sum(axis=1)))

    ybar, spread = band.ybar[rows], band.spread[rows]
    a = np.sqrt(j) * lead  # the levels take the scales before their rescaling and sign flip
    theta, a, upsilon, _ = project_rows(theta, a, _profiled_levels(ybar, a1, a), a1, bound)
    objective = shift_constants(ybar, spread, a1, bound) - energy  # the kernel's value, bitwise, where C is the spread
    coeffs = criterion_stack(band.d_ac[rows], ybar, spread, a1, theta, a, upsilon)[1]
    finite = np.isfinite(np.hstack([theta, a[:, 1:], upsilon])).all(axis=1) & np.isfinite(objective)
    above = objective > NOISE_FLOOR * np.sqrt(spread * band.mean_sq[rows])  # False for a NaN objective too
    sigma = np.sqrt(np.where(above, objective, 0.0))
    return Estimates(theta, a, upsilon, sigma, objective, coeffs, iterations, finite & certified, tie_break,
                     per_problem)


def _best_starts(values: np.ndarray, wrapped: np.ndarray, tol: float) -> np.ndarray:
    """Each problem's best start (P,) from its K endpoint values (P, K) and wrapped shifts (P, K, J-1).

    The starts are walked in order, all problems at once: start k displaces the best
    so far if its value is less by more than ``tol``, or within ``tol`` and its wrapped
    shifts are less as a tuple, so the first of equals stays.
    """
    rows, best = np.arange(len(values)), np.zeros(len(values), dtype=int)
    for k in range(1, values.shape[1]):
        f, w, f_best, w_best = values[:, k], wrapped[:, k], values[rows, best], wrapped[rows, best]
        # tuple order: less at the first coordinate that differs, where NaN differs from everything
        less, differ = w < w_best, w != w_best
        lex_less = less[:, -1]
        for i in range(w.shape[1] - 2, -1, -1):
            lex_less = less[:, i] | (~differ[:, i] & lex_less)
        best[(f < f_best - tol) | ((np.abs(f - f_best) <= tol) & lex_less)] = k
    return best


def estimate_shape(result: FitResult, allow_unconverged: bool = False):
    """Return the fitted shape spectrum and a pointwise evaluator.

    The evaluator maps angles to shape values; under A0 the spectrum has
    no mean term, so the estimate integrates to zero over one period.
    """
    if not result.converged and not allow_unconverged:
        raise ConfigInvalid("fit did not converge; pass allow_unconverged=True to override")
    spec = result.shape_hat

    def evaluator(t):
        return evaluate_spectrum(spec, t)

    return spec, evaluator
