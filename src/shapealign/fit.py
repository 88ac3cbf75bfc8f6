"""Criterion minimization: profiling, multistart search, and the fitter.

Levels and scales have exact profiles (column means; leading eigenvector
of the cross-coefficient matrix Q), so the search runs only over the J-1
free shifts, where the criterion is C - lambda_max(Q).  One stacked kernel,
:func:`criterion.shift_objective_stack`, gives its value, gradient and
exact Hessian at many rows of shifts, one eigendecomposition per row.
:func:`fit_batch` fits a batch per (J, m) group (:func:`fit` is the batch
of one), each stage in stacked calls whose rows do not interact: a
cross-correlation grid scan whose start candidates, linear in J, are
ranked with one eigenvalue call; one lockstep modified-Newton search with
the exact Hessian, a row per start, which runs each row until its gradient
vanishes to rounding or no step can shrink it; and the assembly of the
estimates, whose scales, tie flag and ``converged`` certificate read the
search's last evaluation of each fit's best row.  The regime enters the
shift criterion only through C, so jobs of one panel with bitwise-equal C
(A0 and A1 unless the A0 box binds) are one shift problem: scanned,
searched, picked and certified once, with only the levels and estimates
formed per job.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .criterion import (
    CriterionContext,
    criterion_stack,
    rowdot,
    shift_objective_stack,
)
from .errors import ConfigInvalid, ZeroReferenceAmplitude
from .fourier import TWO_PI, ShapeSpectrum, _twiddle_table, evaluate_spectrum
from .model import (
    ConstraintRegime,
    CurvePanel,
    ParameterSet,
    Regime,
)


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
        if not (self.tol_objective > 0 and self.tol_param > 0):  # NaN fails too
            raise ConfigInvalid("tolerances must be positive")

    def resolve_m(self, n: int) -> int:
        if self.m is not None:
            if 2 * self.m >= n:
                raise ConfigInvalid(f"2m < n violated: m={self.m}, n={n}")
            return self.m
        m = max(1, int(math.floor(n**self.m_exponent)))
        return min(m, (n - 1) // 2)


def _sphere_scales(lead: np.ndarray) -> np.ndarray:
    """Rows of unit eigenvectors (K, J) as scales on the sphere, first nonzero coordinate positive."""
    first = np.take_along_axis(lead, np.argmax(lead != 0, axis=1)[:, None], axis=1)
    return np.sqrt(lead.shape[1]) * np.where(first < 0, -lead, lead)


def _profiled_levels(contexts, a: np.ndarray) -> np.ndarray:
    """Exact level profiles (F, J) of F contexts given their scales (F, J), regime-aware per row."""
    ybar = np.array([ctx.ybar for ctx in contexts])
    bound = np.array([[ctx.regime.upsilon_max] for ctx in contexts])
    a1 = np.array([ctx.regime.kind is Regime.A1 for ctx in contexts])
    ups = np.clip(ybar, -bound, bound)
    ups[a1] = ybar[a1] - a[a1] * (ybar[a1, :1] / a[a1, :1])
    ups[a1, 0] = 0.0
    return ups


def initialize_shifts(contexts, d_ac: np.ndarray, constants: np.ndarray, config: FitConfig) -> np.ndarray:
    """Candidate shift vectors of F contexts of one (J, m) and scan grid, from a cross-correlation scan.

    ``d_ac`` (F, J, 2m+1) and ``constants`` (F,) stack their band coefficients and shift
    constants C.  For each curve j >= 2 the score |sum_l d_1l conj(d_jl) e^{-il*delta}|, the
    modulus of sum_l conj(d_1l) d_jl e^{il*delta} on the DFT's cached twiddle table, peaks
    near the curve's true shift; k = min(n_multistart, grid) top grid offsets are kept per
    curve.  The candidates are every free curve at its best offset, then, curve
    by curve, each of that curve's other offsets with the rest at their best:
    1 + (k-1)(J-1) rows, linear in J.  All are ranked by C - lambda_max(Q) with one score
    matmul, one stable argsort per row and one eigenvalue call.  Returns (F, K, J): each
    context's best K <= n_multistart shift vectors (theta_1 = 0), best first, bitwise
    those it gets alone; raises DegenerateSpectrum if a band carries no energy.
    """
    for ctx in contexts:
        ctx.require_energy()
    j, freqs = contexts[0].n_curves, contexts[0].freqs
    grid_size = config.theta_grid_size or contexts[0].n
    k = min(config.n_multistart, grid_size)
    deltas = TWO_PI * np.arange(grid_size) / grid_size
    scores = np.abs((d_ac[:, :1] * np.conj(d_ac)) @ _twiddle_table(grid_size, contexts[0].m))  # (F, J, grid)

    top = np.argsort(-scores[:, 1:], axis=-1, kind="stable")[:, :, :k]
    # every free curve at its best offset, then each curve's other offsets in turn
    ranks = np.zeros((1 + (k - 1) * (j - 1), j - 1), dtype=int)
    ranks[np.arange(1, len(ranks)), np.repeat(np.arange(j - 1), k - 1)] = np.tile(np.arange(1, k), j - 1)
    combos = top[:, np.arange(j - 1), ranks]  # (F, 1 + (k-1)(J-1), J-1)

    thetas = np.zeros(combos.shape[:2] + (j,))
    thetas[:, :, 1:] = deltas[combos]
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
    f, g, hess, tie = ev.value, ev.grad, ev.hess, ev.tie_break  # updated in place with ``ev``
    iterations, live = np.zeros(len(x), dtype=int), np.arange(len(x))
    halvings = 0.5 ** np.arange(60)  # the line search's step lengths
    for _ in range(config.max_iters):  # rows live after the last round stop on their budget
        iterations[live] += 1
        xl, fl, gl, hl = x[live], f[live], g[live], hess[live]
        gnorm, scale = np.abs(gl).max(axis=1), np.fmax(1.0, np.abs(fl))
        flat = gnorm <= 1e-15 * scale  # stop: the gradient vanished to rounding
        keep = ~flat if flat.any() else slice(None)  # a slice gathers nothing
        live, xl, fl, gl, hl, gnorm, scale = (a[keep] for a in (live, xl, fl, gl, hl, gnorm, scale))
        if not live.size:
            break
        curved = ~tie[live] & np.isfinite(hl).all(axis=(1, 2))
        newton = curved if not curved.all() else slice(None)
        lam, vec = np.linalg.eigh(hl[newton])
        lam = np.fmax(np.abs(lam), 1e-8 * np.fmax(1.0, np.abs(lam).max(axis=1, keepdims=True)))[:, :, None]
        direction = np.full_like(gl, np.nan)
        direction[newton] = -(vec @ (vec.transpose(0, 2, 1) @ gl[newton][:, :, None] / lam))[:, :, 0]
        slope = rowdot(gl, direction)
        steepest = ~(slope < 0.0)
        if steepest.any():
            direction[steepest] = -gl[steepest]
            slope[steepest] = -rowdot(gl[steepest], gl[steepest])
        armijo = ~(-slope <= config.tol_objective * scale)
        stalled = ~armijo & steepest  # stop: below the tolerance only a Newton step is tried
        keep = ~stalled if stalled.any() else slice(None)
        search = [a[keep] for a in (live, xl, fl, direction, slope, armijo, gnorm)]  # rows still searching
        survivors = np.zeros(len(x), dtype=bool)
        for step in halvings:  # stop: rows still searching after the last halving have no descent step
            rows, x_old, f_old, direction, slope, armijo, gnorm = search
            if not rows.size:
                break
            x_try = x_old + step * direction
            trial = fun(x_try, rows, True)
            ok = np.where(armijo, trial.value <= f_old + 1e-4 * step * slope,
                          np.abs(trial.grad).max(axis=1) < gnorm)
            took = ok if not ok.all() else slice(None)
            target, f_new = rows[took], trial.value[took]
            x[target] = x_try[took]
            for whole, part in zip(ev, trial):  # an accepted trial is the new state
                whole[target] = part[took]
            settled = armijo[took] & (np.abs(x_try[took] - x_old[took]).max(axis=1) <= config.tol_param) & (
                f_old[took] - f_new <= config.tol_objective * np.fmax(1.0, np.abs(f_new)))  # stop: both small
            survivors[target[~settled]] = True
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


def fit_batch(jobs, config: FitConfig = FitConfig()) -> list[FitResult]:
    """Fit each ``(panel, regime)`` of ``jobs``, every stage stacked over the jobs of one (J, m).

    Jobs that share J, m and the scan grid are scanned, searched and assembled
    together in stacked calls whose rows do not interact, so each result is bitwise the
    one :func:`fit` gives for that job alone.
    """
    contexts = [CriterionContext(panel, config.resolve_m(panel.grid.n), regime)
                for panel, regime in jobs]
    groups: dict[tuple[int, int, int], list[int]] = {}
    for i, ctx in enumerate(contexts):
        groups.setdefault((ctx.n_curves, ctx.m, config.theta_grid_size or ctx.n), []).append(i)
    results = [None] * len(contexts)
    for members in groups.values():
        for i, result in zip(members, _fit_group([contexts[i] for i in members], config)):
            results[i] = result
    return results


def fit(panel: CurvePanel, regime: ConstraintRegime, config: FitConfig = FitConfig()) -> FitResult:
    """Minimize the criterion over the regime's constraint set.

    Levels are profiled in closed form, scales by the leading eigenvector, and
    the free shifts searched by modified Newton from every cross-correlation
    candidate; the best endpoint is the estimate.  ``converged`` certifies a
    minimum from the search's last evaluation there: finite estimates,
    max|g| <= 1e-8 * max(1, |f|) and a positive definite shift Hessian
    (waived at an eigenvalue tie); the best point is returned regardless.
    The noise estimate is sqrt of the objective at the minimum, floored at
    zero (``zero_noise`` marks the floor binding).
    """
    return fit_batch([(panel, regime)], config)[0]


def _fit_group(contexts, config: FitConfig) -> list[FitResult]:
    """Scan, search and assemble jobs of one (J, m) and scan grid, each stage stacked.

    Jobs whose contexts share one coefficient array and, bit for bit, one shift
    constant pose one shift problem: one panel under A1 and under A0 with a level box
    that does not bind.  The scan, the search, the best-endpoint pick, the profile and
    the certificate run once per problem; only the levels, the rescaled scales, the
    criterion and the result run once per job.  One search runs every start of every
    problem; each problem keeps its best row, whose final evaluation gives the
    certificate and, where wrapping its shifts into [0, 2*pi) leaves their bits alone,
    the scale profile and tie flag.  Rows whose wrap changed a bit are profiled again,
    in one kernel call; when no row wrapped, no kernel call follows the search.
    """
    problems, index, of = [], {}, []
    for ctx in contexts:
        key = (id(ctx.d_ac), ctx.shift_constant.hex())
        if key not in index:
            index[key] = len(problems)
            problems.append(ctx)
        of.append(index[key])
    of = np.array(of) if len(problems) < len(contexts) else slice(None)  # a slice gathers nothing
    d_ac = np.stack([ctx.d_ac for ctx in problems])
    constants = np.array([ctx.shift_constant for ctx in problems])
    starts = initialize_shifts(problems, d_ac, constants, config)
    count, per_problem, j = starts.shape
    owner = np.repeat(np.arange(count), per_problem)

    def kernel(xs, rows, hessian):
        return shift_objective_stack(d_ac, owner[rows], xs, constants[owner[rows]], hessian)

    x_end, ev, iters = _lockstep_newton(kernel, starts.reshape(-1, j)[:, 1:], config)
    best = per_problem * np.arange(count) + _best_starts(
        ev.value.reshape(count, per_problem), np.mod(x_end, TWO_PI).reshape(count, per_problem, j - 1),
        config.tol_objective)
    value, grad, hess, tie = ev.value[best], ev.grad[best], ev.hess[best], ev.tie_break[best]

    x_best = x_end[best]
    theta = np.mod(np.concatenate([np.zeros((count, 1)), x_best], axis=1), TWO_PI)
    theta[theta >= TWO_PI] = 0.0
    # the profile at the wrapped shifts is the search's last evaluation, unless the wrap changed bits
    lead, tie_break = ev.lead[best], tie.copy()
    moved = (theta[:, 1:].view(np.int64) != x_best.view(np.int64)).any(axis=1)
    if moved.any():
        profile = shift_objective_stack(d_ac, np.flatnonzero(moved), theta[moved, 1:], constants[moved])
        lead[moved], tie_break[moved] = profile.lead, profile.tie_break
    # project_to_constraints row-wise, levels from the scales before their rescaling; the
    # sign rule of _sphere_scales already leaves a_1 >= 0, so no row needs a flip
    a = _sphere_scales(lead)
    if np.any(a[:, 0] == 0.0):
        raise ZeroReferenceAmplitude("reference amplitude is zero after rescaling")
    gnorm_ok = np.max(np.abs(grad), axis=1) <= 1e-8 * np.fmax(1.0, np.abs(value))
    certified = gnorm_ok & tie  # the shift Hessian is checked where there is no tie
    need = gnorm_ok & ~tie & np.isfinite(hess).all(axis=(1, 2))
    certified[need] = np.linalg.eigvalsh(hess[need])[:, 0] > 0.0
    iterations = iters.reshape(count, per_problem).sum(axis=1)[of].tolist()
    theta, a, certified, tie_break = theta[of], a[of], certified[of], tie_break[of]

    upsilon = _profiled_levels(contexts, a)
    ssq = rowdot(a, a)
    a = np.where((np.abs(ssq - j) > 1e-12 * j)[:, None], a * np.sqrt(j / ssq)[:, None], a)
    objective, coeffs = criterion_stack(contexts, theta, a, upsilon)
    finite = np.isfinite(np.hstack([theta, a[:, 1:], upsilon])).all(axis=1) & np.isfinite(objective)
    results = []
    for f, (ctx, obj) in enumerate(zip(contexts, objective.tolist())):
        sigma_hat = math.sqrt(obj) if obj > 0.0 else 0.0
        results.append(FitResult(
            beta_hat=ParameterSet(theta=theta[f], a=a[f], upsilon=upsilon[f], sigma=sigma_hat, regime=ctx.regime),
            sigma_hat=sigma_hat,
            shape_hat=ShapeSpectrum(m=ctx.m, coeffs=coeffs[f]),
            objective=obj,
            iterations=iterations[f],
            restarts=per_problem,
            converged=bool(finite[f] and certified[f]),
            zero_noise=obj <= 0.0,
            tie_break=bool(tie_break[f]),
            n=ctx.n,
            m=ctx.m,
        ))
    return results


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
