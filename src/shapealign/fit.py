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
estimates, whose ``converged`` certificate reads the search's last
evaluation of each fit's best row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .criterion import (
    CriterionContext,
    criterion_stack,
    rowdot,
    shift_objective_stack,
)
from .errors import ConfigInvalid
from .fourier import TWO_PI, ShapeSpectrum, evaluate_spectrum
from .model import (
    ConstraintRegime,
    CurvePanel,
    ParameterSet,
    Regime,
    project_to_constraints,
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


def _profiled_levels(ctx: CriterionContext, a: np.ndarray) -> np.ndarray:
    """Exact level profile given scales, regime-aware."""
    if ctx.regime.kind is Regime.A0:
        bound = ctx.regime.upsilon_max
        return np.clip(ctx.ybar, -bound, bound)
    ups = ctx.ybar - a * (ctx.ybar[0] / a[0])
    ups[0] = 0.0
    return ups


def initialize_shifts(contexts, d_ac: np.ndarray, constants: np.ndarray, config: FitConfig) -> np.ndarray:
    """Candidate shift vectors of F contexts of one (J, m) and scan grid, from a cross-correlation scan.

    ``d_ac`` (F, J, 2m+1) and ``constants`` (F,) stack their band coefficients and shift
    constants C.  For each curve j >= 2 the score |sum_l conj(d_1l) d_jl e^{il*delta}|
    peaks near the curve's true shift; k = min(n_multistart, grid) top grid offsets are
    kept per curve.  The candidates are every free curve at its best offset, then, curve
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
    cross = np.conj(d_ac[:, :1]) * d_ac
    scores = np.abs(cross @ np.exp(1j * np.outer(freqs, deltas)))  # (F, J, grid)

    top = np.argsort(-scores[:, 1:], axis=-1, kind="stable")[:, :, :k]
    # every free curve at its best offset, then each curve's other offsets in turn
    ranks = np.vstack([np.zeros((1, j - 1), dtype=int),
                       np.kron(np.eye(j - 1, dtype=int), np.arange(1, k)[:, None])])
    combos = top[:, np.arange(j - 1), ranks]  # (F, 1 + (k-1)(J-1), J-1)

    thetas = np.zeros(combos.shape[:2] + (j,))
    thetas[:, :, 1:] = deltas[combos]
    w = np.exp(1j * thetas[:, :, :, None] * freqs) * d_ac[:, None]
    q = (w @ w.conj().swapaxes(-1, -2)).real / j
    values = constants[:, None] - np.linalg.eigvalsh(q)[:, :, -1]
    order = np.argsort(values, axis=1, kind="stable")[:, : config.n_multistart]
    return np.take_along_axis(thetas, order[:, :, None], axis=1)


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
    (``fun``'s fields), the iterations and f at x0.
    """
    x = np.array(x0, dtype=float)
    ev = fun(x, np.arange(len(x)), True)
    f, g, hess, tie = ev.value, ev.grad, ev.hess, ev.tie_break  # updated in place with ``ev``
    f_start, iterations, live = f.copy(), np.zeros(len(x), dtype=int), np.arange(len(x))
    while live.size:
        live = live[iterations[live] < config.max_iters]
        iterations[live] += 1
        gnorm, scale = np.max(np.abs(g[live]), axis=1), np.fmax(1.0, np.abs(f[live]))
        keep = ~(gnorm <= 1e-15 * scale)
        live, gnorm, scale = live[keep], gnorm[keep], scale[keep]
        gl, direction = g[live], np.full_like(g[live], np.nan)
        curved = ~tie[live] & np.isfinite(hess[live]).all(axis=(1, 2))
        lam, vec = np.linalg.eigh(hess[live[curved]])
        lam = np.fmax(np.abs(lam), 1e-8 * np.fmax(1.0, np.abs(lam).max(axis=1, keepdims=True)))[:, :, None]
        direction[curved] = -(vec @ (vec.transpose(0, 2, 1) @ gl[curved][:, :, None] / lam))[:, :, 0]
        slope = rowdot(gl, direction)
        steepest = ~(slope < 0.0)
        direction[steepest] = -gl[steepest]
        slope[steepest] = -rowdot(gl[steepest], gl[steepest])
        armijo = ~(-slope <= config.tol_objective * scale)
        keep = armijo | ~steepest  # below the tolerance only a Newton step is tried
        live, gnorm, direction, slope, armijo = (a[keep] for a in (live, gnorm, direction, slope, armijo))
        x_old, f_old, todo = x[live], f[live], np.arange(live.size)  # todo: rows still searching
        moved = np.zeros(live.size, dtype=bool)
        for step in 0.5 ** np.arange(60):
            if not todo.size:
                break
            x_try = x_old[todo] + step * direction[todo]
            trial = fun(x_try, live[todo], True)
            ok = np.where(armijo[todo], trial.value <= f_old[todo] + 1e-4 * step * slope[todo],
                          np.max(np.abs(trial.grad), axis=1) < gnorm[todo])
            x[live[todo[ok]]] = x_try[ok]
            for whole, part in zip(ev, trial):  # an accepted trial is the new state
                whole[live[todo[ok]]] = part[ok]
            moved[todo[ok]] = True
            todo = todo[~ok & armijo[todo]]  # a Newton trial below the tolerance is made once
        live, x_old, f_old, armijo = live[moved], x_old[moved], f_old[moved], armijo[moved]
        s, gain = x[live] - x_old, f_old - f[live]
        live = live[~(armijo & (np.max(np.abs(s), axis=1) <= config.tol_param)
                      & (gain <= config.tol_objective * np.fmax(1.0, np.abs(f[live]))))]
    return x, ev, iterations, f_start


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
    start_profile: list[tuple[tuple[float, ...], float]] = field(default_factory=list)

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

    One search runs every start of every job; each job keeps its best row, and its
    certificate reads that row's final evaluation, so no kernel call follows but the
    assembly's.
    """
    d_ac = np.stack([ctx.d_ac for ctx in contexts])
    constants = np.array([ctx.shift_constant for ctx in contexts])
    starts = initialize_shifts(contexts, d_ac, constants, config)
    jobs, per_job, j = starts.shape
    starts = starts.reshape(jobs * per_job, j)
    bounds, owner = per_job * np.arange(jobs + 1), np.repeat(np.arange(jobs), per_job)

    def kernel(xs, rows, hessian):
        return shift_objective_stack(d_ac, owner[rows], xs, constants[owner[rows]], hessian)

    x_end, ev, iters, f_start = _lockstep_newton(kernel, starts[:, 1:], config)
    wrapped = np.mod(x_end, TWO_PI)
    best = [lo + _first_best(ev.value[lo:hi], wrapped[lo:hi], config.tol_objective)
            for lo, hi in zip(bounds[:-1], bounds[1:])]
    value, grad, hess, tie = ev.value[best], ev.grad[best], ev.hess[best], ev.tie_break[best]

    theta = np.mod(np.concatenate([np.zeros((jobs, 1)), x_end[best]], axis=1), TWO_PI)
    theta[theta >= TWO_PI] = 0.0
    profile = shift_objective_stack(d_ac, np.arange(jobs), theta[:, 1:], constants)
    projected = [project_to_constraints(th, a, _profiled_levels(ctx, a), ctx.regime, sigma=1.0)[0]
                 for ctx, th, a in zip(contexts, theta, _sphere_scales(profile.lead))]
    objective, coeffs = criterion_stack(contexts, *(np.array([getattr(p, name) for p in projected])
                                                   for name in ("theta", "a", "upsilon")))
    gnorm_ok = np.max(np.abs(grad), axis=1) <= 1e-8 * np.fmax(1.0, np.abs(value))
    certified = gnorm_ok & tie  # the shift Hessian is checked where there is no tie
    need = gnorm_ok & ~tie & np.isfinite(hess).all(axis=(1, 2))
    certified[need] = np.linalg.eigvalsh(hess[need])[:, 0] > 0.0
    rounded, results = np.round(starts, 12), []
    for f, (ctx, params) in enumerate(zip(contexts, projected)):
        lo, hi, obj = bounds[f], bounds[f + 1], float(objective[f])
        sigma_hat = math.sqrt(obj) if obj > 0.0 else 0.0
        params = ParameterSet(
            theta=params.theta, a=params.a, upsilon=params.upsilon,
            sigma=sigma_hat, regime=ctx.regime,
        )
        results.append(FitResult(
            beta_hat=params,
            sigma_hat=sigma_hat,
            shape_hat=ShapeSpectrum(m=ctx.m, coeffs=coeffs[f]),
            objective=obj,
            iterations=int(iters[lo:hi].sum()),
            restarts=per_job,
            converged=bool(np.all(np.isfinite(params.free_values())) and math.isfinite(obj)
                           and certified[f]),
            zero_noise=obj <= 0.0,
            tie_break=bool(profile.tie_break[f]),
            n=ctx.n,
            m=ctx.m,
            start_profile=[(tuple(theta0), float(f0))
                           for theta0, f0 in zip(rounded[lo:hi], f_start[lo:hi])],
        ))
    return results


def _first_best(f_end: np.ndarray, wrapped: np.ndarray, tol: float) -> int:
    """Index of the best endpoint: least value beyond ``tol``, then least wrapped shifts."""
    best = 0  # the first of equals in start order
    for k in range(1, len(f_end)):
        if (f_end[k] < f_end[best] - tol
                or (abs(f_end[k] - f_end[best]) <= tol and tuple(wrapped[k]) < tuple(wrapped[best]))):
            best = k
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
