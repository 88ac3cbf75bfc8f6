"""Criterion minimization: profiling, multistart search, and the fitter.

Levels and scales have exact profiles (column means; leading eigenvector
of the cross-coefficient matrix Q), so the search runs only over the J-1
free shifts, where the criterion is C - lambda_max(Q).  One kernel,
:func:`criterion.profiled_shift_objective`, gives its value, gradient and
exact Hessian from a single eigendecomposition.  Candidate shifts come
from a cross-correlation grid scan whose combinations are ranked with one
stacked eigenvalue call.  One lockstep BFGS search, a row per start,
refines the candidates of every fit in a batch (:func:`fit` is the batch of
one); each fit's best endpoint alone then gets a Newton polish with the
exact Hessian, which drives the gradient toward machine zero in
well-conditioned cases and certifies the minimum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .criterion import (
    CriterionContext,
    ShiftEvaluation,
    criterion_value,
    profiled_coefficients,
    profiled_mean,
    profiled_shift_objective,
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
        if self.tol_objective <= 0 or self.tol_param <= 0:
            raise ConfigInvalid("tolerances must be positive")

    def resolve_m(self, n: int) -> int:
        if self.m is not None:
            if 2 * self.m >= n:
                raise ConfigInvalid(f"2m < n violated: m={self.m}, n={n}")
            return self.m
        m = max(1, int(math.floor(n**self.m_exponent)))
        return min(m, (n - 1) // 2)


@dataclass
class AmplitudeProfile:
    """Exact scale profile at fixed shifts."""

    a: np.ndarray
    energy: float  # captured spectral energy sum_l |chat_l|^2 at the optimum
    tie_break: bool


def profile_amplitude(ctx: CriterionContext, theta) -> AmplitudeProfile:
    """Scales on the sphere sum a^2 = J minimizing the criterion at ``theta``.

    With Q[j,k] = Re sum_{1<=|l|<=m} d_jl conj(d_kl) e^{il(theta_j-theta_k)} / J,
    the captured energy on the sphere is a'Qa/J, so the optimum is sqrt(J)
    times the leading unit eigenvector of Q, sign-fixed to a positive first
    coordinate.

    Raises
    ------
    DegenerateSpectrum
        If Q carries no energy at all (constant curves).
    """
    theta = np.asarray(theta, dtype=float)
    ev = profiled_shift_objective(ctx, theta[1:] - theta[0])  # only differences enter
    lead = ev.lead
    nz = np.flatnonzero(lead)
    if nz.size and lead[nz[0]] < 0:
        lead = -lead
    return AmplitudeProfile(a=np.sqrt(ctx.n_curves) * lead, energy=ev.energy,
                            tie_break=ev.tie_break)


def _profiled_levels(ctx: CriterionContext, a: np.ndarray) -> np.ndarray:
    """Exact level profile given scales, regime-aware."""
    if ctx.regime.kind is Regime.A0:
        bound = ctx.regime.upsilon_max
        return np.clip(ctx.ybar, -bound, bound)
    ups = ctx.ybar - a * (ctx.ybar[0] / a[0])
    ups[0] = 0.0
    return ups


def initialize_shifts(ctx: CriterionContext, config: FitConfig) -> list[np.ndarray]:
    """Candidate shift vectors from a per-curve cross-correlation scan.

    For each curve j >= 2 the score |sum_l conj(d_1l) d_jl e^{il*delta}|
    peaks near the curve's true shift; the top grid offsets per curve are
    combined independently (at most 1024 combinations, by summed score) and
    the combinations re-ranked by the profiled criterion C - lambda_max(Q),
    all with one stacked eigenvalue call.  Returns the best ``n_multistart``
    shift vectors (theta_1 = 0), best first; raises DegenerateSpectrum if
    the band carries no energy at all (constant curves).
    """
    ctx.require_energy()
    j = ctx.n_curves
    grid_size = config.theta_grid_size or ctx.n
    deltas = TWO_PI * np.arange(grid_size) / grid_size
    cross = np.conj(ctx.d_ac[0])[None, :] * ctx.d_ac
    scores = np.abs(cross @ np.exp(1j * np.outer(ctx.freqs, deltas)))  # (J, grid)

    k = min(config.n_multistart, grid_size)
    per_curve = [np.argsort(-scores[c], kind="stable")[:k] for c in range(1, j)]
    # rows in itertools.product order: the first free curve varies slowest
    combos = np.stack(np.meshgrid(*per_curve, indexing="ij"), axis=-1).reshape(-1, j - 1)
    if len(combos) > 1024:
        weight = np.zeros(len(combos))
        for c in range(j - 1):
            weight += scores[c + 1, combos[:, c]]
        combos = combos[np.argsort(-weight, kind="stable")[:1024]]

    thetas = np.zeros((len(combos), j))
    thetas[:, 1:] = deltas[combos]
    w = np.exp(1j * thetas[:, :, None] * ctx.freqs) * ctx.d_ac
    q = (w @ w.conj().transpose(0, 2, 1)).real / j
    values = ctx.shift_constant - np.linalg.eigvalsh(q)[:, -1]
    order = np.argsort(values, kind="stable")[: config.n_multistart]
    return list(thetas[order])


def _rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise dot products by matmul: each row's bits are those of its 1-D ``a @ b``."""
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def _lockstep_bfgs(fun_grad, x0: np.ndarray, config: FitConfig):
    """BFGS with backtracking Armijo line search from every row of ``x0`` (K, d) in lockstep.

    ``fun_grad(x, rows)`` gives values and gradients of rows ``rows`` at ``x``.  A row
    stops when its gradient vanishes, when step and gain both drop below their
    tolerances, when no descent step is representable, or when the budget is spent;
    the fit certifies the end.  Returns (x, f, iterations, f at x0) per row.
    """
    x = np.array(x0, dtype=float)
    k, dim = x.shape
    f, g = fun_grad(x, np.arange(k))
    f_start, eye = f.copy(), np.eye(dim)
    h_inv = np.tile(eye, (k, 1, 1))
    iterations = np.zeros(k, dtype=int)
    live = np.arange(k)
    while live.size:
        live = live[iterations[live] < config.max_iters]
        iterations[live] += 1
        live = live[~(np.max(np.abs(g[live]), axis=1) <= 1e-14 * np.fmax(1.0, np.abs(f[live])))]
        gl = g[live]
        direction = (-h_inv[live] @ gl[:, :, None])[:, :, 0]
        slope = _rowdot(gl, direction)
        uphill = slope >= 0.0
        h_inv[live[uphill]] = eye
        direction[uphill] = -gl[uphill]
        slope[uphill] = -_rowdot(gl[uphill], gl[uphill])
        step = np.ones(live.size)
        x_new, f_new, g_new = np.empty_like(gl), np.empty(live.size), np.empty_like(gl)
        todo = np.arange(live.size)  # rows still searching
        for _ in range(60):
            if not todo.size:
                break
            x_new[todo] = x[live[todo]] + step[todo, None] * direction[todo]
            f_new[todo], g_new[todo] = fun_grad(x_new[todo], live[todo])
            todo = todo[~(f_new[todo] <= f[live[todo]] + 1e-4 * step[todo] * slope[todo])]
            step[todo] *= 0.5
        moved = np.isin(np.arange(live.size), todo, invert=True)  # todo: no descent step found
        live, x_new, f_new, g_new = live[moved], x_new[moved], f_new[moved], g_new[moved]
        s, yv = x_new - x[live], g_new - g[live]
        sy = _rowdot(s, yv)
        curved = sy > 1e-12 * np.sqrt(_rowdot(s, s)) * np.sqrt(_rowdot(yv, yv))
        rows, sc, rho = live[curved], s[curved], (1.0 / sy[curved])[:, None, None]
        v = eye - rho * (sc[:, :, None] * yv[curved][:, None, :])
        h_inv[rows] = v @ h_inv[rows] @ v.transpose(0, 2, 1) + rho * (sc[:, :, None] * sc[:, None, :])
        gain = f[live] - f_new
        x[live], f[live], g[live] = x_new, f_new, g_new
        live = live[~((np.max(np.abs(s), axis=1) <= config.tol_param)
                      & (gain <= config.tol_objective * np.fmax(1.0, np.abs(f_new))))]
    return x, f, iterations, f_start


def _newton_polish(ctx: CriterionContext, x, rounds: int = 8) -> tuple[np.ndarray, ShiftEvaluation]:
    """Damped Newton refinement with the exact shift Hessian.

    Steps are accepted only while they shrink the gradient's max norm.  Spends at
    most ``rounds`` Hessians; returns the final free shifts and their evaluation.
    """
    for r in range(rounds):
        ev = profiled_shift_objective(ctx, x, hessian=True)
        gnorm = np.max(np.abs(ev.grad))
        if r == rounds - 1 or ev.hess is None or gnorm <= 1e-15 * max(1.0, abs(ev.value)):
            break
        try:
            step = np.linalg.solve(ev.hess, -ev.grad)
        except np.linalg.LinAlgError:
            break
        if not np.all(np.isfinite(step)):
            break
        t = 1.0
        for _ in range(20):
            x_try = x + t * step
            if np.max(np.abs(profiled_shift_objective(ctx, x_try).grad)) < gnorm:
                x = x_try
                break
            t *= 0.5
        else:
            break
    return x, ev


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
    """Fit each ``(panel, regime)`` of ``jobs``, every start of the jobs of one (J, m) in one search.

    Rows of the stacked kernel do not interact, so each result is bitwise the
    one :func:`fit` gives for that job alone.
    """
    contexts = [CriterionContext(panel, config.resolve_m(panel.grid.n), regime)
                for panel, regime in jobs]
    starts = [initialize_shifts(ctx, config) for ctx in contexts]
    groups: dict[tuple[int, int], list[int]] = {}
    for i, ctx in enumerate(contexts):
        groups.setdefault((ctx.n_curves, ctx.m), []).append(i)
    searches = [None] * len(contexts)
    for members in groups.values():
        counts = [len(starts[i]) for i in members]
        d_ac = np.stack([contexts[i].d_ac for i in members])
        owner = np.repeat(np.arange(len(members)), counts)
        constant = np.array([contexts[i].shift_constant for i in members])[owner]
        x0 = np.vstack([theta0[1:] for i in members for theta0 in starts[i]])
        search = _lockstep_bfgs(
            lambda xs, rows: shift_objective_stack(d_ac, owner[rows], xs, constant[rows])[:2],
            x0, config)
        for i, *rows in zip(members, *(np.split(a, np.cumsum(counts)[:-1]) for a in search)):
            searches[i] = rows
    return [_finish(ctx, cands, *search, config)
            for ctx, cands, search in zip(contexts, starts, searches)]


def fit(panel: CurvePanel, regime: ConstraintRegime, config: FitConfig = FitConfig()) -> FitResult:
    """Minimize the criterion over the regime's constraint set.

    Levels are profiled in closed form, scales by the leading eigenvector, the
    free shifts searched from every cross-correlation candidate, and the best
    endpoint Newton-polished.  ``converged`` certifies a minimum: finite
    estimates, max|g| <= 1e-8 * max(1, |f|) and a positive definite shift
    Hessian (waived at an eigenvalue tie); the best point is returned
    regardless.  The noise estimate is sqrt of the objective at the minimum,
    floored at zero (``zero_noise`` marks the floor binding).
    """
    return fit_batch([(panel, regime)], config)[0]


def _finish(ctx: CriterionContext, candidates, x_end, f_end, iters, f_start,
            config: FitConfig) -> FitResult:
    """Polish the best search endpoint of one job and assemble its result."""
    best = None  # (f, x, wrapped x), first best in start order
    for x, f in zip(x_end, f_end):
        wrapped = tuple(np.mod(x, TWO_PI))
        if (best is None or f < best[0] - config.tol_objective
                or (abs(f - best[0]) <= config.tol_objective and wrapped < best[2])):
            best = (f, x, wrapped)
    start_profile = [(tuple(np.round(theta0, 12)), float(f0))
                     for theta0, f0 in zip(candidates, f_start)]

    x_best, ev = _newton_polish(ctx, best[1])
    theta = np.mod(np.concatenate([[0.0], x_best]), TWO_PI)
    theta[theta >= TWO_PI] = 0.0
    amp = profile_amplitude(ctx, theta)
    ups = _profiled_levels(ctx, amp.a)
    params, _ = project_to_constraints(theta, amp.a, ups, ctx.regime, sigma=1.0)

    objective = criterion_value(ctx, params.theta, params.a, params.upsilon)
    zero_noise = objective <= 0.0
    sigma_hat = math.sqrt(objective) if objective > 0.0 else 0.0
    params = ParameterSet(
        theta=params.theta, a=params.a, upsilon=params.upsilon,
        sigma=sigma_hat, regime=ctx.regime,
    )

    converged = bool(
        np.all(np.isfinite(params.free_values())) and math.isfinite(objective)
        and np.max(np.abs(ev.grad)) <= 1e-8 * max(1.0, abs(ev.value))
        and (ev.tie_break or np.linalg.eigvalsh(ev.hess)[0] > 0.0)
    )

    shape = profiled_coefficients(ctx, params.theta, params.a)
    if ctx.regime.kind is Regime.A1:
        coeffs = shape.coeffs.copy()
        coeffs[shape.m] = profiled_mean(ctx, params.a, params.upsilon)
        shape = ShapeSpectrum(m=shape.m, coeffs=coeffs)

    return FitResult(
        beta_hat=params,
        sigma_hat=sigma_hat,
        shape_hat=shape,
        objective=objective,
        iterations=int(iters.sum()),
        restarts=len(candidates),
        converged=converged,
        zero_noise=zero_noise,
        tie_break=amp.tie_break,
        n=ctx.n,
        m=ctx.m,
        start_profile=start_profile,
    )


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
