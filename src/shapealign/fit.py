"""Criterion minimization: profiling, multistart search, and the fitter.

Levels and scales have exact profiles (column means; leading eigenvector
of the cross-coefficient matrix Q), so the search runs only over the J-1
free shifts, where the criterion is C - lambda_max(Q).  One kernel,
:func:`criterion.profiled_shift_objective`, gives its value, gradient and
exact Hessian from a single eigendecomposition.  Candidate shifts come
from a cross-correlation grid scan whose combinations are ranked with one
stacked eigenvalue call.  Each candidate is refined by a BFGS descent
with backtracking line search; the best endpoint alone then gets a Newton
polish with the exact Hessian, which drives the gradient toward machine
zero in well-conditioned cases and certifies the minimum.
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


def _bfgs(fun_grad, x0, f0, g0, config: FitConfig):
    """BFGS with backtracking Armijo line search from (x0, f0, g0).

    Returns (x, f, iterations).  Stops when the gradient vanishes, when step
    and objective gain both drop below their tolerances, when no descent step
    is representable, or when the budget is spent; the fit certifies the end.
    """
    x = np.asarray(x0, dtype=float).copy()
    f, g = f0, g0
    dim = x.size
    h_inv = np.eye(dim)
    iterations = 0
    while iterations < config.max_iters:
        iterations += 1
        if np.max(np.abs(g)) <= 1e-14 * max(1.0, abs(f)):
            break
        direction = -h_inv @ g
        slope = float(g @ direction)
        if slope >= 0.0:
            h_inv = np.eye(dim)
            direction = -g
            slope = -float(g @ g)
        step = 1.0
        for _ in range(60):
            x_new = x + step * direction
            f_new, g_new = fun_grad(x_new)
            if f_new <= f + 1e-4 * step * slope:
                break
            step *= 0.5
        else:
            break  # descent direction exhausted at this precision
        s = x_new - x
        yv = g_new - g
        sy = float(s @ yv)
        if sy > 1e-12 * np.linalg.norm(s) * np.linalg.norm(yv):
            rho = 1.0 / sy
            v = np.eye(dim) - rho * np.outer(s, yv)
            h_inv = v @ h_inv @ v.T + rho * np.outer(s, s)
        gain = f - f_new
        x, f, g = x_new, f_new, g_new
        if np.max(np.abs(s)) <= config.tol_param and gain <= config.tol_objective * max(1.0, abs(f)):
            break
    return x, f, iterations


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
    m = config.resolve_m(panel.grid.n)
    ctx = CriterionContext(panel, m, regime)
    candidates = initialize_shifts(ctx, config)

    def fun_grad(x: np.ndarray) -> tuple[float, np.ndarray]:
        ev = profiled_shift_objective(ctx, x)
        return ev.value, ev.grad

    best = None  # (f, x, wrapped x)
    total_iters = 0
    start_profile = []
    for theta0 in candidates:
        x0 = theta0[1:]
        f0, g0 = fun_grad(x0)
        start_profile.append((tuple(np.round(theta0, 12)), f0))
        x, f, iters = _bfgs(fun_grad, x0, f0, g0, config)
        total_iters += iters
        wrapped = tuple(np.mod(x, TWO_PI))
        if (best is None or f < best[0] - config.tol_objective
                or (abs(f - best[0]) <= config.tol_objective and wrapped < best[2])):
            best = (f, x, wrapped)

    x_best, ev = _newton_polish(ctx, best[1])
    theta = np.mod(np.concatenate([[0.0], x_best]), TWO_PI)
    theta[theta >= TWO_PI] = 0.0
    amp = profile_amplitude(ctx, theta)
    ups = _profiled_levels(ctx, amp.a)
    params, _ = project_to_constraints(theta, amp.a, ups, regime, sigma=1.0)

    objective = criterion_value(ctx, params.theta, params.a, params.upsilon)
    zero_noise = objective <= 0.0
    sigma_hat = math.sqrt(objective) if objective > 0.0 else 0.0
    params = ParameterSet(
        theta=params.theta, a=params.a, upsilon=params.upsilon,
        sigma=sigma_hat, regime=regime,
    )

    converged = bool(
        np.all(np.isfinite(params.free_values())) and math.isfinite(objective)
        and np.max(np.abs(ev.grad)) <= 1e-8 * max(1.0, abs(ev.value))
        and (ev.tie_break or np.linalg.eigvalsh(ev.hess)[0] > 0.0)
    )

    shape = profiled_coefficients(ctx, params.theta, params.a)
    if regime.kind is Regime.A1:
        coeffs = shape.coeffs.copy()
        coeffs[shape.m] = profiled_mean(ctx, params.a, params.upsilon)
        shape = ShapeSpectrum(m=shape.m, coeffs=coeffs)

    return FitResult(
        beta_hat=params,
        sigma_hat=sigma_hat,
        shape_hat=shape,
        objective=objective,
        iterations=total_iters,
        restarts=len(candidates),
        converged=converged,
        zero_noise=zero_noise,
        tie_break=amp.tie_break,
        n=panel.grid.n,
        m=m,
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
