"""Independent reference implementations the tests compare against.

None of these is used by the package itself: each recomputes a quantity the
package computes another way (closed form, stacked eigenvalues, exact
derivatives), by the most direct route available.
"""

import math
from dataclasses import dataclass

import numpy as np

from shapealign.criterion import (
    CriterionContext,
    criterion_gradient,
    criterion_value,
    shift_objective_stack,
)
from shapealign.fit import FitConfig, _profiled_levels, _sphere_scales, fit
from shapealign.fourier import TWO_PI, ShapeSpectrum, make_grid
from shapealign.model import (
    ConstraintRegime,
    ParameterSet,
    Regime,
    generate_panel,
    reparameterize_to_a1,
)
from shapealign.montecarlo import StudyConfig, StudyReport, _aggregate, _summarize


def orthogonality_kernel(t: float, n: int) -> complex:
    """Normalized geometric sum (1/n) * sum_{s=1..n} e^{2*pi*i*s*t}.

    Equals 1 at integer ``t`` and vanishes at t = k/n for integer k not
    divisible by n; it is the reproducing kernel behind the exact
    orthogonality of the discrete Fourier basis on the grid.
    """
    s = np.arange(1, n + 1)
    return complex(np.exp(2j * np.pi * s * t).sum() / n)


def phase_weight(offsets, a, a_star) -> complex:
    """Amplitude-weighted phase average sum_j a_j a*_j e^{i x_j} / J.

    Bounded by 1 in modulus whenever both scale vectors lie on the sphere;
    equality at zero offsets is what pins the criterion's minimum to the
    true shifts.
    """
    offsets = np.asarray(offsets, dtype=float)
    a = np.asarray(a, dtype=float)
    a_star = np.asarray(a_star, dtype=float)
    return complex((a * a_star * np.exp(1j * offsets)).sum() / a.size)


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
    ctx.require_energy()
    # one row of the stacked kernel; only differences of shifts enter
    ev = shift_objective_stack(ctx.d_ac[None], [0], [theta[1:] - theta[0]], ctx.shift_constant)
    return AmplitudeProfile(a=_sphere_scales(ev.lead)[0], energy=float(ev.energy[0]),
                            tie_break=bool(ev.tie_break[0]))


def contrast_oracle(
    beta: ParameterSet,
    truth: ParameterSet,
    true_shape: ShapeSpectrum,
) -> float:
    """Deterministic limit of the criterion minus the noise floor.

    Equals  sum_{l != 0} |c_l|^2 (1 - |phase_weight(l(theta - theta*), a)|^2)
          + (1/J) sum_j (upsilon*_j - upsilon_j)^2,
    truncated to the true band; nonnegative, zero exactly at the truth.
    """
    total = 0.0
    for l in range(1, true_shape.m + 1):
        cl = true_shape.coeff(l)
        if cl == 0:
            continue
        w = phase_weight(l * (beta.theta - truth.theta), beta.a, truth.a)
        total += 2.0 * abs(cl) ** 2 * (1.0 - abs(w) ** 2)
    diff = truth.upsilon - beta.upsilon
    return total + float(diff @ diff) / truth.n_curves


def numeric_hessian(ctx: CriterionContext, params: ParameterSet, step: float = 1e-6) -> np.ndarray:
    """Central-difference Hessian of the criterion over the free coordinates.

    Differences the analytic gradient in the chart of
    :func:`criterion_gradient`; used to check positive definiteness at a
    minimum and to compare curvature against the information matrix.
    """
    free0 = params.free_values()
    dim = free0.size
    j = params.n_curves

    def assemble(free):
        theta = np.concatenate([[0.0], free[: j - 1]])
        a_tail = free[j - 1 : 2 * (j - 1)]
        lead = math.sqrt(max(j - float(a_tail @ a_tail), 0.0))
        a = np.concatenate([[lead], a_tail])
        ups_free = free[2 * (j - 1) :]
        if params.regime.kind is Regime.A0:
            ups = ups_free
        else:
            ups = np.concatenate([[0.0], ups_free])
        return criterion_gradient(ctx, theta, a, ups)

    hess = np.empty((dim, dim))
    for k in range(dim):
        e = np.zeros(dim)
        e[k] = step
        hess[:, k] = (assemble(free0 + e) - assemble(free0 - e)) / (2.0 * step)
    return 0.5 * (hess + hess.T)


def initialize_shifts_loop(ctx: CriterionContext, config: FitConfig) -> list[np.ndarray]:
    """Start candidates by one profile and one criterion call per candidate.

    Same scores, candidates and ranking rule as ``fit.initialize_shifts``:
    every free curve at its best scan offset, then, curve by curve, each of
    that curve's other top offsets with the rest at their best.  Here the
    candidates are built one at a time and each is ranked by its own scale
    profile and public criterion call.
    """
    j = ctx.n_curves
    grid_size = config.theta_grid_size or ctx.n
    deltas = TWO_PI * np.arange(grid_size) / grid_size
    cross = np.conj(ctx.d_ac[0])[None, :] * ctx.d_ac
    scores = np.abs(cross @ np.exp(1j * np.outer(ctx.freqs, deltas)))

    k = min(config.n_multistart, grid_size)
    per_curve = [np.argsort(-scores[c], kind="stable")[:k] for c in range(1, j)]
    best = [int(top[0]) for top in per_curve]
    combos = [best]
    for c, top in enumerate(per_curve):
        for idx in top[1:]:
            combos.append(best[:c] + [int(idx)] + best[c + 1:])

    ranked = []
    for combo in combos:
        theta = np.concatenate([[0.0], deltas[combo]])
        amp = profile_amplitude(ctx, theta)
        value = criterion_value(ctx, theta, amp.a, _profiled_levels(ctx, amp.a))
        ranked.append((value, theta))
    ranked.sort(key=lambda item: item[0])
    return [theta for _, theta in ranked[: config.n_multistart]]


def newton_per_start(fun, x0, config: FitConfig):
    """Modified Newton search from one start ``x0``, run to its end.

    One start at a time, with the stops and constants of the lockstep engine
    ``fit._lockstep_newton``, which must match it bit for bit.  ``fun(x)`` gives
    (value, gradient, Hessian, tie) at one point.  The Newton step solves the
    Hessian with each eigenvalue replaced by its modulus, floored at
    1e-8 max(1, max modulus); steepest descent replaces it at a tie, at a
    non-finite Hessian and where it is not downhill.  While the predicted gain
    exceeds ``tol_objective``, a backtracking Armijo search takes the step;
    below it only a full Newton step is tried, kept if it shrinks max|g|.
    Returns (x, f, iterations, f at x0).
    """
    x = np.asarray(x0, dtype=float).copy()
    f, g, hess, tie = fun(x)
    f0, iterations = f, 0
    while iterations < config.max_iters:
        iterations += 1
        gnorm = np.max(np.abs(g))
        if gnorm <= 1e-15 * max(1.0, abs(f)):
            break
        slope = math.nan
        if not tie and np.all(np.isfinite(hess)):
            lam, vec = np.linalg.eigh(hess)
            lam = np.abs(lam)
            lam = np.maximum(lam, 1e-8 * max(1.0, float(lam.max())))
            direction = -(vec @ ((vec.T @ g) / lam))
            slope = float(g @ direction)
        newton = slope < 0.0
        if not newton:
            direction = -g
            slope = -float(g @ g)
        if -slope <= config.tol_objective * max(1.0, abs(f)):
            # f cannot resolve the predicted gain: one full Newton step, kept if it shrinks max|g|
            if not newton:
                break
            x_new = x + direction
            f_new, g_new, h_new, tie_new = fun(x_new)
            if not np.max(np.abs(g_new)) < gnorm:
                break
            x, f, g, hess, tie = x_new, f_new, g_new, h_new, tie_new
            continue
        step = 1.0
        for _ in range(60):
            x_new = x + step * direction
            f_new, g_new, h_new, tie_new = fun(x_new)
            if f_new <= f + 1e-4 * step * slope:
                break
            step *= 0.5
        else:
            break  # descent direction exhausted at this precision
        s, gain = x_new - x, f - f_new
        x, f, g, hess, tie = x_new, f_new, g_new, h_new, tie_new
        if np.max(np.abs(s)) <= config.tol_param and gain <= config.tol_objective * max(1.0, abs(f)):
            break
    return x, f, iterations, f0


def run_study_per_regime(config: StudyConfig) -> StudyReport:
    """Study by one generate-then-fit loop per (grid size, regime) cell.

    Same seeds, fits and aggregation as ``montecarlo.run_study``, but every
    replicate panel is generated afresh for each regime, one cell at a time.
    """
    cells = []
    for n in config.n_list:
        for kind in config.regimes:
            regime = ConstraintRegime(kind=kind, upsilon_max=config.truth.regime.upsilon_max)
            summaries = []
            for r in range(config.replicates):
                panel = generate_panel(config.truth, config.shape, make_grid(n),
                                       config.base_seed + r)
                summaries.append(_summarize(fit(panel, regime, config.fit_config)))
            if kind is Regime.A0:
                ref_truth, ref_shape = config.truth, config.shape
            else:
                ref_truth, ref_shape = reparameterize_to_a1(config.truth, config.shape)
            cells.append(_aggregate(n, kind, ref_truth, ref_shape, summaries))
    return StudyReport(
        n_list=tuple(config.n_list),
        replicates=config.replicates,
        base_seed=config.base_seed,
        regimes=tuple(config.regimes),
        cells=cells,
    )
