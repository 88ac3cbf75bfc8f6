"""Independent reference implementations the tests compare against.

None of these is used by the package itself: each recomputes a quantity the
package computes another way (closed form, stacked eigenvalues, exact
derivatives), by the most direct route available.
"""

import csv
import io
import math
from dataclasses import dataclass
from itertools import repeat
from json.encoder import encode_basestring, encode_basestring_ascii

import numpy as np

from shapealign.criterion import (
    criterion_gradient,
    criterion_stack,
    criterion_value,
    require_energy,
    shift_constants,
    shift_objective_stack,
)
from shapealign.errors import ConfigInvalid, ConstraintViolation, GridMismatch, ParseError, RaggedColumns
from shapealign.fit import (
    NOISE_FLOOR,
    Estimates,
    FitConfig,
    _best_starts,
    _lockstep_newton,
    _profiled_levels,
    fit,
    initialize_shifts,
)
from shapealign.fourier import TWO_PI, ShapeSpectrum, _twiddle_table, evaluate_shifted_on_grid, make_grid
from shapealign.inference import (
    ConfidenceReport,
    ParameterInterval,
    a1_covariance,
    efficiency_blocks,
    scaled_covariance,
)
from shapealign.io import _integer, _number, _object, _require
from shapealign.model import (
    Band,
    ConstraintRegime,
    CurvePanel,
    ParameterSet,
    Regime,
    free_parameter_labels,
    project_rows,
    reparameterize_to_a1,
    wrap_shifts,
)
from shapealign.montecarlo import (
    _MAX_FAILURE_FRACTION,
    _QUANTILES,
    StudyCell,
    StudyConfig,
    StudyReport,
    _aggregate,
    _circular_errors,
    _Fits,
)
from shapealign.normal import _A, _B, _C, _D, _E, _F, inverse_normal_cdf


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


def profile_amplitude(band: Band, theta) -> AmplitudeProfile:
    """Scales on the sphere sum a^2 = J minimizing the criterion of one panel's band at ``theta``.

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
    require_energy(band.ac_trace, band.mean_sq)
    # one row of the stacked kernel; only differences of shifts enter
    ev = shift_objective_stack(band.d_ac[None], [0], [theta[1:] - theta[0]], band.spread)
    lead = ev.lead[0]
    first = lead[np.flatnonzero(lead)[0]]  # the first nonzero coordinate
    return AmplitudeProfile(a=np.sqrt(lead.size) * (-lead if first < 0 else lead), energy=float(ev.energy[0]),
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


def numeric_hessian(band: Band, params: ParameterSet, step: float = 1e-6) -> np.ndarray:
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
        return criterion_gradient(band, params.regime, theta, a, ups)

    hess = np.empty((dim, dim))
    for k in range(dim):
        e = np.zeros(dim)
        e[k] = step
        hess[:, k] = (assemble(free0 + e) - assemble(free0 - e)) / (2.0 * step)
    return 0.5 * (hess + hess.T)


def scan_scores(band: Band, grid_size: int) -> list[list[float]]:
    """Each free curve's start-scan score on ``grid_size`` offsets, as the scan forms it for this
    one problem (the product's last bits depend on how BLAS blocks it)."""
    m = band.d_ac.shape[1] // 2
    return np.abs((band.d_ac[:1] * np.conj(band.d_ac)) @ _twiddle_table(grid_size, m))[1:].tolist()


def score_peaks(row: list[float]) -> list[int]:
    """Offsets s of a circular score with row[s] > row[s-1] and row[s] >= row[s+1], in offset order."""
    return [s for s in range(len(row)) if row[s] > row[s - 1] and row[s] >= row[(s + 1) % len(row)]]


def initialize_shifts_loop(band: Band, regime: ConstraintRegime, n: int, config: FitConfig) -> list[np.ndarray]:
    """Start candidates of one panel's band on n points, one curve's peaks at a time, one criterion call a candidate.

    Same scores, peak rule, candidates and ranking rule as ``fit.initialize_shifts``:
    each free curve keeps its k highest peaks, each moved to its parabola vertex within
    half a step, padded with its best peak, or its best offset if it has none; then
    every free curve at its best peak, then, curve by curve, each of that curve's other
    peaks with the rest at their best.  Here the peaks, their vertices and the
    candidates are found in plain Python, and each candidate is ranked by its own
    scale profile and public criterion call.
    """
    grid_size = config.theta_grid_size or n
    k = min(config.n_multistart, grid_size)
    per_curve = []
    for row in scan_scores(band, grid_size):
        positions = []
        for s in sorted(score_peaks(row), key=lambda s: -row[s])[:k]:  # stable: equal peaks by offset
            lower, mid, upper = row[s - 1], row[s], row[(s + 1) % grid_size]
            curve = lower - 2 * mid + upper
            vertex = 0.5 * (lower - upper) / curve if curve < 0 else 0.0
            positions.append(s + min(max(vertex, -0.5), 0.5))
        if not positions:
            positions = [max(range(grid_size), key=lambda s: row[s])]  # the first best offset
        per_curve.append(positions + positions[:1] * (k - len(positions)))
    best = [positions[0] for positions in per_curve]
    combos = [best]
    for c, positions in enumerate(per_curve):
        for position in positions[1:]:
            combos.append(best[:c] + [position] + best[c + 1:])

    ranked = []
    for combo in combos:
        theta = np.array([0.0] + [TWO_PI * position / grid_size for position in combo])
        amp = profile_amplitude(band, theta)
        value = criterion_value(band, regime, theta, amp.a, band_levels(band, regime, amp.a))
        ranked.append((value, theta))
    ranked.sort(key=lambda item: item[0])
    return [theta for _, theta in ranked[: config.n_multistart]]


def band_levels(band: Band, regime: ConstraintRegime, a) -> np.ndarray:
    """The fitter's profiled levels of one panel's band under ``regime`` at scales ``a``: the means,
    clipped to the A0 box, or less a_j ybar_1 / a_1 with the reference level zeroed under A1."""
    if regime.kind is Regime.A0:
        return np.clip(band.ybar, -regime.upsilon_max, regime.upsilon_max)
    a = np.asarray(a, dtype=float)
    levels = band.ybar - a * (band.ybar[0] / a[0])
    levels[0] = 0.0
    return levels


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


def first_best(f_end: np.ndarray, wrapped: np.ndarray, tol: float) -> int:
    """Index of one fit's best endpoint, one start at a time: least value beyond ``tol``, then least wrapped shifts.

    The first of equals in start order wins; the wrapped shifts compare as Python tuples.
    """
    best = 0
    for k in range(1, len(f_end)):
        if (f_end[k] < f_end[best] - tol
                or (abs(f_end[k] - f_end[best]) <= tol and tuple(wrapped[k]) < tuple(wrapped[best]))):
            best = k
    return best


def fit_group_every_row(band: Band, rows: np.ndarray, a1: np.ndarray, bound: np.ndarray, n: int,
                        config: FitConfig) -> Estimates:
    """``fit._fit_group`` with every padded start searched, the copies of a start too.

    Same scan, search, pick and assembly, but the search runs all K rows of every problem, so
    a start that repeats an earlier one is searched again; ``_fit_group``, which searches each
    distinct start once, must give the same estimates and raise the same errors, bit for bit.
    """
    require_energy(band.ac_trace, band.mean_sq)
    starts = initialize_shifts(band.d_ac, band.spread, config.theta_grid_size or n, config)
    count, per_problem, j = starts.shape
    owner = np.repeat(np.arange(count), per_problem)

    def kernel(xs, subset, hessian):
        return shift_objective_stack(band.d_ac, owner[subset], xs, band.spread[owner[subset]], hessian)

    x_end, ev, iters = _lockstep_newton(kernel, starts.reshape(-1, j)[:, 1:], config)
    wrapped = wrap_shifts(x_end)
    best = per_problem * np.arange(count) + _best_starts(
        ev.value.reshape(count, per_problem), wrapped.reshape(count, per_problem, j - 1), config.tol_objective)
    value, grad, hess, tie = ev.value[best], ev.grad[best], ev.hess[best], ev.tie_break[best]

    gnorm_ok = np.max(np.abs(grad), axis=1) <= 1e-8 * np.fmax(1.0, np.abs(value))
    certified = gnorm_ok & tie
    need = gnorm_ok & ~tie & np.isfinite(hess).all(axis=(1, 2))
    certified[need] = np.linalg.eigvalsh(hess[need])[:, 0] > 0.0
    moved = best[((x_end[best] < 0.0) | (x_end[best] >= TWO_PI)).any(axis=1)]
    if moved.size:
        profile = kernel(wrapped[moved], moved, False)
        ev.energy[moved], ev.lead[moved], ev.tie_break[moved] = profile.energy, profile.lead, profile.tie_break
    theta = np.concatenate([np.zeros((count, 1)), wrapped[best]], axis=1)
    theta, energy, lead, tie_break, certified, iterations = (
        v[rows] for v in (theta, ev.energy[best], ev.lead[best], ev.tie_break[best], certified,
                          iters.reshape(count, per_problem).sum(axis=1)))

    ybar, spread = band.ybar[rows], band.spread[rows]
    a = np.sqrt(j) * lead
    theta, a, upsilon, _ = project_rows(theta, a, _profiled_levels(ybar, a1, a), a1, bound)
    objective = shift_constants(ybar, spread, a1, bound) - energy
    coeffs = criterion_stack(band.d_ac[rows], ybar, spread, a1, theta, a, upsilon)[1]
    finite = np.isfinite(np.hstack([theta, a[:, 1:], upsilon])).all(axis=1) & np.isfinite(objective)
    above = objective > NOISE_FLOOR * np.sqrt(spread * band.mean_sq[rows])
    sigma = np.sqrt(np.where(above, objective, 0.0))
    return Estimates(theta, a, upsilon, sigma, objective, coeffs, iterations, finite & certified, tie_break,
                     per_problem)


def _poly_by_copies(coeffs: np.ndarray, x: np.ndarray) -> np.ndarray:
    out = np.full_like(x, coeffs[-1])
    for c in coeffs[-2::-1]:
        out = out * x + c
    return out


def inverse_normal_cdf_by_mask(p):
    """Wichura's quantile with each branch on its own boolean-indexed values, a new array a Horner step.

    Same coefficients and operations as ``normal.inverse_normal_cdf``, which runs the central
    branch on every value in place and must match it bit for bit on (0, 1); here a NaN is not
    rejected and maps to NaN.
    """
    p_arr = np.asarray(p, dtype=float)
    if np.any((p_arr <= 0.0) | (p_arr >= 1.0)):
        raise ValueError("quantile argument must lie strictly in (0, 1)")
    q = p_arr - 0.5
    z = np.empty_like(p_arr)

    central = np.abs(q) <= 0.425
    if np.any(central):
        r = 0.180625 - q[central] ** 2
        z[central] = q[central] * _poly_by_copies(_A, r) / _poly_by_copies(_B, r)

    tails = ~central
    if np.any(tails):
        r = np.sqrt(-np.log(np.minimum(p_arr[tails], 1.0 - p_arr[tails])))
        near = r <= 5.0
        val = np.empty_like(r)
        if near.any():
            val[near] = _poly_by_copies(_C, r[near] - 1.6) / _poly_by_copies(_D, r[near] - 1.6)
        if not near.all():
            far = ~near
            val[far] = _poly_by_copies(_E, r[far] - 5.0) / _poly_by_copies(_F, r[far] - 5.0)
        z[tails] = np.sign(q[tails]) * val

    return float(z) if np.isscalar(p) or p_arr.ndim == 0 else z


def seeded_normals_per_seed(seeds, size: int) -> np.ndarray:
    """Rows (len(seeds), size) of N(0, 1) draws, a new ``Philox(key=seed)`` a seed, mapped as
    ``normal.seeded_normals`` maps them and through :func:`inverse_normal_cdf_by_mask`."""
    words = np.array([np.random.Philox(key=int(seed)).random_raw(size) for seed in seeds], dtype=np.uint64)
    u = ((words.reshape(len(seeds), size) >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53
    return inverse_normal_cdf_by_mask(u)


def generate_panel_per_seed(truth: ParameterSet, shape: ShapeSpectrum, grid, seed: int) -> CurvePanel:
    """One synthetic panel by its own curve evaluation, Philox draw and quantile call.

    The noise is the seed's Philox stream drawn through ``Generator.integers``
    over the full 64-bit range, mapped to u = ((w >> 11) + 0.5) * 2^-53 and
    through :func:`inverse_normal_cdf_by_mask`, as ``model.generate_panels`` must give it bit for bit.
    """
    truth.validate()
    if 2 * shape.m >= grid.n:
        raise ConstraintViolation(f"shape band {shape.m} violates 2*m < n for n={grid.n}")
    c0 = shape.c0
    ac = shape.centered() if c0 != 0.0 else shape
    base = evaluate_shifted_on_grid(ac, grid, truth.theta)
    level = truth.upsilon + truth.a * c0
    y = truth.a[:, None] * base + level[:, None]
    if truth.sigma > 0:
        gen = np.random.Generator(np.random.Philox(key=int(seed)))
        words = gen.integers(0, 2**64, size=y.size, dtype=np.uint64)
        u = ((words >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53
        y += truth.sigma * inverse_normal_cdf_by_mask(u).reshape(y.shape)
    return CurvePanel(grid=grid, y=y)


def run_study_per_regime(config: StudyConfig) -> StudyReport:
    """Study by one generate-then-fit loop per (grid size, regime) cell.

    Same seeds, fits and aggregation as ``montecarlo.run_study``, but every
    replicate panel is generated afresh, by :func:`generate_panel_per_seed`,
    for each regime, one cell at a time.
    """
    cells = []
    for n in config.n_list:
        for kind in config.regimes:
            regime = ConstraintRegime(kind=kind, upsilon_max=config.truth.regime.upsilon_max)
            results = []
            for r in range(config.replicates):
                panel = generate_panel_per_seed(config.truth, config.shape, make_grid(n),
                                                config.base_seed + r)
                results.append(fit(panel, regime, config.fit_config))
            if kind is Regime.A0:
                ref_truth, ref_shape = config.truth, config.shape
            else:
                ref_truth, ref_shape = reparameterize_to_a1(config.truth, config.shape)
            fits = _Fits(free=np.array([res.beta_hat.free_values() for res in results]),
                         converged=np.array([res.converged for res in results]),
                         sigma=np.array([res.sigma_hat for res in results]),
                         coeffs=np.array([res.shape_hat.coeffs for res in results]))
            cells.append(_aggregate(n, kind, ref_truth, ref_shape, fits))
    return StudyReport(
        n_list=tuple(config.n_list),
        replicates=config.replicates,
        base_seed=config.base_seed,
        regimes=tuple(config.regimes),
        cells=cells,
    )


def read_panel_cells(path: str) -> CurvePanel:
    """Panel CSV parsed cell by cell: each cell stripped, checked and converted on its own.

    Same file rules, errors and messages as ``io.read_panel``, which parses the body in
    one pass and must match this bit for bit; labels are kept verbatim here as there.
    Every file goes through ``csv``: text that is not UTF-8 fails at its byte offset in
    the file, and a ``csv.Error``, such as a cell beyond ``csv.field_size_limit()``, is
    a ParseError.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path} is not valid UTF-8: {exc}") from exc
    if text.startswith("\ufeff"):
        text = text[1:]
    try:
        rows = list(csv.reader(io.StringIO(text, newline="")))
    except csv.Error as exc:
        raise ParseError(f"{path} is not valid CSV: {exc}") from exc
    if not rows:
        raise ParseError("empty file", line=1)
    header = rows[0]
    width = len(header)
    if width < 2:
        raise ParseError("need at least two columns", line=1)
    has_time = header[0].strip() == "t"
    if width - (1 if has_time else 0) < 2:
        raise ParseError("need at least two curve columns", line=1)
    data = []
    for line_no, row in enumerate(rows[1:], start=2):
        if not row:
            raise ParseError("blank line inside table", line=line_no)
        if len(row) != width:
            raise RaggedColumns(f"line {line_no}: {len(row)} cells, expected {width}")
        values = []
        for col_no, cell in enumerate(row, start=1):
            cell = cell.strip()
            if cell == "":
                raise ParseError("missing cell", line=line_no, column=col_no)
            try:
                values.append(float(cell))
            except ValueError as exc:
                raise ParseError(f"bad number {cell!r}", line=line_no, column=col_no) from exc
            if not math.isfinite(values[-1]):
                raise ParseError(f"non-finite number {cell!r}", line=line_no, column=col_no)
        data.append(values)
    n = len(data)
    if n < 3:
        raise GridMismatch(f"need at least 3 rows, got {n}")
    if n % 2 == 0:
        raise GridMismatch("n must be odd")
    table = np.asarray(data, dtype=float)
    grid = make_grid(n)
    if not has_time:
        return CurvePanel(grid=grid, y=table.T, labels=header)
    defect = float(np.max(np.abs(table[:, 0] - grid.points)))
    if defect > 1e-9:
        raise GridMismatch(f"time column deviates from the equidistant grid by {defect:.3e}")
    return CurvePanel(grid=grid, y=table[:, 1:].T, labels=header[1:])


def parse_shape_entries(node) -> ShapeSpectrum:
    """A study config's shape parsed one entry at a time: each l, re and im checked and converted on its own.

    Same rules, errors and messages as ``io._parse_shape``, which reads the entries as columns and
    must match this bit for bit: the band m is given or the largest |l|, every entry is checked
    before the 2m+1 coefficients are allocated, a bad entry raises at the first failing check of
    the first bad entry, and a frequency given on one side only gets its conjugate pair.
    """
    entries = _require(_object(node, "shape"), "coeffs", "shape")
    if not isinstance(entries, list) or not entries:
        raise ConfigInvalid("shape.coeffs must be a nonempty list")
    if not all(isinstance(e, dict) for e in entries):
        raise ConfigInvalid("shape.coeffs entries must be JSON objects")
    m = node.get("m")
    if m is None:
        m = max(abs(_integer(e.get("l", 0), "shape.coeffs.l")) for e in entries)
    m = _integer(m, "shape.m")
    if m < 1:
        raise ConfigInvalid("shape band must be >= 1")
    given = {}
    for entry in entries:
        l = _integer(_require(entry, "l", "shape.coeffs entry"), "shape.coeffs.l")
        c = complex(_number(_require(entry, "re", "shape.coeffs entry"), "shape.coeffs.re"),
                    _number(entry.get("im", 0.0), "shape.coeffs.im"))
        if abs(l) > m:
            raise ConfigInvalid(f"shape frequency {l} outside band {m}")
        if l in given:
            raise ConfigInvalid(f"duplicate shape frequency {l}")
        given[l] = c
    coeffs = np.zeros(2 * m + 1, dtype=complex)
    for l, c in given.items():
        coeffs[l + m] = c
    for l in range(1, m + 1):
        has_pos, has_neg = l in given, -l in given
        if has_pos and not has_neg:
            coeffs[m - l] = np.conj(coeffs[m + l])
        elif has_neg and not has_pos:
            coeffs[m + l] = np.conj(coeffs[m - l])
    spec = ShapeSpectrum(m=m, coeffs=coeffs)
    if sum(map(math.hypot, coeffs.real.tolist(), coeffs.imag.tolist())) == math.inf:  # one magnitude at a time
        raise ConfigInvalid("shape coefficient magnitudes must have a finite sum")
    if spec.hermitian_defect() > 1e-9 * max(1.0, float(np.abs(coeffs).sum())):
        raise ConfigInvalid("shape coefficients are not conjugate-symmetric")
    if abs(coeffs[m].imag) > 0:
        raise ConfigInvalid("mean coefficient must be real")
    return spec


def _render_scalar(value) -> str:
    if isinstance(value, (float, np.floating)):
        v = float(value)
        if math.isnan(v) or math.isinf(v):
            return "null"
        if v == 0.0:
            v = 0.0  # "-0" would re-parse as the integer 0
        return format(v, ".17g")
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, str):
        return encode_basestring(value)
    raise TypeError(f"cannot serialize {type(value).__name__}")


def _is_scalar(value) -> bool:
    return isinstance(value, (float, bool, int, str, np.integer, np.floating)) or value is None


def dumps_canonical_recursive(doc) -> str:
    """Canonical JSON text by one recursive emit over the document, one scalar at a time.

    Same text as ``io.dumps_canonical``, which renders a list of Python floats in one join and
    must match this for every document: 17 significant digits, nan and inf as null, -0.0 as 0,
    keys ASCII-escaped, strings kept as UTF-8, a list of scalars on one line, any other
    container one item a line, two spaces a level, and the same TypeError for anything else.
    """
    pieces: list[str] = []

    def emit(value, depth):
        pad = "  " * depth
        if _is_scalar(value):
            pieces.append(_render_scalar(value))
        elif isinstance(value, dict):
            if not value:
                pieces.append("{}")
                return
            pieces.append("{\n")
            for i, (key, item) in enumerate(value.items()):
                pieces.append(f"{pad}  {encode_basestring_ascii(str(key))}: ")
                emit(item, depth + 1)
                pieces.append(",\n" if i < len(value) - 1 else "\n")
            pieces.append(pad + "}")
        elif isinstance(value, (list, tuple, np.ndarray)):
            items = list(value)
            if not items:
                pieces.append("[]")
                return
            if all(_is_scalar(v) for v in items):
                pieces.append("[" + ", ".join(_render_scalar(v) for v in items) + "]")
                return
            pieces.append("[\n")
            for i, item in enumerate(items):
                pieces.append(pad + "  ")
                emit(item, depth + 1)
                pieces.append(",\n" if i < len(items) - 1 else "\n")
            pieces.append(pad + "]")
        else:
            raise TypeError(f"cannot serialize {type(value).__name__}")

    emit(doc, 0)
    pieces.append("\n")
    return "".join(pieces)


def dumps_canonical_by_isinstance(doc) -> str:
    """Canonical JSON text with every value dispatched by isinstance checks, scalars first.

    Same text as ``io.dumps_canonical``, which looks the usual scalars up by their exact type and
    must match this for every document, error type and message included.  As there, a list of
    Python floats is rendered with one ``format`` call a value and one join, any other list of
    scalars one scalar at a time, and any other container one item a line.
    """

    def render_floats(values):
        texts = list(map(float.__format__, values, repeat(".17g")))
        return ", ".join("null" if t in ("nan", "inf", "-inf") else "0" if t == "-0" else t for t in texts)

    def emit(value, pad):
        if _is_scalar(value):
            return _render_scalar(value)
        inner = pad + "  "
        if isinstance(value, dict):
            if not value:
                return "{}"
            return ("{\n" + ",\n".join(f"{inner}{encode_basestring_ascii(str(key))}: {emit(item, inner)}"
                                      for key, item in value.items()) + "\n" + pad + "}")
        if isinstance(value, (list, tuple, np.ndarray)):
            items = value if type(value) is list else list(value)
            if not items:
                return "[]"
            if set(map(type, items)) == {float}:
                return "[" + render_floats(items) + "]"
            if all(map(_is_scalar, items)):
                return "[" + ", ".join(map(_render_scalar, items)) + "]"
            return "[\n" + ",\n".join(inner + emit(item, inner) for item in items) + "\n" + pad + "]"
        raise TypeError(f"cannot serialize {type(value).__name__}")

    return emit(doc, "") + "\n"


def confidence_intervals_per_parameter(result, level: float) -> ConfidenceReport:
    """``inference.confidence_intervals`` one parameter at a time: the quantile from
    ``inverse_normal_cdf`` on each call, each half-width from its own variance, and each shift
    interval wrapped on its own (the whole circle from a half-width of pi).

    ``inference.confidence_intervals``, which works on whole columns, must match it bit for bit,
    and reject a level whose quantile argument 0.5 * (1 + level) rounds to 1 as this does.
    """
    if not 0.5 * (1.0 + level) < 1.0:
        raise ConfigInvalid(f"confidence level must lie strictly in (0, 1) with 0.5 * (1 + level) < 1, got {level!r}")
    params = result.beta_hat
    cov = scaled_covariance(params.a, result.shape_hat, result.sigma_hat, params.regime.kind) / result.n
    z = float(inverse_normal_cdf(0.5 * (1.0 + level)))
    labels = free_parameter_labels(params.n_curves, params.regime)
    intervals = []
    for idx, (name, est) in enumerate(zip(labels, params.free_values())):
        hw = z * float(np.sqrt(max(cov[idx, idx], 0.0)))
        circular = name.startswith("theta")
        lo, hi = est - hw, est + hw
        if circular:
            lo, hi = (0.0, TWO_PI) if hw >= np.pi else wrap_shifts([lo, hi]).tolist()
        intervals.append(ParameterInterval(name, float(est), hw, lo, hi, circular))
    return ConfidenceReport(level=level, intervals=intervals, covariance=cov, labels=labels,
                            zero_noise=result.sigma_hat == 0.0)


def aggregate_cell(n, regime_kind, ref_truth, ref_shape, fits: _Fits) -> StudyCell:
    """One study cell by numpy's own ``quantile`` and ``cov`` and the regime's covariance blocks.

    Same aggregates as ``montecarlo._aggregate``, which must match this bit for bit: the theory
    covariance is sigma^2 H^{-1} from ``efficiency_blocks`` under A0 and sigma^2 Gamma from
    ``a1_covariance`` under A1, and the in-band shape error takes the truth's c_l one frequency
    at a time.
    """
    truth_free = ref_truth.free_values()
    estimates = fits.free[fits.converged]
    kept = len(estimates)
    failures = len(fits.converged) - kept
    errors = _circular_errors(estimates, truth_free, ref_truth.n_curves - 1)
    nan = np.full((truth_free.size, truth_free.size), np.nan)
    emp_cov = np.atleast_2d(np.cov(np.sqrt(n) * errors, rowvar=False, ddof=1)) if kept >= 2 else nan
    if regime_kind is Regime.A0:
        theory = ref_truth.sigma**2 * efficiency_blocks(ref_truth.a, ref_shape, ref_truth.sigma).h_inv
    else:
        theory = ref_truth.sigma**2 * a1_covariance(ref_truth.a, ref_shape, ref_truth.sigma).gamma
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(np.abs(theory) > 1e-12, emp_cov / theory, np.nan)

    coeffs = fits.coeffs[fits.converged]
    if kept:
        m_fit = coeffs.shape[1] // 2
        target = np.array([ref_shape.coeff(l) for l in range(-m_fit, m_fit + 1)])
        err = np.abs(coeffs - target) ** 2
        if regime_kind is not Regime.A1:
            err[:, m_fit] = 0.0
        mise_inband = float(np.mean(err.sum(axis=1)))
        mise_tail = float(2.0 * np.sum(np.abs(ref_shape.coeffs[ref_shape.m + m_fit + 1:]) ** 2))
    else:
        mise_inband = mise_tail = float("nan")
    quantiles = (np.quantile(estimates, _QUANTILES, axis=0) if kept
                 else np.full((len(_QUANTILES), truth_free.size), np.nan))
    return StudyCell(
        n=n,
        regime=regime_kind,
        labels=free_parameter_labels(ref_truth.n_curves, ref_truth.regime),
        truth_free=truth_free,
        bias=errors.mean(axis=0) if kept else np.full(truth_free.size, np.nan),
        empirical_covariance=emp_cov,
        theory_covariance=theory,
        ratios=ratios,
        mise_inband=mise_inband,
        mise_tail=mise_tail,
        quantiles=quantiles,
        sigma_mean=float(np.mean(fits.sigma[fits.converged])) if kept else float("nan"),
        failures=failures,
        replicates=len(fits.converged),
        invalid=failures > _MAX_FAILURE_FRACTION * len(fits.converged),
    )
