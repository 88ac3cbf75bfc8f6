"""Replication studies: consistency, covariance calibration, regime contrast.

Each replicate's panel is generated once, from one truth and a derived seed (base seed plus
replicate index), and fitted under every requested regime; the fits aggregate into deterministic
summaries: mean bias, the empirical covariance of sqrt(n)-scaled errors against its closed-form
target, shape-estimator integrated squared error, and boxplot-style quantiles.  A study splits its
replicates into contiguous seed ranges, one per worker of a process pool that gets at least
_FITS_PER_WORKER fits a worker, at most SHAPEALIGN_THREADS workers (unset: 1, 0: one per CPU) and
never more than the usable CPUs; below two workers the one range runs in this process.  Each range
is walked in blocks of at most _BLOCK_VALUES panel values, so a run holds one block's panels at a
time.  A block's panels of one grid size are drawn as one (seeds, J, n) array and kept stacked from
their bands to the estimates: one fit group, one lockstep search over every start of each panel's
one shift problem (which all its regimes share, whatever the A0 box), one validation pass.  Stacked
panels and fits equal lone ones bit for bit and the blocks join in replicate order, so neither the
block size nor parallelism can change any result.
"""

from __future__ import annotations

import os
from collections import namedtuple
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConfigInvalid
from .fit import FitConfig, _fit_group
from .fourier import ShapeSpectrum, make_grid
from .inference import a1_covariance, scaled_covariance
from .model import (
    ParameterSet,
    Regime,
    band_stack,
    free_columns,
    free_parameter_labels,
    generate_panels,
    reparameterize_to_a1,
    validate_rows,
)

_QUANTILES = (0.025, 0.25, 0.5, 0.75, 0.975)
_MAX_FAILURE_FRACTION = 0.05
# The largest grid a study draws panels on, and the largest twiddle table its fits build, in
# entries: the DFT table of the default band there, 63 x (10^6 + 1) complex numbers, about 1 GB.
# A larger n_list entry, or a fit band and scan grid whose table is larger, is a config error,
# raised before anything of its size is allocated.
_MAX_GRID = 10**6 + 1
_MAX_TABLE = (2 * FitConfig().resolve_m(_MAX_GRID) + 1) * _MAX_GRID
# The most replicates a study may ask for, checked before any seed is drawn.  A run holds one block of
# panels at a time, so the count grows only its time and the per-fit outputs the aggregates read: at
# this count a serial figure-2 study (J=2, n=201, two regimes) takes about 12 s and 170 MB.
_MAX_REPLICATES = 10**5
# Panel values (seeds x J x the largest grid size) a block of replicates draws, bands and fits at once.
_BLOCK_VALUES = 2**18


# Fits a worker needs before forking it and shipping its blocks pays off: on two
# CPUs, 2 workers on figure-2 studies (J=2, n=201, m=5) lose at 64-128 fits each,
# about tie at 192 and win at 256 in 5 of 6 sweeps, by about 20%; spawned workers,
# which re-import numpy, need more (see CHANGES.md).
_FITS_PER_WORKER = 256


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity set where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def worker_count() -> int:
    """Worker cap from SHAPEALIGN_THREADS (unset: 1, 0: all usable CPUs), at most the usable CPUs."""
    raw = os.environ.get("SHAPEALIGN_THREADS")
    if raw is None or raw.strip() == "":
        return 1
    try:
        value = int(raw)
    except ValueError as exc:
        raise ConfigInvalid(f"SHAPEALIGN_THREADS must be an integer, got {raw!r}") from exc
    if value < 0:
        raise ConfigInvalid("SHAPEALIGN_THREADS must be >= 0")
    cpus = _usable_cpus()
    return cpus if value == 0 else min(value, cpus)


# One cell's fits under one regime kind in replicate order: free values (R, d), in the layout
# of free_parameter_labels; converged and sigma (R,); shape coefficients (R, 2m+1).
_Fits = namedtuple("_Fits", "free converged sigma coeffs")


def _map_ordered(truth, shape, kinds, cells, seeds) -> list[tuple[_Fits, ...]]:
    """Per cell ``(n, config)``, one ``_Fits`` per kind of its replicates at ``seeds``: a seed range per worker,
    walked in blocks of at most :data:`_BLOCK_VALUES` panel values by ``_replicate_chunk``, joined in seed order."""
    reps = len(seeds)
    count = max(1, min(worker_count(), reps, reps * len(cells) * len(kinds) // _FITS_PER_WORKER))
    size = max(1, _BLOCK_VALUES // (truth.n_curves * max((n for n, _ in cells), default=1)))
    bounds = [reps * w // count for w in range(count + 1)]
    blocks = [(truth, shape, kinds, [(*cell, seeds[lo:hi][b:b + size]) for cell in cells])
              for lo, hi in zip(bounds, bounds[1:]) for b in range(0, max(hi - lo, 1), size)]  # 0 seeds: 1 block
    parts = map(_replicate_chunk, blocks)  # serial: the join below runs the blocks
    if count > 1:
        from concurrent.futures import ProcessPoolExecutor  # here: a fit or a serial study never pays its import
        with ProcessPoolExecutor(max_workers=count) as pool:
            parts = list(pool.map(_replicate_chunk, blocks))
    return [tuple(_Fits(*map(np.concatenate, zip(*kind))) for kind in zip(*pieces)) for pieces in zip(*parts)]


@dataclass(frozen=True)
class StudyConfig:
    """One replication study: truth, grid sizes, replicate count, seeds."""

    truth: ParameterSet
    shape: ShapeSpectrum
    n_list: tuple[int, ...]
    replicates: int
    base_seed: int
    fit_config: FitConfig = field(default_factory=FitConfig)
    regimes: tuple[Regime, ...] = (Regime.A0,)

    def __post_init__(self):
        if self.replicates < 2:
            raise ConfigInvalid("need at least 2 replicates")
        _seeds(self.replicates, self.base_seed)
        if not self.n_list:
            raise ConfigInvalid("n_list must not be empty")
        _check_grids(self.n_list, self.shape.m)
        for n in self.n_list:
            m, grid = self.fit_config.resolve_m(n), self.fit_config.theta_grid_size or n
            if (table := (2 * m + 1) * max(n, grid)) > _MAX_TABLE:
                raise ConfigInvalid(f"fit band {m} and scan grid {grid} at n={n} need a table of {table} entries, "
                                    f"above the largest study table, {_MAX_TABLE}")
        if self.truth.regime.kind is not Regime.A0:
            raise ConfigInvalid("study truth must be given under regime A0")
        if not self.regimes:
            raise ConfigInvalid("at least one regime required")


def _seeds(replicates: int, base_seed: int) -> range:
    """The seeds base_seed .. base_seed + replicates - 1 of a study; ConfigInvalid above
    :data:`_MAX_REPLICATES` replicates or unless every seed is a Philox key, 0 .. 2**128 - 1."""
    if replicates > _MAX_REPLICATES:
        raise ConfigInvalid(f"replicates {replicates} exceeds the largest study, {_MAX_REPLICATES}")
    if base_seed < 0 or base_seed + replicates > 2**128:
        raise ConfigInvalid("base_seed must be >= 0 and base_seed + replicates <= 2**128")
    return range(base_seed, base_seed + replicates)


def _check_grids(n_list, band: int):
    """Raise ConfigInvalid at the first grid size that is not odd and >= 3, exceeds :data:`_MAX_GRID`
    or that a shape of band ``band`` fills."""
    for n in n_list:
        if n % 2 == 0 or n < 3:
            raise ConfigInvalid(f"grid sizes must be odd and >= 3, got {n}")
        if n > _MAX_GRID:
            raise ConfigInvalid(f"grid size {n} exceeds the largest study grid, {_MAX_GRID}")
        if 2 * band >= n:
            raise ConfigInvalid(f"shape band {band} violates 2*m < n for n={n}")


def _replicate_chunk(args) -> list[tuple[_Fits, ...]]:
    """One ``_Fits`` per kind for each run ``(n, config, seeds)`` of a block: the run's panels
    generated in one pass, their bands in one call, every panel under every kind fitted as one group
    and validated in one pass."""
    truth, shape, kinds, runs = args
    a1 = np.array([kind is Regime.A1 for kind in kinds])
    out = []
    for n, config, seeds in runs:
        grid = make_grid(n)
        band = band_stack(generate_panels(truth, shape, grid, seeds), grid, config.resolve_m(n))
        rows, jobs_a1 = np.repeat(np.arange(len(seeds)), len(kinds)), np.tile(a1, len(seeds))
        bound = np.full(len(rows), float(truth.regime.upsilon_max))
        est = _fit_group(band, rows, jobs_a1, bound, n, config)
        validate_rows(est.theta, est.a, est.upsilon, est.sigma, jobs_a1, bound)
        k = len(kinds)
        out.append(tuple(
            _Fits(free_columns(est.theta[i::k], est.a[i::k], est.upsilon[i::k], kind),
                  est.converged[i::k], est.sigma[i::k], est.coeffs[i::k])
            for i, kind in enumerate(kinds)))
    return out


def _circular_errors(free_est, free_truth, n_shift):
    """Rows of estimate errors, the first ``n_shift`` columns wrapped to (-pi, pi]."""
    err = np.asarray(free_est, dtype=float) - np.asarray(free_truth, dtype=float)
    wrapped = np.mod(err[..., :n_shift] + np.pi, 2.0 * np.pi) - np.pi
    wrapped[wrapped == -np.pi] = np.pi  # branch (-pi, pi]
    err[..., :n_shift] = wrapped
    return err


def _quantiles(estimates: np.ndarray) -> np.ndarray:
    """``np.quantile(estimates, _QUANTILES, axis=0)`` of K >= 1 rows of finite values, bit for bit.

    The same linear rule by the same steps: position (K-1)q, numpy's partition of a copy at the
    same order statistics, and its interpolation from the nearer neighbour.
    """
    kept = len(estimates)
    if kept == 1:  # numpy's interpolation returns the one row for every probability
        return np.repeat(estimates, len(_QUANTILES), axis=0)
    pos = [(kept - 1) * q for q in _QUANTILES]
    lo = [int(p) for p in pos]
    hi = [i + 1 for i in lo]
    t = np.array([p - i for p, i in zip(pos, lo)])[:, None]
    ordered = np.partition(estimates, sorted({0, kept - 1, *lo, *hi}), axis=0)
    below, above = ordered[lo], ordered[hi]
    step = above - below
    return np.where(t >= 0.5, above - step * (1 - t), below + step * t)


def _covariance(x: np.ndarray) -> np.ndarray:
    """``np.cov(x, rowvar=False)`` of K >= 2 rows of at least two columns, bit for bit: the same
    centring, product (of the centred rows with a copy of them, so the same BLAS call) and scaling."""
    centred = x - x.mean(axis=0)
    return np.dot(centred.T, centred.conj()) * (1.0 / (len(x) - 1))


def _shape_error_sq(coeffs: np.ndarray, true_shape: ShapeSpectrum, include_mean: bool) -> tuple[float, float]:
    """Mean in-band coefficient error of the kept fits' coefficients (K, 2m+1) and the
    fixed out-of-band truth energy, computed once: the fits share their band m."""
    if not len(coeffs):
        return float("nan"), float("nan")
    m_fit, m_true = coeffs.shape[1] // 2, true_shape.m
    band = min(m_fit, m_true)
    target = np.zeros(2 * m_fit + 1, dtype=complex)  # the truth's c_l, l = -m_fit..m_fit
    target[m_fit - band:m_fit + band + 1] = true_shape.coeffs[m_true - band:m_true + band + 1]
    err = np.abs(coeffs - target) ** 2
    if not include_mean:
        err[:, m_fit] = 0.0
    tail = 2.0 * np.sum(np.abs(true_shape.coeffs[m_true + m_fit + 1:]) ** 2)
    return float(np.mean(err.sum(axis=1))), float(tail)


@dataclass
class StudyCell:
    """Aggregates for one (grid size, regime) pair."""

    n: int
    regime: Regime
    labels: list[str]
    truth_free: np.ndarray
    bias: np.ndarray
    empirical_covariance: np.ndarray   # of sqrt(n)-scaled errors
    theory_covariance: np.ndarray      # sigma^2 H^{-1} or sigma^2 Gamma
    ratios: np.ndarray
    mise_inband: float
    mise_tail: float
    quantiles: np.ndarray              # (len(_QUANTILES), n_params) of raw estimates
    sigma_mean: float
    failures: int
    replicates: int
    invalid: bool


@dataclass
class StudyReport:
    n_list: tuple[int, ...]
    replicates: int
    base_seed: int
    regimes: tuple[Regime, ...]
    cells: list[StudyCell]


def run_study(config: StudyConfig) -> StudyReport:
    """Generate, fit, and aggregate; deterministic given the base seed."""
    truth, shape, seeds = config.truth, config.shape, _seeds(config.replicates, config.base_seed)
    fits = _map_ordered(truth, shape, config.regimes, [(n, config.fit_config) for n in config.n_list], seeds)
    refs = {kind: (truth, shape) if kind is Regime.A0 else reparameterize_to_a1(truth, shape)
            for kind in config.regimes}
    cells = [_aggregate(n, kind, *refs[kind], kind_fits)
             for n, per_kind in zip(config.n_list, fits) for kind, kind_fits in zip(config.regimes, per_kind)]
    return StudyReport(
        n_list=tuple(config.n_list),
        replicates=config.replicates,
        base_seed=config.base_seed,
        regimes=tuple(config.regimes),
        cells=cells,
    )


def _aggregate(n, regime_kind, ref_truth, ref_shape, fits: _Fits) -> StudyCell:
    truth_free = ref_truth.free_values()
    estimates = fits.free[fits.converged]
    kept = len(estimates)
    failures = len(fits.converged) - kept
    errors = _circular_errors(estimates, truth_free, ref_truth.n_curves - 1)
    nan = np.full((truth_free.size, truth_free.size), np.nan)
    emp_cov = _covariance(np.sqrt(n) * errors) if kept >= 2 else nan

    theory = scaled_covariance(ref_truth.a, ref_shape, ref_truth.sigma, regime_kind)
    ratios = np.divide(emp_cov, theory, out=np.full_like(theory, np.nan), where=np.abs(theory) > 1e-12)

    mise_inband, mise_tail = _shape_error_sq(fits.coeffs[fits.converged], ref_shape, regime_kind is Regime.A1)
    quantiles = _quantiles(estimates) if kept else np.full((len(_QUANTILES), truth_free.size), np.nan)

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


@dataclass
class MisePoint:
    n: int
    m: int
    inband: float
    tail: float

    @property
    def total(self) -> float:
        return self.inband + self.tail


@dataclass
class MiseCurve:
    points: list[MisePoint]
    slope: float


def mise_curve(
    truth: ParameterSet,
    shape: ShapeSpectrum,
    n_list,
    smoothness: int = 2,
    replicates: int = 50,
    base_seed: int = 0,
    fit_config: FitConfig | None = None,
) -> MiseCurve:
    """Shape-estimator integrated squared error along a grid-size ladder.

    The band follows the rate rule m_n = ceil(n^(1/(2k+1))) for smoothness
    k; the error splits exactly into the in-band coefficient error and the
    out-of-band truth energy (orthogonality), and the reported slope is the
    least-squares fit of log total error against log n.
    """
    if smoothness < 1:
        raise ConfigInvalid("smoothness must be >= 1")
    seeds, base = _seeds(replicates, base_seed), fit_config or FitConfig()
    ladder = [(n, max(1, int(np.ceil(n ** (1.0 / (2 * smoothness + 1)))))) for n in n_list]
    fits = _map_ordered(truth, shape, (Regime.A0,), [(n, replace(base, m=m_n)) for n, m_n in ladder], seeds)
    points = [MisePoint(n, m_n, *_shape_error_sq(a0.coeffs[a0.converged], shape, include_mean=False))
              for (n, m_n), (a0,) in zip(ladder, fits)]
    totals = np.array([p.total for p in points])
    ns = np.array([p.n for p in points], dtype=float)
    slope = float(np.polyfit(np.log(ns), np.log(totals), 1)[0]) if len(points) > 1 else float("nan")
    return MiseCurve(points=points, slope=slope)


@dataclass
class RegimeComparison:
    """Same-seed paired fits under both regimes."""

    n: int
    replicates: int
    corr_a0: np.ndarray            # corr(a_j, upsilon_j) per curve j >= 2
    corr_a1: np.ndarray
    corr_a1_theory: np.ndarray     # implied by the coupled covariance
    a1_cov_diag: np.ndarray        # empirical, sqrt(n)-scaled errors
    a1_cov_diag_theory: np.ndarray
    c0: float
    failures: int

    @property
    def a1_sign_consistent(self) -> bool:
        """Empirical couplings carry the sign opposite to the shape mean."""
        if self.c0 == 0.0:
            return True
        return bool(np.all(np.sign(self.corr_a1) == -np.sign(self.c0)))


def compare_regimes(
    truth: ParameterSet,
    shape: ShapeSpectrum,
    n: int,
    replicates: int,
    base_seed: int = 0,
    fit_config: FitConfig | None = None,
) -> RegimeComparison:
    """Fit the same seeded panels under both regimes and compare couplings.

    Under A0 the scale and level estimates are asymptotically independent;
    under A1 they correlate with sign opposite to the rewritten shape's
    mean.  Reports empirical correlations per curve, their theoretical
    counterparts, and the A1 variance diagonal against its target.
    """
    seeds, cfg = _seeds(replicates, base_seed), fit_config or FitConfig()
    truth_a1, shape_a1 = reparameterize_to_a1(truth, shape)
    (a0, a1), = _map_ordered(truth, shape, (Regime.A0, Regime.A1), [(n, cfg)], seeds)

    paired = a0.converged & a1.converged
    est_a0, est_a1 = a0.free[paired], a1.free[paired]
    failures = len(paired) - len(est_a0)
    if len(est_a0) < 2:
        raise ConfigInvalid(f"only {len(est_a0)} of {replicates} paired fits converged; cannot estimate correlations")

    # Free layout: theta_2..J | a_2..J | levels (A0: 1..J, A1: 2..J).
    s = truth.n_curves - 1
    corr_a0 = np.array([np.corrcoef(est_a0[:, s + k], est_a0[:, 2 * s + 1 + k])[0, 1] for k in range(s)])
    corr_a1 = np.array([np.corrcoef(est_a1[:, s + k], est_a1[:, 2 * s + k])[0, 1] for k in range(s)])

    gamma = a1_covariance(truth_a1.a, shape_a1, truth.sigma).gamma
    corr_theory = np.array([gamma[s + k, 2 * s + k] / np.sqrt(gamma[s + k, s + k] * gamma[2 * s + k, 2 * s + k])
                            for k in range(s)])

    err_a1 = _circular_errors(est_a1, truth_a1.free_values(), s)
    emp_diag = np.var(np.sqrt(n) * err_a1, axis=0, ddof=1)
    theory_diag = np.diag(scaled_covariance(truth_a1.a, shape_a1, truth.sigma, Regime.A1))

    return RegimeComparison(
        n=n,
        replicates=replicates,
        corr_a0=corr_a0,
        corr_a1=corr_a1,
        corr_a1_theory=corr_theory,
        a1_cov_diag=emp_diag,
        a1_cov_diag_theory=theory_diag,
        c0=shape_a1.c0,
        failures=failures,
    )
