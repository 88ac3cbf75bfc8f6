"""Replication studies: consistency, covariance calibration, regime contrast.

Each replicate's panel is generated once, from one truth and a derived seed
(base seed plus replicate index), and fitted under every requested regime;
the fits aggregate into deterministic summaries: mean bias, the empirical
covariance of sqrt(n)-scaled errors against its closed-form target,
shape-estimator integrated squared error, and boxplot-style quantiles.  A
study splits its replicates into contiguous chunks, one per worker of a
process pool that gets at least _FITS_PER_WORKER fits a worker, at most
SHAPEALIGN_THREADS workers (unset: 1, 0: one per CPU) and never more than
the usable CPUs; below two workers it runs as one chunk in this process.
Each chunk's panels of one grid size are generated in one pass and fitted
as one batch, every start of every shift problem in one lockstep search; a
panel's A0 and A1 fits are one shift problem unless the A0 box binds.  Batched
panels and fits equal lone ones bit for bit and aggregation follows
replicate order, so parallelism cannot change any result.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from itertools import groupby

import numpy as np

from .errors import ConfigInvalid
from .fit import FitConfig, FitResult, fit_batch
from .fourier import ShapeSpectrum, make_grid
from .inference import a1_covariance, scaled_covariance
from .model import (
    ConstraintRegime,
    ParameterSet,
    Regime,
    free_parameter_labels,
    generate_panels,
    reparameterize_to_a1,
)

_QUANTILES = (0.025, 0.25, 0.5, 0.75, 0.975)
_MAX_FAILURE_FRACTION = 0.05


# Fits a worker needs before forking it and shipping its chunk pays off: on two
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


def _map_ordered(truth, shape, kinds, items: list) -> list:
    """``_replicate_chunk`` over contiguous chunks of ``items``, one per worker; results in order."""
    count = min(worker_count(), len(items), len(items) * len(kinds) // _FITS_PER_WORKER)
    if count <= 1:
        return _replicate_chunk((truth, shape, kinds, items))
    bounds = [len(items) * w // count for w in range(count + 1)]
    chunks = [(truth, shape, kinds, items[lo:hi]) for lo, hi in zip(bounds, bounds[1:])]
    from concurrent.futures import ProcessPoolExecutor  # here: a fit or a serial study never pays its import
    with ProcessPoolExecutor(max_workers=count) as pool:
        return [res for part in pool.map(_replicate_chunk, chunks) for res in part]


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
        if not self.n_list:
            raise ConfigInvalid("n_list must not be empty")
        for n in self.n_list:
            if n % 2 == 0 or n < 3:
                raise ConfigInvalid(f"grid sizes must be odd and >= 3, got {n}")
            if 2 * self.shape.m >= n:
                raise ConfigInvalid(f"shape band {self.shape.m} violates 2*m < n for n={n}")
            self.fit_config.resolve_m(n)
        if self.truth.regime.kind is not Regime.A0:
            raise ConfigInvalid("study truth must be given under regime A0")
        if not self.regimes:
            raise ConfigInvalid("at least one regime required")
        self.truth.validate()


def _replicate_chunk(args) -> list[tuple[dict, ...]]:
    """One summary per regime kind for each ``(n, seed, config)`` of a chunk.

    Each run of equal grid size and config is generated in one pass and
    fitted as one batch, in which the kinds share each panel's band arrays
    and, where their shift constants agree, its shift search.
    """
    truth, shape, kinds, chunk = args
    regimes = [ConstraintRegime(kind=kind, upsilon_max=truth.regime.upsilon_max) for kind in kinds]
    summaries = []
    for (n, config), run in groupby(chunk, key=lambda item: (item[0], item[2])):
        panels = generate_panels(truth, shape, make_grid(n), [seed for _, seed, _ in run])
        jobs = [(panel, regime) for panel in panels for regime in regimes]
        fits = [_summarize(result) for result in fit_batch(jobs, config)]
        summaries += [tuple(fits[i:i + len(kinds)]) for i in range(0, len(fits), len(kinds))]
    return summaries


def _summarize(result: FitResult) -> dict:
    return {
        "free": result.beta_hat.free_values(),
        "converged": bool(result.converged),
        "sigma": result.sigma_hat,
        "shape_coeffs": result.shape_hat.coeffs,
        "m": result.m,
    }


def _circular_errors(free_est, free_truth, n_shift):
    """Rows of estimate errors, the first ``n_shift`` columns wrapped to (-pi, pi]."""
    err = np.asarray(free_est, dtype=float) - np.asarray(free_truth, dtype=float)
    wrapped = np.mod(err[..., :n_shift] + np.pi, 2.0 * np.pi) - np.pi
    wrapped[wrapped == -np.pi] = np.pi  # branch (-pi, pi]
    err[..., :n_shift] = wrapped
    return err


def _shape_error_sq(kept: list[dict], true_shape: ShapeSpectrum,
                    include_mean: bool) -> tuple[float, float]:
    """Mean in-band coefficient error of the kept fits and the fixed
    out-of-band truth energy, computed once: the fits share their band m."""
    if not kept:
        return float("nan"), float("nan")
    m_fit = kept[0]["m"]
    target = np.array([true_shape.coeff(l) for l in range(-m_fit, m_fit + 1)])
    err = np.abs(np.vstack([s["shape_coeffs"] for s in kept]) - target) ** 2
    if not include_mean:
        err[:, m_fit] = 0.0
    tail = 2.0 * np.sum(np.abs(true_shape.coeffs[true_shape.m + m_fit + 1:]) ** 2)
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
    reps = config.replicates
    items = [(n, config.base_seed + r, config.fit_config) for n in config.n_list for r in range(reps)]
    results = _map_ordered(config.truth, config.shape, config.regimes, items)
    cells = []
    for i, n in enumerate(config.n_list):
        for k, regime_kind in enumerate(config.regimes):
            if regime_kind is Regime.A0:
                ref_truth, ref_shape = config.truth, config.shape
            else:
                ref_truth, ref_shape = reparameterize_to_a1(config.truth, config.shape)
            summaries = [res[k] for res in results[i * reps:(i + 1) * reps]]
            cells.append(_aggregate(n, regime_kind, ref_truth, ref_shape, summaries))
    return StudyReport(
        n_list=tuple(config.n_list),
        replicates=config.replicates,
        base_seed=config.base_seed,
        regimes=tuple(config.regimes),
        cells=cells,
    )


def _aggregate(n, regime_kind, ref_truth, ref_shape, summaries) -> StudyCell:
    labels = free_parameter_labels(ref_truth.n_curves, ref_truth.regime)
    truth_free = ref_truth.free_values()
    n_shift = ref_truth.n_curves - 1
    include_mean = regime_kind is Regime.A1

    kept = [s for s in summaries if s["converged"]]
    failures = len(summaries) - len(kept)
    estimates = np.vstack([s["free"] for s in kept]) if kept else np.zeros((0, truth_free.size))
    errors = _circular_errors(estimates, truth_free, n_shift)
    scaled = np.sqrt(n) * errors

    if len(kept) >= 2:
        emp_cov = np.cov(scaled, rowvar=False, ddof=1)
        emp_cov = np.atleast_2d(emp_cov)
    else:
        emp_cov = np.full((truth_free.size, truth_free.size), np.nan)

    theory = scaled_covariance(ref_truth.a, ref_shape, ref_truth.sigma, regime_kind)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(np.abs(theory) > 1e-12, emp_cov / theory, np.nan)

    mise_inband, mise_tail = _shape_error_sq(kept, ref_shape, include_mean)
    quantiles = (
        np.quantile(estimates, _QUANTILES, axis=0)
        if kept
        else np.full((len(_QUANTILES), truth_free.size), np.nan)
    )

    return StudyCell(
        n=n,
        regime=regime_kind,
        labels=labels,
        truth_free=truth_free,
        bias=errors.mean(axis=0) if kept else np.full(truth_free.size, np.nan),
        empirical_covariance=emp_cov,
        theory_covariance=theory,
        ratios=ratios,
        mise_inband=mise_inband,
        mise_tail=mise_tail,
        quantiles=quantiles,
        sigma_mean=float(np.mean([s["sigma"] for s in kept])) if kept else float("nan"),
        failures=failures,
        replicates=len(summaries),
        invalid=failures > _MAX_FAILURE_FRACTION * len(summaries),
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
    base = fit_config or FitConfig()
    ladder = [(n, max(1, int(np.ceil(n ** (1.0 / (2 * smoothness + 1)))))) for n in n_list]
    items = [(n, base_seed + r, replace(base, m=m_n)) for n, m_n in ladder for r in range(replicates)]
    results = _map_ordered(truth, shape, (Regime.A0,), items)
    points = []
    for i, (n, m_n) in enumerate(ladder):
        kept = [s for (s,) in results[i * replicates:(i + 1) * replicates] if s["converged"]]
        inband, tail = _shape_error_sq(kept, shape, include_mean=False)
        points.append(MisePoint(n=n, m=m_n, inband=inband, tail=tail))
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
    cfg = fit_config or FitConfig()
    truth_a1, shape_a1 = reparameterize_to_a1(truth, shape)
    items = [(n, base_seed + r, cfg) for r in range(replicates)]
    results = _map_ordered(truth, shape, (Regime.A0, Regime.A1), items)

    j = truth.n_curves
    rows_a0, rows_a1 = [], []
    failures = 0
    for res_a0, res_a1 in results:
        if res_a0["converged"] and res_a1["converged"]:
            rows_a0.append(res_a0["free"])
            rows_a1.append(res_a1["free"])
        else:
            failures += 1
    if len(rows_a0) < 2:
        raise ConfigInvalid(
            f"only {len(rows_a0)} of {replicates} paired fits converged; "
            "cannot estimate correlations"
        )
    est_a0 = np.vstack(rows_a0)
    est_a1 = np.vstack(rows_a1)

    def _pair_corr(est, a_idx, u_idx):
        c = np.corrcoef(est[:, a_idx], est[:, u_idx])
        return float(c[0, 1])

    # Free layout: theta_2..J | a_2..J | levels (A0: 1..J, A1: 2..J).
    s = j - 1
    corr_a0 = np.array([_pair_corr(est_a0, s + k, 2 * s + 1 + k) for k in range(s)])
    corr_a1 = np.array([_pair_corr(est_a1, s + k, 2 * s + k) for k in range(s)])

    gamma = a1_covariance(truth_a1.a, shape_a1, truth.sigma).gamma
    corr_theory = np.array([
        gamma[s + k, 2 * s + k] / np.sqrt(gamma[s + k, s + k] * gamma[2 * s + k, 2 * s + k])
        for k in range(s)
    ])

    err_a1 = _circular_errors(est_a1, truth_a1.free_values(), s)
    emp_diag = np.var(np.sqrt(n) * err_a1, axis=0, ddof=1)
    theory_diag = truth.sigma**2 * np.diag(gamma)

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
