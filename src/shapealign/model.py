"""Domain types for the observed curve panel and synthetic generation.

The observation model is

    y[j][i] = a_j * f(t_i - theta_j) + upsilon_j + sigma * eps[i, j]

with one common 2*pi-periodic shape f shared by all J curves.  Two
identifiability regimes are supported:

* ``A0`` (reference): theta_1 = 0, sum a_j^2 = J, a_1 > 0, the shape is
  centered (no mean term), and levels are bounded by ``upsilon_max``.
* ``A1`` (alternative): same shift/scale constraints, but the shape keeps
  its mean and the first curve's level is pinned to zero instead.

:func:`project_rows` is the one map onto these sets: the fitter assembles
its estimates through it, :func:`project_to_constraints` is its call for
one parameter vector, and :func:`wrap_shifts` is its wrap of the shifts.
Studies draw panels as (seeds, J, n) arrays (:func:`generate_panels`), banded by one
:func:`band_stack` call; :class:`CurvePanel` holds a file's panel or :func:`generate_panel`'s.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import ConstraintViolation, DegenerateAmplitude, NonFiniteData, ZeroReferenceAmplitude
from .fourier import TWO_PI, SamplingGrid, ShapeSpectrum, dft, evaluate_shifted_on_grid
from .normal import seeded_normals


class Regime(enum.Enum):
    A0 = "a0"
    A1 = "a1"


@dataclass(frozen=True)
class ConstraintRegime:
    """Identifiability regime plus the level bound used under A0."""

    kind: Regime = Regime.A0
    upsilon_max: float = 1e6  # binds only if the user supplies a prior bound

    def __post_init__(self):
        if not self.upsilon_max > 0:  # NaN fails too; inf leaves the levels unbounded
            raise ConstraintViolation(f"upsilon_max must be strictly positive, got {self.upsilon_max!r}")


@dataclass(frozen=True)
class ParameterSet:
    """Shift/scale/level/noise parameters under a declared regime.

    theta: J angles in [0, 2*pi) with theta[0] == 0 exactly.
    a: J scales with sum a_j^2 == J (to 1e-10) and a[0] > 0.
    upsilon: J levels; |upsilon_j| <= upsilon_max under A0, upsilon[0] == 0
    under A1.  sigma: noise scale, >= 0 (zero means a noiseless panel).
    It holds read-only copies of the arrays, so it stays valid once built.
    """

    theta: np.ndarray
    a: np.ndarray
    upsilon: np.ndarray
    sigma: float
    regime: ConstraintRegime = field(default_factory=ConstraintRegime)

    def __post_init__(self):
        for name in ("theta", "a", "upsilon"):
            value = np.array(getattr(self, name), dtype=float)
            value.flags.writeable = False
            object.__setattr__(self, name, value)
        self.validate()

    @property
    def n_curves(self) -> int:
        return self.theta.size

    def validate(self):
        """Raise ConstraintViolation unless the set meets its regime: :func:`validate_rows` of one row."""
        validate_rows(self.theta.reshape(1, -1), self.a.reshape(1, -1), self.upsilon.reshape(1, -1),
                      np.array([self.sigma]), [self.regime.kind is Regime.A1], [self.regime.upsilon_max])

    def free_values(self) -> np.ndarray:
        """Concatenated free coordinates (theta_2.., a_2.., free levels)."""
        return free_columns(self.theta, self.a, self.upsilon, self.regime.kind)


def rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise dot products by matmul: each row's bits are those of its 1-D ``a @ b``."""
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def validate_rows(theta, a, upsilon, sigma, a1, bound):
    """The checks of :meth:`ParameterSet.validate` on rows (F, J) of shifts, scales and levels and (F,) noise
    scales, under A1 where ``a1``, else within +-``bound``: the first bad row fails as it would alone."""
    j = theta.shape[1]
    if j < 2 or a.shape != theta.shape or upsilon.shape != theta.shape:
        raise ConstraintViolation("theta, a, upsilon must share length J >= 2")
    a1 = np.asarray(a1, dtype=bool)
    outside = (np.abs(upsilon.T) > np.asarray(bound, dtype=float)).any(axis=0)
    broken = np.array([theta[:, 0] != 0.0, ((theta < 0.0) | (theta >= TWO_PI)).any(axis=1),
                       np.abs(rowdot(a, a) - j) > 1e-10, a[:, 0] <= 0.0, ~(sigma >= 0.0),  # NaN fails too
                       np.where(a1, upsilon[:, 0] != 0.0, outside)])
    if broken.any():
        row = int(np.argmax(broken.any(axis=0)))
        raise ConstraintViolation((
            "reference shift theta[0] must be exactly 0", "shifts must lie in [0, 2*pi)",
            f"amplitudes must satisfy sum a^2 = {j}", "reference amplitude a[0] must be positive",
            "sigma must be nonnegative",
            "under A1 the reference level must be exactly 0" if a1[row] else f"levels exceed the bound {bound[row]}",
        )[int(np.argmax(broken[:, row]))])


def free_columns(theta, a, upsilon, kind: Regime) -> np.ndarray:
    """Free coordinates of (..., J) rows: theta_2.., a_2.., then the levels, all under A0 and 2.. under A1."""
    first = 0 if kind is Regime.A0 else 1
    return np.concatenate([theta[..., 1:], a[..., 1:], upsilon[..., first:]], axis=-1)


def free_parameter_labels(n_curves: int, regime: ConstraintRegime) -> list[str]:
    """Names matching :meth:`ParameterSet.free_values`, 1-based curve ids."""
    labels = [f"theta_{j}" for j in range(2, n_curves + 1)]
    labels += [f"a_{j}" for j in range(2, n_curves + 1)]
    first = 1 if regime.kind is Regime.A0 else 2
    labels += [f"upsilon_{j}" for j in range(first, n_curves + 1)]
    return labels


class Band(NamedTuple):
    """Read-only band-m arrays of one panel, or of P panels of one (J, n) stacked on a leading axis:
    ``d_ac`` the (J, 2m+1) DFT of the centred rows y - ybar, l = 0 column zeroed, ``ybar`` the curve
    means, ``mean_sq`` (1/(nJ)) sum y^2 (the scale of the energy check and noise floor), ``ac_trace``
    sum |d_ac|^2 / J and ``spread`` (1/(nJ)) sum (y - ybar)^2: about the means, so no level cancels."""

    d_ac: np.ndarray
    ybar: np.ndarray
    mean_sq: np.ndarray
    ac_trace: np.ndarray
    spread: np.ndarray


def band_stack(y: np.ndarray, grid: SamplingGrid, m: int) -> Band:
    """:class:`Band` of a (P, J, n) stack of panels, each array in one call, each row bitwise its panel's alone.

    Raises NonFiniteData if any panel's moments or DFT coefficients overflow to non-finite values.
    """
    count, j, n = y.shape  # explicit sizes, so a stack of no panels reshapes too
    # overflow is detected below and reported as NonFiniteData
    with np.errstate(over="ignore", invalid="ignore"):
        ybar = y.mean(axis=2)
        centred = y - ybar[:, :, None]
        d_ac = dft(centred, grid, m)
        mean_sq = (y**2).reshape(count, j * n).sum(axis=1) / (grid.n * j)
        spread = (centred**2).reshape(count, j * n).sum(axis=1) / (grid.n * j)
    if not all(np.isfinite(v).all() for v in (mean_sq, spread, ybar, d_ac)):
        raise NonFiniteData("panel moments or DFT coefficients are not finite")
    d_ac[:, :, m] = 0.0
    ac_trace = (np.abs(d_ac) ** 2).reshape(count, j * (2 * m + 1)).sum(axis=1) / j
    d_ac.flags.writeable = ybar.flags.writeable = False
    return Band(d_ac, ybar, mean_sq, ac_trace, spread)


@dataclass
class CurvePanel:
    """J curves observed on one shared grid, with their band arrays cached per band."""

    grid: SamplingGrid
    y: np.ndarray
    labels: list[str] | None = None

    def __post_init__(self):
        self.y = np.asarray(self.y, dtype=float)
        if self.y.ndim != 2 or self.y.shape[0] < 2:
            raise ConstraintViolation("panel needs a J x n matrix with J >= 2")
        if self.y.shape[1] != self.grid.n:
            raise ConstraintViolation(
                f"rows of length {self.y.shape[1]} do not match grid n={self.grid.n}"
            )
        if not np.all(np.isfinite(self.y)):
            raise NonFiniteData("panel values must be finite")
        if self.labels is not None and len(self.labels) != self.y.shape[0]:
            raise ConstraintViolation("one label per curve required")
        self._band_cache: dict[int, Band] = {}

    @property
    def n_curves(self) -> int:
        return self.y.shape[0]

    def band(self, m: int) -> Band:
        """This panel's read-only :class:`Band` at band ``m``: :func:`band_stack` of it alone, built once per band."""
        if m not in self._band_cache:
            self._band_cache[m] = Band(*(v[0] for v in band_stack(self.y[None], self.grid, m)))
        return self._band_cache[m]


def generate_panel(truth: ParameterSet, shape: ShapeSpectrum, grid: SamplingGrid, seed: int) -> CurvePanel:
    """Draw one synthetic panel from the model with Gaussian noise: :func:`generate_panels` of one seed."""
    return CurvePanel(grid=grid, y=generate_panels(truth, shape, grid, [seed])[0])


def generate_panels(truth: ParameterSet, shape: ShapeSpectrum, grid: SamplingGrid, seeds) -> np.ndarray:
    """Draw one synthetic panel per seed from the model with Gaussian noise: values (len(seeds), J, n).

    The band is checked and the noiseless curves evaluated once; each seed draws its own Philox
    stream, and one quantile call maps them all, so row k is bitwise the panel of seed k alone.  The
    shape's mean term (if any) is folded into the per-curve levels before evaluation, so
    algebraically equivalent (shape, level) splits generate identical panels, and identical seeds
    identical bits.  A panel that overflowed is left to :func:`band_stack` (or a :class:`CurvePanel`)
    to reject as NonFiniteData.
    """
    if 2 * shape.m >= grid.n:
        raise ConstraintViolation(f"shape band {shape.m} violates 2*m < n for n={grid.n}")
    ac, c0 = center_shape(shape)
    with np.errstate(over="ignore", invalid="ignore"):  # see the docstring: band_stack rejects an overflow
        base = evaluate_shifted_on_grid(ac, grid, truth.theta)
        level = truth.upsilon + truth.a * c0
        y = truth.a[:, None] * base + level[:, None]
        if truth.sigma > 0:
            return y + truth.sigma * seeded_normals(seeds, y.size).reshape((len(seeds),) + y.shape)
    return np.repeat(y[None], len(seeds), axis=0)


def center_shape(spec: ShapeSpectrum) -> tuple[ShapeSpectrum, float]:
    """Split a spectrum into its centered part and mean level.

    Returns ``(centered, c0)``; callers absorb the mean into levels via
    upsilon_j <- upsilon_j + a_j * c0, which leaves every represented
    curve a_j * f(. - theta_j) + upsilon_j unchanged.
    """
    c0 = spec.c0
    if c0 == 0.0:
        return spec, 0.0
    return spec.centered(), c0


def wrap_shifts(theta) -> np.ndarray:
    """Shifts in [0, 2*pi), a new array: -0.0, NaN and angles in range keep their bits, np.mod's 2*pi is 0."""
    theta = np.array(theta, dtype=float)
    outside = (theta < 0.0) | (theta >= TWO_PI)
    theta[outside] = np.mod(theta[outside], TWO_PI)  # only there: mod would turn -0.0 into 0.0
    theta[theta >= TWO_PI] = 0.0
    return theta


def project_rows(theta, a, upsilon, a1, bound):
    """Map rows (F, J) of raw shifts, scales and levels onto the constraint set, under A1 where ``a1``,
    else within +-``bound``: each row bitwise its own :func:`project_to_constraints`, the first bad row
    failing as it would alone.

    Shifts are referenced to curve 1 and put in [0, 2*pi) by :func:`wrap_shifts`; scales are rescaled
    onto the sphere sum a^2 = J and sign-flipped so a_1 > 0 (the compensating shape flip f <- -f is
    the caller's); A0 levels are clipped to the box, the A1 reference level is zeroed.  Returns
    ``(theta, a, upsilon, flipped)``, new arrays; rows already on the set pass through bit for bit.

    Raises DegenerateAmplitude for a zero scale row, ZeroReferenceAmplitude for a zero a_1.
    """
    j = a.shape[1]
    theta = wrap_shifts(np.where(theta[:, :1] != 0.0, theta - theta[:, :1], theta))
    theta[:, 0] = 0.0

    ssq = rowdot(a, a)
    degenerate = ssq < np.finfo(float).tiny
    off = ~degenerate & (np.abs(ssq - j) > 1e-12 * j)
    a = a.copy()
    a[off] *= np.sqrt(j / ssq[off])[:, None]
    bad = degenerate | (a[:, 0] == 0.0)
    if bad.any():
        row = int(np.argmax(bad))
        if degenerate[row]:
            raise DegenerateAmplitude("amplitude vector is zero")
        raise ZeroReferenceAmplitude("reference amplitude is zero after rescaling")
    flipped = a[:, 0] < 0.0
    a[flipped] = -a[flipped]

    a1 = np.asarray(a1, dtype=bool)
    bound = np.asarray(bound, dtype=float)[:, None]
    upsilon = np.where(a1[:, None], upsilon, np.clip(upsilon, -bound, bound))
    upsilon[a1, 0] = 0.0
    return theta, a, upsilon, flipped


def project_to_constraints(theta, a, upsilon, regime: ConstraintRegime, sigma: float = 1.0) -> tuple[ParameterSet, bool]:
    """Map raw (theta, a, upsilon) onto the regime's constraint set: :func:`project_rows` of one row.

    Returns ``(params, flipped)``, ``flipped`` where the scales changed sign; inputs already
    satisfying the constraints pass through bit for bit.
    """
    theta, a, upsilon, flipped = project_rows(
        *(np.asarray(v, dtype=float).reshape(1, -1) for v in (theta, a, upsilon)),
        [regime.kind is Regime.A1], [regime.upsilon_max])
    return ParameterSet(theta=theta[0], a=a[0], upsilon=upsilon[0], sigma=sigma, regime=regime), bool(flipped[0])


def reparameterize_to_a1(
    truth: ParameterSet,
    shape: ShapeSpectrum,
) -> tuple[ParameterSet, ShapeSpectrum]:
    """Rewrite an A0 truth as the equivalent A1 truth.

    The reference curve's level is absorbed into the shape's mean:
    g = f + upsilon_1 / a_1 and upsilon_j <- upsilon_j - a_j * upsilon_1 / a_1,
    which leaves every curve's mean function unchanged.  (Dividing by a_1
    is what makes the rewriting exact for a_1 != 1.)
    """
    if truth.regime.kind is not Regime.A0:
        raise ConstraintViolation("expected an A0 parameter set")
    c0_shift = truth.upsilon[0] / truth.a[0]
    coeffs = shape.coeffs.copy()
    coeffs[shape.m] += c0_shift
    new_shape = ShapeSpectrum(m=shape.m, coeffs=coeffs)
    upsilon = truth.upsilon - truth.a * c0_shift
    upsilon[0] = 0.0
    params = ParameterSet(
        theta=truth.theta,
        a=truth.a,
        upsilon=upsilon,
        sigma=truth.sigma,
        regime=ConstraintRegime(kind=Regime.A1, upsilon_max=truth.regime.upsilon_max),
    )
    return params, new_shape
