"""Domain types for the observed curve panel and synthetic generation.

The observation model is

    y[j][i] = a_j * f(t_i - theta_j) + upsilon_j + sigma * eps[i, j]

with one common 2*pi-periodic shape f shared by all J curves.  Two
identifiability regimes are supported:

* ``A0`` (reference): theta_1 = 0, sum a_j^2 = J, a_1 > 0, the shape is
  centered (no mean term), and levels are bounded by ``upsilon_max``.
* ``A1`` (alternative): same shift/scale constraints, but the shape keeps
  its mean and the first curve's level is pinned to zero instead.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .errors import ConstraintViolation, DegenerateAmplitude, NonFiniteData, ZeroReferenceAmplitude
from .fourier import TWO_PI, SamplingGrid, ShapeSpectrum, dft, evaluate_shifted_on_grid
from .normal import standard_normals


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
    """

    theta: np.ndarray
    a: np.ndarray
    upsilon: np.ndarray
    sigma: float
    regime: ConstraintRegime = field(default_factory=ConstraintRegime)

    def __post_init__(self):
        for name in ("theta", "a", "upsilon"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        self.validate()

    @property
    def n_curves(self) -> int:
        return self.theta.size

    def validate(self):
        j = self.theta.size
        if j < 2 or self.a.size != j or self.upsilon.size != j:
            raise ConstraintViolation("theta, a, upsilon must share length J >= 2")
        if self.theta[0] != 0.0:
            raise ConstraintViolation("reference shift theta[0] must be exactly 0")
        if np.any((self.theta < 0.0) | (self.theta >= TWO_PI)):
            raise ConstraintViolation("shifts must lie in [0, 2*pi)")
        if abs(float(self.a @ self.a) - j) > 1e-10:
            raise ConstraintViolation(f"amplitudes must satisfy sum a^2 = {j}")
        if self.a[0] <= 0.0:
            raise ConstraintViolation("reference amplitude a[0] must be positive")
        if not self.sigma >= 0.0:  # NaN fails too
            raise ConstraintViolation("sigma must be nonnegative")
        if self.regime.kind is Regime.A0:
            bound = self.regime.upsilon_max
            if np.any(np.abs(self.upsilon) > bound):
                raise ConstraintViolation(f"levels exceed the bound {bound}")
        else:
            if self.upsilon[0] != 0.0:
                raise ConstraintViolation("under A1 the reference level must be exactly 0")

    def free_values(self) -> np.ndarray:
        """Concatenated free coordinates (theta_2.., a_2.., free levels)."""
        ups = self.upsilon if self.regime.kind is Regime.A0 else self.upsilon[1:]
        return np.concatenate([self.theta[1:], self.a[1:], ups])


def free_parameter_labels(n_curves: int, regime: ConstraintRegime) -> list[str]:
    """Names matching :meth:`ParameterSet.free_values`, 1-based curve ids."""
    labels = [f"theta_{j}" for j in range(2, n_curves + 1)]
    labels += [f"a_{j}" for j in range(2, n_curves + 1)]
    first = 1 if regime.kind is Regime.A0 else 2
    labels += [f"upsilon_{j}" for j in range(first, n_curves + 1)]
    return labels


@dataclass
class CurvePanel:
    """J curves observed on one shared grid, with their DFT cached per band."""

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
        self._dft_cache: dict[int, np.ndarray] = {}

    @property
    def n_curves(self) -> int:
        return self.y.shape[0]

    def curve_dft(self, m: int) -> np.ndarray:
        """Read-only (J, 2m+1) truncated DFT of the curves at band ``m``, built once per band."""
        if m not in self._dft_cache:
            self._dft_cache[m] = dft(self.y, self.grid, m)
            self._dft_cache[m].flags.writeable = False
        return self._dft_cache[m]


def generate_panel(
    truth: ParameterSet,
    shape: ShapeSpectrum,
    grid: SamplingGrid,
    seed: int,
) -> CurvePanel:
    """Draw one synthetic panel from the model with Gaussian noise.

    The shape's mean term (if any) is folded into the per-curve levels
    before evaluation, so algebraically equivalent (shape, level) splits
    generate identical panels.  Identical seeds give identical bits.
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
        y += truth.sigma * standard_normals(seed, y.shape)
    return CurvePanel(grid=grid, y=y)


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


def project_to_constraints(
    theta,
    a,
    upsilon,
    regime: ConstraintRegime,
    sigma: float = 1.0,
) -> tuple[ParameterSet, bool]:
    """Map raw (theta, a, upsilon) onto the regime's constraint set.

    Shifts are referenced to curve 1 and wrapped to [0, 2*pi); amplitudes
    are rescaled onto the sphere sum a^2 = J and globally sign-flipped so
    a[0] > 0 (the compensating shape flip f <- -f is the caller's
    responsibility); levels are clipped to the A0 box, or the reference
    level is zeroed under A1.  Returns ``(params, flipped)`` and is exactly
    idempotent: inputs already satisfying the constraints pass through
    bit-for-bit.
    """
    theta = np.asarray(theta, dtype=float).copy()
    a = np.asarray(a, dtype=float).copy()
    upsilon = np.asarray(upsilon, dtype=float).copy()
    j = theta.size

    if theta[0] != 0.0:
        theta = theta - theta[0]
    outside = (theta < 0.0) | (theta >= TWO_PI)
    if np.any(outside):
        theta[outside] = np.mod(theta[outside], TWO_PI)
        theta[theta >= TWO_PI] = 0.0  # mod can round up to the period itself
    theta[0] = 0.0

    ssq = float(a @ a)
    if ssq < np.finfo(float).tiny:
        raise DegenerateAmplitude("amplitude vector is zero")
    if abs(ssq - j) > 1e-12 * j:
        a = a * np.sqrt(j / ssq)
    if a[0] == 0.0:
        raise ZeroReferenceAmplitude("reference amplitude is zero after rescaling")
    flipped = a[0] < 0.0
    if flipped:
        a = -a

    if regime.kind is Regime.A0:
        bound = regime.upsilon_max
        np.clip(upsilon, -bound, bound, out=upsilon)
    else:
        upsilon[0] = 0.0

    return ParameterSet(theta=theta, a=a, upsilon=upsilon, sigma=sigma, regime=regime), flipped


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
