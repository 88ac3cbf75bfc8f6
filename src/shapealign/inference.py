"""Plug-in asymptotic covariance, standard errors, confidence intervals.

Scaled estimation errors sqrt(n) * (estimate - truth) are asymptotically
Gaussian with covariance sigma^2 * H^{-1}, where the information-style
matrix H is block diagonal over (shifts, scales, levels) under the
reference regime A0.  Both H and its inverse have closed forms in the
scales and two shape norms, so no numerical inversion is needed (the
closed-form inverse is still cross-checked in tests).  Under the
alternative regime A1 the scale and level blocks couple through the
shape's mean; that covariance is assembled by :func:`a1_covariance`.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigInvalid,
    ConstraintViolation,
    DegenerateShape,
    EmptySpectrum,
    NotConverged,
    ZeroAmplitudeCoordinate,
)
from .fourier import TWO_PI, ShapeSpectrum
from .model import Regime, free_parameter_labels, wrap_shifts
from .normal import inverse_normal_cdf

_MIN_AMPLITUDE = 1e-12


def _validate_scales(a: np.ndarray):
    j = a.size
    if j < 2:
        raise ConstraintViolation("need at least two curves")
    if abs(float(a @ a) - j) > 1e-8:
        raise ConstraintViolation("scales must lie on the sphere sum a^2 = J")
    if np.min(np.abs(a)) < _MIN_AMPLITUDE:
        raise ZeroAmplitudeCoordinate("every scale must be nonzero")


def _shift_inverse(a: np.ndarray) -> np.ndarray:
    """Shift block of the covariance times the derivative power: diag(1/a_j^2) + 1/a_1^2, j = 2..J."""
    return np.diag(1.0 / a[1:] ** 2) + 1.0 / a[0] ** 2


def _scale_projection(a: np.ndarray) -> np.ndarray:
    """B = I - a~ a~' / J over the scales a~ = a_2..a_J: the scale block times the shape power."""
    tail = a[1:]
    return np.eye(tail.size) - tail[:, None] * tail / a.size


def _scale_projection_inverse(a: np.ndarray) -> np.ndarray:
    """B^{-1} = I + a~ a~' / a_1^2 in closed form."""
    tail = a[1:]
    return np.eye(tail.size) + tail[:, None] * tail / a[0] ** 2


@dataclass
class EfficiencyBlocks:
    """Closed-form information matrix H and inverse under regime A0.

    Block order matches the free coordinates: shifts 2..J, scales 2..J,
    levels 1..J; cross blocks are exactly zero.  The estimator covariance
    at sample size n is sigma^2 * H^{-1} / n.  H itself is formed only when read.
    """

    h_inv: np.ndarray
    shape_power: float        # sum_{1<=|l|<=m} |c_l|^2
    derivative_power: float   # sum l^2 |c_l|^2
    a: np.ndarray
    sigma: float

    @property
    def n_curves(self) -> int:
        return self.a.size

    @property
    def h(self) -> np.ndarray:
        a, s = self.a, self.a.size - 1
        tail_sq = a[1:] ** 2
        h = np.eye(3 * a.size - 2)
        h[:s, :s] = self.derivative_power * (np.diag(tail_sq) - tail_sq[:, None] * tail_sq / a.size)
        h[s : 2 * s, s : 2 * s] = self.shape_power * _scale_projection_inverse(a)
        return h

    def identity_residual(self) -> float:
        eye = np.eye(self.h_inv.shape[0])
        return float(np.max(np.abs(self.h @ self.h_inv - eye)))


def efficiency_blocks(a, shape: ShapeSpectrum, sigma: float) -> EfficiencyBlocks:
    """Assemble the closed-form inverse of H from plug-in quantities.

    Raises
    ------
    ZeroAmplitudeCoordinate
        If any scale is (numerically) zero.
    EmptySpectrum
        If the shape has no energy away from frequency zero.
    """
    a = np.asarray(a, dtype=float)
    _validate_scales(a)
    f2 = shape.power_ac
    df2 = shape.derivative_power
    if f2 == 0.0:
        raise EmptySpectrum("shape spectrum has no nonzero coefficients")
    s = a.size - 1
    h_inv = np.eye(3 * a.size - 2)  # the level block is the identity
    h_inv[:s, :s] = _shift_inverse(a) / df2
    h_inv[s : 2 * s, s : 2 * s] = _scale_projection(a) / f2
    return EfficiencyBlocks(h_inv=h_inv, shape_power=f2, derivative_power=df2, a=a, sigma=float(sigma))


@dataclass
class A1CovarianceBlocks:
    """Asymptotic covariance under the alternative regime A1.

    Order: shifts 2..J, scales 2..J, levels 2..J.  The scale and level
    blocks couple through the shape mean c0: the cross block is
    -c0 / (|f|^2 - c0^2) times the identity, so the coupling sign is
    opposite to the sign of c0.  Stored without the noise scale; the
    estimator covariance at sample size n is sigma^2 * gamma / n.
    """

    gamma: np.ndarray
    b: np.ndarray
    b_inv: np.ndarray
    c0: float
    a: np.ndarray
    sigma: float

    def identity_residual(self) -> float:
        eye = np.eye(self.b.shape[0])
        return float(np.max(np.abs(self.b @ self.b_inv - eye)))


def a1_covariance(a, shape: ShapeSpectrum, sigma: float) -> A1CovarianceBlocks:
    """Assemble the coupled (shift, scale, level) covariance for A1.

    ``shape`` is the uncentered common shape, mean included.  The shift and
    scale blocks are those of H^{-1} under A0.

    Raises
    ------
    DegenerateShape
        If the shape is (numerically) constant, |f|^2 - c0^2 ~ 0.
    """
    a = np.asarray(a, dtype=float)
    _validate_scales(a)
    c0 = shape.c0
    p_ac = shape.power_ac          # |f|^2 - c0^2 by Parseval
    total = shape.power_total
    if p_ac <= 1e-12 * max(total, 1e-300):
        raise DegenerateShape("constant shape: |f|^2 - c0^2 is numerically zero")
    s = a.size - 1
    b, b_inv = _scale_projection(a), _scale_projection_inverse(a)

    gamma = np.zeros((3 * s, 3 * s))
    gamma[:s, :s] = _shift_inverse(a) / shape.derivative_power
    gamma[s : 2 * s, s : 2 * s] = b / p_ac
    gamma[2 * s :, 2 * s :] = (total / p_ac) * b_inv
    cross = (-c0 / p_ac) * np.eye(s)
    gamma[s : 2 * s, 2 * s :] = cross
    gamma[2 * s :, s : 2 * s] = cross

    return A1CovarianceBlocks(gamma=gamma, b=b, b_inv=b_inv, c0=c0, a=a, sigma=float(sigma))


def scaled_covariance(a, shape: ShapeSpectrum, sigma: float, regime: Regime) -> np.ndarray:
    """Covariance of the sqrt(n)-scaled errors: sigma^2 H^{-1} under A0, sigma^2 Gamma under A1.

    ``shape`` is the regime's shape: centered under A0, its mean included under A1.
    """
    if regime is Regime.A0:
        return sigma**2 * efficiency_blocks(a, shape, sigma).h_inv
    return sigma**2 * a1_covariance(a, shape, sigma).gamma


@dataclass
class ParameterInterval:
    name: str
    estimate: float
    half_width: float
    lo: float
    hi: float
    circular: bool = False


@dataclass
class ConfidenceReport:
    level: float
    intervals: list[ParameterInterval]
    covariance: np.ndarray  # of the estimates themselves (already / n)
    labels: list[str]
    zero_noise: bool


@functools.lru_cache(maxsize=64)  # computed once per confidence level in use, not once per report
def two_sided_quantile(level: float) -> float:
    """The normal quantile z with P(|Z| <= z) = ``level``; the level rule: ConfigInvalid unless ``level``
    lies in (0, 1) and its argument 0.5 * (1 + level) below 1, which a level within 2**-53 of 1 rounds to."""
    p = 0.5 * (1.0 + level)
    if not (0.0 < level < 1.0 and p < 1.0):
        raise ConfigInvalid(f"confidence level must lie strictly in (0, 1) with 0.5 * (1 + level) < 1, got {level!r}")
    return float(inverse_normal_cdf(p))


def confidence_intervals(result, level: float) -> ConfidenceReport:
    """Per-parameter normal confidence intervals from the plug-in covariance.

    Shift intervals are reported on the circle: :func:`model.wrap_shifts` puts the endpoints in
    [0, 2*pi), so an endpoint a hair below 0 reads 0 and ``lo > hi`` means the interval crosses
    zero, except that a half-width of pi or more gives lo = 0 and hi = 2*pi, the whole circle.
    With a zero noise estimate the intervals degenerate to points and the report is flagged.

    Raises
    ------
    ConfigInvalid
        If the level breaks :func:`two_sided_quantile`'s rule.
    NotConverged
        If the fit did not converge.
    """
    z = two_sided_quantile(float(level))
    if not result.converged:
        raise NotConverged("cannot build intervals from an unconverged fit")
    params = result.beta_hat
    j = params.n_curves
    cov = scaled_covariance(params.a, result.shape_hat, result.sigma_hat, params.regime.kind) / result.n
    estimates = params.free_values()
    variances = np.diag(cov)
    half = z * np.sqrt(np.where(variances < 0.0, 0.0, variances))
    lo, hi = estimates - half, estimates + half
    shifts = j - 1  # the free coordinates start with theta_2..theta_J
    ends = wrap_shifts([lo[:shifts], hi[:shifts]])  # both ends on the circle, or the whole circle from pi
    whole = half[:shifts] >= np.pi
    ends[0, whole], ends[1, whole] = 0.0, TWO_PI
    lo[:shifts], hi[:shifts] = ends
    labels = free_parameter_labels(j, params.regime)
    intervals = [ParameterInterval(*row, k < shifts) for k, row in enumerate(zip(
        labels, estimates.tolist(), half.tolist(), lo.tolist(), hi.tolist()))]

    return ConfidenceReport(
        level=level, intervals=intervals, covariance=cov, labels=labels, zero_noise=result.sigma_hat == 0.0,
    )
