"""Shared builders for the test suite."""

import numpy as np
import pytest

import shapealign as sa
from shapealign.model import ConstraintRegime, center_shape, project_to_constraints


def parabola_spectrum(band: int, include_mean: bool = True) -> sa.ShapeSpectrum:
    """Band-limited spectrum of 20*x*(1-x) on x = t/(2*pi).

    Closed-form coefficients: mean 10/3, c_l = -10/(pi^2 l^2) for l != 0
    (cross-checked against a quadrature oracle in test_model).
    """
    coeffs = np.zeros(2 * band + 1, dtype=complex)
    if include_mean:
        coeffs[band] = 10.0 / 3.0
    for l in range(1, band + 1):
        coeffs[band + l] = coeffs[band - l] = -10.0 / (np.pi**2 * l**2)
    return sa.ShapeSpectrum(m=band, coeffs=coeffs)


def boxplot_truth(band: int = 100):
    """Canonical A0 truth for the two-curve simulation benchmark.

    Raw generating values: shifts (0, 0.8), scales (0.75, 1.1990), levels
    (2.5, 0.5), noise 1, uncentered parabola shape.  Canonicalized: the
    shape mean moves into the levels and the scales onto the sphere (the
    shape absorbs the inverse factor).
    """
    raw = parabola_spectrum(band)
    theta = np.array([0.0, 0.8])
    a = np.array([0.75, 1.1990])
    ups = np.array([2.5, 0.5])
    centered, c0 = center_shape(raw)
    ups = ups + a * c0
    scale = np.sqrt(2.0 / (a @ a))
    truth, _ = project_to_constraints(theta, a * scale, ups, ConstraintRegime(), sigma=1.0)
    shape = sa.ShapeSpectrum(m=band, coeffs=centered.coeffs / scale)
    return truth, shape


def decay_shape(scale: float = 1.0, band: int = 50, power: float = 2.5) -> sa.ShapeSpectrum:
    """Real spectrum with |c_l| = scale / l**power."""
    coeffs = np.zeros(2 * band + 1, dtype=complex)
    for l in range(1, band + 1):
        coeffs[band + l] = coeffs[band - l] = scale / l**power
    return sa.ShapeSpectrum(m=band, coeffs=coeffs)


def random_hermitian_spectrum(rng: np.random.Generator, m: int) -> sa.ShapeSpectrum:
    terms = {l: complex(rng.normal(), rng.normal()) for l in range(1, m + 1)}
    return sa.ShapeSpectrum.from_onesided(terms, m=m)


def sphere_scales(rng: np.random.Generator, j: int, min_abs: float = 0.2) -> np.ndarray:
    """Random point on the sphere sum a^2 = J with a_1 > 0 and every |a_j| >= min_abs (at most 1).

    Normal draws scaled onto the sphere are redrawn until every |a_j| >= min_abs, for at most
    10^4 tries; at J <= 8 over a quarter of the tries pass, so those draws never reach the cap.
    Past it (at J = 120 a try passes about once in 10^9) the magnitudes are uniform in
    [min_abs, 1] with random signs and a_1 > 0, scaled up onto the sphere, so they stay >= min_abs.
    """
    for _ in range(10**4):
        a = rng.normal(size=j)
        a[0] = abs(a[0])
        norm = np.sqrt(float(a @ a))
        if norm < 1e-3:
            continue
        a = a * np.sqrt(j) / norm
        if np.min(np.abs(a)) >= min_abs:
            return a
    a = rng.uniform(min_abs, 1.0, j) * rng.choice([-1.0, 1.0], j)
    a[0] = abs(a[0])
    return a * np.sqrt(j / float(a @ a))


def bandlimited_truth(rng: np.random.Generator, j: int = 3, degree: int = 3,
                      sigma: float = 0.0):
    """Random valid truth with a band-limited shape of the given degree."""
    shape = random_hermitian_spectrum(rng, degree)
    theta = np.concatenate([[0.0], rng.uniform(0.0, 2 * np.pi, j - 1)])
    a = sphere_scales(rng, j)
    ups = rng.uniform(-3.0, 3.0, j)
    truth = sa.ParameterSet(theta=theta, a=a, upsilon=ups, sigma=sigma)
    return truth, shape


def zero_reference_panel() -> sa.CurvePanel:
    """J=3, n=41 panel whose first curve is the constant 2.0: its profiled scale a_1 is exactly 0."""
    grid = sa.make_grid(41)
    t = grid.points
    return sa.CurvePanel(grid, np.array([np.full(41, 2.0), np.cos(t) + 0.1 * np.sin(2 * t), 0.5 * np.cos(t - 1)]))


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
