"""Equidistant sampling grid and exact discrete Fourier analysis on it.

Everything downstream relies on the discrete orthogonality of the complex
exponentials e^{ilt} on the grid t_i = 2*pi*i/n with n odd: frequencies
l, p with |l|, |p| < n/2 are exactly orthogonal, so truncated Fourier
coefficients computed by direct summation are exact for band-limited
signals.  Analysis maps a stack of real rows (J, n) to one complex
(J, 2m+1) coefficient array by direct summation against a twiddle table
built once per (n, m), O(n*m) per row; synthesis on the grid is one
inverse FFT; both enforce the band guard 2*m < n explicitly.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    BandTooWide,
    EvenSampleCount,
    LengthMismatch,
    NonHermitianSpectrum,
    TooSmall,
)

TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class SamplingGrid:
    """Equidistant angles t_i = 2*pi*i/n, i = 0..n-1, with n odd.

    Build instances through :func:`make_grid`, which validates n.
    """

    n: int
    points: np.ndarray = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "points", np.asarray(self.points, dtype=float))


def make_grid(n: int) -> SamplingGrid:
    """Return the odd equidistant grid of ``n`` angles in [0, 2*pi).

    Raises
    ------
    TooSmall
        If ``n < 3``.
    EvenSampleCount
        If ``n`` is even; discrete orthogonality over the symmetric band
        needs an odd point count.
    """
    n = int(n)
    if n < 3:
        raise TooSmall(f"need at least 3 sample points, got {n}")
    if n % 2 == 0:
        raise EvenSampleCount(f"sample count must be odd, got {n}")
    points = TWO_PI * np.arange(n) / n
    return SamplingGrid(n=n, points=points)


@functools.lru_cache(maxsize=8)
def _twiddle_table(n: int, m: int) -> np.ndarray:
    """Read-only rows e^{-i l t_s}, l = -m..m, of the n-point grid; negative rows are exact conjugates."""
    pos = np.exp(-1j * np.outer(np.arange(1, m + 1), make_grid(n).points))
    table = np.empty((2 * m + 1, n), dtype=complex)
    table[m + 1:] = pos
    table[m] = 1.0
    table[:m] = np.conj(pos[::-1])
    table.flags.writeable = False
    return table


def dft(samples: np.ndarray, grid: SamplingGrid, m: int) -> np.ndarray:
    """Truncated DFT of real sample rows (..., n) on ``grid``: complex (..., 2m+1).

    Entry ``[..., l + m]`` holds c_l = (1/n) * sum_s y_s e^{-i l t_s}, l = -m..m,
    and c_{-l} = conj(c_l) exactly.  Direct summation against a precomputed
    twiddle table, one matrix-vector product per row, so a row's bits are its
    own (one ``y @ table.T`` would sum in another order); with m << n a full
    FFT buys nothing and would hide the 2*m < n aliasing guard.

    Raises
    ------
    LengthMismatch
        If the rows do not have ``grid.n`` entries.
    BandTooWide
        If ``2*m >= grid.n``.
    """
    y = np.asarray(samples, dtype=float)
    if y.ndim == 0 or y.shape[-1] != grid.n:
        raise LengthMismatch(f"expected {grid.n} samples per row, got shape {y.shape}")
    m = int(m)
    if m < 1:
        raise BandTooWide(f"band limit must be >= 1, got {m}")
    if 2 * m >= grid.n:
        raise BandTooWide(f"band limit {m} violates 2*m < n for n={grid.n}")
    return (_twiddle_table(grid.n, m) @ y[..., None])[..., 0] / grid.n


@dataclass(frozen=True)
class ShapeSpectrum:
    """Hermitian-symmetric coefficients of a trigonometric polynomial.

    ``coeffs[l + m]`` is c_l for l = -m..m.  The l = 0 slot is zero for a
    centered shape (reference constraint regime) and may be nonzero under
    the alternative regime, where the shape carries its own mean.
    """

    m: int
    coeffs: np.ndarray = field(repr=False)

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=complex)
        if c.shape != (2 * self.m + 1,):
            raise ValueError(f"need {2 * self.m + 1} coefficients for band {self.m}")
        object.__setattr__(self, "coeffs", c)

    @classmethod
    def from_onesided(cls, terms: dict, m: int | None = None, c0: float = 0.0) -> "ShapeSpectrum":
        """Build from {l: c_l} for l >= 1; negative side filled by conjugation."""
        if m is None:
            m = max(terms) if terms else 1
        coeffs = np.zeros(2 * m + 1, dtype=complex)
        coeffs[m] = c0
        for l, c in terms.items():
            if not 1 <= l <= m:
                raise ValueError(f"one-sided frequency {l} outside 1..{m}")
            coeffs[m + l] = c
            coeffs[m - l] = np.conj(c)
        return cls(m=m, coeffs=coeffs)

    def coeff(self, l: int) -> complex:
        if abs(l) > self.m:
            return 0.0 + 0.0j
        return complex(self.coeffs[l + self.m])

    @property
    def c0(self) -> float:
        """Mean-level coefficient (real for a Hermitian spectrum)."""
        return float(self.coeffs[self.m].real)

    @property
    def power_ac(self) -> float:
        """Energy away from frequency zero: sum_{1<=|l|<=m} |c_l|^2."""
        mags = np.abs(self.coeffs) ** 2
        return float(mags.sum() - mags[self.m])

    @property
    def power_total(self) -> float:
        """Full squared norm including the mean term."""
        return float((np.abs(self.coeffs) ** 2).sum())

    @property
    def derivative_power(self) -> float:
        """Squared norm of the derivative: sum l^2 |c_l|^2."""
        ls = np.arange(-self.m, self.m + 1)
        return float((ls * ls * np.abs(self.coeffs) ** 2).sum())

    def hermitian_defect(self) -> float:
        """Largest |c_{-l} - conj(c_l)| over the band."""
        return float(np.abs(self.coeffs[::-1] - np.conj(self.coeffs)).max())

    def centered(self) -> "ShapeSpectrum":
        """Copy with the l = 0 slot forced to zero."""
        c = self.coeffs.copy()
        c[self.m] = 0.0
        return ShapeSpectrum(m=self.m, coeffs=c)


def _checked_scale(spec: ShapeSpectrum) -> float:
    """Coefficient mass max(1, sum |c_l|), after the conjugate-symmetry check."""
    defect = spec.hermitian_defect()
    scale = max(1.0, float(np.abs(spec.coeffs).sum()))
    if defect > 1e-9 * scale:
        raise NonHermitianSpectrum(f"conjugate-symmetry defect {defect:.3e}")
    return scale


def _real_part(values: np.ndarray, scale: float) -> np.ndarray:
    """Drop the imaginary residue of a Hermitian sum after checking it is rounding."""
    residue = float(np.max(np.abs(np.imag(values)))) if values.size else 0.0
    if residue > 1e-12 * scale:
        raise NonHermitianSpectrum(f"imaginary residue {residue:.3e} after evaluation")
    return np.real(values)


def evaluate_spectrum(spec: ShapeSpectrum, t) -> float | np.ndarray:
    """Evaluate the trigonometric polynomial sum_l c_l e^{ilt} at angle(s) t.

    The complex sum of a Hermitian spectrum is real up to rounding; the
    imaginary residue is verified below 1e-12 (relative to the coefficient
    mass) and then discarded.

    Raises
    ------
    NonHermitianSpectrum
        If the coefficients break conjugate symmetry beyond 1e-9.
    """
    scale = _checked_scale(spec)
    t_arr = np.asarray(t, dtype=float)
    ls = np.arange(-spec.m, spec.m + 1)
    real = _real_part(np.exp(1j * np.multiply.outer(t_arr, ls)) @ spec.coeffs, scale)
    return float(real) if np.isscalar(t) or t_arr.ndim == 0 else real


def evaluate_shifted_on_grid(spec: ShapeSpectrum, grid: SamplingGrid, shifts) -> np.ndarray:
    """Rows f(t_i - theta_k) on the grid, one per shift, by one inverse FFT.

    Slot l mod n of row k holds c_l e^{-il theta_k}, so ``ifft * n`` sums
    the series at every grid point.  Raises ``BandTooWide`` if 2*m >= n
    (slots would alias) and ``NonHermitianSpectrum`` as
    :func:`evaluate_spectrum` does.
    """
    if 2 * spec.m >= grid.n:
        raise BandTooWide(f"band limit {spec.m} violates 2*m < n for n={grid.n}")
    scale = _checked_scale(spec)
    theta = np.asarray(shifts, dtype=float).reshape(-1)
    ls = np.arange(-spec.m, spec.m + 1)
    rows = np.zeros((theta.size, grid.n), dtype=complex)
    rows[:, ls % grid.n] = spec.coeffs * np.exp(-1j * np.multiply.outer(theta, ls))
    return _real_part(np.fft.ifft(rows, axis=1) * grid.n, scale)
