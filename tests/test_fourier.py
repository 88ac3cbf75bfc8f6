"""Grid construction, truncated DFT, and spectrum evaluation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import shapealign as sa
from shapealign.errors import (
    BandTooWide,
    EvenSampleCount,
    LengthMismatch,
    NonHermitianSpectrum,
    TooSmall,
)
from conftest import random_hermitian_spectrum
from oracles import orthogonality_kernel


def test_make_grid_small():
    grid = sa.make_grid(3)
    assert_allclose(grid.points, [0.0, 2 * np.pi / 3, 4 * np.pi / 3], rtol=0, atol=0)


def test_make_grid_rejects_even_and_tiny():
    with pytest.raises(EvenSampleCount):
        sa.make_grid(4)
    with pytest.raises(TooSmall):
        sa.make_grid(1)


def test_make_grid_large():
    grid = sa.make_grid(201)
    assert grid.n == 201
    assert grid.points[0] == 0.0
    assert_allclose(grid.points[-1], 2 * np.pi * 200 / 201, rtol=1e-15)
    assert np.all(np.diff(grid.points) > 0)


def test_dft_constant():
    grid = sa.make_grid(15)
    block = sa.dft(np.full(15, 3.25), grid, 4)
    assert abs(block[4] - 3.25) < 1e-14
    for l in range(1, 5):
        assert abs(block[l + 4]) < 1e-14


def test_dft_pure_tone_exact():
    grid = sa.make_grid(11)
    block = sa.dft(np.cos(grid.points), grid, 5)
    assert abs(block[1 + 5] - 0.5) < 1e-15
    assert abs(block[-1 + 5] - 0.5) < 1e-15
    for l in [0, 2, 3, 4, 5]:
        if l != 1:
            assert abs(block[l + 5]) < 1e-15


def test_dft_matches_direct_summation_oracle(rng):
    # independent O(n*m) oracle: plain accumulation loops
    n, m = 101, 20
    grid = sa.make_grid(n)
    samples = rng.normal(size=n)
    block = sa.dft(samples, grid, m)
    for l in range(-m, m + 1):
        acc = 0.0 + 0.0j
        for s in range(n):
            acc += samples[s] * np.exp(-1j * l * grid.points[s])
        assert abs(block[l + m] - acc / n) < 1e-12


def test_dft_hermitian_symmetry_is_exact(rng):
    grid = sa.make_grid(31)
    block = sa.dft(rng.normal(size=31), grid, 10)
    for l in range(1, 11):
        assert block[10 - l] == np.conj(block[10 + l])


def test_dft_shares_one_read_only_twiddle_table_per_grid_and_band(rng):
    from shapealign.fourier import _twiddle_table

    table = _twiddle_table(31, 4)
    assert _twiddle_table(31, 4) is table and not table.flags.writeable
    with pytest.raises(ValueError):
        table[0, 0] = 0.0
    samples = rng.normal(size=31)
    assert sa.dft(samples, sa.make_grid(31), 4).tobytes() == (table @ samples / 31).tobytes()


@pytest.mark.parametrize("n, m, j", [(11, 3, 2), (31, 4, 3), (201, 5, 7), (2001, 11, 20), (20001, 17, 30)])
def test_dft_of_stacked_rows_equals_per_row_calls_bitwise(n, m, j, rng):
    grid = sa.make_grid(n)
    rows = 10.0 * rng.normal(size=(j, n))
    stacked = sa.dft(rows, grid, m)
    assert stacked.shape == (j, 2 * m + 1) and stacked.dtype == complex
    assert stacked.tobytes() == np.array([sa.dft(row, grid, m) for row in rows]).tobytes()
    assert sa.dft(rows[None], grid, m)[0].tobytes() == stacked.tobytes()  # any leading axes


def test_dft_guards():
    grid = sa.make_grid(11)
    with pytest.raises(BandTooWide):
        sa.dft(np.zeros(11), grid, 6)  # 2*6 >= 11
    with pytest.raises(LengthMismatch):
        sa.dft(np.zeros(10), grid, 3)
    with pytest.raises(LengthMismatch):
        sa.dft(np.zeros((3, 10)), grid, 3)
    with pytest.raises(LengthMismatch):
        sa.dft(1.0, grid, 3)


def test_orthogonality_kernel_values():
    assert abs(orthogonality_kernel(0.0, 9) - 1.0) < 1e-14
    assert abs(orthogonality_kernel(3.0, 9) - 1.0) < 1e-13
    assert abs(orthogonality_kernel(3.0 / 7.0, 7)) < 1e-13


def test_orthogonality_kernel_direct_summation_oracle():
    # oracle for t = 0.2, n = 5: the five terms are the fifth roots of
    # unity, so the sum vanishes
    t, n = 0.2, 5
    acc = sum(np.exp(2j * np.pi * s * t) for s in range(1, n + 1)) / n
    assert abs(acc) < 1e-15
    assert abs(orthogonality_kernel(t, n) - acc) < 1e-15


@pytest.mark.parametrize("n", [11, 101, 201])
def test_discrete_orthogonality(n, rng):
    grid = sa.make_grid(n)
    half = (n - 1) // 2
    for _ in range(200):
        l = int(rng.integers(-half, half + 1))
        p = int(rng.integers(-half, half + 1))
        value = np.exp(1j * (l - p) * grid.points).sum() / n
        expected = 1.0 if l == p else 0.0
        assert abs(value - expected) < 1e-12


def test_parseval_for_bandlimited_signal(rng):
    n, m = 31, 6
    grid = sa.make_grid(n)
    spec = random_hermitian_spectrum(rng, m)
    samples = sa.evaluate_spectrum(spec, grid.points)
    lhs = float(samples @ samples) / n
    rhs = spec.power_ac
    assert abs(lhs - rhs) < 1e-12 * max(1.0, rhs)


def test_shift_covariance(rng):
    n, m = 51, 5
    grid = sa.make_grid(n)
    spec = random_hermitian_spectrum(rng, m)
    delta = 0.7431
    shifted = sa.evaluate_spectrum(spec, grid.points - delta)
    block = sa.dft(shifted, grid, m)
    for l in range(-m, m + 1):
        assert abs(block[l + m] - np.exp(-1j * l * delta) * spec.coeff(l)) < 1e-10


def test_evaluate_spectrum_cosine():
    spec = sa.ShapeSpectrum.from_onesided({1: 0.5})
    assert abs(sa.evaluate_spectrum(spec, 0.0) - 1.0) < 1e-15
    assert abs(sa.evaluate_spectrum(spec, np.pi / 3) - 0.5) < 1e-15


def test_evaluate_spectrum_zero():
    spec = sa.ShapeSpectrum(m=2, coeffs=np.zeros(5, dtype=complex))
    for t in [0.0, 1.0, 5.5]:
        assert sa.evaluate_spectrum(spec, t) == 0.0


def test_evaluate_spectrum_direct_summation_oracle(rng):
    spec = random_hermitian_spectrum(rng, 7)
    for t in rng.uniform(0, 2 * np.pi, 100):
        direct = sum(spec.coeff(l) * np.exp(1j * l * t) for l in range(-7, 8))
        assert abs(direct.imag) < 1e-12
        assert abs(sa.evaluate_spectrum(spec, float(t)) - direct.real) < 1e-12


def test_evaluate_spectrum_rejects_non_hermitian():
    coeffs = np.zeros(5, dtype=complex)
    coeffs[3] = 1.0          # c_1 = 1 but c_-1 = 0
    spec = sa.ShapeSpectrum(m=2, coeffs=coeffs)
    with pytest.raises(NonHermitianSpectrum):
        sa.evaluate_spectrum(spec, 0.3)


odd_sizes = st.integers(1, 200).map(lambda half: 2 * half + 1)
coefficients = st.complex_numbers(max_magnitude=10.0, allow_nan=False, allow_infinity=False)
shift_lists = st.lists(st.floats(0.0, 2 * np.pi, exclude_max=True), min_size=1, max_size=4)


@st.composite
def hermitian_spectra(draw, max_m):
    """Spectrum of band m <= max_m with c_{-l} = conj(c_l) and a real mean."""
    m = draw(st.integers(0, max_m))
    terms = draw(st.lists(coefficients, min_size=m, max_size=m))
    c0 = draw(st.floats(-10.0, 10.0))
    coeffs = np.array([np.conj(c) for c in terms[::-1]] + [c0] + terms, dtype=complex)
    return sa.ShapeSpectrum(m=m, coeffs=coeffs)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), n=odd_sizes, shifts=shift_lists)
def test_grid_synthesis_matches_evaluate_spectrum(data, n, shifts):
    spec = data.draw(hermitian_spectra((n - 1) // 2))
    grid = sa.make_grid(n)
    rows = sa.evaluate_shifted_on_grid(spec, grid, shifts)
    assert rows.shape == (len(shifts), n)
    tol = 1e-12 * max(1.0, float(np.abs(spec.coeffs).sum()))
    for row, theta in zip(rows, shifts):
        direct = sa.evaluate_spectrum(spec, grid.points - theta)
        assert np.max(np.abs(row - direct)) <= tol


@settings(max_examples=30, deadline=None)
@given(data=st.data(), n=odd_sizes, shifts=shift_lists)
def test_grid_synthesis_rejects_aliasing_band(data, n, shifts):
    m = data.draw(st.integers((n + 1) // 2, n + 2))
    spec = sa.ShapeSpectrum.from_onesided({m: data.draw(coefficients)}, m=m)
    with pytest.raises(BandTooWide):
        sa.evaluate_shifted_on_grid(spec, sa.make_grid(n), shifts)


@settings(max_examples=30, deadline=None)
@given(data=st.data(), n=odd_sizes, shifts=shift_lists)
def test_grid_synthesis_rejects_non_hermitian(data, n, shifts):
    spec = data.draw(hermitian_spectra((n - 1) // 2))
    l = data.draw(st.integers(0, spec.m))
    coeffs = spec.coeffs.copy()
    # an imaginary kick of 1e-3 of the coefficient mass breaks c_{-l} = conj(c_l),
    # for l = 0 too, far above the 1e-9 tolerance
    coeffs[spec.m + l] += 1e-3j * max(1.0, float(np.abs(coeffs).sum()))
    broken = sa.ShapeSpectrum(m=spec.m, coeffs=coeffs)
    with pytest.raises(NonHermitianSpectrum):
        sa.evaluate_shifted_on_grid(broken, sa.make_grid(n), shifts)


def test_spectrum_powers():
    spec = sa.ShapeSpectrum.from_onesided({1: 0.5, 3: 1.0 - 1.0j}, m=3, c0=2.0)
    assert abs(spec.power_ac - (2 * 0.25 + 2 * 2.0)) < 1e-15
    assert abs(spec.power_total - spec.power_ac - 4.0) < 1e-15
    assert abs(spec.derivative_power - (2 * 0.25 + 9 * 2 * 2.0)) < 1e-14
    assert spec.c0 == 2.0
    assert spec.centered().c0 == 0.0
