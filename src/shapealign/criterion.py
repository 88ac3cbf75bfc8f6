"""Estimation criterion: profiled spectrum, objective value, gradient.

For shifts theta and scales a, the best-fitting common-shape coefficients
have the closed form

    chat_l = (sum_j a_j^2)^{-1} * sum_j a_j e^{i l theta_j} d_{j,l},

where d_{j,l} is the (J, 2m+1) DFT coefficient array of the centred rows
y_j - ybar_j.  Substituting them back into the least-squares fit collapses,
by discrete orthogonality, to the full criterion

    value = (1/(nJ)) sum_{j,i} (y_ij - upsilon_j)^2 - sum_l |chat_l|^2.

Under A0 the band is 1 <= |l| <= m and levels enter only through the first
sum; under A1 the l = 0 coefficient (computed from level-centered data)
joins the spectral sum.  With levels and scales profiled out too, it is
C - lambda_max(Q(theta)) over the shifts, Q = Re(W W^H) / J, W_jl = e^{i l theta_j} d_jl
(1 <= |l| <= m), C the residual at the profiled levels.  C cannot move the
minimising shifts, so the fit minimizes it with C the spread about the means,
and reports it with each job's C, which adds a binding A0 level box's gap.
:func:`shift_objective_stack` gives it with its gradient and exact Hessian.

The data enter only through a :class:`model.Band` (d, ybar, spread): the fitter
stacks bands row by row; the public functions take one panel's ``panel.band(m)``
and read only a regime's ``kind``.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import DegenerateAmplitude, DegenerateSpectrum
from .fourier import ShapeSpectrum
from .model import Band, ConstraintRegime, Regime, rowdot

# Leading-eigenvalue gap below which the scale profile is a tie: the
# eigenvector, and with it the shift Hessian, is not determined.
EIGENVALUE_TIE = 1e-10


def require_energy(ac_trace, mean_sq):
    """Raise DegenerateSpectrum if any band of traces ``ac_trace`` and moments ``mean_sq`` carries no energy."""
    # rounding residue of the coefficients of pure-level data is ~eps*scale,
    # so anything at (eps*scale)^2 in the trace is noise, not signal
    if (ac_trace <= 1e-26 * np.fmax(1.0, mean_sq)).any():
        raise DegenerateSpectrum("no spectral energy in the selected band")


def residual(spread, ybar: np.ndarray, upsilon: np.ndarray) -> np.ndarray:
    """(1/(nJ)) sum_{j,i} (y_ij - upsilon_j)^2 of F rows, from their spreads and means: (F,)."""
    gap = ybar - upsilon
    return spread + rowdot(gap, gap) / ybar.shape[1]


def shift_constants(ybar: np.ndarray, spread, a1: np.ndarray, bound: np.ndarray) -> np.ndarray:
    """C of C - lambda_max(Q) for F rows: the residual at levels ybar under A1, ybar clipped to +-bound under A0."""
    ups = np.where(a1[:, None], ybar, np.clip(ybar, -bound[:, None], bound[:, None]))
    return residual(spread, ybar, ups)


def criterion_stack(d_ac, ybar, spread, a1, theta, a, upsilon) -> tuple[np.ndarray, np.ndarray]:
    """Criterion values (F,) and shape coefficients (F, 2m+1) of F rows of one (J, m).

    Row f evaluates band coefficients ``d_ac[f]``, means ``ybar[f]`` and spread
    ``spread[f]`` about them, under A1 where ``a1[f]``, at (theta[f], a[f], upsilon[f]),
    with row-wise products only, so its bits are those of the row alone.  Its
    coefficients are chat_l (1 <= |l| <= m) with, in the l = 0 slot, the mean
    coefficient of :func:`profiled_mean` under A1 and zero under A0.
    """
    theta, a, upsilon = (np.asarray(v, dtype=float) for v in (theta, a, upsilon))
    ssq = rowdot(a, a)
    if np.any(ssq < np.finfo(float).tiny):
        raise DegenerateAmplitude("amplitude vector is zero")
    m = d_ac.shape[2] // 2
    phases = np.exp(1j * (theta[:, :, None] * np.arange(-m, m + 1)))
    coeffs = (a[:, :, None] * phases * d_ac).sum(axis=1) / ssq[:, None]
    coeffs[:, m] = np.where(a1, rowdot(a, ybar - upsilon) / ssq, 0.0)
    return residual(spread, ybar, upsilon) - (np.abs(coeffs) ** 2).sum(axis=1), coeffs


def profiled_coefficients(band: Band, theta, a) -> ShapeSpectrum:
    """Best-fitting shape coefficients chat_l of one panel's :class:`Band` for fixed shifts and scales.

    Only frequencies 1 <= |l| <= m are filled: on this grid the exponential
    sums at those frequencies kill any constant level, so level centering
    cannot change them.  The l = 0 slot is left at zero; see
    :func:`profiled_mean` for the A1 mean coefficient.  One row of :func:`criterion_stack`.
    """
    coeffs = criterion_stack(band.d_ac[None], band.ybar[None], band.spread, False, [theta], [a], band.ybar[None])[1][0]
    return ShapeSpectrum(m=len(coeffs) // 2, coeffs=coeffs)


def profiled_mean(band: Band, a, upsilon) -> float:
    """Mean coefficient chat_0 = sum_j a_j (ybar_j - upsilon_j) / sum_j a_j^2 of one panel's :class:`Band`."""
    coeffs = criterion_stack(band.d_ac[None], band.ybar[None], band.spread, True,
                             np.zeros_like(band.ybar)[None], [a], [upsilon])[1][0]
    return float(coeffs[len(coeffs) // 2].real)


def criterion_value(band: Band, regime: ConstraintRegime, theta, a, upsilon) -> float:
    """Objective value of one panel's :class:`Band` at (theta, a, upsilon) under ``regime.kind``: one row of
    :func:`criterion_stack`."""
    a1 = regime.kind is Regime.A1
    return float(criterion_stack(band.d_ac[None], band.ybar[None], band.spread, a1, [theta], [a], [upsilon])[0][0])


def criterion_gradient(band: Band, regime: ConstraintRegime, theta, a, upsilon) -> np.ndarray:
    """Analytic gradient of :func:`criterion_value` over the free coordinates, by its own formula.

    Layout matches :func:`model.free_parameter_labels`: shifts 2..J, then
    scales 2..J in the sphere chart a_1 = sqrt(J - sum_{j>=2} a_j^2), then
    the free levels (all J under A0, curves 2..J under A1, by ``regime.kind``).
    """
    theta = np.asarray(theta, dtype=float)
    a = np.asarray(a, dtype=float)
    upsilon = np.asarray(upsilon, dtype=float)
    j = len(band.ybar)
    ssq = float(a @ a)
    if ssq < np.finfo(float).tiny:
        raise DegenerateAmplitude("amplitude vector is zero")

    m = band.d_ac.shape[1] // 2
    freqs = np.arange(-m, m + 1)
    phases = np.exp(1j * np.outer(theta, freqs))
    weighted = a[:, None] * phases * band.d_ac       # row j: a_j e^{il theta_j} d_jl
    chat = weighted.sum(axis=0) / ssq

    # d|chat_l|^2 / dtheta_k = 2 Re(conj(chat_l) * i l a_k e^{il theta_k} d_kl) / ssq
    il = 1j * freqs
    denergy_dtheta = 2.0 * np.real((np.conj(chat) * il)[None, :] * weighted).sum(axis=1) / ssq

    # Unconstrained scale derivative; the normalization sum a^2 in chat
    # contributes the -2 a_k * energy term.
    per_curve = phases * band.d_ac
    energy_ac = float(np.real(np.vdot(chat, chat)))
    denergy_da = 2.0 * (
        np.real(np.conj(chat)[None, :] * per_curve).sum(axis=1) - 2.0 * a * energy_ac
    ) / ssq

    grad_ups = 2.0 * (upsilon - band.ybar) / j

    if regime.kind is Regime.A1:
        c0 = profiled_mean(band, a, upsilon)
        resid = band.ybar - upsilon
        # chat_0 depends on both the scales and the levels.
        denergy_da += 2.0 * c0 * (resid - 2.0 * a * c0) / ssq
        grad_ups = grad_ups + 2.0 * c0 * a / ssq
        grad_ups = grad_ups[1:]

    chart = denergy_da[1:] - (a[1:] / a[0]) * denergy_da[0]
    return np.concatenate([-denergy_dtheta[1:], -chart, grad_ups])


class ShiftEvaluation(NamedTuple):
    """Profiled shift criterion at K rows of shifts; derivatives over theta_2..theta_J.

    Every field has a leading row axis.  ``hess`` is None if not requested, and
    meaningless in the rows that are ties (``tie_break``: leading gap below
    EIGENVALUE_TIE); ``energy``, ``lead`` are the leading eigenpair of Q
    (``lead``'s sign arbitrary).
    """

    value: np.ndarray
    grad: np.ndarray
    hess: np.ndarray | None
    energy: np.ndarray
    lead: np.ndarray
    tie_break: np.ndarray


def shift_objective_stack(d_ac: np.ndarray, owner, x: np.ndarray, constant,
                          hessian: bool = False) -> ShiftEvaluation:
    """Profiled criterion C - lambda_max(Q) at K rows of free shifts ``x`` (K, J-1).

    Row k uses band coefficients ``d_ac[owner[k]]`` of the (F, J, 2m+1) stack
    and constant ``constant[k]``.  Every product is a stacked matmul and Q has
    one stacked ``eigh``, so a row's bits do not depend on the other rows.
    With v the leading unit eigenvector and u = v'W, Hellmann-Feynman gives
    d lambda / d theta_k = 2 v_k Re sum_l i l W_kl conj(u_l) / J; the exact
    Hessian, on request, adds v' d2Q v to the second-order perturbation sum
    over the other eigenpairs.
    """
    j, width = d_ac.shape[1], d_ac.shape[2]
    freqs = np.arange(width) - width // 2
    theta = np.concatenate([np.zeros((len(x), 1)), x], axis=1)
    w = np.exp(1j * theta[:, :, None] * freqs) * d_ac[owner]
    wh = w.conj().transpose(0, 2, 1)
    eigvals, eigvecs = np.linalg.eigh((w @ wh).real / j)
    v, v_col = eigvecs[:, :, -1], eigvecs[:, :, -1:]
    lw = w * freqs
    # r[k, p] = Re sum_l i l W_kl conj(W_pl), so (r v)_k = Re sum_l i l W_kl conj(u_l)
    r = -(lw @ wh).imag
    rv = (r @ v_col)[:, :, 0]
    gap = eigvals[:, -1:] - eigvals[:, :-1]
    hess = None
    if hessian:
        s = (lw @ lw.conj().transpose(0, 2, 1)).real
        # v' d2Q/dtheta_k dtheta_p v = -(2/J) (delta_kp v_k (s v)_k - v_k v_p s_kp)
        d2q = v[:, :, None] * v[:, None, :] * s
        d2q[:, np.arange(j), np.arange(j)] -= v * (s @ v_col)[:, :, 0]
        # mix[i, k] = e_i' dQ/dtheta_k v over the other eigenvectors e_i
        others = eigvecs[:, :, :-1]
        mix = (others.transpose(0, 2, 1) * rv[:, None, :]
               + (r @ others).transpose(0, 2, 1) * v[:, None, :]) / j
        with np.errstate(divide="ignore", invalid="ignore"):  # ties: a zero gap
            d2lam = 2.0 * d2q / j + 2.0 * (mix.transpose(0, 2, 1) / gap[:, None, :]) @ mix
        hess = -d2lam[:, 1:, 1:]
    return ShiftEvaluation(value=constant - eigvals[:, -1], grad=-2.0 * (v * rv)[:, 1:] / j,
                           hess=hess, energy=eigvals[:, -1], lead=v,
                           tie_break=gap[:, -1] < EIGENVALUE_TIE)
