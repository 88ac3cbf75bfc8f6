"""Estimation criterion: profiled spectrum, objective value, gradient.

For shifts theta and scales a, the best-fitting common-shape coefficients
have the closed form

    chat_l = (sum_j a_j^2)^{-1} * sum_j a_j e^{i l theta_j} d_{j,l},

where d_{j,l} is the panel's (J, 2m+1) DFT coefficient array.  Substituting
them back into the least-squares fit collapses, by discrete orthogonality, to

    value = (1/(nJ)) sum_{j,i} (y_ij - upsilon_j)^2 - sum_l |chat_l|^2,

which is what the fit minimizes.  Under A0 the band is 1 <= |l| <= m and
levels enter only through the first sum; under A1 the l = 0 coefficient
(computed from level-centered data) joins the spectral sum.

With levels and scales profiled out too, the criterion over the shifts is
C - lambda_max(Q(theta)), Q = Re(W W^H) / J, W_jl = e^{i l theta_j} d_jl
(1 <= |l| <= m), C a per-panel constant: :func:`shift_objective_stack` gives
it with its gradient and exact Hessian, one eigendecomposition per row of shifts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import BandTooWide, DegenerateAmplitude, DegenerateSpectrum, NonFiniteData
from .fourier import ShapeSpectrum
from .model import ConstraintRegime, CurvePanel, Regime

# Leading-eigenvalue gap below which the scale profile is a tie: the
# eigenvector, and with it the shift Hessian, is not determined.
EIGENVALUE_TIE = 1e-10


@dataclass
class CriterionContext:
    """Immutable per-panel data needed to evaluate the criterion at band m.

    ``d_ac[j, l + m]`` holds curve j's DFT coefficient for 1 <= |l| <= m,
    and zero in the l = 0 column (the means enter through ``ybar``);
    ``mean_sq`` is (1/(nJ)) sum y^2 and ``ybar`` the per-curve means, which
    together reconstruct the residual term without touching the raw panel.
    ``shift_constant`` is C in the profiled shift criterion C - lambda_max(Q).

    Raises
    ------
    NonFiniteData
        If the moments or the DFT coefficients overflow to non-finite values.
    """

    panel: CurvePanel
    m: int
    regime: ConstraintRegime = field(default_factory=ConstraintRegime)

    def __post_init__(self):
        n = self.panel.grid.n
        if self.m < 1:
            raise BandTooWide(f"band limit must be >= 1, got {self.m}")
        if 2 * self.m >= n:
            raise BandTooWide(f"band limit {self.m} violates 2*m < n for n={n}")
        # overflow is detected below and reported as NonFiniteData
        with np.errstate(over="ignore", invalid="ignore"):
            self.d_ac = self.panel.curve_dft(self.m).copy()
            self.ybar = self.panel.y.mean(axis=1)
            self.mean_sq = float((self.panel.y**2).sum()) / (n * self.panel.n_curves)
        self.freqs = np.arange(-self.m, self.m + 1)
        if not (np.isfinite(self.mean_sq) and np.isfinite(self.ybar).all()
                and np.isfinite(self.d_ac).all()):
            raise NonFiniteData("panel moments or DFT coefficients are not finite")
        self.d_ac[:, self.m] = 0.0
        self.ac_trace = float(np.sum(np.abs(self.d_ac) ** 2)) / self.n_curves
        if self.regime.kind is Regime.A0:
            bound = self.regime.upsilon_max
            self.shift_constant = self.residual_term(np.clip(self.ybar, -bound, bound))
        else:
            self.shift_constant = self.mean_sq - float(self.ybar @ self.ybar) / self.n_curves

    @property
    def n_curves(self) -> int:
        return self.panel.n_curves

    @property
    def n(self) -> int:
        return self.panel.grid.n

    def require_energy(self):
        """Raise DegenerateSpectrum if the band carries no energy (constant curves)."""
        # rounding residue of the coefficients of pure-level data is ~eps*scale,
        # so anything at (eps*scale)^2 in the trace is noise, not signal
        if self.ac_trace <= 1e-26 * max(1.0, self.mean_sq):
            raise DegenerateSpectrum("no spectral energy in the selected band")

    def residual_term(self, upsilon: np.ndarray) -> float:
        """(1/(nJ)) sum_{j,i} (y_ij - upsilon_j)^2 via cached moments."""
        j = self.n_curves
        return self.mean_sq + float(upsilon @ upsilon - 2.0 * (upsilon @ self.ybar)) / j


def rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise dot products by matmul: each row's bits are those of its 1-D ``a @ b``."""
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def criterion_stack(contexts, theta, a, upsilon) -> tuple[np.ndarray, np.ndarray]:
    """Criterion values (F,) and shape coefficients (F, 2m+1) of F contexts of one (J, m).

    Row f evaluates ``contexts[f]`` at (theta[f], a[f], upsilon[f]) with row-wise
    products only, so its bits are those of the row alone.  Its coefficients are
    chat_l (1 <= |l| <= m) with, in the l = 0 slot, the mean coefficient of
    :func:`profiled_mean` under A1 and zero under A0.
    """
    theta, a, upsilon = (np.asarray(v, dtype=float) for v in (theta, a, upsilon))
    ssq = rowdot(a, a)
    if np.any(ssq < np.finfo(float).tiny):
        raise DegenerateAmplitude("amplitude vector is zero")
    m = contexts[0].m
    d_ac, ybar, mean_sq = (np.array([getattr(ctx, k) for ctx in contexts]) for k in ("d_ac", "ybar", "mean_sq"))
    phases = np.exp(1j * (theta[:, :, None] * contexts[0].freqs))
    coeffs = (a[:, :, None] * phases * d_ac).sum(axis=1) / ssq[:, None]
    energy = (np.abs(coeffs) ** 2).sum(axis=1)
    a1 = np.array([ctx.regime.kind is Regime.A1 for ctx in contexts])
    coeffs[:, m] = mean = np.where(a1, rowdot(a, ybar - upsilon) / ssq, 0.0)
    # Python's float pow, not numpy's square: they differ in the last bit for
    # about 0.1% of inputs, and the reports keep the bits of the former
    energy += [c ** 2 for c in mean.tolist()]
    residual = mean_sq + (rowdot(upsilon, upsilon) - 2.0 * rowdot(upsilon, ybar)) / theta.shape[1]
    return residual - energy, coeffs


def profiled_coefficients(ctx: CriterionContext, theta, a) -> ShapeSpectrum:
    """Best-fitting shape coefficients chat_l for fixed shifts and scales.

    Only frequencies 1 <= |l| <= m are filled: on this grid the exponential
    sums at those frequencies kill any constant level, so level centering
    cannot change them.  The l = 0 slot is left at zero; see
    :func:`profiled_mean` for the A1 mean coefficient.
    """
    coeffs = criterion_stack([ctx], [theta], [a], [np.zeros(ctx.n_curves)])[1][0]
    coeffs[ctx.m] = 0.0
    return ShapeSpectrum(m=ctx.m, coeffs=coeffs)


def profiled_mean(ctx: CriterionContext, a, upsilon) -> float:
    """Mean coefficient chat_0 = sum_j a_j (ybar_j - upsilon_j) / sum_j a_j^2."""
    a = np.asarray(a, dtype=float)
    ssq = float(a @ a)
    if ssq < np.finfo(float).tiny:
        raise DegenerateAmplitude("amplitude vector is zero")
    return float(a @ (ctx.ybar - np.asarray(upsilon, dtype=float))) / ssq


def criterion_value(ctx: CriterionContext, theta, a, upsilon) -> float:
    """Objective value at (theta, a, upsilon) under the context's regime."""
    return float(criterion_stack([ctx], [theta], [a], [upsilon])[0][0])


def criterion_gradient(ctx: CriterionContext, theta, a, upsilon) -> np.ndarray:
    """Analytic gradient over the free coordinates.

    Layout matches :func:`model.free_parameter_labels`: shifts 2..J, then
    scales 2..J in the sphere chart a_1 = sqrt(J - sum_{j>=2} a_j^2), then
    the free levels (all J under A0, curves 2..J under A1).
    """
    theta = np.asarray(theta, dtype=float)
    a = np.asarray(a, dtype=float)
    upsilon = np.asarray(upsilon, dtype=float)
    j = ctx.n_curves
    ssq = float(a @ a)
    if ssq < np.finfo(float).tiny:
        raise DegenerateAmplitude("amplitude vector is zero")

    phases = np.exp(1j * np.outer(theta, ctx.freqs))
    weighted = a[:, None] * phases * ctx.d_ac       # row j: a_j e^{il theta_j} d_jl
    chat = weighted.sum(axis=0) / ssq

    # d|chat_l|^2 / dtheta_k = 2 Re(conj(chat_l) * i l a_k e^{il theta_k} d_kl) / ssq
    il = 1j * ctx.freqs
    denergy_dtheta = 2.0 * np.real((np.conj(chat) * il)[None, :] * weighted).sum(axis=1) / ssq

    # Unconstrained scale derivative; the normalization sum a^2 in chat
    # contributes the -2 a_k * energy term.
    per_curve = phases * ctx.d_ac
    energy_ac = float(np.real(np.vdot(chat, chat)))
    denergy_da = 2.0 * (
        np.real(np.conj(chat)[None, :] * per_curve).sum(axis=1) - 2.0 * a * energy_ac
    ) / ssq

    grad_ups = 2.0 * (upsilon - ctx.ybar) / j

    if ctx.regime.kind is Regime.A1:
        c0 = profiled_mean(ctx, a, upsilon)
        resid = ctx.ybar - upsilon
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
