"""Estimation criterion: profiled spectrum, objective value, gradient.

For shifts theta and scales a, the best-fitting common-shape coefficients
have the closed form

    chat_l = (sum_j a_j^2)^{-1} * sum_j a_j e^{i l theta_j} d_{j,l},

where d_{j,l} are per-curve DFT coefficients.  Substituting them back into
the least-squares fit collapses, by discrete orthogonality, to

    value = (1/(nJ)) sum_{j,i} (y_ij - upsilon_j)^2 - sum_l |chat_l|^2,

which is what the fit minimizes.  Under A0 the band is 1 <= |l| <= m and
levels enter only through the first sum; under A1 the l = 0 coefficient
(computed from level-centered data) joins the spectral sum.

With levels and scales profiled out too, the criterion over the shifts is
C - lambda_max(Q(theta)), Q = Re(W W^H) / J, W_jl = e^{i l theta_j} d_jl
(1 <= |l| <= m), C a per-panel constant: :func:`profiled_shift_objective`
gives it with its gradient and exact Hessian from one eigendecomposition.
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

    ``d[j, l + m]`` caches the per-curve DFT coefficients for l = -m..m
    (the l = 0 column holds the curve means, used only under A1);
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
            blocks = self.panel.curve_dft(self.m)
            self.d = np.vstack([b.coeffs for b in blocks])
            self.ybar = self.panel.y.mean(axis=1)
            self.mean_sq = float((self.panel.y**2).sum()) / (n * self.panel.n_curves)
        self.freqs = np.arange(-self.m, self.m + 1)
        if not (np.isfinite(self.mean_sq) and np.isfinite(self.ybar).all()
                and np.isfinite(self.d).all()):
            raise NonFiniteData("panel moments or DFT coefficients are not finite")
        self.d_ac = self.d.copy()
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


def _phase_matrix(ctx: CriterionContext, theta: np.ndarray) -> np.ndarray:
    """e^{i l theta_j} for l = -m..m, shaped like ctx.d."""
    return np.exp(1j * np.outer(theta, ctx.freqs))


def profiled_coefficients(ctx: CriterionContext, theta, a) -> ShapeSpectrum:
    """Best-fitting shape coefficients chat_l for fixed shifts and scales.

    Only frequencies 1 <= |l| <= m are filled: on this grid the exponential
    sums at those frequencies kill any constant level, so level centering
    cannot change them.  The l = 0 slot is left at zero; see
    :func:`profiled_mean` for the A1 mean coefficient.
    """
    theta = np.asarray(theta, dtype=float)
    a = np.asarray(a, dtype=float)
    ssq = float(a @ a)
    if ssq < np.finfo(float).tiny:
        raise DegenerateAmplitude("amplitude vector is zero")
    weighted = (a[:, None] * _phase_matrix(ctx, theta) * ctx.d).sum(axis=0) / ssq
    weighted[ctx.m] = 0.0
    return ShapeSpectrum(m=ctx.m, coeffs=weighted)


def profiled_mean(ctx: CriterionContext, a, upsilon) -> float:
    """Mean coefficient chat_0 = sum_j a_j (ybar_j - upsilon_j) / sum_j a_j^2."""
    a = np.asarray(a, dtype=float)
    ssq = float(a @ a)
    if ssq < np.finfo(float).tiny:
        raise DegenerateAmplitude("amplitude vector is zero")
    return float(a @ (ctx.ybar - np.asarray(upsilon, dtype=float))) / ssq


def criterion_value(ctx: CriterionContext, theta, a, upsilon) -> float:
    """Objective value at (theta, a, upsilon) under the context's regime."""
    upsilon = np.asarray(upsilon, dtype=float)
    spec = profiled_coefficients(ctx, theta, a)
    energy = spec.power_ac
    if ctx.regime.kind is Regime.A1:
        energy += profiled_mean(ctx, a, upsilon) ** 2
    return ctx.residual_term(upsilon) - energy


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

    phases = _phase_matrix(ctx, theta)
    weighted = a[:, None] * phases * ctx.d          # row j: a_j e^{il theta_j} d_jl
    chat = weighted.sum(axis=0) / ssq
    chat[ctx.m] = 0.0

    # d|chat_l|^2 / dtheta_k = 2 Re(conj(chat_l) * i l a_k e^{il theta_k} d_kl) / ssq
    il = 1j * ctx.freqs
    denergy_dtheta = 2.0 * np.real((np.conj(chat) * il)[None, :] * weighted).sum(axis=1) / ssq

    # Unconstrained scale derivative; the normalization sum a^2 in chat
    # contributes the -2 a_k * energy term.
    per_curve = phases * ctx.d
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
    """Profiled shift criterion at one shift vector; derivatives over theta_2..theta_J.

    ``hess`` is None if not requested, or at a tie (leading gap < EIGENVALUE_TIE);
    ``energy``, ``lead`` are the leading eigenpair of Q (``lead``'s sign arbitrary).
    """

    value: float
    grad: np.ndarray
    hess: np.ndarray | None
    energy: float
    lead: np.ndarray
    tie_break: bool


def shift_objective_stack(d_ac: np.ndarray, owner, x: np.ndarray, constant):
    """Profiled criterion C - lambda_max(Q) at K rows of free shifts ``x`` (K, J-1).

    Row k uses band coefficients ``d_ac[owner[k]]`` of the (F, J, 2m+1) stack
    and constant ``constant[k]``.  Every product is a stacked matmul and Q has
    one stacked ``eigh``, so a row's bits do not depend on the other rows.
    Returns values (K,), gradients (K, J-1) and, for the exact Hessian, the
    stacks lW, eigenvalues and eigenvectors of Q, R and R v.
    """
    j, width = d_ac.shape[1], d_ac.shape[2]
    freqs = np.arange(width) - width // 2
    theta = np.concatenate([np.zeros((len(x), 1)), x], axis=1)
    w = np.exp(1j * theta[:, :, None] * freqs) * d_ac[owner]
    wh = w.conj().transpose(0, 2, 1)
    eigvals, eigvecs = np.linalg.eigh((w @ wh).real / j)
    lw = w * freqs
    # r[k, p] = Re sum_l i l W_kl conj(W_pl), so (r v)_k = Re sum_l i l W_kl conj(u_l)
    r = -(lw @ wh).imag
    rv = (r @ eigvecs[:, :, -1:])[:, :, 0]
    grad = -2.0 * (eigvecs[:, :, -1] * rv)[:, 1:] / j
    return constant - eigvals[:, -1], grad, (lw, eigvals, eigvecs, r, rv)


def profiled_shift_objective(ctx: CriterionContext, x, hessian: bool = False) -> ShiftEvaluation:
    """Criterion at free shifts ``x`` = theta_2..theta_J (theta_1 = 0), profiled: C - lambda_max(Q).

    The one-row case of :func:`shift_objective_stack`: one W, one
    Q = Re(W W^H)/J, one eigendecomposition.  With v the leading unit
    eigenvector and u = v'W, Hellmann-Feynman gives d lambda / d theta_k
    = 2 v_k Re sum_l i l W_kl conj(u_l) / J; the Hessian adds v' d2Q v to the
    second-order perturbation sum over the other eigenpairs.

    Raises
    ------
    DegenerateSpectrum
        If Q carries no energy at all (constant curves).
    """
    ctx.require_energy()
    j = ctx.n_curves
    value, grad, rows = shift_objective_stack(ctx.d_ac[None], [0], np.atleast_2d(x), ctx.shift_constant)
    lw, eigvals, eigvecs, r, rv = (a[0] for a in rows)
    v = eigvecs[:, -1]
    tie = bool(eigvals[-1] - eigvals[-2] < EIGENVALUE_TIE)
    hess = None
    if hessian and not tie:
        s = (lw @ lw.conj().T).real
        # v' d2Q/dtheta_k dtheta_p v = -(2/J) (delta_kp v_k (s v)_k - v_k v_p s_kp)
        d2q = 2.0 * (np.outer(v, v) * s - np.diag(v * (s @ v))) / j
        # mix[i, k] = e_i' dQ/dtheta_k v over the other eigenvectors e_i
        others = eigvecs[:, :-1]
        mix = (others.T * rv + (r @ others).T * v) / j
        d2lam = d2q + 2.0 * (mix.T / (eigvals[-1] - eigvals[:-1])) @ mix
        hess = -d2lam[1:, 1:]
    return ShiftEvaluation(
        value=float(value[0]),
        grad=grad[0],
        hess=hess,
        energy=float(eigvals[-1]),
        lead=v,
        tie_break=tie,
    )


def phase_weight(offsets, a, a_star) -> complex:
    """Amplitude-weighted phase average sum_j a_j a*_j e^{i x_j} / J.

    Bounded by 1 in modulus whenever both scale vectors lie on the sphere;
    equality at zero offsets is what pins the criterion's minimum to the
    true shifts.
    """
    offsets = np.asarray(offsets, dtype=float)
    a = np.asarray(a, dtype=float)
    a_star = np.asarray(a_star, dtype=float)
    return complex((a * a_star * np.exp(1j * offsets)).sum() / a.size)
