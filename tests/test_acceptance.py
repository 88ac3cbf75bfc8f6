"""Acceptance suite: one check per shipped guarantee, stated tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail
line per criterion.  Everything is seeded and deterministic.
"""

import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

import shapealign as sa
from shapealign.cli import main
from shapealign.model import ConstraintRegime
from conftest import (
    bandlimited_truth,
    boxplot_truth,
    decay_shape,
    random_hermitian_spectrum,
    sphere_scales,
)

FIXTURE_PANEL = os.path.join(os.path.dirname(__file__), "..", "fixtures", "synthetic_panel.csv")
FIXTURE_THETA = np.array([0.0, 0.21, 0.43])
FIXTURE_A = np.array([1.244823994329923, -0.597515517278363, 1.0456521552371354])
FIXTURE_UPSILON = np.array([44.0, 58.5, 60.2])
FIXTURE_SHAPE = sa.ShapeSpectrum.from_onesided({1: -8.5, 2: 1.2 + 0.8j, 3: -0.3 + 0.4j}, m=3)


def _report(num, name, ok, detail, elapsed, budget):
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"[{status}] criterion {num:02d} {name}: {detail} [{elapsed:.1f}s / {budget:.0f}s]")
    assert ok, f"criterion {num}: {detail}"
    assert elapsed < budget, f"criterion {num}: runtime {elapsed:.1f}s over budget {budget}s"


def _circ(x, y):
    return np.abs(np.mod(np.asarray(x) - np.asarray(y) + np.pi, 2 * np.pi) - np.pi)


def test_criterion_01_exact_orthogonality():
    start = time.perf_counter()
    rng = np.random.default_rng(1)
    worst = 0.0
    for n in (11, 101, 201):
        grid = sa.make_grid(n)
        half = (n - 1) // 2
        ls = rng.integers(-half, half + 1, size=1000)
        ps = rng.integers(-half, half + 1, size=1000)
        for l, p in zip(ls, ps):
            value = np.exp(1j * (l - p) * grid.points).sum() / n
            defect = abs(value - (1.0 if l == p else 0.0))
            worst = max(worst, defect)
    _report(1, "exact discrete orthogonality", worst < 1e-12,
            f"worst defect {worst:.2e} over 3000 pairs", time.perf_counter() - start, 5.0)


def test_criterion_02_noiseless_exact_recovery():
    start = time.perf_counter()
    from shapealign.io import read_panel
    panel = read_panel(FIXTURE_PANEL)
    assert panel.grid.n == 101
    result = sa.fit(panel, ConstraintRegime(), sa.FitConfig(m=5))
    spec, evaluator = sa.estimate_shape(result)
    target = sa.evaluate_spectrum(FIXTURE_SHAPE, panel.grid.points)
    errs = {
        "theta": float(np.max(_circ(result.beta_hat.theta, FIXTURE_THETA))),
        "a": float(np.max(np.abs(result.beta_hat.a - FIXTURE_A))),
        "upsilon": float(np.max(np.abs(result.beta_hat.upsilon - FIXTURE_UPSILON))),
        "sigma": result.sigma_hat,
        "objective": result.objective,
        "shape": float(np.max(np.abs(evaluator(panel.grid.points) - target))),
    }
    ok = (errs["theta"] < 1e-6 and errs["a"] < 1e-6 and errs["upsilon"] < 1e-10
          and errs["sigma"] < 1e-6 and errs["objective"] < 1e-12 and errs["shape"] < 1e-9)
    detail = ", ".join(f"{k}={v:.2e}" for k, v in errs.items())
    _report(2, "noiseless exact recovery", ok, detail, time.perf_counter() - start, 2.0)


def test_criterion_03_gradient_correctness():
    start = time.perf_counter()
    rng = np.random.default_rng(3)
    worst = 0.0
    for p in range(5):
        j = int(rng.integers(2, 5))
        truth, shape = bandlimited_truth(rng, j=j, degree=3, sigma=0.8)
        panel = sa.generate_panel(truth, shape, sa.make_grid(61), seed=300 + p)
        band, regime = panel.band(5), ConstraintRegime()
        for _ in range(10):
            theta = np.concatenate([[0.0], rng.uniform(0, 2 * np.pi, j - 1)])
            a = sphere_scales(rng, j)
            ups = rng.uniform(-2, 2, j)
            grad = sa.criterion_gradient(band, regime, theta, a, ups)
            free0 = np.concatenate([theta[1:], a[1:], ups])

            def value_at(free):
                th = np.concatenate([[0.0], free[: j - 1]])
                tail = free[j - 1 : 2 * (j - 1)]
                aa = np.concatenate([[np.sqrt(j - tail @ tail)], tail])
                return sa.criterion_value(band, regime, th, aa, free[2 * (j - 1):])

            h = 1e-6
            fd = np.empty_like(free0)
            for k in range(free0.size):
                e = np.zeros_like(free0)
                e[k] = h
                fd[k] = (value_at(free0 + e) - value_at(free0 - e)) / (2 * h)
            rel = np.max(np.abs(grad - fd)) / max(np.max(np.abs(fd)), 1e-12)
            worst = max(worst, rel)
    _report(3, "analytic gradient vs central differences", worst <= 1e-6,
            f"worst relative error {worst:.2e} over 50 points", time.perf_counter() - start, 10.0)


def test_criterion_04_criterion_identity():
    start = time.perf_counter()
    rng = np.random.default_rng(4)
    worst = 0.0
    for trial in range(20):
        j = int(rng.integers(2, 5))
        truth, shape = bandlimited_truth(rng, j=j, degree=3, sigma=0.7)
        panel = sa.generate_panel(truth, shape, sa.make_grid(61), seed=400 + trial)
        band, regime = panel.band(5), ConstraintRegime()
        theta = np.concatenate([[0.0], rng.uniform(0, 2 * np.pi, j - 1)])
        a = sphere_scales(rng, j)
        ups = rng.uniform(-2, 2, j)
        spec = sa.profiled_coefficients(band, theta, a)
        residual = 0.0
        for c in range(j):
            fitted = sa.evaluate_spectrum(spec, panel.grid.points - theta[c])
            r = panel.y[c] - a[c] * fitted - ups[c]
            residual += float(r @ r)
        residual /= panel.grid.n * j
        value = sa.criterion_value(band, regime, theta, a, ups)
        worst = max(worst, abs(value - residual))
    _report(4, "spectral criterion equals direct residual", worst <= 1e-10,
            f"worst gap {worst:.2e} over 20 panels", time.perf_counter() - start, 10.0)


def test_criterion_05_efficiency_calibration():
    start = time.perf_counter()
    truth, shape = boxplot_truth()
    config = sa.StudyConfig(truth=truth, shape=shape, n_list=(201,), replicates=200,
                            base_seed=1, fit_config=sa.FitConfig(m=5))
    cell = sa.run_study(config).cells[0]
    diag = np.diag(cell.ratios)
    cov = cell.empirical_covariance
    corr = cov / np.sqrt(np.outer(np.diag(cov), np.diag(cov)))
    max_cross = float(np.max(np.abs(corr[np.triu_indices(4, 1)])))
    bound = 3.0 / np.sqrt(200)
    ok = bool(np.all(np.abs(diag - 1.0) <= 0.25)) and max_cross <= bound and cell.failures == 0
    detail = (f"diag ratios {np.round(diag, 3)}, max |cross corr| {max_cross:.3f}"
              f" (bound {bound:.3f})")
    _report(5, "covariance matches efficiency bound", ok, detail,
            time.perf_counter() - start, 300.0)


def test_criterion_06_printed_inverse():
    start = time.perf_counter()
    rng = np.random.default_rng(6)
    worst_h = worst_b = 0.0
    for j in (2, 3, 5):
        for _ in range(100):
            a = sphere_scales(rng, j)
            spec = random_hermitian_spectrum(rng, 4)
            blocks = sa.efficiency_blocks(a, spec, sigma=1.0)
            numeric = np.linalg.inv(blocks.h)
            worst_h = max(worst_h, np.linalg.norm(blocks.h_inv - numeric)
                          / np.linalg.norm(numeric))
            spec_a1 = sa.ShapeSpectrum.from_onesided(
                {1: 0.8, 2: 0.3}, c0=float(rng.uniform(-2, 2)))
            alt = sa.a1_covariance(a, spec_a1, sigma=1.0)
            worst_b = max(worst_b, alt.identity_residual())
    ok = worst_h <= 1e-8 and worst_b <= 1e-8
    _report(6, "closed-form inverses check out", ok,
            f"worst H relative gap {worst_h:.2e}, worst B*Binv defect {worst_b:.2e}",
            time.perf_counter() - start, 5.0)


def test_criterion_07_constraint_regime_contrast():
    start = time.perf_counter()
    truth, shape = boxplot_truth()
    comp = sa.compare_regimes(truth, shape, 201, replicates=200, base_seed=1,
                              fit_config=sa.FitConfig(m=5))
    emp, theory = float(comp.corr_a1[0]), float(comp.corr_a1_theory[0])
    diag_ratio = comp.a1_cov_diag / comp.a1_cov_diag_theory
    ok = (emp < 0.0
          and abs(emp - theory) <= 0.35 * abs(theory)
          and abs(float(comp.corr_a0[0])) <= 0.21
          and bool(np.all(np.abs(diag_ratio - 1.0) <= 0.35))
          and comp.failures == 0)
    detail = (f"A1 corr {emp:.3f} vs theory {theory:.3f}, A0 corr {float(comp.corr_a0[0]):.3f}, "
              f"A1 diag ratios {np.round(diag_ratio, 3)}")
    _report(7, "regime choice changes the coupling", ok, detail,
            time.perf_counter() - start, 600.0)


def test_criterion_08_mise_rate():
    start = time.perf_counter()
    a = np.array([1.0, 1.1])
    a = a * np.sqrt(2 / (a @ a))
    truth = sa.ParameterSet(theta=[0.0, 1.3], a=a, upsilon=[0.4, -0.6], sigma=1.0)
    shape = decay_shape(1.0, band=50)  # |c_l| = l^(-2.5): twice differentiable scale
    curve = sa.mise_curve(truth, shape, [101, 201, 401, 801], smoothness=2,
                          replicates=50, base_seed=5)
    ok = -1.1 <= curve.slope <= -0.5
    totals = [round(p.total, 5) for p in curve.points]
    _report(8, "shape error shrinks at the nonparametric rate", ok,
            f"slope {curve.slope:.3f} (window [-1.1, -0.5]), totals {totals}",
            time.perf_counter() - start, 600.0)


def test_criterion_09_consistency_trend():
    start = time.perf_counter()
    a = np.array([1.0, 1.1])
    a = a * np.sqrt(2 / (a @ a))
    truth = sa.ParameterSet(theta=[0.0, 1.3], a=a, upsilon=[0.4, -0.6], sigma=1.0)
    shape = decay_shape(1.0, band=50)  # band far above the fitted one
    medians = {}
    from shapealign.montecarlo import _replicate_chunk
    for n in (101, 801):
        errs = []
        for r in range(50):
            [(fits,)] = _replicate_chunk((truth, shape, (ConstraintRegime().kind,), [(n, sa.FitConfig(), [5 + r])]))
            e = fits.free[0] - truth.free_values()
            e[0] = np.mod(e[0] + np.pi, 2 * np.pi) - np.pi
            errs.append(float(np.max(np.abs(e))))
        medians[n] = float(np.median(errs))
    ok = medians[801] < medians[101]
    _report(9, "errors shrink with the sample size", ok,
            f"median sup-error {medians[101]:.4f} at n=101 vs {medians[801]:.4f} at n=801",
            time.perf_counter() - start, 600.0)


def test_criterion_10_cli_contract(tmp_path):
    start = time.perf_counter()
    out1, out2 = str(tmp_path / "r1.json"), str(tmp_path / "r2.json")
    code1 = main(["fit", "--input", FIXTURE_PANEL, "--m", "5", "--out", out1])
    code2 = main(["fit", "--input", FIXTURE_PANEL, "--m", "5", "--out", out2])
    bytes1, bytes2 = Path(out1).read_bytes(), Path(out2).read_bytes()
    doc = json.loads(bytes1)
    recovered = (
        float(np.max(_circ(doc["theta"], FIXTURE_THETA))) < 1e-6
        and float(np.max(np.abs(np.array(doc["a"]) - FIXTURE_A))) < 1e-6
        and float(np.max(np.abs(np.array(doc["upsilon"]) - FIXTURE_UPSILON))) < 1e-10
        and doc["sigma"] < 1e-6
    )

    bad = tmp_path / "bad.csv"
    bad.write_text("t,a,b\n0.0,1.0\n")
    even = tmp_path / "even.csv"
    even.write_text("\n".join(["t,a,b"] + [f"{2*np.pi*i/10},{i},{i}" for i in range(10)]) + "\n")
    codes = (
        code1, code2,
        main(["fit", "--input", str(bad), "--out", str(tmp_path / "x.json")]),
        main(["fit", "--input", str(even), "--out", str(tmp_path / "x.json")]),
        main(["fit", "--input", FIXTURE_PANEL, "--m", "200", "--out", str(tmp_path / "x.json")]),
        main(["fit"]),
    )
    ok = (codes == (0, 0, 1, 1, 1, 1)) and bytes1 == bytes2 and recovered
    _report(10, "command line honors its contract", ok,
            f"exit codes {codes}, byte-stable {bytes1 == bytes2}, recovered {recovered}",
            time.perf_counter() - start, 5.0)
