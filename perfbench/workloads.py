"""Workload table, seeded inputs and output checks of the shapealign benchmark.

The benchmark draws every truth from the workload seed and hands the program
only files: panel CSVs written with ``shapealign.io.write_panel`` and, for the
study, a copy of ``fixtures/figure2.json`` whose ``base_seed`` is the seed.
The checks read the program's outputs back and compare them with the truth
the benchmark kept to itself.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# True common shape, as one-sided coefficients (l, modulus, argument).  Its
# band of 3 lies inside the fitted band of every fit workload (m = 3 at
# n = 201, m = 11 at n = 20001), so the estimates carry no truncation bias.
SHAPE = ((1, 1.0, 0.0), (2, 0.5, 0.3), (3, 0.25, 1.1))
SIGMA = 0.5
# True shifts sit at least this far apart (radians, on the circle), far more
# than SE_MULTIPLE standard errors, so a result with permuted shifts fails.
MIN_SEPARATION = 0.5
# An estimate further than this many reported standard errors from the truth
# fails; at 6 the chance of a false alarm is about 2e-9 per parameter.
SE_MULTIPLE = 6.0
# Off-diagonal ratios whose theoretical covariance is exactly zero are null
# by design in the study report; only entries above this are checked.
THEORY_ZERO = 1e-12


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str            # "fit": one CLI fit per operation; "study": one CLI simulate
    curves: int = 0
    n: int = 0
    # Distinct inputs; every pass of the closed loop runs each once.  Few
    # enough that each input repeats several times in each mode within a run.
    # For the study: the parts its replicates are split into.
    pool: int = 1


# The workloads of BENCHMARK.json, run by ``--workload all``.
WORKLOADS = {w.name: w for w in (
    Workload("fit-j3", "fit", curves=3, n=201, pool=40),
    Workload("study-figure2", "study", pool=20),
)}
# Runnable by name, but not in BENCHMARK.json: the contract's time limit
# allows 60 s runs for two workloads only, and fit-j8's memory-bound start
# scan slows under host drift more than the reference kernel does.
EXTRA = {w.name: w for w in (
    Workload("fit-j8", "fit", curves=8, n=201, pool=4),
    Workload("fit-n20k", "fit", curves=3, n=20001, pool=8),
)}
ALL = {**WORKLOADS, **EXTRA}


def tiny(workload: Workload) -> Workload:
    """The same workload at a size that runs in about a second."""
    return Workload(workload.name, workload.kind, curves=workload.curves,
                    n=min(workload.n, 2001), pool=min(workload.pool, 2))


TINY_REPLICATES = 4


@dataclass
class Item:
    """One input of a workload and where the program writes its output."""

    argv: list[str]
    out: str
    truth: dict | None = None     # fit: {"theta": [...], "a": [...]}
    fits: int = 1                 # fits the program performs for this input


def _draw_truth(rng: np.random.Generator, curves: int):
    while True:
        theta = np.concatenate([[0.0], rng.uniform(0.0, 2.0 * math.pi, curves - 1)])
        gap = np.abs(np.mod(theta[:, None] - theta[None, :] + math.pi, 2.0 * math.pi) - math.pi)
        if gap[np.triu_indices(curves, 1)].min() > MIN_SEPARATION:
            break
    a = rng.uniform(0.6, 1.4, curves)
    a *= math.sqrt(curves / float(a @ a))          # on the sphere sum a^2 = J, a_1 > 0
    upsilon = rng.uniform(-5.0, 5.0, curves)
    return theta, a, upsilon


def _panel_values(rng, theta, a, upsilon, n):
    t = 2.0 * math.pi * np.arange(n) / n
    y = np.empty((theta.size, n))
    for j in range(theta.size):
        f = sum(2.0 * modulus * np.cos(l * (t - theta[j]) + arg) for l, modulus, arg in SHAPE)
        y[j] = a[j] * f + upsilon[j] + SIGMA * rng.standard_normal(n)
    return y


def make_inputs(workload: Workload, seed: int, root: Path, work: Path,
                tiny_mode: bool) -> list[Item]:
    """Write the workload's inputs for ``seed`` into ``work``; same seed, same files."""
    from shapealign.fourier import make_grid
    from shapealign.io import write_panel
    from shapealign.model import CurvePanel

    if workload.kind == "study":
        # The study's replicates r = 0 .. R-1 use the seeds base_seed + r.  Part
        # k runs the replicates k*R/pool .. (k+1)*R/pool - 1, so one pass over
        # the parts fits exactly the panels of the whole study with
        # base_seed = seed, in operations short enough to repeat many times.
        doc = json.loads((root / "fixtures" / "figure2.json").read_text(encoding="utf-8"))
        replicates = TINY_REPLICATES if tiny_mode else doc["replicates"]
        part = replicates // workload.pool
        doc["replicates"] = part
        items = []
        for k in range(workload.pool):
            doc["base_seed"] = seed + k * part
            config = work / f"study{k}.json"
            config.write_text(json.dumps(doc), encoding="utf-8")
            out = str(work / f"report{k}.json")
            fits = part * len(doc["n_list"]) * len(doc.get("regimes", ["a0"]))
            items.append(Item(["simulate", "--config", str(config), "--out", out], out,
                              fits=fits))
        return items

    rng = np.random.default_rng([seed, sorted(ALL).index(workload.name)])
    grid = make_grid(workload.n)
    items = []
    for p in range(workload.pool):
        theta, a, upsilon = _draw_truth(rng, workload.curves)
        y = _panel_values(rng, theta, a, upsilon, workload.n)
        csv = work / f"panel{p}.csv"
        write_panel(str(csv), CurvePanel(grid=grid, y=y))
        out = str(work / f"result{p}.json")
        items.append(Item(["fit", "--input", str(csv), "--out", out], out,
                          truth={"theta": theta.tolist(), "a": a.tolist()}))
    return items


def _circular(x: float) -> float:
    return (x + math.pi) % (2.0 * math.pi) - math.pi


def _finite(x) -> bool:
    return isinstance(x, (int, float)) and math.isfinite(x)


def check_fit_result(doc: dict, truth: dict) -> list[str]:
    """Problems with one ``result.json`` against the truth; empty when correct."""
    problems = []
    if doc.get("diagnostics", {}).get("converged") is not True:
        problems.append("converged is not true")
    cov = doc.get("covariance")
    if not cov:
        return problems + ["no covariance reported"]
    index = {label: k for k, label in enumerate(cov["labels"])}
    for name, circular in (("theta", True), ("a", False)):
        for j in range(1, len(truth[name])):
            label = f"{name}_{j + 1}"
            estimate = doc[name][j]
            k = index.get(label)
            var = cov["matrix"][k][k] if k is not None else None
            if not (_finite(estimate) and _finite(var) and var >= 0.0):
                problems.append(f"{label}: estimate or variance not finite")
                continue
            err = estimate - truth[name][j]
            if circular:
                err = _circular(err)
            if abs(err) > SE_MULTIPLE * math.sqrt(var):
                problems.append(f"{label}: {estimate:.6g} is {abs(err) / math.sqrt(var):.1f} "
                                f"standard errors from the truth {truth[name][j]:.6g}")
    return problems


def check_study_report(doc: dict) -> list[str]:
    """Problems with one study report; empty when correct."""
    problems = []
    for cell in doc.get("cells", []):
        where = f"cell n={cell.get('n')} regime={cell.get('regime')}"
        if cell.get("invalid") is not False:
            problems.append(f"{where}: invalid")
        for theory_row, ratio_row in zip(cell["theory_covariance"], cell["ratios"]):
            for theory, ratio in zip(theory_row, ratio_row):
                if not _finite(theory):
                    problems.append(f"{where}: theoretical covariance not finite")
                elif abs(theory) > THEORY_ZERO and not _finite(ratio):
                    problems.append(f"{where}: covariance ratio not finite")
    if not doc.get("cells"):
        problems.append("report has no cells")
    return problems


def check_output(item: Item, text: str) -> list[str]:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        return [f"output is not JSON: {exc}"]
    if item.truth is not None:
        return check_fit_result(doc, item.truth)
    return check_study_report(doc)
