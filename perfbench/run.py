"""shapealign benchmark: seeded fit and study workloads driven through the CLI.

Run from the repository root:

    python3 perfbench/run.py --workload fit-j3 --seed 1 --seconds 60 --trace 0

``--trace 0`` prints the end-to-end metrics, measured with tracing off;
``--trace 1`` prints the per-layer metrics of a separate, serial, traced run.
``--workload all`` runs every workload of ``BENCHMARK.json`` in turn and
``--tiny`` shrinks the inputs so a run takes seconds.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``;
the lines before it give the environment, sample counts and any failed check.
The exit code is 0 when every output check passed, 1 when one failed and 2
when the program's sources are missing.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from math import ceil
from pathlib import Path

import workloads as wl
from worker import MODES

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_REPS = 9
# The highest percentile with at least ten inputs beyond it on fit-j3.
TAIL_PCT = 75.0
WORKER_TIMEOUT_S = 170
# The reference kernel's fastest time on the machine the benchmark was
# written on (2-vCPU VM, Python 3.11.7, numpy 2.4.6).  Times are reported as
# multiples of the kernel's time beside them, times this, so they read as
# wall times there when its host is calm.
REF_KERNEL_S = 0.9e-3

END_TO_END = {   # name -> unit
    "fit_p50_ms": "ms",
    "fit_tail_ms": "ms",
    "fits_per_s": "1/s",
    "study_s": "s",
    "study_par2_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
PER_LAYER = {
    "io.read_panel_ms": "ms",
    "io.write_ms": "ms",
    "fourier.context_ms": "ms",
    "fit.start_scan_ms": "ms",
    "fit.start_scan_self_ms": "ms",
    "fit.start_candidates": "count",
    "fit.search_ms": "ms",
    "criterion.evals_per_fit": "count",
    "criterion.eval_us": "us",
    "fit.iterations": "count",
    "fit.restarts": "count",
    "inference.ci_ms": "ms",
    "model.generate_ms": "ms",
    "montecarlo.fit_share": "1",
    "montecarlo.overhead_ms": "ms",
    "montecarlo.par2_speedup": "1",
    "tracing.overhead_ratio": "1",
}
# The layer each workload was chosen for; the traced run reports whether it
# has the largest self-time share.
CHOSEN = {
    "fit-j3": ("search",),
    "fit-j8": ("start_scan",),
    "fit-n20k": ("io", "fourier"),
    "study-figure2": ("start_scan", "search", "fourier", "model"),
}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def loadavg() -> str:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return "unavailable"


def environment() -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        **{var: os.environ.get(var) for var in
           ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "SHAPEALIGN_THREADS")},
    }


def percentile(values: list[float], pct: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of values ranked above it."""
    ordered = sorted(values)
    rank = max(1, ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def failures(items, records) -> tuple[int, list[str]]:
    """Failed operations and why.

    An operation fails when it exits nonzero, when its output differs from the
    first output of the same input (a re-fit, or the 2-worker study against
    the serial one), or when that output fails the checks in ``workloads``.
    """
    notes = []
    bad_keys = {}
    for key, item in enumerate(items):
        first = Path(item.out + ".first")
        if not first.is_file():
            bad_keys[key] = ["no output written"]
            continue
        problems = wl.check_output(item, first.read_text(encoding="utf-8"))
        if problems:
            bad_keys[key] = problems
    for key, problems in bad_keys.items():
        notes += [f"input {key}: {p}" for p in problems]
    failed = 0
    for r in records:
        why = []
        if r["rc"] != 0:
            why.append(f"exit code {r['rc']}")
        if not r["same"]:
            why.append("output differs from the first output of the same input"
                       + (" (serial vs 2 workers)" if r["mode"] == "par2" else ""))
        if r["key"] in bad_keys:
            why.append("output check failed")
        if why:
            failed += 1
            if len(notes) < 20:
                notes.append(f"op {r['mode']} pass {r['pass']} input {r['key']}: "
                             + "; ".join(why))
    return failed, notes


def end_to_end(items, result) -> tuple[dict, list[str]]:
    """End-to-end metrics from the untraced closed loop.

    The speed of a small shared host drifts by up to 40% over minutes, for
    every operation alike.  So each operation's wall time is divided by that
    of the reference kernel timed right after it, and scaled by
    ``REF_KERNEL_S``: the host's speed at that moment cancels.  An input's
    time in a mode is the median of these over its repeats in that mode.  A
    pass runs every input once: ``study_s`` and ``study_par2_s`` are the
    serial and 2-worker passes so built (for the study workload, the whole
    study).  The fit latency percentiles are taken over inputs, in the faster
    mode; for the study, per replicate fit.  The raw wall times are printed
    as notes.
    """
    scaled: dict[tuple[int, str], list[float]] = {}
    fastest: dict[tuple[int, str], float] = {}
    for r in result["records"]:
        if r["pass"] >= 0:
            k = (r["key"], r["mode"])
            scaled.setdefault(k, []).append(r["latency"] / r["ref"] * REF_KERNEL_S)
            fastest[k] = min(fastest.get(k, r["latency"]), r["latency"])
    typical = {k: statistics.median(v) for k, v in scaled.items()}
    passes = {m: sum(typical[(k, m)] for k in range(len(items))) for m in MODES}
    per_pass_fits = sum(it.fits for it in items)
    per_fit = [min(typical[(k, m)] for m in MODES) / items[k].fits
               for k in range(len(items))]
    tail_value, beyond = percentile(per_fit, TAIL_PCT)
    setup = [t / ref * REF_KERNEL_S for t, ref in result["setup"]]
    metrics = {
        "fit_p50_ms": 1e3 * statistics.median(per_fit),
        "fit_tail_ms": 1e3 * tail_value,
        "fits_per_s": per_pass_fits / min(passes.values()),
        "study_s": passes["serial"],
        "study_par2_s": passes["par2"],
        "peak_rss_mb": result["maxrss_kb"] / 1024.0,
        "setup_s": statistics.median(setup),
    }
    raw_fit = [min(fastest[(k, m)] for m in MODES) / items[k].fits for k in range(len(items))]
    raw_pass = {m: sum(fastest[(k, m)] for k in range(len(items))) for m in MODES}
    refs = [r["ref"] for r in result["records"] if r["pass"] >= 0]
    repeats = {}
    for r in result["records"]:
        if r["pass"] >= 0:
            repeats[r["mode"]] = repeats.get(r["mode"], 0) + 1
    notes = [
        f"fit latency samples {len(per_fit)} inputs (each the median of its repeats); "
        f"tail is p{TAIL_PCT:g} with {beyond} inputs beyond it",
        "operations per mode " + ", ".join(f"{m} {n}" for m, n in repeats.items())
        + f"; setup samples {len(result['setup'])}",
        f"reference kernel median {1e3 * statistics.median(refs):.4g} ms, fastest "
        f"{1e3 * min(refs):.4g} ms; times are scaled to {1e3 * REF_KERNEL_S:g} ms",
        f"raw wall times (fastest repeat): fit_p50_ms {1e3 * statistics.median(raw_fit):.6g}, "
        f"study_s {raw_pass['serial']:.6g}, study_par2_s {raw_pass['par2']:.6g}, "
        f"setup_s {statistics.median(t for t, _ in result['setup']):.6g}",
    ]
    return metrics, notes


def per_layer(workload, result) -> tuple[dict, list[str]]:
    metrics, shares = result["layers"], result["shares"]
    chosen = sum(shares[g] for g in CHOSEN[workload.name])
    others = max((v for g, v in shares.items() if g not in CHOSEN[workload.name]), default=0.0)
    notes = [
        f"traced operations {result['traced_ops']} per pass, two traced passes",
        "self-time shares: " + ", ".join(f"{g} {v:.3f}" for g, v in shares.items()),
        f"chosen layer {'+'.join(CHOSEN[workload.name])} share {chosen:.3f}, "
        f"largest other {others:.3f}: {'leads' if chosen > others else 'does not lead'}",
    ]
    if result["count_mismatches"]:
        notes.append(f"count mismatch between the two traced passes in operations "
                     f"{result['count_mismatches'][:10]}")
    else:
        notes.append("counts identical between the two traced passes")
    return metrics, notes


def run_workload(name: str, seed: int, seconds: float, trace: bool, tiny: bool) -> dict:
    workload = wl.ALL[name]
    if tiny:
        workload = wl.tiny(workload)
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-{seed}-", dir=WORK))
    env_start = loadavg()
    try:
        items = wl.make_inputs(workload, seed, ROOT, work, tiny)
        spec = {
            "items": [{"argv": it.argv, "out": it.out} for it in items],
            "seconds": seconds, "trace": trace, "setup_reps": 2 if tiny else SETUP_REPS,
            "kind": workload.kind, "warmup": workload.kind == "fit",
            "result": str(work / "worker.json"),
        }
        (work / "spec.json").write_text(json.dumps(spec), encoding="utf-8")
        worker = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), str(work / "spec.json")],
            env=child_env(), timeout=WORKER_TIMEOUT_S)
        if worker.returncode != 0:
            raise RuntimeError(f"worker exited with code {worker.returncode}")
        result = json.loads((work / "worker.json").read_text(encoding="utf-8"))
        failed, fail_notes = failures(items, result["records"])
        # A traced operation whose counts differ between the two passes fails.
        failed += len(result.get("count_mismatches", []))
        if trace:
            metrics, notes = per_layer(workload, result)
            units = PER_LAYER
        else:
            metrics, notes = end_to_end(items, result)
            units = END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:   # not empty: another run is using it
            pass
    attempted = len(result["records"])
    return {
        "workload": name,
        "notes": notes + fail_notes,
        "env": {**environment(), "loadavg_start": env_start, "loadavg_end": loadavg()},
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }


def report(res: dict, seed: int, trace: bool):
    print(f"# workload {res['workload']} seed {seed} trace {int(trace)}")
    print("# env " + json.dumps(res["env"], sort_keys=True))
    for note in res["notes"]:
        print(f"# {note}")
    for name, m in res["metrics"].items():
        print(f"{res['workload']} {name} {m['value']:.6g} {m['unit']}")
    ratio = res["failed"] / res["attempted"]
    print(f"{res['workload']} failed_ratio {ratio:.6g} ({res['failed']}/{res['attempted']})")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*wl.ALL, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="small inputs, for smoke tests")
    args = parser.parse_args(argv)
    if not (SRC / "shapealign" / "__init__.py").is_file() or \
            not (ROOT / "fixtures" / "figure2.json").is_file():
        print(f"error: shapealign sources not found under {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    seed = args.seed % 2**32   # the study's base_seed and numpy need a nonnegative seed
    names = list(wl.WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    for name in names:
        res = run_workload(name, seed, args.seconds, bool(args.trace), args.tiny)
        report(res, seed, bool(args.trace))
        results.append(res)
    single = len(results) == 1
    final = {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": results[0]["metrics"] if single else {
            f"{r['workload']}/{k}": v for r in results for k, v in r["metrics"].items()},
    }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
