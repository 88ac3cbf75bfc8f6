"""The measured process: runs one workload's closed loop through ``shapealign.cli.main``.

Usage: ``python3 perfbench/worker.py SPEC.json`` with ``src`` on PYTHONPATH.
``run.py`` writes the spec (operations, seconds, trace flag) and reads the
result file this writes.  One caller, closed loop: the next operation starts
only after the previous one returned.

Untraced, passes over the inputs alternate between ``SHAPEALIGN_THREADS``
unset and ``SHAPEALIGN_THREADS=2``; the BLAS thread variables are left as
inherited.  Traced, the run is serial: pass A traced, pass U untraced, pass B
traced, all over the same operations; A and B must give identical counts.

After every operation and every set-up sample the worker times a fixed
reference kernel of its own, so that ``run.py`` can express each time in
units of the host's speed at that moment.
"""

from __future__ import annotations

import json
import os
import resource
import subprocess
import sys
import traceback
from time import perf_counter

import numpy as np

import spans

MODES = ("serial", "par2")
MIN_PASSES = 4

_REF_Y = np.fft.rfft(np.random.default_rng(12345).standard_normal((3, 201)), axis=1)[:, 1:6]
_REF_FREQS = np.arange(1, 6)


def reference_time() -> float:
    """Wall time of a fixed kernel that owes nothing to shapealign.

    Like the fits, it is Python-level iteration over small complex numpy
    arrays: a few steps of gradient descent on a three-curve Fourier shift
    criterion.  It takes about a millisecond, so the host's speed hardly
    changes between an operation and the kernel timed right after it.
    """
    t0 = perf_counter()
    theta, a = np.array([0.0, 0.7, 2.1]), np.ones(3)
    for _ in range(40):
        phase = np.exp(1j * np.outer(theta, _REF_FREQS))
        c = (a[:, None] * _REF_Y * phase).sum(axis=0) / 3.0
        r = _REF_Y * phase.conj() - a[:, None] * c[None, :]
        grad = -2.0 * (r.conj() * (1j * _REF_FREQS) * a[:, None] * c[None, :]).real.sum(axis=1)
        for j in range(3):
            theta[j] -= 1e-3 * float(grad[j])
    return perf_counter() - t0


def set_mode(mode: str):
    if mode == "serial":
        os.environ.pop("SHAPEALIGN_THREADS", None)
    else:
        os.environ["SHAPEALIGN_THREADS"] = "2"


class Loop:
    """Runs operations and compares each output with the first of its input."""

    def __init__(self, items):
        from shapealign import cli
        self.main = cli.main
        self.items = items
        self.first: dict[int, bytes | None] = {}
        self.records = []

    def op(self, key: int, mode: str, pass_no: int, tracer=None):
        argv, out = self.items[key]["argv"], self.items[key]["out"]
        t0 = perf_counter()
        try:
            rc = tracer.root(self.main, argv) if tracer else self.main(argv)
        except Exception:  # a crash is a failed operation, not a crashed benchmark
            traceback.print_exc()
            rc = -1
        latency = perf_counter() - t0
        try:
            with open(out, "rb") as fh:
                data = fh.read()
        except OSError:
            data = None
        if key not in self.first:
            self.first[key] = data
            if data is not None:
                with open(out + ".first", "wb") as fh:
                    fh.write(data)
        same = data is not None and data == self.first[key]
        self.records.append({"key": key, "mode": mode, "pass": pass_no, "latency": latency,
                             "ref": reference_time(), "rc": rc, "same": same})
        return latency


def setup_time() -> list[float]:
    """Wall time of a fresh interpreter importing shapealign and its CLI, and
    the median of three reference kernel times right before it.

    The kernel runs before the child, whose start leaves the parent's caches
    cold.  No timeout: with one, subprocess polls the child and the poll
    interval, not the import, sets the measured time.
    """
    ref = sorted(reference_time() for _ in range(3))[1]
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", "import shapealign, shapealign.cli"], check=True)
    return [perf_counter() - t0, ref]


def untraced(loop: Loop, spec: dict) -> dict:
    set_mode("serial")
    setup_time()   # untimed: fills the bytecode cache a user already has
    for _ in range(20):
        reference_time()
    if spec["warmup"]:
        loop.op(0, "warmup", -1)
    reps = spec["setup_reps"]
    setup = []
    start = perf_counter()
    passes = 0
    # At least MIN_PASSES passes, so each input runs at least twice in each
    # mode; then stop before a pass that would likely end past the budget.
    # Set-up samples are spread over the run, between operations, so that
    # their median does not rest on one moment of the host's load.
    while passes < MIN_PASSES or (perf_counter() - start) * (passes + 1) / passes <= spec["seconds"]:
        mode = MODES[passes % 2]
        set_mode(mode)
        for key in range(len(loop.items)):
            loop.op(key, mode, passes)
            if len(setup) < reps and perf_counter() - start >= len(setup) * spec["seconds"] / reps:
                setup.append(setup_time())
        passes += 1
    set_mode("serial")
    while len(setup) < reps:
        setup.append(setup_time())
    return {"setup": setup}


def traced(loop: Loop, spec: dict) -> dict:
    set_mode("serial")
    if spec["warmup"]:
        loop.op(0, "warmup", -1)
    tracer = spans.Tracer()
    budget = spec["seconds"] * 0.25
    size = len(loop.items)

    def run(count, pass_no, offset, traced_pass, mode="serial"):
        set_mode(mode)
        total = 0.0
        for i in range(count):
            tracer.run_id = offset + i
            total += loop.op(i % size, mode, pass_no, tracer if traced_pass else None)
        return total

    with tracer.installed():
        # Whole passes over the inputs, so that per-fit means of counts are the
        # same in every run with the seed; stop before a pass that would likely
        # end past the budget.
        start = perf_counter()
        count = 0
        while count == 0 or (perf_counter() - start) * (count + size) / count <= budget:
            for key in range(size):
                tracer.run_id = count
                loop.op(key, "serial", 0, tracer)
                count += 1
        wall_a = sum(r["latency"] for r in loop.records[-count:])
    wall_u = run(count, 1, 0, False)
    with tracer.installed():
        wall_b = run(count, 2, count, True)
    metrics, shares, counts = spans.derive(tracer, range(2 * count))
    par2 = run(count, 3, 0, False, "par2") if spec["kind"] == "study" else 0.0
    set_mode("serial")
    metrics["montecarlo.par2_speedup"] = wall_u / par2 if par2 else 0.0
    metrics["tracing.overhead_ratio"] = (wall_a + wall_b) / (2.0 * wall_u)
    mismatches = [i for i in range(count) if counts.get(i) != counts.get(count + i)]
    return {"layers": metrics, "shares": shares, "count_mismatches": mismatches,
            "traced_ops": count}


def main(path: str) -> int:
    with open(path, encoding="utf-8") as fh:
        spec = json.load(fh)
    loop = Loop(spec["items"])
    result = traced(loop, spec) if spec["trace"] else untraced(loop, spec)
    result["records"] = loop.records
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
