"""Spans recorded from outside the program, at the boundaries between layers.

The tracer replaces a public function with a wrapper in the module that looks
it up, for example ``shapealign.cli.read_panel`` and
``shapealign.fit.criterion_gradient``.  Each call records a span (name, start,
end, parent span, run id) in compact arrays that stay in memory until the run
ends.  Self time, per-fit counts and per-layer metrics are derived from them.
A name the program no longer has is skipped, and the metrics fed by it read 0.

Submodules are reached through ``importlib.import_module``:
``import shapealign.fit`` binds the function ``fit``, which the package
re-exports under the submodule's name.
"""

from __future__ import annotations

import importlib
from array import array
from contextlib import contextmanager
from time import perf_counter

# (module, attribute, span name); the span name's prefix is its layer.
TARGETS = (
    ("shapealign.cli", "read_panel", "io.read_panel"),
    ("shapealign.cli", "result_document", "io.result_document"),
    ("shapealign.cli", "dumps_canonical", "io.dumps_canonical"),
    ("shapealign.cli", "write_atomic", "io.write_atomic"),
    ("shapealign.cli", "load_study_config", "io.load_study_config"),
    ("shapealign.cli", "report_document", "io.report_document"),
    ("shapealign.cli", "fit", "fit.fit"),
    ("shapealign.cli", "confidence_intervals", "inference.confidence_intervals"),
    ("shapealign.cli", "run_study", "montecarlo.run_study"),
    ("shapealign.montecarlo", "fit", "fit.fit"),
    ("shapealign.montecarlo", "generate_panel", "model.generate_panel"),
    ("shapealign.fit", "CriterionContext", "fourier.context"),
    ("shapealign.model", "dft", "fourier.dft"),
    ("shapealign.fit", "initialize_shifts", "fit.initialize_shifts"),
    ("shapealign.fit", "profile_amplitude", "criterion.profile_amplitude"),
    ("shapealign.fit", "criterion_value", "criterion.criterion_value"),
    ("shapealign.fit", "criterion_gradient", "criterion.criterion_gradient"),
)
ROOT = "cli.main"
CRITERION = ("criterion.profile_amplitude", "criterion.criterion_value",
             "criterion.criterion_gradient")
# Self-time groups; start_scan and search take the criterion calls made under them.
GROUPS = ("io", "fourier", "start_scan", "search", "inference", "model", "montecarlo", "cli")


class Tracer:
    """In-memory span store for one serial process."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.run = array("i")
        self.start = array("d")
        self.end = array("d")
        self.fit_stats: dict[int, tuple[int, int]] = {}   # fit span -> (iterations, restarts)
        self._stack = [-1]
        self.run_id = 0

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def call(self, name_id: int, fn, args, kwargs):
        idx = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1])
        self.run.append(self.run_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        try:
            return fn(*args, **kwargs)
        finally:
            self.end[idx] = perf_counter()
            self._stack.pop()

    def wrap(self, fn, name: str):
        name_id = self._name_id(name)
        if name == "fit.fit":
            def wrapper(*args, **kwargs):
                idx = len(self.start)
                result = self.call(name_id, fn, args, kwargs)
                self.fit_stats[idx] = (int(getattr(result, "iterations", 0)),
                                       int(getattr(result, "restarts", 0)))
                return result
        else:
            def wrapper(*args, **kwargs):
                return self.call(name_id, fn, args, kwargs)
        return wrapper

    def root(self, fn, *args):
        """Run one operation under a root span named after the entry point."""
        return self.call(self._name_id(ROOT), fn, args, {})

    @contextmanager
    def installed(self):
        """Wrap every target for the duration of the block."""
        saved = []
        try:
            for module_name, attr, span in TARGETS:
                module = importlib.import_module(module_name)
                if hasattr(module, attr):
                    original = getattr(module, attr)
                    saved.append((module, attr, original))
                    setattr(module, attr, self.wrap(original, span))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)


def _group(name: str, under_scan: bool, under_fit: bool) -> str:
    if name == ROOT:
        return "cli"
    if name == "fit.initialize_shifts":
        return "start_scan"
    if name == "fit.fit":
        return "search"
    layer = name.split(".", 1)[0]
    if layer == "criterion":
        return "start_scan" if under_scan else "search" if under_fit else "cli"
    return layer


def derive(tr: Tracer, runs) -> tuple[dict, dict, dict]:
    """Per-layer metrics, self-time shares and per-run fit counts from the spans of ``runs``.

    Times are in ms: per call for ``io.read_panel_ms`` and ``inference.ci_ms``;
    per fit for the fit, fourier and criterion metrics; per operation (one
    root span) for ``io.write_ms``, ``model.generate_ms`` and the montecarlo
    metrics.  A metric whose layer did not run reads 0.
    """
    runs = set(runs)
    names = tr.names
    n = len(tr.start)
    dur = [tr.end[i] - tr.start[i] for i in range(n)]
    children = [0.0] * n
    fit_anc = [-1] * n
    scan_anc = [-1] * n
    for i in range(n):
        p = tr.parent[i]
        name = names[tr.name[i]]
        if p >= 0:
            children[p] += dur[i]
        fit_anc[i] = i if name == "fit.fit" else fit_anc[p] if p >= 0 else -1
        scan_anc[i] = i if name == "fit.initialize_shifts" else scan_anc[p] if p >= 0 else -1

    fits: dict[int, dict] = {}
    per_run_fits: dict[int, list[int]] = {}
    total = dict.fromkeys(GROUPS, 0.0)
    sums: dict[str, float] = {}
    calls: dict[str, int] = {}
    root_time = study_time = study_fit_time = 0.0
    ops = study_ops = 0
    for i in range(n):
        if tr.run[i] not in runs:
            continue
        name = names[tr.name[i]]
        sums[name] = sums.get(name, 0.0) + dur[i]
        calls[name] = calls.get(name, 0) + 1
        total[_group(name, scan_anc[i] >= 0, fit_anc[i] >= 0)] += dur[i] - children[i]
        if name == ROOT:
            root_time += dur[i]
            ops += 1
        elif name == "montecarlo.run_study":
            study_time += dur[i]
            study_ops += 1
        elif name == "fit.fit":
            fits[i] = {"context": 0.0, "scan": 0.0, "scan_self": 0.0, "candidates": 0,
                       "evals": 0, "eval_time": 0.0, "search_from": tr.start[i],
                       "search_to": tr.end[i]}
            per_run_fits.setdefault(tr.run[i], []).append(i)
            p = tr.parent[i]
            if p >= 0 and names[tr.name[p]] == "montecarlo.run_study":
                study_fit_time += dur[i]
        f = fit_anc[i]
        if f < 0 or f == i:
            continue
        stats = fits[f]
        if name == "fourier.context":
            stats["context"] += dur[i]
            stats["search_from"] = max(stats["search_from"], tr.end[i])
        elif name == "fit.initialize_shifts":
            stats["scan"] += dur[i]
            stats["scan_self"] += dur[i] - children[i]
            stats["search_from"] = max(stats["search_from"], tr.end[i])
        elif name in CRITERION:
            if scan_anc[i] >= 0:
                stats["candidates"] += name == "criterion.profile_amplitude"
                continue
            stats["evals"] += name == "criterion.criterion_gradient"
            stats["eval_time"] += dur[i]
            # The last profile_amplitude fit calls itself opens the final assembly.
            if name == "criterion.profile_amplitude" and tr.parent[i] == f:
                stats["assembly_from"] = tr.start[i]

    def mean_per_fit(key):
        return sum(s[key] for s in fits.values()) / len(fits) if fits else 0.0

    def per_call_ms(name):
        return 1e3 * sums.get(name, 0.0) / calls[name] if calls.get(name) else 0.0

    def per_op_ms(*span_names):
        return 1e3 * sum(sums.get(s, 0.0) for s in span_names) / ops if ops else 0.0

    def fit_stats(i):
        return tr.fit_stats.get(i, (0, 0))   # absent when the fit raised

    for s in fits.values():
        s["search"] = max(0.0, s.get("assembly_from", s["search_to"]) - s["search_from"])
    evals = sum(s["evals"] for s in fits.values())
    generate = sums.get("model.generate_panel", 0.0)
    metrics = {
        "io.read_panel_ms": per_call_ms("io.read_panel"),
        "io.write_ms": per_op_ms("io.dumps_canonical", "io.write_atomic"),
        "fourier.context_ms": 1e3 * mean_per_fit("context"),
        "fit.start_scan_ms": 1e3 * mean_per_fit("scan"),
        "fit.start_scan_self_ms": 1e3 * mean_per_fit("scan_self"),
        "fit.start_candidates": mean_per_fit("candidates"),
        "fit.search_ms": 1e3 * mean_per_fit("search"),
        "criterion.evals_per_fit": mean_per_fit("evals"),
        "criterion.eval_us": 1e6 * sum(s["eval_time"] for s in fits.values()) / evals if evals else 0.0,
        "fit.iterations": (sum(fit_stats(i)[0] for i in fits) / len(fits)) if fits else 0.0,
        "fit.restarts": (sum(fit_stats(i)[1] for i in fits) / len(fits)) if fits else 0.0,
        "inference.ci_ms": per_call_ms("inference.confidence_intervals"),
        "model.generate_ms": per_op_ms("model.generate_panel"),
        "montecarlo.fit_share": study_fit_time / study_time if study_time else 0.0,
        "montecarlo.overhead_ms": (1e3 * (study_time - study_fit_time - generate) / study_ops
                                   if study_ops else 0.0),
    }
    shares = {group: total[group] / root_time if root_time else 0.0 for group in GROUPS}
    counts = {
        run: [(fits[i]["candidates"], fits[i]["evals"]) + fit_stats(i) for i in idxs]
        for run, idxs in per_run_fits.items()
    }
    return metrics, shares, counts
