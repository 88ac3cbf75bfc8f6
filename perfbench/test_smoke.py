"""Smoke tests of the benchmark itself.

Run from the repository root with ``python3 -m pytest perfbench -q``; they
take well under a minute.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import workloads as wl  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def test_declared_names_match_the_code():
    assert list(wl.WORKLOADS) == [w["name"] for w in BENCH["workloads"]]
    assert run.END_TO_END == {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert run.PER_LAYER == {m["name"]: m["unit"] for m in BENCH["per_layer"]}


@pytest.mark.parametrize("trace, kind", [("0", "end_to_end"), ("1", "per_layer")])
def test_tiny_run_prints_every_declared_metric(trace, kind):
    proc = bench("--workload", "all", "--seed", "7", "--seconds", "1", "--tiny", "--trace", trace)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    final = json.loads(proc.stdout.splitlines()[-1])
    assert set(final) == {"correct", "attempted", "failed", "metrics"}
    assert final["correct"] and final["failed"] == 0 and final["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in BENCH[kind]}
    for workload in BENCH["workloads"]:
        prefix = workload["name"] + "/"
        printed = {k[len(prefix):]: v["unit"] for k, v in final["metrics"].items()
                   if k.startswith(prefix)}
        assert printed == declared
    assert "# env " in proc.stdout and "loadavg_end" in proc.stdout


@pytest.mark.parametrize("name", list(wl.EXTRA))
def test_ungated_workload_runs(name):
    proc = bench("--workload", name, "--seed", "7", "--seconds", "1", "--tiny", "--trace", "0")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1])["correct"]


def test_permuted_shifts_count_as_failed(tmp_path):
    from shapealign import cli

    items = wl.make_inputs(wl.tiny(wl.WORKLOADS["fit-j3"]), 3, ROOT, tmp_path, True)[:1]
    assert cli.main(items[0].argv) == 0
    text = Path(items[0].out).read_text(encoding="utf-8")
    assert wl.check_output(items[0], text) == []

    doc = json.loads(text)
    doc["theta"][1], doc["theta"][2] = doc["theta"][2], doc["theta"][1]
    Path(items[0].out + ".first").write_text(json.dumps(doc), encoding="utf-8")
    records = [{"key": 0, "mode": "serial", "pass": p, "latency": 0.01, "rc": 0, "same": True}
               for p in range(3)]
    failed, notes = run.failures(items, records)
    assert failed == 3
    assert any("standard errors from the truth" in note for note in notes)


def test_bad_study_report_is_flagged():
    cell = {"n": 201, "regime": "a0", "invalid": False,
            "theory_covariance": [[1.0, 0.0], [0.0, 2.0]], "ratios": [[1.1, None], [None, 0.9]]}
    assert wl.check_study_report({"cells": [cell]}) == []
    assert len(wl.check_study_report({"cells": [{**cell, "invalid": True}]})) == 1
    assert len(wl.check_study_report({"cells": [{**cell, "ratios": [[None, None], [None, 0.9]]}]})) == 1


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "fit-j3", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
