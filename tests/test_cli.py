"""End-to-end command-line contract: outputs, exit codes, byte stability."""

import contextlib
import copy
import csv
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import shapealign as sa
from shapealign.cli import _build_parser, main
from shapealign.io import dumps_canonical, write_atomic, write_panel
from conftest import zero_reference_panel

FIXTURE_PANEL = os.path.join(os.path.dirname(__file__), "..", "fixtures", "synthetic_panel.csv")

# truth embedded in fixtures/synthetic_panel.csv (noiseless)
FIXTURE_THETA = [0.0, 0.21, 0.43]
FIXTURE_A = [1.244823994329923, -0.597515517278363, 1.0456521552371354]
FIXTURE_UPSILON = [44.0, 58.5, 60.2]


def _tiny_config_doc():
    return {
        "truth": {
            "theta": [0.0, 1.1],
            "a": [1.0, 1.0],
            "upsilon": [0.3, -0.4],
            "sigma": 1.0,
        },
        "shape": {"m": 3, "coeffs": [
            {"l": 1, "re": 1.0, "im": 0.2},
            {"l": 2, "re": -0.3, "im": 0.0},
            {"l": 3, "re": 0.1, "im": -0.05},
        ]},
        "n_list": [41],
        "replicates": 4,
        "base_seed": 3,
        "regimes": ["a0"],
        "fit": {"m": 3},
    }


def test_fit_fixture_recovers_truth(tmp_path):
    out = str(tmp_path / "result.json")
    shape_out = str(tmp_path / "shape.csv")
    code = main(["fit", "--input", FIXTURE_PANEL, "--m", "5",
                 "--out", out, "--shape-out", shape_out])
    assert code == 0
    doc = json.loads(Path(out).read_text())
    assert np.max(np.abs(np.array(doc["theta"]) - FIXTURE_THETA)) < 1e-6
    assert np.max(np.abs(np.array(doc["a"]) - FIXTURE_A)) < 1e-6
    assert np.max(np.abs(np.array(doc["upsilon"]) - FIXTURE_UPSILON)) < 1e-8
    assert doc["sigma"] < 1e-6
    assert doc["diagnostics"]["converged"] is True
    assert doc["diagnostics"]["regime"] == "a0"
    assert doc["ci"]["zero_noise"] is True
    lines = Path(shape_out).read_text().strip().splitlines()
    assert lines[0] == "t,f_hat"
    assert len(lines) == 513


def test_fit_byte_stable_across_invocations(tmp_path):
    out1 = str(tmp_path / "r1.json")
    out2 = str(tmp_path / "r2.json")
    assert main(["fit", "--input", FIXTURE_PANEL, "--m", "5", "--out", out1]) == 0
    assert main(["fit", "--input", FIXTURE_PANEL, "--m", "5", "--out", out2]) == 0
    assert Path(out1).read_bytes() == Path(out2).read_bytes()


def test_fit_result_roundtrips_through_parse_emit(tmp_path):
    out = str(tmp_path / "r.json")
    assert main(["fit", "--input", FIXTURE_PANEL, "--m", "5", "--out", out]) == 0
    raw = Path(out).read_bytes()
    assert dumps_canonical(json.loads(raw)).encode() == raw


def test_fit_period_days_display(tmp_path):
    out = str(tmp_path / "r.json")
    assert main(["fit", "--input", FIXTURE_PANEL, "--m", "5", "--out", out,
                 "--period-days", "365"]) == 0
    doc = json.loads(Path(out).read_text())
    expected = [t * 365 / (2 * np.pi) for t in doc["theta"]]
    assert np.allclose(doc["theta_days"], expected, rtol=0, atol=1e-12)


def test_fit_period_days_near_the_float_limit_stays_finite(tmp_path):
    # a shift above about 1.8 rad times 1e308 overflows, so the conversion divides by 2 pi first
    shape = sa.ShapeSpectrum.from_onesided({1: 1.0, 2: -0.4, 3: 0.2})
    truth = sa.ParameterSet(theta=[0.0, 2.5, 4.0], a=[1.0, 1.2, np.sqrt(3 - 2.44)], upsilon=[1.0, -2.0, 0.5],
                            sigma=0.1)
    panel_path, out = str(tmp_path / "panel.csv"), str(tmp_path / "r.json")
    write_panel(panel_path, sa.generate_panel(truth, shape, sa.make_grid(101), seed=3))
    assert main(["fit", "--input", panel_path, "--out", out, "--period-days", "1e308"]) == 0
    doc = json.loads(Path(out).read_text())
    assert max(doc["theta"]) > 1.8 and None not in doc["theta_days"]
    assert np.allclose(np.array(doc["theta_days"]) / 1e308, np.array(doc["theta"]) / (2 * np.pi), rtol=1e-12, atol=0)


@pytest.mark.parametrize("option, value", [
    ("--period-days", "0"), ("--period-days", "-5"), ("--period-days", "nan"),
    ("--period-days", "inf"), ("--upsilon-max", "nan"), ("--upsilon-max", "0"),
    ("--level", "nan"),
])
def test_fit_rejects_bad_option_values(option, value, tmp_path, capsys):
    # one iteration from one start does not converge: a bad value must not turn exit 1 into 2
    out = tmp_path / "r.json"
    assert main(["fit", "--input", FIXTURE_PANEL, "--out", str(out), "--max-iters", "1",
                 "--multistart", "1", option, value]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert not out.exists()


def test_fit_rejects_a_level_whose_quantile_argument_rounds_to_one(tmp_path, capsys):
    # 0.5 * (1 + level) is 1 in floats: one error line and no result, before the fit, not a traceback after it
    out = tmp_path / "r.json"
    assert main(["fit", "--input", FIXTURE_PANEL, "--out", str(out), "--level", "0.9999999999999999"]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: confidence level must lie strictly in (0, 1) with 0.5 * (1 + level) < 1, got 0.9999999999999999"]
    assert not out.exists()
    assert main(["fit", "--input", FIXTURE_PANEL, "--out", str(out), "--level", "0.9999999999999998"]) == 0
    assert json.loads(out.read_text())["ci"]["level"] == 0.9999999999999998


def test_fit_rejects_a_quoted_cell_beyond_the_csv_field_limit(tmp_path, capsys):
    rows = Path(FIXTURE_PANEL).read_text().splitlines()
    rows[1] = '"0.' + "0" * csv.field_size_limit() + '"' + rows[1][rows[1].index(","):]  # a valid number, too long
    panel, out = tmp_path / "panel.csv", tmp_path / "r.json"
    panel.write_text("\n".join(rows) + "\n")
    assert main(["fit", "--input", str(panel), "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert not out.exists()


def test_fit_zero_noise_a1_renders_covariance_and_half_widths_as_zero(tmp_path):
    # sigma_hat = 0 times Gamma is -0.0 where Gamma is negative; the document writes each as 0
    out = tmp_path / "r.json"
    assert main(["fit", "--input", FIXTURE_PANEL, "--regime", "a1", "--out", str(out)]) == 0
    doc = json.loads(out.read_text(), parse_int=str, parse_float=str)  # every number as the text written
    assert doc["ci"]["zero_noise"] is True
    assert {cell for row in doc["covariance"]["matrix"] for cell in row} == {"0"}
    assert {iv["half_width"] for iv in doc["ci"]["parameters"]} == {"0"}


def test_fit_accepts_unbounded_levels(tmp_path):
    out = tmp_path / "r.json"
    assert main(["fit", "--input", FIXTURE_PANEL, "--out", str(out), "--upsilon-max", "inf"]) == 0


def test_fit_constant_reference_curve_is_an_input_error(tmp_path, capsys):
    panel, out = tmp_path / "panel.csv", tmp_path / "r.json"
    write_panel(str(panel), zero_reference_panel())
    assert main(["fit", "--input", str(panel), "--out", str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == ["error: reference amplitude is zero after rescaling"]
    assert not out.exists()


def test_fit_band_guard_exit_code(tmp_path, capsys):
    out = str(tmp_path / "r.json")
    code = main(["fit", "--input", FIXTURE_PANEL, "--m", "200", "--out", out])
    assert code == 1
    assert "2m < n violated" in capsys.readouterr().err
    assert not os.path.exists(out)


def test_fit_malformed_inputs_exit_code(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("t,a,b\n0.0,1.0\n")
    assert main(["fit", "--input", str(bad), "--out", str(tmp_path / "r.json")]) == 1

    even = tmp_path / "even.csv"
    rows = ["t,a,b"] + [f"{2*np.pi*i/10},{i},{i}" for i in range(10)]
    even.write_text("\n".join(rows) + "\n")
    assert main(["fit", "--input", str(even), "--out", str(tmp_path / "r.json")]) == 1

    assert main(["fit", "--input", str(tmp_path / "none.csv"),
                 "--out", str(tmp_path / "r.json")]) == 1


def test_fit_non_finite_cell_exit_code(tmp_path, capsys):
    lines = Path(FIXTURE_PANEL).read_text().splitlines()
    for cell in ("nan", "inf", "1e308"):
        row = lines[7].split(",")
        row[2] = cell
        bad = tmp_path / f"bad_{cell}.csv"
        bad.write_text("\n".join(lines[:7] + [",".join(row)] + lines[8:]) + "\n")
        out = tmp_path / f"r_{cell}.json"
        assert main(["fit", "--input", str(bad), "--out", str(out)]) == 1
        assert "error:" in capsys.readouterr().err
        assert not out.exists()


with open(FIXTURE_PANEL, "rb") as _fh:
    _FIXTURE_BYTES = _fh.read()


def _mutate(data: bytes, edits) -> bytes:
    out = bytearray(data)
    for position, byte in edits:
        out[position] = byte
    return bytes(out)


_PANEL_BYTES = st.one_of(
    st.binary(max_size=300),
    st.lists(st.tuples(st.integers(0, len(_FIXTURE_BYTES) - 1), st.integers(0, 255)),
             min_size=1, max_size=8).map(lambda edits: _mutate(_FIXTURE_BYTES, edits)),
)


@settings(max_examples=60, deadline=None)
@given(data=_PANEL_BYTES)
def test_fit_any_panel_bytes_give_an_exit_code(tmp_path_factory, data):
    # arbitrary bytes and byte-mutated copies of the fixture: an exit code, never a traceback
    work = tmp_path_factory.mktemp("fuzz")
    panel = work / "panel.csv"
    panel.write_bytes(data)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["fit", "--input", str(panel), "--out", str(work / "r.json")])
    assert code in (0, 1, 2)
    if code == 1:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")


def test_simulate_rejects_config_that_is_not_utf8(tmp_path, capsys):
    cfg_path = tmp_path / "study.json"
    cfg_path.write_bytes(json.dumps(_tiny_config_doc()).encode().replace(b"truth", b"tr\xffuth"))
    assert main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "r.json")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")


@pytest.mark.parametrize("command", ["fit", "simulate", "fit-shape"])
def test_output_in_missing_directory_is_an_input_error(command, tmp_path, capsys):
    missing = str(tmp_path / "no-such-dir" / "out")
    cfg_path = str(tmp_path / "study.json")
    write_atomic(cfg_path, dumps_canonical(_tiny_config_doc()))
    argv = {
        "fit": ["fit", "--input", FIXTURE_PANEL, "--out", missing],
        "simulate": ["simulate", "--config", cfg_path, "--out", missing],
        "fit-shape": ["fit", "--input", FIXTURE_PANEL, "--out", str(tmp_path / "r.json"),
                      "--shape-out", missing],
    }[command]
    assert main(argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")


def test_usage_errors_exit_code():
    assert main(["fit", "--input"]) == 1          # missing value
    assert main(["fit"]) == 1                     # missing required flags
    assert main(["frobnicate"]) == 1              # unknown command


def test_repeated_main_calls_match_fresh_processes(tmp_path, capsys):
    # the parser is built once per process, so a call must not see the calls before it
    cfg_path = str(tmp_path / "study.json")
    write_atomic(cfg_path, dumps_canonical(_tiny_config_doc()))
    steps = [
        ["fit", "--input"],
        ["fit", "--input", FIXTURE_PANEL, "--m", "5", "--out", str(tmp_path / "{}fit.json")],
        ["simulate", "--config", cfg_path, "--out", str(tmp_path / "{}study.json")],
        ["fit", "--input", FIXTURE_PANEL, "--m", "five", "--out", str(tmp_path / "{}bad.json")],
    ]
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    for argv in steps:
        code = main([arg.format("same-") for arg in argv])
        errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error:")]
        fresh = subprocess.run([sys.executable, "-m", "shapealign.cli",
                                *(arg.format("fresh-") for arg in argv)],
                               capture_output=True, text=True, env=env, timeout=120)
        assert code == fresh.returncode
        assert errors == [line for line in fresh.stderr.splitlines() if line.startswith("error:")]
    assert _build_parser() is _build_parser()
    for name in ("fit.json", "study.json"):
        assert (tmp_path / f"same-{name}").read_bytes() == (tmp_path / f"fresh-{name}").read_bytes()
    assert not (tmp_path / "same-bad.json").exists() and not (tmp_path / "fresh-bad.json").exists()
    assert len(errors) == 1 and "--m" in errors[0]


def test_simulate_roundtrip_and_determinism(tmp_path):
    cfg_path = str(tmp_path / "study.json")
    write_atomic(cfg_path, dumps_canonical(_tiny_config_doc()))
    out1 = str(tmp_path / "rep1.json")
    out2 = str(tmp_path / "rep2.json")
    assert main(["simulate", "--config", cfg_path, "--out", out1]) == 0
    assert main(["simulate", "--config", cfg_path, "--out", out2]) == 0
    assert Path(out1).read_bytes() == Path(out2).read_bytes()
    doc = json.loads(Path(out1).read_text())
    cell = doc["cells"][0]
    assert cell["replicates"] == 4
    assert cell["failures"] == 0
    assert len(cell["quantiles"]["values"]) == 5


def test_simulate_rejects_even_n(tmp_path):
    doc = _tiny_config_doc()
    doc["n_list"] = [40]
    cfg_path = str(tmp_path / "study.json")
    write_atomic(cfg_path, dumps_canonical(doc))
    assert main(["simulate", "--config", cfg_path, "--out", str(tmp_path / "r.json")]) == 1


def test_simulate_rejects_a_grid_too_large_to_allocate(tmp_path, capsys):
    # the shipped study with a grid of 2e15 points and a band that grid holds: an input error
    # before the 2m+1 shape coefficients (28 PiB) or a panel are allocated, and no report
    with open(os.path.join(os.path.dirname(__file__), "..", "fixtures", "figure2.json")) as fh:
        doc = json.load(fh)
    doc["n_list"], doc["shape"]["m"] = [2000000000000001], 10**15
    cfg_path = str(tmp_path / "study.json")
    write_atomic(cfg_path, dumps_canonical(doc))
    out = tmp_path / "r.json"
    assert main(["simulate", "--config", cfg_path, "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: grid size 2000000000000001 exceeds the largest study grid, 1000001"]
    assert not out.exists()


@pytest.mark.parametrize("n_list, fit", [([1000001], {"m": 400000}), ([201], {"theta_grid_size": 10**9})],
                         ids=["fit-band", "scan-grid"])
def test_simulate_rejects_a_fit_table_too_large_to_allocate(n_list, fit, tmp_path, capsys):
    # the shipped study with a fit band or scan grid whose twiddle table would hold 8e11 or 1.1e10
    # complex numbers: an input error before any panel or table is allocated, and no report
    with open(os.path.join(os.path.dirname(__file__), "..", "fixtures", "figure2.json")) as fh:
        doc = json.load(fh)
    doc["n_list"] = n_list
    doc.setdefault("fit", {}).update(fit)
    cfg_path = str(tmp_path / "study.json")
    write_atomic(cfg_path, dumps_canonical(doc))
    out = tmp_path / "r.json"
    assert main(["simulate", "--config", cfg_path, "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: fit band ") and "largest study table" in err[0]
    assert not out.exists()


@pytest.mark.parametrize("truth, message", [
    ({"upsilon_max": 1}, "error: canonical truth level upsilon_1 = 5.0 lies outside the bound upsilon_max = 1.0"),
    ({"a": [0, 1.4]}, "error: first truth scale: reference amplitude is zero after rescaling"),
], ids=["level-outside-the-box", "zero-first-scale"])
def test_simulate_rejects_a_truth_its_canonical_form_would_change(truth, message, tmp_path, capsys):
    # the shipped study whose canonical first level, 5.0, lies outside a box of 1, or whose first
    # scale is zero: an input error, not a study of clipped or unreferenced curves, and no report
    with open(os.path.join(os.path.dirname(__file__), "..", "fixtures", "figure2.json")) as fh:
        doc = json.load(fh)
    doc["truth"].update(truth)
    cfg_path = str(tmp_path / "study.json")
    write_atomic(cfg_path, dumps_canonical(doc))
    out = tmp_path / "r.json"
    assert main(["simulate", "--config", cfg_path, "--out", str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == [message]
    assert not out.exists()


def test_simulate_rejects_more_replicates_than_a_study_holds(tmp_path, capsys):
    # the shipped study at 10**12 replicates: an input error raised before any seed is drawn, not a
    # run that allocates until memory runs out, and no report
    with open(os.path.join(os.path.dirname(__file__), "..", "fixtures", "figure2.json")) as fh:
        doc = json.load(fh)
    doc["replicates"] = 10**12
    cfg_path = str(tmp_path / "study.json")
    write_atomic(cfg_path, dumps_canonical(doc))
    out = tmp_path / "r.json"
    assert main(["simulate", "--config", cfg_path, "--out", str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == ["error: replicates 1000000000000 exceeds the largest study, 100000"]
    assert not out.exists()


def test_simulate_rejects_bad_json(tmp_path):
    cfg_path = tmp_path / "study.json"
    cfg_path.write_text("{ not json")
    assert main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "r.json")]) == 1


@pytest.mark.parametrize("threads", ["x", "-1"])
def test_simulate_rejects_bad_thread_count(threads, tmp_path, capsys, monkeypatch):
    # four fits are far below one worker's share, so the study would run serially
    monkeypatch.setenv("SHAPEALIGN_THREADS", threads)
    cfg_path = str(tmp_path / "study.json")
    write_atomic(cfg_path, dumps_canonical(_tiny_config_doc()))
    out = tmp_path / "r.json"
    assert main(["simulate", "--config", cfg_path, "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: SHAPEALIGN_THREADS")
    assert not out.exists()


def test_fixture_config_parses():
    fixture = os.path.join(os.path.dirname(__file__), "..", "fixtures", "figure2.json")
    from shapealign.io import load_study_config
    config = load_study_config(fixture)
    assert config.replicates == 100
    assert config.n_list == (201,)
    assert set(r.value for r in config.regimes) == {"a0", "a1"}
    assert abs(float(config.truth.a @ config.truth.a) - 2.0) < 1e-12


_MALFORMED = [
    (("replicates",), "ten"),
    (("replicates",), 4.5),
    (("base_seed",), "3"),
    (("base_seed",), -1),
    (("n_list",), [41.5]),
    (("n_list",), ["41"]),
    (("fit", "m"), 2.5),
    (("fit", "n_multistart"), "five"),
    (("fit", "max_iters"), [500]),
    (("fit", "theta_grid_size"), 2.5),
    (("fit", "theta_grid_size"), True),
    (("fit", "tol_objective"), "tiny"),
    (("fit", "tol_param"), None),
    (("fit", "n_multistar"), 3),  # a misspelled key
    (("truth", "sigma"), [1]),
    (("truth", "upsilon_max"), "big"),
    (("truth", "theta"), [0.0, "x"]),
    (("fit",), []),
    (("regimes",), 5),
    (("shape", "coeffs", 0, "l"), 1.5),
    (("shape", "coeffs", 0, "re"), True),
    (("shape", "coeffs", 0, "re"), "0.5"),
    (("shape", "coeffs", 0, "re"), "nan"),
]


@pytest.mark.parametrize("path, value", _MALFORMED,
                         ids=[".".join(map(str, path)) + "=" + repr(value) for path, value in _MALFORMED])
def test_simulate_rejects_malformed_config_values(tmp_path, capsys, path, value):
    doc = _tiny_config_doc()
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    cfg_path = str(tmp_path / "study.json")
    with open(cfg_path, "w") as fh:
        json.dump(doc, fh)
    assert main(["simulate", "--config", cfg_path, "--out", str(tmp_path / "r.json")]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert path[-1] in err[0]


# Config fuzz: edits of a small study config (2 replicates on n = 31) at every key, each fit key
# included, to values of every JSON type, NaN spellings, and huge and negative integers beyond
# every bound (none large enough to be accepted and expensive), or the key removed.
_FUZZ_PATHS = [
    *[(key,) for key in ("truth", "shape", "n_list", "replicates", "base_seed", "regimes", "fit")],
    *[("truth", key) for key in ("theta", "a", "upsilon", "sigma", "upsilon_max")],
    ("truth", "theta", 1), ("truth", "a", 0), ("truth", "upsilon", 1),
    ("shape", "m"), ("shape", "coeffs"), ("shape", "coeffs", 0), ("shape", "coeffs", 0, "l"),
    ("shape", "coeffs", 1, "re"), ("shape", "coeffs", 2, "im"), ("n_list", 0), ("regimes", 0),
    *[("fit", key) for key in ("m", "m_exponent", "theta_grid_size", "n_multistart", "tol_objective",
                               "tol_param", "max_iters")],
]
_FUZZ_VALUES = st.one_of(
    st.sampled_from([None, True, False, "", "nan", "NaN", "Infinity", "-inf", "1e999", "3", "auto", "a1",
                     [], {}, [1], [41, 31], {"x": 1}]),
    st.sampled_from([math.nan, math.inf, -math.inf, 1e308, -1e308, 5e-324, 0.0, -0.0, 0.25, 2.5, 31.0]),
    st.sampled_from([-1, -(2**63), 10**9, 10**12, 2**63, 2**128, 2**128 + 1, 10**400]),
    st.integers(-3, 40),
)
_REMOVED = object()  # an edit that deletes the key
_FUZZ_EDITS = st.lists(st.tuples(st.sampled_from(_FUZZ_PATHS), st.just(_REMOVED) | _FUZZ_VALUES), max_size=3)
_FUZZ_SEEDS = st.integers(-2, 3) | st.integers(2**128 - 4, 2**128 + 1)


def _edit(doc, path, value):
    """Set the node at ``path`` of ``doc`` to ``value``, or delete it; a path that an earlier edit
    cut no longer leads to a node and is left alone."""
    node = doc
    try:
        for key in path[:-1]:
            node = node[key]
        if value is _REMOVED:
            del node[path[-1]]
        else:
            node[path[-1]] = copy.deepcopy(value)  # a fresh container: a later edit may write into it
    except (KeyError, IndexError, TypeError):
        pass


@settings(max_examples=300, deadline=None)
@given(edits=_FUZZ_EDITS, base_seed=_FUZZ_SEEDS)
def test_simulate_any_config_gives_an_exit_code(tmp_path_factory, edits, base_seed):
    # every document gives exit 0 or 2 with a report, or 1 with one error line and no report, never a traceback
    doc = dict(_tiny_config_doc(), replicates=2, n_list=[31], base_seed=base_seed)
    for path, value in edits:
        _edit(doc, path, value)
    work = tmp_path_factory.mktemp("config_fuzz")
    cfg, out = work / "study.json", work / "report.json"
    cfg.write_text(json.dumps(doc))
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["simulate", "--config", str(cfg), "--out", str(out)])
    lines = err.getvalue().splitlines()
    event(f"exit {code}")
    assert code in (0, 1, 2), code
    if code == 1:
        assert len(lines) == 1 and lines[0].startswith("error:"), lines
        assert not out.exists()
    else:
        assert out.exists(), lines


def _assert_same_numbers(got, want, where="report"):
    """Identical structure; every number within 1e-12 relative of the golden value."""
    assert type(got) is type(want), where
    if isinstance(want, dict):
        assert list(got) == list(want), where
        for key in want:
            _assert_same_numbers(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_same_numbers(g, w, f"{where}[{i}]")
    elif isinstance(want, float):
        assert abs(got - want) <= 1e-12 * max(abs(got), abs(want)), (where, got, want)
    else:
        assert got == want, where


def test_simulate_shipped_config_end_to_end(tmp_path):
    fixtures = os.path.join(os.path.dirname(__file__), "..", "fixtures")
    fixture = os.path.join(fixtures, "figure2.json")
    out = str(tmp_path / "report.json")
    assert main(["simulate", "--config", fixture, "--out", out]) == 0
    doc = json.loads(Path(out).read_text())
    with open(os.path.join(fixtures, "figure2_report.json")) as fh:
        _assert_same_numbers(doc, json.load(fh))
    assert [c["regime"] for c in doc["cells"]] == ["a0", "a1"]
    for cell in doc["cells"]:
        assert cell["replicates"] == 100
        assert cell["failures"] == 0
        # boxplot quantiles are monotone per parameter
        values = np.array(cell["quantiles"]["values"])
        assert np.all(np.diff(values, axis=0) >= 0)
