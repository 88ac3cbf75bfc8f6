"""Panel parsing, canonical JSON, config parsing, document round-trips."""

import json
import os
from pathlib import Path

import numpy as np
import pytest

import shapealign as sa
from shapealign.criterion import CriterionContext
from shapealign.errors import (
    ConfigInvalid,
    GridMismatch,
    NonFiniteData,
    ParseError,
    RaggedColumns,
)
from shapealign.fit import FitConfig
from shapealign.io import (
    dumps_canonical,
    parse_study_config,
    read_panel,
    write_atomic,
    write_panel,
)


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def _panel_csv(n, j=2, with_t=True, perturb=None):
    lines = []
    header = (["t"] if with_t else []) + [f"c{k}" for k in range(j)]
    lines.append(",".join(header))
    for i in range(n):
        t = 2 * np.pi * i / n
        if perturb is not None and i == perturb[0]:
            t += perturb[1]
        row = ([format(t, ".17g")] if with_t else []) + [
            format(np.cos(t) + 0.1 * k, ".17g") for k in range(j)
        ]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def test_read_panel_basic(tmp_path):
    path = _write(tmp_path, "p.csv", _panel_csv(201))
    panel = read_panel(path)
    assert panel.grid.n == 201
    assert panel.n_curves == 2
    assert panel.labels == ["c0", "c1"]


def test_read_panel_without_time_column(tmp_path):
    path = _write(tmp_path, "p.csv", _panel_csv(21, j=3, with_t=False))
    panel = read_panel(path)
    assert panel.grid.n == 21
    assert panel.n_curves == 3


def test_read_panel_even_rows(tmp_path):
    path = _write(tmp_path, "p.csv", _panel_csv(200))
    with pytest.raises(GridMismatch, match="n must be odd"):
        read_panel(path)


def test_read_panel_perturbed_grid(tmp_path):
    path = _write(tmp_path, "p.csv", _panel_csv(21, perturb=(5, 1e-3)))
    with pytest.raises(GridMismatch):
        read_panel(path)
    fine = _write(tmp_path, "q.csv", _panel_csv(21, perturb=(5, 1e-10)))
    read_panel(fine)  # within tolerance


def test_read_panel_ragged_and_bad_cells(tmp_path):
    text = "t,a,b\n0.0,1.0\n"
    with pytest.raises(RaggedColumns):
        read_panel(_write(tmp_path, "r.csv", text))
    text = "t,a,b\n0.0,1.0,x\n"
    with pytest.raises(ParseError, match="line 2"):
        read_panel(_write(tmp_path, "s.csv", text))
    text = "t,a,b\n0.0,,2.0\n"
    with pytest.raises(ParseError, match="column 2"):
        read_panel(_write(tmp_path, "u.csv", text))
    with pytest.raises(ParseError):
        read_panel(_write(tmp_path, "v.csv", "t,a\n0.0,1.0\n"))  # one curve only
    with pytest.raises(ParseError):
        read_panel(str(tmp_path / "missing.csv"))


@pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity", "1e999"])
def test_read_panel_rejects_non_finite_cells(tmp_path, cell):
    lines = _panel_csv(21).splitlines()
    row = lines[4].split(",")
    row[2] = cell
    lines[4] = ",".join(row)
    path = _write(tmp_path, "p.csv", "\n".join(lines) + "\n")
    with pytest.raises(ParseError, match="line 5, column 3") as info:
        read_panel(path)
    assert (info.value.line, info.value.column) == (5, 3)


def test_panel_and_context_reject_non_finite_values():
    grid = sa.make_grid(21)
    y = np.vstack([np.cos(grid.points), np.sin(grid.points)])
    for bad in (np.nan, np.inf):
        broken = y.copy()
        broken[1, 4] = bad
        with pytest.raises(NonFiniteData):
            sa.CurvePanel(grid=grid, y=broken)
    # finite cells whose squares overflow the second moment
    huge = y.copy()
    huge[1, 4] = 1e308
    with pytest.raises(NonFiniteData):
        CriterionContext(sa.CurvePanel(grid=grid, y=huge), 3)


def test_read_panel_tolerates_bom_and_crlf(tmp_path):
    text = _panel_csv(21).replace("\n", "\r\n")
    path = tmp_path / "p.csv"
    path.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
    panel = read_panel(str(path))
    assert panel.labels == ["c0", "c1"]
    assert panel.grid.n == 21


def test_panel_roundtrip(tmp_path, rng):
    grid = sa.make_grid(31)
    panel = sa.CurvePanel(grid=grid, y=rng.normal(size=(3, 31)), labels=["x", "y", "z"])
    path = str(tmp_path / "panel.csv")
    write_panel(path, panel)
    back = read_panel(path)
    assert back.labels == panel.labels
    assert np.array_equal(back.y, panel.y)


def test_panel_roundtrip_quotes_labels_that_need_it(tmp_path, rng):
    grid = sa.make_grid(11)
    path = tmp_path / "panel.csv"
    write_panel(str(path), sa.CurvePanel(grid=grid, y=rng.normal(size=(3, 11)), labels=["x", "y", "z"]))
    assert path.read_bytes().startswith(b"t,x,y,z\n")  # a header that needs no quoting keeps its bytes
    panel = sa.CurvePanel(grid=grid, y=rng.normal(size=(3, 11)), labels=["x,y", 'say "hi"', "plain"])
    write_panel(str(path), panel)
    assert path.read_text().splitlines()[0] == 't,"x,y","say ""hi""",plain'
    back = read_panel(str(path))
    assert back.labels == panel.labels
    assert np.array_equal(back.y, panel.y)


def test_canonical_json_roundtrip_bytes():
    doc = {
        "theta": [0.0, 0.8000000000000001],
        "values": [1.0, -2.5, 3.3333333333333335e-07, 12345678901234567.0],
        "flags": {"ok": True, "missing": None, "bad": float("nan")},
        "name": "panel é",
        "count": 42,
        "neg_zero": -0.0,
    }
    text = dumps_canonical(doc)
    parsed = json.loads(text)
    assert dumps_canonical(parsed) == text  # emit(parse(.)) is byte-identical
    assert parsed["flags"]["bad"] is None
    assert parsed["values"][1] == -2.5


def test_canonical_json_17_digits():
    text = dumps_canonical({"x": 0.1})
    assert "0.10000000000000001" in text


def test_write_atomic_no_partial(tmp_path):
    path = str(tmp_path / "out.json")
    write_atomic(path, "hello\n")
    assert Path(path).read_text() == "hello\n"
    write_atomic(path, "world\n")
    assert Path(path).read_text() == "world\n"
    assert not (tmp_path / "out.json.tmp").exists()


def _config_doc(**overrides):
    doc = {
        "truth": {
            "theta": [0.0, 0.8],
            "a": [0.75, 1.1990],
            "upsilon": [2.5, 0.5],
            "sigma": 1.0,
        },
        "shape": {"m": 3, "coeffs": [
            {"l": 0, "re": 10.0 / 3.0, "im": 0.0},
            {"l": 1, "re": -1.0132118364233778, "im": 0.0},
            {"l": 2, "re": -0.25330295910584444, "im": 0.0},
            {"l": 3, "re": -0.11257909293593087, "im": 0.0},
        ]},
        "n_list": [41],
        "replicates": 4,
        "base_seed": 1,
        "regimes": ["a0", "a1"],
        "fit": {"m": 3},
    }
    doc.update(overrides)
    return doc


def test_parse_study_config_canonicalizes():
    config = parse_study_config(_config_doc())
    # scales moved onto the sphere, shape mean into the levels
    assert abs(float(config.truth.a @ config.truth.a) - 2.0) < 1e-12
    assert config.shape.c0 == 0.0
    expected_u1 = 2.5 + 0.75 * 10.0 / 3.0
    assert abs(config.truth.upsilon[0] - expected_u1) < 1e-12
    # represented curves unchanged: scale * shape product preserved
    ratio = config.truth.a[1] * config.shape.coeff(1).real
    assert abs(ratio - 1.1990 * -1.0132118364233778) < 1e-12


def test_parse_study_config_rejects_bad_inputs():
    with pytest.raises(ConfigInvalid):
        parse_study_config(_config_doc(n_list=[40]))
    with pytest.raises(ConfigInvalid):
        parse_study_config(_config_doc(replicates=1))
    with pytest.raises(ConfigInvalid):
        parse_study_config(_config_doc(regimes=["a2"]))
    doc = _config_doc()
    del doc["truth"]
    with pytest.raises(ConfigInvalid):
        parse_study_config(doc)
    doc = _config_doc()
    doc["shape"]["coeffs"][1]["l"] = 9
    with pytest.raises(ConfigInvalid):
        parse_study_config(doc)


def test_parse_study_config_fit_block_takes_fit_config_defaults():
    assert parse_study_config(_config_doc(fit={})).fit_config == FitConfig()
    parsed = parse_study_config(_config_doc(fit={"m": "auto", "n_multistart": 3})).fit_config
    assert parsed == FitConfig(n_multistart=3)


def test_parse_study_config_one_sided_shape_completion():
    doc = _config_doc()
    config = parse_study_config(doc)
    assert config.shape.hermitian_defect() == 0.0


def _umask():
    mask = os.umask(0)
    os.umask(mask)
    return mask


def test_write_atomic_failure_leaves_no_temp_file(tmp_path, monkeypatch):
    target = tmp_path / "out.json"
    write_atomic(str(target), "old\n")

    def failing_replace(src, dst):
        raise OSError("rename refused")

    monkeypatch.setattr(os, "replace", failing_replace)
    with pytest.raises(OSError):
        write_atomic(str(target), "new\n")
    assert sorted(os.listdir(tmp_path)) == ["out.json"]
    assert target.read_text() == "old\n"


def test_write_atomic_uses_a_fresh_temp_file_per_write(tmp_path, monkeypatch):
    target = tmp_path / "out.json"
    sources = []
    replace = os.replace

    def recording_replace(src, dst):
        sources.append(src)
        replace(src, dst)

    monkeypatch.setattr(os, "replace", recording_replace)
    write_atomic(str(target), "first\n")
    write_atomic(str(target), "second\n")
    assert len(set(sources)) == 2
    assert all(os.path.dirname(src) == str(tmp_path) for src in sources)
    assert target.read_text() == "second\n"
    assert os.stat(target).st_mode & 0o777 == 0o666 & ~_umask()
    assert sorted(os.listdir(tmp_path)) == ["out.json"]
