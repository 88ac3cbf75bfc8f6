"""Panel parsing, canonical JSON, config parsing, document round-trips."""

import csv
import json
import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import shapealign as sa
from shapealign.errors import (
    ConfigInvalid,
    GridMismatch,
    NonFiniteData,
    ParseError,
    RaggedColumns,
)
from shapealign.fit import FitConfig
from shapealign.io import (
    _parse_shape,
    dumps_canonical,
    parse_study_config,
    read_panel,
    write_atomic,
    write_panel,
)
from oracles import dumps_canonical_recursive, parse_shape_entries, read_panel_cells


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
        sa.CurvePanel(grid=grid, y=huge).band(3)


def test_read_panel_tolerates_bom_and_crlf(tmp_path):
    text = _panel_csv(21).replace("\n", "\r\n")
    path = tmp_path / "p.csv"
    path.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
    panel = read_panel(str(path))
    assert panel.labels == ["c0", "c1"]
    assert panel.grid.n == 21


@pytest.mark.parametrize("bom", ["", "\ufeff"])
def test_read_panel_reports_a_utf8_error_at_its_file_offset(tmp_path, bom):
    # past the first 8 KB of the file, and after a byte-order mark, the position is the byte offset
    data = bytearray((bom + _panel_csv(2999)).encode("utf-8"))
    offset = len(bom.encode("utf-8")) + 18006
    data[offset] = 0xFF
    path = tmp_path / "p.csv"
    path.write_bytes(bytes(data))
    with pytest.raises(ParseError, match=f"not valid UTF-8: .* position {offset}: invalid start byte"):
        read_panel(str(path))


def _long_cell_panel(tmp_path, length, quoted_header):
    """A 3-row panel file whose first body cell, 0.000..., is ``length`` characters long."""
    lines = _panel_csv(3).splitlines()
    if quoted_header:
        lines[0] = ",".join(f'"{label}"' for label in lines[0].split(","))
    row = lines[1].split(",")
    row[1] = "0." + "0" * (length - 2)
    lines[1] = ",".join(row)
    path = tmp_path / ("quoted.csv" if quoted_header else "plain.csv")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


def test_read_panel_rejects_a_cell_beyond_the_csv_field_limit_on_both_paths(tmp_path):
    # a file without quotes is split directly, one with a quote goes through csv: one answer for both
    limit = csv.field_size_limit()
    for quoted_header in (False, True):
        assert read_panel(_long_cell_panel(tmp_path, limit, quoted_header)).y[0, 0] == 0.0
    messages = []
    for quoted_header in (False, True):
        path = _long_cell_panel(tmp_path, limit + 1, quoted_header)
        with pytest.raises(ParseError) as info:
            read_panel(path)
        messages.append(str(info.value).replace(path, "<path>"))
    assert messages[0] == messages[1] == f"<path> is not valid CSV: field larger than field limit ({limit})"


@pytest.mark.parametrize("case", ["utf8", "utf8-bom", "long-plain", "long-quoted"])
def test_read_panel_cells_oracle_follows_the_reader_on_error_paths(tmp_path, case):
    if case.startswith("utf8"):
        data = bytearray((("\ufeff" if case == "utf8-bom" else "") + _panel_csv(2999)).encode("utf-8"))
        data[18006] = 0xFF
        path = tmp_path / "p.csv"
        path.write_bytes(bytes(data))
        path = str(path)
    else:
        path = _long_cell_panel(tmp_path, csv.field_size_limit() + 1, case == "long-quoted")
    outcome = _outcome(read_panel, path)
    assert outcome[0] is ParseError
    assert outcome == _outcome(read_panel_cells, path)


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


def test_panel_roundtrip_keeps_padded_labels_verbatim(tmp_path, rng):
    grid = sa.make_grid(11)
    path = str(tmp_path / "panel.csv")
    panel = sa.CurvePanel(grid=grid, y=rng.normal(size=(3, 11)), labels=[" x", "y ", "\tt "])
    write_panel(path, panel)
    back = read_panel(path)
    assert back.labels == panel.labels
    assert np.array_equal(back.y, panel.y)
    # a header cell is trimmed only to recognise the time column
    Path(path).write_text(Path(path).read_text().replace("t,", " t ,", 1))
    assert read_panel(path).labels == panel.labels


# Cell padding that str.strip and float() both trim.
_PADS = ("", "", " ", "  ", "\t", "\x0b", "\x0c", "\x85", "\xa0", "\u2003", "\u3000")
# str.strip also trims U+001C..U+001F, where float() fails.
_ODD_NUMBERS = ("nan", "-inf", "Infinity", "1e400", "-1e400", "1_0", "+.5e-3", "-0", "1e-400", "\u0661\u0662",
                "\x1c2.5", "-3\x1f", "\x1dnan")
_BAD_CELLS = ("", " ", "\t ", "abc", "1 2", "0x10", "1e", ".", "--1", "1__0")


@st.composite
def _panel_text(draw):
    """A panel CSV text: padded cells, a few odd or bad ones, perhaps a ragged or blank row, perhaps quoting.

    Line ends are LF, CRLF or lone CR.  Quoted body cells, one of which may hold a comma, and
    header labels quoted around a comma or a line break reach both of the reader's paths.
    """
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    n, curves = draw(st.sampled_from([3, 5, 7] * 3 + [0, 1, 2, 4])), draw(st.integers(2, 3))
    with_time = draw(st.booleans())
    number = st.floats(allow_nan=False, allow_infinity=False).flatmap(
        lambda v: st.sampled_from([repr(v), format(v, ".17g"), format(v, ".3e")]))
    rows = [([format(2 * np.pi * i / n, ".17g")] if with_time else []) + [draw(number) for _ in range(curves)]
            for i in range(n)]
    if n:
        width = len(rows[0])
        # none, odd numbers (finite or not), bad cells, or both
        for cells in draw(st.sampled_from([(), (_ODD_NUMBERS,), (_BAD_CELLS,), (_ODD_NUMBERS, _BAD_CELLS)])):
            odd = st.tuples(st.integers(0, n - 1), st.integers(0, width - 1), st.sampled_from(cells))
            for i, k, cell in draw(st.lists(odd, min_size=1, max_size=2)):
                rows[i][k] = cell
        i, kind = draw(st.integers(0, n - 1)), draw(st.sampled_from(["none"] * 5 + ["short", "long", "blank"]))
        rows[i] = {"short": rows[i][:-1], "long": rows[i] + ["1"], "blank": []}.get(kind, rows[i])
    quoted = set()  # body cells written inside quotes, padding and all
    if n and draw(st.booleans()):
        for i, k, comma in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, width - 1), st.booleans()),
                                         min_size=1, max_size=3)):
            if k < len(rows[i]):
                quoted.add((i, k))
                if comma:
                    rows[i][k] = "1,5"
    pad = st.sampled_from(_PADS)
    label = st.sampled_from(["plain"] * 4 + ["comma", "line"])
    header = ([draw(st.sampled_from(["t", " t", "t\t", "x"]))] if with_time else []) + [
        {"comma": f'"c{k},x"', "line": f'"c{k}{newline}x"'}.get(draw(label), draw(pad) + f"c{k}" + draw(pad))
        for k in range(curves)]
    cells = [[draw(pad) + c + draw(pad) for c in row] for row in rows]
    for i, k in quoted:
        cells[i][k] = f'"{cells[i][k]}"'
    lines = [",".join(header)] + [",".join(row) for row in cells]
    return draw(st.sampled_from(["", "\ufeff"])) + newline.join(lines) + draw(st.sampled_from(["", newline]))


def _outcome(read, path):
    try:
        panel = read(path)
    except Exception as exc:  # the outcome compared: type and message of any error
        return type(exc), str(exc)
    return panel.y.shape, panel.y.tobytes(), panel.grid.n, panel.labels


@settings(max_examples=500, deadline=None)
@given(text=_panel_text())
def test_read_panel_matches_cell_by_cell_oracle(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("panel") / "p.csv"
    path.write_text(text, encoding="utf-8", newline="")
    assert _outcome(read_panel, str(path)) == _outcome(read_panel_cells, str(path))


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


@settings(max_examples=300, deadline=None)
@given(key=st.text(), value=st.text())
def test_canonical_json_quotes_text_as_json_dumps(key, value):
    # keys ASCII-escaped, string values kept as UTF-8, control characters and surrogates escaped
    text = dumps_canonical({key: value})
    assert text == f"{{\n  {json.dumps(key)}: {json.dumps(value, ensure_ascii=False)}\n}}\n"


_RENDER_SCALARS = st.one_of(
    st.floats(), st.sampled_from([-0.0, 0.0, float("nan"), float("inf"), float("-inf")]),
    st.integers(), st.booleans(), st.none(), st.text(max_size=6),
    st.floats().map(np.float64), st.floats(width=32).map(np.float32),
    st.integers(-2**63, 2**63 - 1).map(np.int64), st.booleans().map(np.bool_),  # np.bool_ is no JSON scalar
)
_RENDER_ARRAYS = hnp.arrays(st.sampled_from([np.float64, np.float32, np.int64]),
                            hnp.array_shapes(min_dims=0, max_dims=2, min_side=0, max_side=3))
_RENDER_LEAVES = _RENDER_SCALARS | _RENDER_ARRAYS | st.lists(st.floats(), max_size=5)
_RENDER_DOCS = st.recursive(_RENDER_LEAVES, lambda inner: st.one_of(
    st.lists(inner, max_size=4), st.lists(inner, max_size=3).map(tuple),
    st.dictionaries(st.text(max_size=5), inner, max_size=4)), max_leaves=25)


def _rendered(dumps, doc):
    try:
        return dumps(doc)
    except Exception as exc:  # the outcome compared: type and message of any error
        return type(exc), str(exc)


@settings(max_examples=500, deadline=None)
@given(doc=_RENDER_DOCS)
def test_canonical_json_matches_the_recursive_oracle(doc):
    assert _rendered(dumps_canonical, doc) == _rendered(dumps_canonical_recursive, doc)


def test_canonical_json_float_lists_spell_nan_inf_and_negative_zero():
    values = [0.1, -0.0, float("nan"), float("inf"), float("-inf"), 1e-5, -2.5e300, 0.0]
    text = dumps_canonical({"row": values, "rows": [values, values]})
    assert text == dumps_canonical_recursive({"row": values, "rows": [values, values]})
    assert "[0.10000000000000001, 0, null, null, null, 1.0000000000000001e-05, -2.5000000000000001e+300, 0]" in text


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


@pytest.mark.parametrize("shape, n_list, message", [
    ({"m": 10**15}, [41], "shape band 1000000000000000 violates 2*m < n for n=41"),
    ({"m": None, "coeffs": [{"l": 10**15, "re": 1.0}]}, [41], "shape band 1000000000000000 violates 2*m < n for n=41"),
    ({"m": 21}, [43, 41], "shape band 21 violates 2*m < n for n=41"),
    ({}, [41, 40], "grid sizes must be odd and >= 3, got 40"),
    ({"m": 10**15}, [2 * 10**15 + 1], "grid size 2000000000000001 exceeds the largest study grid, 1000001"),
])
def test_parse_study_config_bounds_the_shape_band_before_allocating(shape, n_list, message):
    # a band that no grid holds fails before its 2m+1 coefficients are allocated, with the message
    # StudyConfig gives when the band is its config's only fault
    doc = _config_doc(n_list=n_list)
    doc["shape"].update(shape)
    with pytest.raises(ConfigInvalid) as info:
        parse_study_config(doc)
    assert str(info.value) == message


@pytest.mark.parametrize("n_list, fit, message", [
    ([1000001], {"m": 400000}, "fit band 400000 and scan grid 1000001 at n=1000001 need a table of "
                               "800001800001 entries, above the largest study table, 63000063"),
    ([41], {"m": 3, "theta_grid_size": 10**9}, "fit band 3 and scan grid 1000000000 at n=41 need a table of "
                                               "7000000000 entries, above the largest study table, 63000063"),
    ([1000001], {"theta_grid_size": 1000002}, "fit band 31 and scan grid 1000002 at n=1000001 need a table of "
                                              "63000126 entries, above the largest study table, 63000063"),
], ids=["fit-band", "scan-grid", "one-past-the-default-table"])
def test_parse_study_config_bounds_the_fit_table_before_allocating(n_list, fit, message):
    # the DFT table (2m+1) x n and the scan table (2m+1) x theta_grid_size may hold no more entries than
    # the default band's DFT table on the largest grid; a config is checked before anything is allocated
    assert parse_study_config(_config_doc(n_list=[1000001], fit={})).n_list == (1000001,)
    with pytest.raises(ConfigInvalid) as info:
        parse_study_config(_config_doc(n_list=n_list, fit=fit))
    assert str(info.value) == message


def test_parse_study_config_fit_block_takes_fit_config_defaults():
    assert parse_study_config(_config_doc(fit={})).fit_config == FitConfig()
    parsed = parse_study_config(_config_doc(fit={"m": "auto", "n_multistart": 3})).fit_config
    assert parsed == FitConfig(n_multistart=3)


def test_parse_study_config_one_sided_shape_completion():
    doc = _config_doc()
    config = parse_study_config(doc)
    assert config.shape.hermitian_defect() == 0.0


# Spellings of an integer frequency and of a finite part that a per-entry parse accepts.
def _spelled_frequency(l):
    return st.sampled_from([l, float(l)])


def _spelled_part(v):
    spellings = [v] * 6 + [np.float64(v)]  # a numpy float is valid, but its entries are checked one at a time
    if v.is_integer():
        spellings += [int(v)] * 2
    return st.sampled_from(spellings)


# One mutation of an entry's key: the value put there (_DROP removes the key).
_DROP = object()
_BAD_FREQUENCIES = [True, False, 1.5, -0.5, float("nan"), float("inf"), "1", None, 2**70, -(2**53) - 1, _DROP]
_BAD_PARTS = ["0.5", float("nan"), float("inf"), float("-inf"), 10**400, True, None, [1.0], _DROP]
_ODD_GOOD_PARTS = [2**64 + 1, -(2**63) - 1, 10**300, -0.0]


@st.composite
def _shape_node(draw):
    """A config's shape node: Hermitian entries in any order and spelling, then perhaps some mutations.

    Mutations: a bad or missing l, re or im (bool, non-integral, string, nan, inf, a huge integer), a large
    but valid integer part, a duplicate frequency (perhaps spelled otherwise), a frequency beyond a given
    band, a two-sided pair made non-Hermitian, an imaginary mean, a bad band.
    """
    m = draw(st.integers(1, 5))
    freqs = draw(st.lists(st.integers(-m, m), min_size=1, max_size=2 * m + 1, unique=True))
    part = st.floats(-1e3, 1e3, allow_nan=False).filter(lambda v: v != 0.0) | st.sampled_from([0.0, -0.0, 2.0])
    values = {}
    for l in sorted(freqs, key=abs):
        re, im = draw(part), 0.0 if l == 0 else draw(part)
        values[l] = (values[-l][0], -values[-l][1]) if -l in values else (re, im)
    entries = []
    for l in draw(st.permutations(freqs)):
        re, im = values[l]
        entry = {"l": draw(_spelled_frequency(l)), "re": draw(_spelled_part(re))}
        if im != 0.0 or draw(st.booleans()):
            entry["im"] = draw(_spelled_part(im))
        entries.append(entry)
    node = {"coeffs": entries}
    if draw(st.booleans()):
        node["m"] = draw(st.sampled_from([max(map(abs, freqs)), m, m + 2, float(m)]))
    for _ in range(draw(st.sampled_from([0, 0, 1, 1, 2]))):
        k = draw(st.integers(0, len(entries) - 1))
        kind = draw(st.sampled_from(["l", "re", "im", "good", "duplicate", "band", "hermitian", "mean", "m"]))
        entry = entries[k]
        if kind in ("l", "re", "im"):
            value = draw(st.sampled_from(_BAD_FREQUENCIES if kind == "l" else _BAD_PARTS))
            if value is _DROP:
                entry.pop(kind, None)
            else:
                entry[kind] = value
        elif kind == "good":
            entry[draw(st.sampled_from(["re", "im"]))] = draw(st.sampled_from(_ODD_GOOD_PARTS))
        elif kind == "duplicate":
            copy = dict(entry)
            if isinstance(copy.get("l"), int) and not isinstance(copy["l"], bool):
                copy["l"] = draw(_spelled_frequency(copy["l"]))
            entries.insert(draw(st.integers(0, len(entries))), copy)
        elif kind == "band":
            node["m"] = m
            entry["l"] = draw(st.sampled_from([m + 1, -m - 1, float(m + 3)]))
        elif kind == "hermitian":
            entry["im"] = draw(part) + 0.5
        elif kind == "mean":
            entries.append({"l": 0, "re": 1.0, "im": draw(st.sampled_from([1e-3, 1e-12, -2.0]))})
        else:
            node["m"] = draw(st.sampled_from([0, -1, 2.5, "3", True, None]))
    return node


def _parsed(parse, node):
    try:
        spec = parse(node)
    except Exception as exc:  # the outcome compared: type and message of any error
        return type(exc), str(exc)
    return spec.m, spec.coeffs.tobytes()


@settings(max_examples=600, deadline=None)
@given(node=_shape_node())
def test_parse_shape_matches_the_per_entry_oracle(node):
    assert _parsed(_parse_shape, node) == _parsed(parse_shape_entries, node)


def _plain_node(**mutation):
    """Three plain one-sided entries, the second's keys replaced (a None value removes the key)."""
    entries = [{"l": 0, "re": 1.0}, {"l": 1, "re": 0.5, "im": -0.25}, {"l": 2, "re": 0.125, "im": 0.0}]
    for key, value in mutation.items():
        if value is None:
            del entries[1][key]
        else:
            entries[1][key] = value
    return {"coeffs": entries}


@pytest.mark.parametrize("node", [
    [], {}, {"coeffs": []}, {"coeffs": {}}, {"coeffs": [1.0]}, {"coeffs": [{"l": 1, "re": 1.0}, "x"]},
    {"coeffs": [{"re": 1.0}]}, {"coeffs": [{"l": 1}]}, {"coeffs": [{"l": 0, "re": 1.0}]},
    _plain_node(), _plain_node(l=1.0), _plain_node(l=-0.0), _plain_node(l=1.5), _plain_node(l=True),
    _plain_node(l=None), _plain_node(l=2), _plain_node(l=3), _plain_node(re=True), _plain_node(re="0.5"),
    _plain_node(re=float("nan")), _plain_node(re=10**400), _plain_node(re=2**64 + 1), _plain_node(re=None),
    _plain_node(im=float("inf")), _plain_node(im=None), _plain_node(l=-1, im=0.5),
    {**_plain_node(l=1.5), "m": 2}, {**_plain_node(l=3), "m": 2}, {**_plain_node(), "m": 2.0},
])
def test_parse_shape_matches_the_oracle_on_malformed_nodes(node):
    assert _parsed(_parse_shape, node) == _parsed(parse_shape_entries, node)


def test_parse_shape_reads_the_fixture_in_any_equivalent_spelling():
    with open(Path(__file__).parent.parent / "fixtures" / "figure2.json") as fh:
        node = json.load(fh)["shape"]
    respelled = {"coeffs": [{"l": float(e["l"]), "re": e["re"], **({"im": e["im"]} if e["im"] else {})}
                            for e in reversed(node["coeffs"])]}
    assert _parsed(_parse_shape, respelled) == _parsed(_parse_shape, node) == _parsed(parse_shape_entries, node)


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
