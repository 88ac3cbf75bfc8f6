"""File formats: CSV panels in, canonical JSON results and reports out.

All numbers are serialized with 17 significant digits, which identifies a
double uniquely, so parse -> emit reproduces a tool-written file byte for
byte.  Emission is canonical (fixed key order as built, fixed float
format, fixed layout); non-finite values become null.  Files are written
via a uniquely named temporary sibling and an atomic rename, so readers
never observe a partial file.
"""

from __future__ import annotations

import contextlib
import csv
import json
import math
import os
from io import StringIO
from itertools import chain, count, repeat
from json.encoder import encode_basestring, encode_basestring_ascii

import numpy as np

from .errors import ConfigInvalid, GridMismatch, ParseError, RaggedColumns, ZeroReferenceAmplitude
from .fit import FitConfig, FitResult
from .fourier import TWO_PI, ShapeSpectrum, evaluate_spectrum, make_grid
from .inference import ConfidenceReport
from .model import (
    ConstraintRegime,
    CurvePanel,
    Regime,
    center_shape,
    project_to_constraints,
)
from .montecarlo import _QUANTILES, StudyConfig, StudyReport, _check_grids

_GRID_TOLERANCE = 1e-9
_TEMP_NAMES = count()  # with the pid, a name no other writer in this process or another uses


# ---------------------------------------------------------------------------
# canonical JSON
# ---------------------------------------------------------------------------

# format(v, ".17g") of the floats JSON cannot spell, and of -0.0, which would re-parse as the integer 0
_FLOAT_MENDS = {"nan": "null", "inf": "null", "-inf": "null", "-0": "0"}


def _render_float(value) -> str:
    text = format(float(value), ".17g")
    return _FLOAT_MENDS.get(text, text)


def _render_scalar(value) -> str:
    if isinstance(value, (float, np.floating)):  # most values: ahead of the rest of the dispatch
        return _render_float(value)
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, str):
        return encode_basestring(value)  # json.dumps(value, ensure_ascii=False) without its wrappers
    raise TypeError(f"cannot serialize {type(value).__name__}")


# _render_scalar of each scalar type a document mostly holds, by exact type: one lookup, no isinstance chain
_RENDER_EXACT = {
    float: _render_float,
    int: str,
    bool: {True: "true", False: "false"}.__getitem__,
    str: encode_basestring,
    type(None): lambda _: "null",
}


def _is_scalar(value) -> bool:
    return isinstance(value, (float, bool, int, str, np.integer, np.floating)) or value is None


def _render_floats(values: list) -> str:
    """Python floats as _render_scalar gives them, joined by ", ": one format call a value."""
    texts = list(map(float.__format__, values, repeat(".17g")))
    return ", ".join(map(_FLOAT_MENDS.get, texts, texts))


def _emit(value, pad: str) -> str:
    """JSON text of one value; the lines of a nested container are indented from ``pad``."""
    render = _RENDER_EXACT.get(type(value))
    if render is not None:
        return render(value)
    inner = pad + "  "
    if isinstance(value, dict):  # ahead of the scalar checks, which no container passes
        if not value:
            return "{}"
        return ("{\n" + ",\n".join(f"{inner}{encode_basestring_ascii(str(key))}: {_emit(item, inner)}"
                                  for key, item in value.items()) + "\n" + pad + "}")
    if _is_scalar(value):
        return _render_scalar(value)
    if isinstance(value, (list, tuple, np.ndarray)):
        items = value if type(value) is list else list(value)
        if not items:
            return "[]"
        if set(map(type, items)) == {float}:  # the usual leaf: a tolist() row
            return "[" + _render_floats(items) + "]"
        if all(map(_is_scalar, items)):
            return "[" + ", ".join(map(_render_scalar, items)) + "]"
        return "[\n" + ",\n".join(inner + _emit(item, inner) for item in items) + "\n" + pad + "]"
    raise TypeError(f"cannot serialize {type(value).__name__}")


def dumps_canonical(doc) -> str:
    """Serialize to deterministic JSON text (insertion key order)."""
    return _emit(doc, "") + "\n"


def write_atomic(path: str, text: str):
    """Write-then-rename so no partial file is ever visible.

    The text goes to a temporary file beside ``path``, named from the process id and a
    per-process counter and created exclusively (a taken name moves on to the next), so
    writers never share one, with mode 0o666 less the umask as a plain ``open`` gives it;
    one rename replaces ``path``.  On any failure the temporary file is removed and ``path``
    keeps its old content.  There is no fsync: the rename is atomic for readers but not
    durable across a power loss.  On ext4 on a 2-CPU virtual machine, creating and writing
    the temporary file took 0.1 to 0.3 ms, the rename over the old file 0.05 to 0.25 ms, and
    an fsync would add about 0.1 ms, against about 2.5 ms for a whole J=3, n=201 CLI fit.
    """
    directory, name = os.path.split(os.path.abspath(path))
    while True:  # a name another writer holds moves on to the next
        tmp = os.path.join(directory, f".{name}.{os.getpid()}.{next(_TEMP_NAMES)}.tmp")
        with contextlib.suppress(FileExistsError):
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            break
    try:
        with open(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


# ---------------------------------------------------------------------------
# panel CSV
# ---------------------------------------------------------------------------

def read_panel(path: str) -> CurvePanel:
    """Parse a curve panel from CSV.

    Header row required, labels kept verbatim.  A first column named ``t``,
    whitespace aside, must hold the equidistant grid 2*pi*i/n (radians, within
    1e-9); otherwise every column is a curve and the row count, which must be
    odd, implies the grid.  Every cell must be a finite number, whitespace aside.
    Every file is read with ``csv``, whose records end at \r\n, \r or \n; a ``csv.Error``,
    such as a cell longer than csv's field size limit, is a ParseError.
    """
    try:
        with open(path, "rb") as fh:
            text = fh.read().decode("utf-8").removeprefix("\ufeff")  # a byte-order mark is not a label
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:  # its position is the byte offset in the file
        raise ParseError(f"{path} is not valid UTF-8: {exc}") from exc
    try:  # csv's records end at \r\n, \r or \n, as in a file opened with newline=""
        rows = list(csv.reader(StringIO(text, newline="")))
    except csv.Error as exc:  # such as a field beyond csv's field size limit
        raise ParseError(f"{path} is not valid CSV: {exc}") from exc
    if not rows:
        raise ParseError("empty file", line=1)
    header, body = rows[0], rows[1:]

    width = len(header)
    if width < 2:
        raise ParseError("need at least two columns", line=1)
    has_time = header[0].strip() == "t"
    n_curves = width - (1 if has_time else 0)
    if n_curves < 2:
        raise ParseError("need at least two curve columns", line=1)

    table = None  # one float() pass over the body; the cell loop only where it fails
    if set(map(len, body)) <= {width}:  # every row holds width cells, in one C-level pass
        with contextlib.suppress(ValueError):
            table = np.array(list(map(float, chain.from_iterable(body))))
    if table is None or not np.isfinite(table).all():
        # the first bad row or cell in reading order; str.strip, unlike float(), trims U+001C..U+001F
        values = []
        for line_no, row in enumerate(body, start=2):
            if not row:
                raise ParseError("blank line inside table", line=line_no)
            if len(row) != width:
                raise RaggedColumns(f"line {line_no}: {len(row)} cells, expected {width}")
            for col_no, cell in enumerate(row, start=1):
                cell = cell.strip()
                if cell == "":
                    raise ParseError("missing cell", line=line_no, column=col_no)
                try:
                    values.append(float(cell))
                except ValueError as exc:
                    raise ParseError(f"bad number {cell!r}", line=line_no, column=col_no) from exc
                if not math.isfinite(values[-1]):
                    raise ParseError(f"non-finite number {cell!r}", line=line_no, column=col_no)
        table = np.array(values)
    n = len(body)
    if n < 3:
        raise GridMismatch(f"need at least 3 rows, got {n}")
    if n % 2 == 0:
        raise GridMismatch("n must be odd")
    table = table.reshape(n, width)
    grid = make_grid(n)
    if has_time:
        defect = float(np.max(np.abs(table[:, 0] - grid.points)))
        if defect > _GRID_TOLERANCE:
            raise GridMismatch(
                f"time column deviates from the equidistant grid by {defect:.3e}"
            )
        y = table[:, 1:].T
        labels = header[1:]
    else:
        y = table.T
        labels = header
    return CurvePanel(grid=grid, y=y, labels=labels)


def write_panel(path: str, panel: CurvePanel):
    """Emit a panel in the same CSV dialect ``read_panel`` accepts."""
    labels = panel.labels or [f"curve_{k + 1}" for k in range(panel.n_curves)]
    header = StringIO()  # quotes a label holding a comma, quote or line break
    csv.writer(header, lineterminator="\n").writerow(["t", *labels])
    lines = [header.getvalue()]
    for i in range(panel.grid.n):
        cells = [format(panel.grid.points[i], ".17g")]
        cells += [format(panel.y[j, i], ".17g") for j in range(panel.n_curves)]
        lines.append(",".join(cells) + "\n")
    write_atomic(path, "".join(lines))


# ---------------------------------------------------------------------------
# result document
# ---------------------------------------------------------------------------

def _shape_entries(spec: ShapeSpectrum) -> list[dict]:
    """One entry per frequency -m..m, the mean's left out where it is zero."""
    return [{"l": l, "re": c.real, "im": c.imag}
            for l, c in zip(range(-spec.m, spec.m + 1), spec.coeffs.tolist()) if l or c]


def result_document(
    result: FitResult,
    report: ConfidenceReport | None,
    seed: int | None = None,
    period_days: float | None = None,
) -> dict:
    params = result.beta_hat
    doc = {
        "theta": params.theta.tolist(),
        "a": params.a.tolist(),
        "upsilon": params.upsilon.tolist(),
        "sigma": result.sigma_hat,
        "m": result.m,
        "shape_coeffs": _shape_entries(result.shape_hat),
        "covariance": None,
        "ci": None,
        "diagnostics": {
            "objective": result.objective,
            "iterations": result.iterations,
            "restarts": result.restarts,
            "converged": result.converged,
            "regime": params.regime.kind.value,
            "n": result.n,
            "zero_noise": result.zero_noise,
            "tie_break": result.tie_break,
            "upsilon_max": params.regime.upsilon_max,
            "seed": seed,
        },
    }
    if report is not None:
        doc["covariance"] = {
            "labels": report.labels,
            "matrix": report.covariance.tolist(),
        }
        doc["ci"] = {
            "level": report.level,
            "zero_noise": report.zero_noise,
            "parameters": [
                {
                    "name": iv.name,
                    "estimate": iv.estimate,
                    "half_width": iv.half_width,
                    "lo": iv.lo,
                    "hi": iv.hi,
                    "circular": iv.circular,
                }
                for iv in report.intervals
            ],
        }
    if period_days is not None:
        # divide first: t * period_days overflows for a finite period near the float limit
        doc["theta_days"] = [t / TWO_PI * period_days for t in params.theta]
    return doc


def write_shape_table(path: str, spec: ShapeSpectrum, points: int = 512):
    """CSV table (t, shape value) over one period, for external plotting."""
    ts = TWO_PI * np.arange(points) / points
    values = evaluate_spectrum(spec, ts)
    lines = ["t,f_hat"]
    lines += [
        f"{format(t, '.17g')},{format(v, '.17g')}" for t, v in zip(ts, values)
    ]
    write_atomic(path, "\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# study config / report documents
# ---------------------------------------------------------------------------

def _require(mapping: dict, key: str, context: str):
    if key not in mapping:
        raise ConfigInvalid(f"missing key {key!r} in {context}")
    return mapping[key]


def _object(value, key: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigInvalid(f"{key} must be a JSON object")
    return value


def _integer(value, key: str) -> int:
    """A JSON integer (an integral float is accepted), else ConfigInvalid naming ``key``."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigInvalid(f"{key} must be an integer, got {value!r}")
    return value


def _number(value, key: str) -> float:
    """A finite JSON number, else ConfigInvalid naming ``key``."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            number = float(value)
        except OverflowError:  # an integer beyond the double range
            number = math.inf
        if math.isfinite(number):
            return number
    raise ConfigInvalid(f"{key} must be a finite number, got {value!r}")


def _numbers(value, key: str) -> np.ndarray:
    if not isinstance(value, list):
        raise ConfigInvalid(f"{key} must be a list of numbers")
    return np.array([_number(v, key) for v in value], dtype=float)


def _checked_columns(entries, m: int) -> tuple[list[int], np.ndarray]:
    """The entries' frequencies and a (2, K) array of their real and imaginary parts, each entry
    checked on its own and in order, so the first bad entry raises."""
    seen, freqs, parts = set(), [], []
    for entry in entries:
        l = _integer(_require(entry, "l", "shape.coeffs entry"), "shape.coeffs.l")
        re = _number(_require(entry, "re", "shape.coeffs entry"), "shape.coeffs.re")
        im = _number(entry.get("im", 0.0), "shape.coeffs.im")
        if abs(l) > m:
            raise ConfigInvalid(f"shape frequency {l} outside band {m}")
        if l in seen:
            raise ConfigInvalid(f"duplicate shape frequency {l}")
        seen.add(l)
        freqs.append(l)
        parts.append((re, im))
    return freqs, np.array(parts).T


def _parse_shape(node, n_list=()) -> ShapeSpectrum:
    """The configured spectrum; a frequency given on one side only gets its conjugate pair.

    The entries are read and checked one at a time, so an error names the first bad entry.
    The grid sizes ``n_list`` and the band are checked as :class:`StudyConfig` checks them
    before any coefficient is allocated, so a band of 10**15 fails as one of 200 does.
    """
    entries = _require(_object(node, "shape"), "coeffs", "shape")
    if not isinstance(entries, list) or not entries:
        raise ConfigInvalid("shape.coeffs must be a nonempty list")
    if not all(isinstance(e, dict) for e in entries):
        raise ConfigInvalid("shape.coeffs entries must be JSON objects")
    m = node.get("m")
    if m is None:
        m = max(abs(_integer(e.get("l", 0), "shape.coeffs.l")) for e in entries)
    m = _integer(m, "shape.m")
    if m < 1:
        raise ConfigInvalid("shape band must be >= 1")
    _check_grids(n_list, m)
    freqs, (re, im) = _checked_columns(entries, m)
    coeffs = np.zeros(2 * m + 1, dtype=complex)
    index = np.add(freqs, m)
    coeffs.real[index] = re
    coeffs.imag[index] = im
    seen = np.zeros(2 * m + 1, dtype=bool)
    seen[index] = True
    coeffs = np.where(seen[::-1] & ~seen, np.conj(coeffs[::-1]), coeffs)  # one-sided pairs completed
    spec = ShapeSpectrum(m=m, coeffs=coeffs)
    with np.errstate(over="ignore"):  # an infinite sum is rejected below
        mass = float(np.abs(coeffs).sum())  # bounds |f| everywhere
    if mass == math.inf:
        raise ConfigInvalid("shape coefficient magnitudes must have a finite sum")
    if spec.hermitian_defect() > 1e-9 * max(1.0, mass):
        raise ConfigInvalid("shape coefficients are not conjugate-symmetric")
    if abs(coeffs[m].imag) > 0:
        raise ConfigInvalid("mean coefficient must be real")
    return spec


# Parser of each key a study config's ``fit`` block may hold; FitConfig supplies the rest.
_FIT_KEYS = {
    "m": lambda v: None if v in (None, "auto") else _integer(v, "fit.m"),
    "m_exponent": lambda v: _number(v, "fit.m_exponent"),
    "theta_grid_size": lambda v: None if v is None else _integer(v, "fit.theta_grid_size"),
    "n_multistart": lambda v: _integer(v, "fit.n_multistart"),
    "tol_objective": lambda v: _number(v, "fit.tol_objective"),
    "tol_param": lambda v: _number(v, "fit.tol_param"),
    "max_iters": lambda v: _integer(v, "fit.max_iters"),
}


def parse_study_config(doc: dict) -> StudyConfig:
    """Validate and canonicalize a study configuration document.

    The configured truth may be given in raw generating form (uncentered
    shape, scales off the sphere); it is canonicalized to the identifiable
    representation: the shape mean moves into the levels, the scales are
    rescaled onto the sphere with the shape absorbing the inverse factor,
    and shifts are wrapped.  The represented curves stay the configured ones:
    a canonical level outside +-``upsilon_max`` or a zero first scale is
    ConfigInvalid, not clipped or left to the projection.
    """
    if not isinstance(doc, dict):
        raise ConfigInvalid("config root must be a JSON object")
    n_list = _require(doc, "n_list", "config")
    if not isinstance(n_list, list) or not n_list:
        raise ConfigInvalid("n_list must be a nonempty list")
    n_list = tuple(_integer(n, "n_list") for n in n_list)
    truth_node = _object(_require(doc, "truth", "config"), "truth")
    shape = _parse_shape(_require(doc, "shape", "config"), n_list)

    theta = _numbers(_require(truth_node, "theta", "truth"), "truth.theta")
    a = _numbers(_require(truth_node, "a", "truth"), "truth.a")
    upsilon = _numbers(_require(truth_node, "upsilon", "truth"), "truth.upsilon")
    sigma = _number(_require(truth_node, "sigma", "truth"), "truth.sigma")
    upsilon_max = _number(truth_node.get("upsilon_max", ConstraintRegime.upsilon_max), "truth.upsilon_max")
    if not (theta.size == a.size == upsilon.size) or theta.size < 2:
        raise ConfigInvalid("truth vectors must share length J >= 2")
    if sigma < 0:
        raise ConfigInvalid("truth sigma must be nonnegative")

    # canonicalize: center the shape, move scales onto the sphere
    centered, c0 = center_shape(shape)
    with np.errstate(over="ignore"):  # an infinite level or sum of squares fails its check below
        upsilon = upsilon + a * c0
        ssq = float(a @ a)
    j = a.size
    if not 0 < ssq < math.inf:
        raise ConfigInvalid(f"truth scales must not all vanish and must have a finite sum of squares, got {ssq!r}")
    scale = math.sqrt(j / ssq)
    coeffs = centered.coeffs / scale
    regime = ConstraintRegime(kind=Regime.A0, upsilon_max=upsilon_max)
    outside = np.flatnonzero(np.abs(upsilon) > upsilon_max)  # levels the projection would clip
    if outside.size:
        k = int(outside[0])
        raise ConfigInvalid(f"canonical truth level upsilon_{k + 1} = {float(upsilon[k])!r} "
                            f"lies outside the bound upsilon_max = {upsilon_max!r}")
    try:
        truth, flipped = project_to_constraints(theta, a * scale, upsilon, regime, sigma=sigma)
    except ZeroReferenceAmplitude as exc:
        raise ConfigInvalid(f"first truth scale: {exc}") from exc
    if flipped:
        coeffs = -coeffs
    canonical_shape = ShapeSpectrum(m=centered.m, coeffs=coeffs)

    replicates = _integer(_require(doc, "replicates", "config"), "replicates")
    base_seed = _integer(_require(doc, "base_seed", "config"), "base_seed")

    fit_node = _object(doc.get("fit", {}), "fit")
    for key in fit_node:
        if key not in _FIT_KEYS:
            raise ConfigInvalid(f"unknown key {key!r} in fit")
    fit_config = FitConfig(**{key: parse(fit_node[key]) for key, parse in _FIT_KEYS.items() if key in fit_node})

    regime_names = doc.get("regimes", ["a0"])
    try:
        regimes = tuple(Regime(name) for name in regime_names)
    except (TypeError, ValueError) as exc:
        raise ConfigInvalid(f"unknown regime in regimes: {regime_names!r}") from exc

    return StudyConfig(
        truth=truth,
        shape=canonical_shape,
        n_list=n_list,
        replicates=replicates,
        base_seed=base_seed,
        fit_config=fit_config,
        regimes=regimes,
    )


def load_study_config(path: str) -> StudyConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigInvalid(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:  # malformed JSON or text that is not UTF-8
        raise ConfigInvalid(f"invalid JSON in {path}: {exc}") from exc
    return parse_study_config(doc)


def report_document(report: StudyReport) -> dict:
    cells = []
    for cell in report.cells:
        cells.append({
            "n": cell.n,
            "regime": cell.regime.value,
            "labels": cell.labels,
            "truth": cell.truth_free.tolist(),
            "bias": cell.bias.tolist(),
            "empirical_covariance": cell.empirical_covariance.tolist(),
            "theory_covariance": cell.theory_covariance.tolist(),
            "ratios": cell.ratios.tolist(),
            "mise": {
                "inband": cell.mise_inband,
                "tail": cell.mise_tail,
                "total": cell.mise_inband + cell.mise_tail,
            },
            "quantiles": {
                "probs": list(_QUANTILES),
                "values": cell.quantiles.tolist(),
            },
            "sigma_mean": cell.sigma_mean,
            "failures": cell.failures,
            "replicates": cell.replicates,
            "invalid": cell.invalid,
        })
    return {
        "n_list": list(report.n_list),
        "replicates": report.replicates,
        "base_seed": report.base_seed,
        "regimes": [r.value for r in report.regimes],
        "cells": cells,
    }
