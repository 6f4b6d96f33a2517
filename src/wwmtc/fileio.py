"""File formats: muscle-spec JSON, experiment CSVs, fitted-parameter JSON.

CSV dialect everywhere: comma separator, ``.`` decimal point, mandatory
header row, UTF-8, LF line endings.  Numbers are printed with 15
significant digits so written files are stable, diffable test fixtures.
Every log is read by one parser on the standard library, ``_columns``:
each cell goes through ``float``, and ``_data_lines`` first rejects the
``_`` and non-ASCII characters that ``float`` reads but a plain decimal
number never holds.  Only ``read_winch_csv`` hands its columns on as
numpy arrays.
Every written number is finite: the writers raise DomainError on inf or
NaN, which a finite input yields only past the range of doubles (for
example k = 1/L for L = 1e-320).
"""

from __future__ import annotations

import json
import math
import os

from .actuators import HysteresisParams, TendonFit
from .beam import BeamSolution
from .design import DesignConstraints, DesignResult
from .errors import DomainError
from .muscle import DeformationCurve, MuscleSpec, MuscleState

CURVE_HEADER = "p,width_mm,length_mm,contraction_mm,psi0_deg"
TENDON_HEADER = "time_s,load_N,strain,cycle"
WINCH_HEADER = "time_s,current_A,tension_N"


_NOT_FINITE = ("a result is not a finite number; the inputs are too large or "
               "too small for double precision")


def fmt(value: float) -> str:
    """Render a finite number at the package-wide 15-significant-digit precision."""
    value = float(value)
    if not math.isfinite(value):
        raise DomainError(_NOT_FINITE)
    return format(value, ".15g")


def _csv_text(header: str, row: str, cells) -> str:
    """header, then ``row`` formatted once per row over the flat ``cells``.

    The rows are formatted in one ``%`` operation.  "%.15g" renders a
    finite value exactly as fmt does, and spells a non-finite one inf or
    nan, the only spellings with an "n"; the header is not scanned, since
    its names hold an "n".
    """
    rows = len(cells) // (header.count(",") + 1)
    body = (row * rows) % tuple(cells)
    if "n" in body:
        raise DomainError(_NOT_FINITE)
    return header + "\n" + body


def _json_text(obj) -> str:
    """obj as indented JSON text; NaN and infinities are not JSON, and rejected."""
    try:
        return json.dumps(obj, indent=2, allow_nan=False) + "\n"
    except ValueError as exc:
        raise DomainError(_NOT_FINITE) from exc


# ---------------------------------------------------------------------------
# JSON fields
# ---------------------------------------------------------------------------

def _read_json_object(path: str | os.PathLike, what: str, fields: tuple[str, ...]) -> dict:
    """The JSON object in the file at path, whose keys must all be in fields:
    a misspelled optional field would otherwise be dropped unnoticed."""
    try:
        with open(path, encoding="utf-8") as file:
            raw = json.load(file)
    # ValueError covers bad UTF-8, bad JSON and integers past Python's
    # digit limit; RecursionError, arrays nested too deep to parse
    except (OSError, ValueError, RecursionError) as exc:
        raise DomainError(f"cannot read {what} {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise DomainError(f"{what} {path} must be a JSON object")
    for key in raw:
        if key not in fields:
            raise DomainError(f"{what} {path} has unknown field {key!r}")
    return raw


def _number(value, name: str) -> float:
    """A finite JSON number as a float; anything else is a DomainError."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            number = float(value)
        except OverflowError:
            pass
        else:
            if math.isfinite(number):
                return number
    raise DomainError(f"{name}={value!r} must be a finite number")


def _integer(value, name: str) -> int:
    """A JSON number with no fractional part as an int (8.0 counts, 8.7 does not)."""
    if not _number(value, name).is_integer():
        raise DomainError(f"{name}={value!r} must be an integer")
    return int(value)


def _pair(value, name: str, convert) -> tuple:
    if not (isinstance(value, list) and len(value) == 2):
        raise DomainError(f"{name}={value!r} must be a [min, max] pair")
    return tuple(convert(v, name) for v in value)


# ---------------------------------------------------------------------------
# muscle specs and curves
# ---------------------------------------------------------------------------

def read_muscle_spec(path: str | os.PathLike) -> MuscleSpec:
    """Load a muscle spec from its JSON file schema."""
    raw = _read_json_object(path, "muscle spec", ("n", "L_mm", "h0_mm", "kind"))
    try:
        fields = dict(
            n=_integer(raw["n"], "n"),
            L=_number(raw["L_mm"], "L_mm"),
            h0=_number(raw["h0_mm"], "h0_mm"),
            kind=str(raw.get("kind", "radial")),
        )
    except KeyError as exc:
        raise DomainError(f"muscle spec {path} missing field {exc}") from exc
    except DomainError as exc:
        raise DomainError(f"muscle spec {path}: {exc}") from exc
    return MuscleSpec(**fields)


def muscle_spec_to_json(spec: MuscleSpec) -> dict:
    return {"n": spec.n, "L_mm": spec.L, "h0_mm": spec.h0, "kind": spec.kind}


def beam_solution_to_json(sol: BeamSolution) -> str:
    return _json_text({
        "w_mm": sol.w,
        "h_mm": sol.h,
        "psi0_rad": sol.psi0,
        "psi0_deg": sol.psi0 * 180.0 / math.pi,
        "k_per_mm": sol.k,
    })


_CURVE_ROW = "%.15g,%.15g,%.15g,%.15g,%.15g\n"


def _state_cells(states) -> list[float]:
    return [v for p, width, length, contraction, psi0 in states
            for v in (p, width, length, contraction, psi0 * 180.0 / math.pi)]


def curve_to_csv(curve: DeformationCurve) -> str:
    return _csv_text(CURVE_HEADER, _CURVE_ROW, _state_cells(curve.samples))


def state_to_csv(state: MuscleState) -> str:
    return _csv_text(CURVE_HEADER, _CURVE_ROW, _state_cells((state,)))


# ---------------------------------------------------------------------------
# experiment logs
# ---------------------------------------------------------------------------

def _data_lines(path: str | os.PathLike, header: str) -> list[str]:
    """The data lines of a log: the front end of the log parser.

    The file is read as UTF-8 text, and each ``\\n`` ends one line: the
    other line breaks that ``str.splitlines`` knows, such as form feed or
    U+0085, stay inside their line, so two rows joined by one are one
    malformed row.  Blank
    and whitespace-only lines are dropped, and the first line left must be
    the header.  A file with no data rows is rejected, and so is a data line
    that holds a ``_`` or a non-ASCII character: ``float`` would read ``1_0``
    as digit grouping, and Unicode digits and spaces as their ASCII
    counterparts, which a plain decimal number never holds.
    """
    try:
        with open(path, encoding="utf-8") as file:
            text = file.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise DomainError(f"cannot read {path}: {exc}") from exc
    lines = list(filter(str.strip, text.split("\n")))
    if not lines or lines[0].strip() != header:
        raise DomainError(
            f"{path}: expected header {header!r}, got "
            f"{lines[0].strip() if lines else '<empty>'!r}"
        )
    del lines[0]
    if not lines:
        raise DomainError(f"{path}: no data rows")
    # the header line holds all of the text's "_" but the data lines'
    if (text.count("_") != header.count("_")
            or not (text.isascii() or all(map(str.isascii, lines)))):
        raise DomainError(f"{path}: every data row needs {header.count(',') + 1} "
                          "plain numbers, in ASCII and without '_'")
    return lines


# rows parsed at a time, so that the cells of a long profile are never all
# held as strings at once
_CHUNK_ROWS = 4096


def _bad_row(path, rows: list[str], width: int) -> DomainError:
    """The error that names the first of the rows that is not ``width``
    numbers."""
    for row in rows:
        cells = row.split(",")
        try:
            if len(cells) == width:
                list(map(float, cells))
                continue
        except ValueError:
            pass
        got = "" if len(cells) == width else f", got {len(cells)}"
        return DomainError(f"{path}: every data row needs {width} numbers{got}: {row!r}")
    raise AssertionError("no bad row among the rows given")


def _columns(path: str | os.PathLike, header: str) -> list[list[float]]:
    """The one log parser: one list of floats per header field.

    Each cell goes through ``float``: a plain decimal or exponent number,
    with surrounding spaces allowed.  Every cell must be finite.
    """
    lines = _data_lines(path, header)
    width = header.count(",") + 1
    columns = [[] for _ in range(width)]
    for start in range(0, len(lines), _CHUNK_ROWS):
        rows = lines[start:start + _CHUNK_ROWS]
        # joined so that each row but the first starts with "\n"; a row holds
        # no "\n" and is not empty, so a cell holds one only if it starts a
        # row, and the rows are width cells each iff the cells at every
        # width-th place past the first hold one each
        cells = ",\n".join(rows).split(",")
        if (len(cells) != width * len(rows)
                or "".join(cells[width::width]).count("\n") != len(rows) - 1):
            raise _bad_row(path, rows, width)
        try:
            values = list(map(float, cells))
        except ValueError:
            raise _bad_row(path, rows, width) from None
        # a finite sum has only finite terms; an infinite one may have overflowed
        if not (math.isfinite(sum(values)) or all(map(math.isfinite, values))):
            raise DomainError(f"{path}: every data cell must be a finite number")
        for k, column in enumerate(columns):
            column += values[k::width]
    return columns


def read_tendon_csv(path: str | os.PathLike):
    """-> (time_s, load_N, strain, cycle) lists of floats; each cycle is a
    whole number of magnitude below 2**63, as fit_tendon requires."""
    time_s, load, strain, cycle = _columns(path, TENDON_HEADER)
    if not (all(map(float.is_integer, cycle))
            and -2.0 ** 63 < min(cycle) and max(cycle) < 2.0 ** 63):
        raise DomainError(f"{path}: every cycle cell must be a whole number "
                          "of magnitude below 2**63")
    return time_s, load, strain, cycle


def read_winch_csv(path: str | os.PathLike):
    """-> (time_s, current_A, tension_N) float arrays."""
    import numpy as np

    return tuple(map(np.array, _columns(path, WINCH_HEADER)))


def read_winch_columns(path: str | os.PathLike) -> tuple[list[float], list[float], list[float]]:
    """-> (time_s, current_A, tension_N) lists of floats, without numpy."""
    return tuple(_columns(path, WINCH_HEADER))


def winch_series_to_csv(time_s, current_a, tension_n) -> str:
    """The winch CSV of three equal-length columns of numbers."""
    flat = [0.0] * (3 * len(tension_n))
    flat[0::3] = time_s
    flat[1::3] = current_a
    flat[2::3] = tension_n
    return _csv_text(WINCH_HEADER, "%.15g,%.15g,%.15g\n", flat)


# ---------------------------------------------------------------------------
# fitted parameters
# ---------------------------------------------------------------------------

def tendon_fit_to_json(fit: TendonFit) -> str:
    obj = {
        "a_N": float(fit.a),
        "b": float(fit.b),
        "eps0": float(fit.eps0),
        "rms_residual_N": float(fit.rms_residual),
    }
    return _json_text(obj)


def winch_params_to_json(params: HysteresisParams) -> str:
    obj = {
        "c_N_per_A": params.c,
        "r_N": params.r,
        "rms_residual_N": params.rms_residual,
    }
    return _json_text(obj)


def read_winch_params(path: str | os.PathLike) -> tuple[HysteresisParams, float]:
    """-> (params, initial_tension_N); the initial state defaults to 0."""
    # rms_residual_N is not read, but winch fit writes it
    raw = _read_json_object(path, "winch params", (
        "c_N_per_A", "r_N", "initial_tension_N", "rms_residual_N"))
    try:
        params = HysteresisParams(c=_number(raw["c_N_per_A"], "c_N_per_A"),
                                  r=_number(raw["r_N"], "r_N"))
        t0 = _number(raw.get("initial_tension_N", 0.0), "initial_tension_N")
    except KeyError as exc:
        raise DomainError(f"winch params {path} missing field {exc}") from exc
    except DomainError as exc:
        raise DomainError(f"winch params {path}: {exc}") from exc
    return params, t0


# ---------------------------------------------------------------------------
# design constraints / results
# ---------------------------------------------------------------------------

def read_design_constraints(path: str | os.PathLike) -> DesignConstraints:
    raw = _read_json_object(path, "constraints", (
        "natural_length_range_mm", "min_stroke_mm", "max_width_at_full_mm",
        "min_width_at_full_mm", "h0_mm", "n_range", "L_range_mm", "kind"))
    try:
        fields = dict(
            natural_length_range=_pair(raw["natural_length_range_mm"],
                                       "natural_length_range_mm", _number),
            min_stroke=_number(raw["min_stroke_mm"], "min_stroke_mm"),
            max_width_at_full=_number(raw["max_width_at_full_mm"], "max_width_at_full_mm"),
            min_width_at_full=_number(raw.get("min_width_at_full_mm", 0.0),
                                      "min_width_at_full_mm"),
            h0=_number(raw["h0_mm"], "h0_mm"),
            n_range=_pair(raw["n_range"], "n_range", _integer),
            L_range=_pair(raw["L_range_mm"], "L_range_mm", _number),
            kind=str(raw.get("kind", "radial")),
        )
    except KeyError as exc:
        raise DomainError(f"constraints {path} missing field {exc}") from exc
    except DomainError as exc:
        raise DomainError(f"constraints {path}: {exc}") from exc
    return DesignConstraints(**fields)


def design_results_to_json(results: list[DesignResult]) -> str:
    out = []
    for res in results:
        out.append(
            {
                "spec": muscle_spec_to_json(res.spec),
                "achieved": {
                    "natural_length_mm": res.achieved.natural_length,
                    "stroke_mm": res.achieved.stroke,
                    "width_at_full_mm": res.achieved.width_at_full,
                },
                "feasible": res.feasible,
                "L_interval_mm": list(res.L_interval),
            }
        )
    return _json_text(out)


DESIGN_CSV_HEADER = (
    "n,L_mm,h0_mm,natural_length_mm,stroke_mm,width_at_full_mm,L_lo_mm,L_hi_mm"
)


def design_results_to_csv(results: list[DesignResult]) -> str:
    cells = [v for (n, L, h0, _), achieved, _, (lo, hi) in results
             for v in (n, L, h0, *achieved, lo, hi)]
    return _csv_text(DESIGN_CSV_HEADER, "%d" + ",%.15g" * 7 + "\n", cells)
