"""File formats: muscle-spec JSON, experiment CSVs, fitted-parameter JSON.

CSV dialect everywhere: comma separator, ``.`` decimal point, mandatory
header row, UTF-8, LF line endings.  Numbers are printed with 15
significant digits so written files are stable, diffable test fixtures.
Every written number is finite: the writers check each value or array they
format and raise DomainError on inf or NaN, which a finite input yields only
past the range of doubles (for example k = 1/L for L = 1e-320).
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from .beam import BeamSolution
from .design import DesignConstraints, DesignResult
from .errors import DomainError
from .muscle import DeformationCurve, MuscleSpec, MuscleState

# TendonFit and HysteresisParams in annotations are wwmtc.actuators' types,
# imported only where data needs them, since actuators loads numpy

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


def _json_text(obj) -> str:
    """obj as indented JSON text; NaN and infinities are not JSON, and rejected."""
    try:
        return json.dumps(obj, indent=2, allow_nan=False) + "\n"
    except ValueError as exc:
        raise DomainError(_NOT_FINITE) from exc


# ---------------------------------------------------------------------------
# JSON fields
# ---------------------------------------------------------------------------

def _read_json_object(path: str | Path, what: str) -> dict:
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    # ValueError covers bad UTF-8, bad JSON and integers past Python's
    # digit limit; RecursionError, arrays nested too deep to parse
    except (OSError, ValueError, RecursionError) as exc:
        raise DomainError(f"cannot read {what} {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise DomainError(f"{what} {path} must be a JSON object")
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

def read_muscle_spec(path: str | Path) -> MuscleSpec:
    """Load a muscle spec from its JSON file schema."""
    raw = _read_json_object(path, "muscle spec")
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


def _state_row(state: MuscleState) -> str:
    psi0_deg = state.psi0 * 180.0 / math.pi
    return ",".join(
        fmt(v) for v in (state.p, state.width, state.length, state.contraction, psi0_deg)
    )


def curve_to_csv(curve: DeformationCurve) -> str:
    lines = [CURVE_HEADER]
    lines.extend(_state_row(s) for s in curve.samples)
    return "\n".join(lines) + "\n"


def state_to_csv(state: MuscleState) -> str:
    return CURVE_HEADER + "\n" + _state_row(state) + "\n"


# ---------------------------------------------------------------------------
# experiment logs
# ---------------------------------------------------------------------------

def _data_lines(path: str | Path, header: str) -> list[str]:
    """The data lines of a log: the front end of both log readers.

    The file is read as UTF-8; blank and whitespace-only lines are dropped,
    and the first line left must be the header.  A file with no data rows
    is rejected, and so is a data line that holds a non-ASCII character,
    a ``_`` or U+001F.  Without these, ``float`` and ``np.loadtxt`` parse
    every cell alike: both would read Unicode spaces and digits, ``float``
    would read ``1_0`` digit grouping, and ``np.loadtxt`` reads U+001F as a
    space.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise DomainError(f"cannot read {path}: {exc}") from exc
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0].strip() != header:
        raise DomainError(
            f"{path}: expected header {header!r}, got "
            f"{lines[0].strip() if lines else '<empty>'!r}"
        )
    del lines[0]
    if not lines:
        raise DomainError(f"{path}: no data rows")
    columns = header.count(",") + 1
    # the header line holds all of the text's "_" but the data lines'
    if (text.count("_") != header.count("_")
            or not (text.isascii() or all(map(str.isascii, lines)))
            or ("\x1f" in text and any("\x1f" in line for line in lines))):
        raise DomainError(f"{path}: every data row needs {columns} plain numbers, "
                          "in ASCII and without '_' or U+001F")
    return lines


def _read_numeric_csv(path: str | Path, header: str):
    """All data rows as one float array, one column per header field.

    Cells are parsed in C by ``np.loadtxt``: plain decimal or exponent
    numbers, no ``#`` comments (``comments=None``).
    """
    import numpy as np

    lines = _data_lines(path, header)
    columns = header.count(",") + 1
    try:
        data = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2)
    except ValueError as exc:  # a non-number, or rows of unequal length
        # loadtxt counts rows among the data lines only, and not always from
        # the same base, so its position would mislead; the cell it names is kept
        reason = str(exc).partition(" at row ")[0]
        raise DomainError(f"{path}: every data row needs {columns} numbers: {reason}") from exc
    if data.shape[1] != columns:
        raise DomainError(f"{path}: every data row needs {columns} numbers, got {data.shape[1]}")
    if not np.isfinite(data).all():
        raise DomainError(f"{path}: every data cell must be a finite number")
    return data


def read_tendon_csv(path: str | Path):
    """-> (time_s, load_N, strain, cycle) arrays."""
    data = _read_numeric_csv(path, TENDON_HEADER)
    cycle = data[:, 3]
    # cycle numbers become int64s, which hold whole numbers below 2**63
    if (cycle % 1.0).any() or not (abs(cycle) < 2.0 ** 63).all():
        raise DomainError(f"{path}: every cycle cell must be a whole number "
                          "of magnitude below 2**63")
    return data[:, 0], data[:, 1], data[:, 2], cycle.astype(int)


def read_winch_csv(path: str | Path):
    """-> (time_s, current_A, tension_N) arrays, for the fits."""
    data = _read_numeric_csv(path, WINCH_HEADER)
    return data[:, 0], data[:, 1], data[:, 2]


def read_winch_columns(path: str | Path) -> tuple[list[float], list[float], list[float]]:
    """-> (time_s, current_A, tension_N) lists of floats, without numpy.

    The same file contract as read_winch_csv and the same doubles: each
    cell goes through ``float``, which parses as ``np.loadtxt`` does once
    _data_lines has rejected non-ASCII text, ``_`` and U+001F.
    """
    lines = _data_lines(path, WINCH_HEADER)
    time_s, current, tension = [], [], []
    try:
        for line in lines:
            t, i, f = line.split(",")
            time_s.append(float(t))
            current.append(float(i))
            tension.append(float(f))
    except ValueError as exc:  # a non-number, or a row of another length
        raise DomainError(f"{path}: every data row needs 3 numbers: {line!r}") from exc
    # a finite sum has only finite terms; an infinite one may have overflowed
    for column in (time_s, current, tension):
        if not (math.isfinite(sum(column)) or all(map(math.isfinite, column))):
            raise DomainError(f"{path}: every data cell must be a finite number")
    return time_s, current, tension


def winch_series_to_csv(time_s, current_a, tension_n) -> str:
    """The winch CSV of three equal-length columns of numbers.

    The columns are interleaved into one list and formatted in one
    operation.  "%.15g" renders a finite value exactly as fmt does, and
    spells a non-finite one inf or nan, the only spellings with an "n".
    """
    rows = len(tension_n)
    flat = [0.0] * (3 * rows)
    flat[0::3] = time_s
    flat[1::3] = current_a
    flat[2::3] = tension_n
    body = ("%.15g,%.15g,%.15g\n" * rows) % tuple(flat)
    if "n" in body:
        raise DomainError(_NOT_FINITE)
    return WINCH_HEADER + "\n" + body


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
        "c_N_per_A": float(params.c),
        "r_N": float(params.r),
        "rms_residual_N": float(params.rms_residual),
    }
    return _json_text(obj)


def read_winch_params(path: str | Path) -> tuple[HysteresisParams, float]:
    """-> (params, initial_tension_N); the initial state defaults to 0."""
    from .actuators import HysteresisParams

    raw = _read_json_object(path, "winch params")
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

def read_design_constraints(path: str | Path) -> DesignConstraints:
    raw = _read_json_object(path, "constraints")
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
    lines = [DESIGN_CSV_HEADER]
    for res in results:
        lines.append(
            ",".join(
                [str(res.spec.n)]
                + [
                    fmt(v)
                    for v in (
                        res.spec.L,
                        res.spec.h0,
                        res.achieved.natural_length,
                        res.achieved.stroke,
                        res.achieved.width_at_full,
                        res.L_interval[0],
                        res.L_interval[1],
                    )
                ]
            )
        )
    return "\n".join(lines) + "\n"
