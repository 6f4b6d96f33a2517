"""File formats: muscle-spec JSON, experiment CSVs, fitted-parameter JSON.

CSV dialect everywhere: comma separator, ``.`` decimal point, mandatory
header row, UTF-8, LF line endings.  Numbers are printed with 15
significant digits so written files are stable, diffable test fixtures.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import TYPE_CHECKING

from .design import DesignConstraints, DesignResult
from .errors import DomainError
from .muscle import DeformationCurve, MuscleSpec, MuscleState

if TYPE_CHECKING:  # numpy comes with these; load it only where data needs it
    from .actuators import HysteresisParams, TendonFit

CURVE_HEADER = "p,width_mm,length_mm,contraction_mm,psi0_deg"
TENDON_HEADER = "time_s,load_N,strain,cycle"
WINCH_HEADER = "time_s,current_A,tension_N"


def fmt(value: float) -> str:
    """Render a number at the package-wide 15-significant-digit precision."""
    return format(float(value), ".15g")


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

def _read_numeric_csv(path: str | Path, header: str):
    """All data rows as one float array, one column per header field.

    Blank and whitespace-only lines are skipped.  Cells are parsed in C by
    ``np.loadtxt``: plain decimal or exponent numbers, no ``#`` comments
    (``comments=None``), no ``1_0`` digit grouping.
    """
    import numpy as np

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
    if len(lines) == 1:
        raise DomainError(f"{path}: no data rows")
    columns = header.count(",") + 1
    try:
        data = np.loadtxt(lines[1:], delimiter=",", comments=None, ndmin=2)
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
    if (cycle % 1.0).any():
        raise DomainError(f"{path}: every cycle cell must be a whole number")
    return data[:, 0], data[:, 1], data[:, 2], cycle.astype(int)


def read_winch_csv(path: str | Path):
    """-> (time_s, current_A, tension_N) arrays."""
    data = _read_numeric_csv(path, WINCH_HEADER)
    return data[:, 0], data[:, 1], data[:, 2]


def winch_series_to_csv(time_s, current_a, tension_n) -> str:
    # each column becomes Python floats once; "%.15g" renders them exactly as fmt
    import numpy as np

    rows = zip(*(np.asarray(col, dtype=float).tolist()
                 for col in (time_s, current_a, tension_n)))
    return WINCH_HEADER + "\n" + "".join(map("%.15g,%.15g,%.15g\n".__mod__, rows))


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
    return json.dumps(obj, indent=2) + "\n"


def winch_params_to_json(params: HysteresisParams) -> str:
    obj = {
        "c_N_per_A": float(params.c),
        "r_N": float(params.r),
        "rms_residual_N": float(params.rms_residual),
    }
    return json.dumps(obj, indent=2) + "\n"


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
    return json.dumps(out, indent=2) + "\n"


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
