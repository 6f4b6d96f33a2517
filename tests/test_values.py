"""The value types: immutable named tuples with the fields, keyword
construction, repr and checks that they had as frozen dataclasses."""

import math

import pytest

from wwmtc.actuators import HysteresisParams, TendonFit
from wwmtc.beam import BeamSolution
from wwmtc.design import AchievedMetrics, DesignConstraints, DesignResult
from wwmtc.errors import DomainError
from wwmtc.muscle import DeformationCurve, MuscleSpec, MuscleState

SPEC = MuscleSpec(8, 27.0, 22.0)
STATE = MuscleState(p=0.85, width=7.5, length=200.25, contraction=37.75, psi0=0.5)
ACHIEVED = AchievedMetrics(natural_length=238.0, stroke=66.5, width_at_full=17.0)
CONSTRAINTS = DesignConstraints(natural_length_range=(237.2, 238.8), min_stroke=65.5,
                                max_width_at_full=17.5, h0=22.0, n_range=(1, 12),
                                L_range=(10.0, 50.0))

# (instance, its repr as a frozen dataclass, its fields in that order)
VALUES = [
    (BeamSolution(w=1.5, h=26.0, psi0=0.25, k=0.0625),
     "BeamSolution(w=1.5, h=26.0, psi0=0.25, k=0.0625)",
     ("w", "h", "psi0", "k")),
    (SPEC,
     "MuscleSpec(n=8, L=27.0, h0=22.0, kind='radial')",
     ("n", "L", "h0", "kind")),
    (STATE,
     "MuscleState(p=0.85, width=7.5, length=200.25, contraction=37.75, psi0=0.5)",
     ("p", "width", "length", "contraction", "psi0")),
    (DeformationCurve(spec=SPEC, samples=(STATE,)),
     "DeformationCurve(spec=MuscleSpec(n=8, L=27.0, h0=22.0, kind='radial'), "
     "samples=(MuscleState(p=0.85, width=7.5, length=200.25, contraction=37.75, "
     "psi0=0.5),))",
     ("spec", "samples")),
    (CONSTRAINTS,
     "DesignConstraints(natural_length_range=(237.2, 238.8), min_stroke=65.5, "
     "max_width_at_full=17.5, h0=22.0, n_range=(1, 12), L_range=(10.0, 50.0), "
     "min_width_at_full=0.0, kind='radial')",
     ("natural_length_range", "min_stroke", "max_width_at_full", "h0", "n_range",
      "L_range", "min_width_at_full", "kind")),
    (ACHIEVED,
     "AchievedMetrics(natural_length=238.0, stroke=66.5, width_at_full=17.0)",
     ("natural_length", "stroke", "width_at_full")),
    (DesignResult(spec=SPEC, achieved=ACHIEVED, feasible=True, L_interval=(26.5, 27.5)),
     "DesignResult(spec=MuscleSpec(n=8, L=27.0, h0=22.0, kind='radial'), "
     "achieved=AchievedMetrics(natural_length=238.0, stroke=66.5, width_at_full=17.0), "
     "feasible=True, L_interval=(26.5, 27.5))",
     ("spec", "achieved", "feasible", "L_interval")),
    (TendonFit(a=1.5, b=20.0, eps0=0.01, rms_residual=0.125),
     "TendonFit(a=1.5, b=20.0, eps0=0.01, rms_residual=0.125)",
     ("a", "b", "eps0", "rms_residual")),
    (HysteresisParams(c=2.0, r=0.5),
     "HysteresisParams(c=2.0, r=0.5, rms_residual=0.0)",
     ("c", "r", "rms_residual")),
]


@pytest.mark.parametrize("value, text, fields", VALUES,
                         ids=[type(v).__name__ for v, _, _ in VALUES])
def test_value_type_semantics(value, text, fields):
    assert repr(value) == text
    assert value._fields == fields
    assert type(value)(**value._asdict()) == value
    # a named tuple: it unpacks, and equals the plain tuple of its fields
    assert value == tuple(getattr(value, name) for name in fields)
    with pytest.raises(AttributeError):
        setattr(value, fields[0], getattr(value, fields[0]))
    with pytest.raises(AttributeError):
        value.extra = 1.0


@pytest.mark.parametrize("base, field, bad", [
    (SPEC, "L", -1.0),
    (SPEC, "L", math.nan),
    (SPEC, "n", 0),
    (SPEC, "n", 8.0),
    (SPEC, "kind", "spiral"),
    (SPEC, "h0", -1.0),
    (CONSTRAINTS, "L_range", (0.0, 50.0)),
    (CONSTRAINTS, "L_range", (50.0, 10.0)),
    (CONSTRAINTS, "h0", math.inf),
    (CONSTRAINTS, "n_range", (0, 12)),
    (CONSTRAINTS, "kind", "spiral"),
    (CONSTRAINTS, "n_range", (1, 10**6 + 1)),
    (CONSTRAINTS, "n_range", (1.0, 5.0)),
    (CONSTRAINTS, "n_range", (1, 5.0)),
    (CONSTRAINTS, "n_range", (True, 5)),
])
def test_replace_and_make_check_like_the_constructor(base, field, bad):
    kwargs = {**base._asdict(), field: bad}
    with pytest.raises(DomainError) as constructed:
        type(base)(**kwargs)
    with pytest.raises(DomainError) as replaced:
        base._replace(**{field: bad})
    with pytest.raises(DomainError) as made:
        type(base)._make(kwargs.values())
    assert str(replaced.value) == str(made.value) == str(constructed.value)
    assert field in str(constructed.value)
