"""The value types: immutable named tuples with the fields, keyword
construction, repr and checks that they had as frozen dataclasses."""

import copy
import math
import pickle
from collections import namedtuple
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from test_muscle import REAL_TYPES
from wwmtc.actuators import HysteresisParams, TendonFit, fit_tendon, fit_winch, simulate_winch
from wwmtc.beam import BeamSolution
from wwmtc.design import (AchievedMetrics, DesignConstraints, DesignResult, infeasibility_report,
                          search)
from wwmtc.errors import DomainError, WwmtcError
from wwmtc.muscle import (DeformationCurve, MuscleSpec, MuscleState, curve, length_range,
                          state_at)

SPEC = MuscleSpec(8, 27.0, 22.0)
PARAMS = HysteresisParams(c=20.0, r=5.0, rms_residual=0.25)
FIT = TendonFit(a=1.5, b=20.0, eps0=0.01, rms_residual=0.125)
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
    (SPEC, "n", True),
    (SPEC, "n", np.float64(3.0)),
    (SPEC, "n", np.True_),
    (CONSTRAINTS, "n_range", (np.float64(1.0), 5)),
    (CONSTRAINTS, "n_range", (1, np.int64(10**6 + 1))),
    # float() would take a bool, Python's or numpy's, as 0 or 1, and parse a string
    (SPEC, "L", np.True_),
    (SPEC, "h0", np.False_),
    (SPEC, "h0", np.array(True)),
    (CONSTRAINTS, "min_stroke", True),
    (CONSTRAINTS, "max_width_at_full", np.True_),
    (CONSTRAINTS, "min_width_at_full", "0.5"),
    (CONSTRAINTS, "h0", np.False_),
    (CONSTRAINTS, "h0", b"22"),
    (CONSTRAINTS, "natural_length_range", (np.True_, 238.8)),
    (CONSTRAINTS, "L_range", (10.0, "50")),
    (PARAMS, "c", "20"),
    (PARAMS, "r", True),
    (PARAMS, "c", np.True_),
    (PARAMS, "rms_residual", b"0.25"),
    (PARAMS, "r", np.False_),
    (PARAMS, "rms_residual", None),
    (FIT, "a", "1"),
    (FIT, "b", True),
    (FIT, "eps0", np.True_),
    (FIT, "rms_residual", None),
    # past the largest double: float arithmetic on the count would overflow
    pytest.param(SPEC, "n", 2**1024 - 2**970, id="spec-n-float-overflow"),
    pytest.param(SPEC, "n", 10**5000, id="spec-n-too-many-digits-for-repr"),
    pytest.param(CONSTRAINTS, "n_range", (10**400, 10**400), id="n_range-float-overflow"),
    pytest.param(CONSTRAINTS, "n_range", (1, 10**5000), id="n_range-too-many-digits-for-repr"),
    # each used to raise a bare TypeError from the range check
    (CONSTRAINTS, "n_range", ("1", 5)),
    (CONSTRAINTS, "n_range", (1, None)),
    # each used to raise a bare ValueError or TypeError from unpacking the pair
    pytest.param(CONSTRAINTS, "n_range", (1,), id="n_range-one-item"),
    pytest.param(CONSTRAINTS, "L_range", (1.0, 2.0, 3.0), id="L_range-three-items"),
    pytest.param(CONSTRAINTS, "natural_length_range", 5.0, id="natural_length_range-a-number"),
    pytest.param(CONSTRAINTS, "L_range", None, id="L_range-None"),
    # a count is not a float array nor a 1-d one: numpy's __index__ raised a
    # bare TypeError; a kind that is not a str was stored, or raised numpy's
    # ValueError from its truth value
    pytest.param(SPEC, "n", np.array(8.0), id="spec-n-0d-float-array"),
    pytest.param(SPEC, "n", np.array([8]), id="spec-n-1d-array"),
    pytest.param(CONSTRAINTS, "n_range", (np.array(1.0), 5), id="n_range-0d-float-array"),
    pytest.param(SPEC, "kind", np.array(["radial"]), id="spec-kind-1d-array"),
    pytest.param(SPEC, "kind", np.array([["radial"]]), id="spec-kind-2d-array"),
    pytest.param(CONSTRAINTS, "kind", np.array(["radial"]), id="constraints-kind-1d-array"),
    pytest.param(CONSTRAINTS, "kind", np.array([["radial"]]), id="constraints-kind-2d-array"),
    # the winch model's ranges used to be checked by simulate_winch alone, so
    # read_winch_params took them and its error did not name the file
    pytest.param(PARAMS, "c", -1.0, id="params-c-negative"),
    pytest.param(PARAMS, "c", 0.0, id="params-c-zero"),
    pytest.param(PARAMS, "c", math.inf, id="params-c-inf"),
    pytest.param(PARAMS, "c", math.nan, id="params-c-nan"),
    pytest.param(PARAMS, "r", -0.5, id="params-r-negative"),
    pytest.param(PARAMS, "r", math.inf, id="params-r-inf"),
    pytest.param(PARAMS, "r", math.nan, id="params-r-nan"),
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


@pytest.mark.parametrize("number", [int, np.float64, np.float32, Fraction, Decimal])
def test_hysteresis_params_are_floats(number):
    # a field of another type used to be kept as given; a str was parsed
    # later, by simulate_winch's float()
    plain = namedtuple("HysteresisParams", "c r rms_residual", defaults=(0.0,))
    for params in (HysteresisParams(number(20), number(5)),
                   HysteresisParams(c=number(20), r=number(5), rms_residual=number(0)),
                   HysteresisParams._make([number(20), number(5), number(0)]),
                   PARAMS._replace(c=number(20), r=number(5), rms_residual=number(0))):
        assert params == plain(20.0, 5.0) and type(params) is HysteresisParams
        assert all(type(v) is float for v in params), params
    for args in ((20.0,), (20.0, 5.0, 0.0, 1.0)):
        with pytest.raises(TypeError) as got:
            HysteresisParams(*args)
        with pytest.raises(TypeError) as want:
            plain(*args)
        assert str(got.value) == str(want.value)


@pytest.mark.parametrize("value", [SPEC, CONSTRAINTS, PARAMS, FIT],
                         ids=["MuscleSpec", "DesignConstraints", "HysteresisParams", "TendonFit"])
def test_make_refuses_a_wrong_field_count_as_namedtuple_does(value):
    # _make used to call cls(*iterable), which filled in the defaults that
    # namedtuple's own _make refuses to
    plain = namedtuple(type(value).__name__, value._fields)
    fields = list(value)
    assert type(value)._make(fields) == value
    for wrong in (fields[:-1], fields + [0.0], fields[:1], []):
        with pytest.raises(TypeError) as got:
            type(value)._make(wrong)
        with pytest.raises(TypeError) as want:
            plain._make(wrong)
        assert str(got.value) == str(want.value)


@pytest.mark.parametrize("integer", [np.int64, np.int32])
def test_numpy_integer_arch_counts_are_stored_as_ints(integer):
    # a library caller may take arch counts from a numpy array
    spec = MuscleSpec(integer(8), 27.0, 22.0)
    cons = CONSTRAINTS._replace(n_range=(integer(1), integer(12)))
    for value in (spec, SPEC._replace(n=integer(8)),
                  MuscleSpec._make([integer(8), 27.0, 22.0, "radial"])):
        assert value == SPEC and type(value.n) is int
    for value in (cons, DesignConstraints(**{**CONSTRAINTS._asdict(),
                                             "n_range": (integer(1), 12)})):
        assert value == CONSTRAINTS and [type(n) for n in value.n_range] == [int, int]
    assert repr(spec) == repr(SPEC)


def test_counts_and_kinds_are_stored_as_plain_ints_and_strs():
    # a 0-d integer array is a count, as operator.index takes it; a numpy
    # str is a kind, stored as a str: it used to be kept as an np.str_
    assert MuscleSpec(np.array(8), 27.0, 22.0) == SPEC
    assert type(MuscleSpec(np.array(8), 27.0, 22.0).n) is int
    assert curve(SPEC, np.array(5)) == curve(SPEC, 5)
    with pytest.raises(DomainError, match=r"num_samples=array\(5\.\) must be an integer"):
        curve(SPEC, np.array(5.0))
    planar = np.str_("planar")
    for value in (MuscleSpec(8, 27.0, 22.0, planar), SPEC._replace(kind=planar),
                  CONSTRAINTS._replace(kind=planar)):
        assert value.kind == "planar" and type(value.kind) is str
    # a range given as a list or an array is stored as a tuple, as the
    # repr shows; a list of floats used to be kept as the list
    cons = CONSTRAINTS._replace(natural_length_range=[237.2, 238.8], n_range=np.array([1, 12]),
                                L_range=[10.0, 50.0])
    assert repr(cons) == repr(CONSTRAINTS)
    assert [type(v) for v in cons.n_range] == [int, int]


def test_the_largest_arch_counts_compute_without_overflow():
    # the largest int that float() converts is accepted; the library's
    # float arithmetic on it, and on twice a count of 2**1023, raises nothing
    largest = 2**1024 - 2**970 - 1
    spec = SPEC._replace(n=largest)
    assert state_at(spec, 0.8).length == math.inf
    assert curve(spec, 3).samples[0].length == math.inf
    assert length_range(spec) == (math.inf, math.inf)
    for n_range in ((largest, largest), (2**1023, 2**1023 + 5), (2**53 - 2, 2**53 + 3)):
        cons = CONSTRAINTS._replace(n_range=n_range)
        assert search(cons) == []
        assert list(infeasibility_report(cons)) == list(range(n_range[0], n_range[1] + 1))


# MuscleSpec's DomainError messages, as namedtuple's __new__ followed by the
# checks gave them
SPEC_ERRORS = [
    ((0, 27.0, 22.0), "arch count n=0 must be an integer >= 1"),
    ((True, 27.0, 22.0), "arch count n=True must be an integer >= 1"),
    ((8.0, 27.0, 22.0), "arch count n=8.0 must be an integer >= 1"),
    ((np.float64(3.0), 27.0, 22.0), "arch count n=np.float64(3.0) must be an integer >= 1"),
    ((2**1024 - 2**970, 27.0, 22.0), "arch count n has 1024 bits, too large for a float"),
    ((8, -1.0, 22.0), "beam length L=-1.0 must be positive and finite"),
    ((8, 0.0, 22.0), "beam length L=0.0 must be positive and finite"),
    ((8, math.inf, 22.0), "beam length L=inf must be positive and finite"),
    ((8, math.nan, 22.0), "beam length L=nan must be positive and finite"),
    ((8, 27.0, -0.1), "length offset h0=-0.1 must be finite and >= 0"),
    ((8, 27.0, math.inf), "length offset h0=inf must be finite and >= 0"),
    ((8, "27", 22.0), "beam length L='27' must be a real number"),
    ((8, 27.0, b"22"), "length offset h0=b'22' must be a real number"),
    ((8, None, 22.0), "beam length L=None must be a real number"),
    ((8, Decimal("sNaN"), 22.0), "beam length L=Decimal('sNaN') must be a real number"),
    ((8, 10**400, 22.0), "beam length L is too large for a float"),
    ((8, 27.0, Fraction(10**400)), "length offset h0 is too large for a float"),
    ((8, 27.0, 22.0, "spiral"), "kind='spiral' must be one of ('radial', 'planar')"),
    ((0, "x", 22.0), "beam length L='x' must be a real number"),
    ((8, -1.0, math.nan, "spiral"), "beam length L=-1.0 must be positive and finite"),
]


def test_spec_constructor_behaves_as_the_named_tuple():
    # MuscleSpec.__new__ spells out namedtuple's signature and builds the
    # tuple itself; calls, copies and errors are those of namedtuple's own
    plain = namedtuple("MuscleSpec", "n L h0 kind", defaults=("radial",))
    for spec in (MuscleSpec(8, 27.0, 22.0, "radial"), MuscleSpec(8, 27.0, 22.0),
                 MuscleSpec(n=8, L=27.0, h0=22.0), MuscleSpec(8, 27.0, h0=22.0, kind="radial"),
                 MuscleSpec._make([8, 27.0, 22.0, "radial"]),
                 MuscleSpec(8, 1.0, 22.0)._replace(L=27.0),
                 copy.copy(SPEC), copy.deepcopy(SPEC), pickle.loads(pickle.dumps(SPEC))):
        assert type(spec) is MuscleSpec and spec == SPEC == plain(8, 27.0, 22.0)
    assert MuscleSpec(8, 27.0, 22.0, kind="planar").kind == SPEC._replace(kind="planar").kind
    for args, kwargs in (((8, 27.0), {}), ((), {}), ((8, 27.0, 22.0, "radial", 1), {}),
                         ((8, 27.0, 22.0), {"extra": 1}), ((8, 27.0, 22.0), {"n": 8})):
        with pytest.raises(TypeError) as got:
            MuscleSpec(*args, **kwargs)
        with pytest.raises(TypeError) as want:
            plain(*args, **kwargs)
        assert str(got.value) == str(want.value)
    # _make fills in no default: three fields are too few, as for namedtuple
    for fields in ([8, 27.0, 22.0], [8, 27.0, 22.0, "radial", 1], []):
        with pytest.raises(TypeError) as got:
            MuscleSpec._make(fields)
        with pytest.raises(TypeError) as want:
            plain._make(fields)
        assert str(got.value) == str(want.value)
    for args, message in SPEC_ERRORS:
        with pytest.raises(DomainError) as got:
            MuscleSpec(*args)
        assert str(got.value) == message


def test_constraints_constructor_behaves_as_the_named_tuple():
    # DesignConstraints.__new__ spells out namedtuple's signature, so a
    # wrong call raises namedtuple's own TypeError
    plain = namedtuple("DesignConstraints", CONSTRAINTS._fields, defaults=(0.0, "radial"))
    fields = CONSTRAINTS._asdict()
    for args, kwargs in (((), {}), ((1, 2, 3), {}), ((), {**fields, "extra": 1}),
                         ((*fields.values(), 1), {}), (((1.0, 2.0),), fields)):
        with pytest.raises(TypeError) as got:
            DesignConstraints(*args, **kwargs)
        with pytest.raises(TypeError) as want:
            plain(*args, **kwargs)
        assert str(got.value) == str(want.value)


def series_and_counts(name, u):
    """A call of the function called name, and its arguments as lists whose
    elements the test converts: a list of floats per series, or one list
    of the counts (ints) that the call takes, built from u, a list of 36
    numbers in [0, 1]."""
    if name == "simulate_winch":
        return (lambda currents: simulate_winch(PARAMS, currents)), [[4 * x - 2 for x in u[:8]]]
    if name == "fit_winch":
        sweep = [0.0, 1.0, 2.0, 3.0, 4.0, 3.0, 2.0, 1.0, 0.0]
        currents = [i + 0.25 * x for i, x in zip(sweep, u)]
        return fit_winch, [currents, [20.0 * i + x for i, x in zip(currents, u[9:])]]
    if name == "fit_tendon":
        strains = [0.01 * k + 0.005 * x for k, x in enumerate(u[:12])]
        loads = [10.0 * math.expm1(5.0 * s) + 0.1 * x for s, x in zip(strains, u[12:])]
        return fit_tendon, [strains, loads, [0.0] * 6 + [1.0] * 6]
    if name == "MuscleSpec.n":
        return (lambda ns: MuscleSpec(*ns, 27.0, 22.0)), [[round(12 * u[0]) - 1]]
    if name == "curve":
        return (lambda ns: curve(SPEC, *ns)), [[round(6 * u[0])]]
    return (lambda ns: CONSTRAINTS._replace(n_range=tuple(ns))), [
        [round(12 * u[0]), round(12 * u[1])]]


def outcome(fn, args):
    """repr of fn(*args), or the type and message of the error it raised."""
    try:
        return repr(fn(*args))
    except WwmtcError as err:
        return type(err), str(err)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(
    name=st.sampled_from(["simulate_winch", "fit_winch", "fit_tendon", "MuscleSpec.n", "curve",
                          "n_range"]),
    u=st.lists(st.floats(0.0, 1.0), min_size=36, max_size=36),
    kind=st.sampled_from(list(REAL_TYPES)),
    where=st.lists(st.booleans(), min_size=36, max_size=36),
)
def test_series_and_counts_follow_the_number_rule(name, u, kind, where):
    # the elements of a series follow the rule of a real argument: any real
    # type counts as its float, and a str or bool is a DomainError.  A count
    # is an int or a numpy integer, stored as an int; any other type is a
    # DomainError.  simulate_winch and the fits used to parse strings and
    # take a bool as 0 or 1, and a str in n_range raised a bare TypeError
    fn, args = series_and_counts(name, u)
    marks = iter(where)  # which elements are given as kind
    given_args = [[REAL_TYPES[kind](x) if next(marks) else x for x in arg] for arg in args]
    converted = any(where[:sum(map(len, args))])
    got = outcome(fn, given_args)
    counts = type(args[0][0]) is int
    if converted and (kind in ("str", "bool") or counts and kind not in ("int", "np.int64")):
        rule = "must be an integer" if counts else "must be a real number"
        assert got[0] is DomainError and rule in got[1], got
    else:
        plain = int if counts else float
        assert got == outcome(fn, [[plain(x) for x in arg] for arg in given_args])
