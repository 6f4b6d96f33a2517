"""Whole-muscle geometry: stacking n arches plus a fixed length offset.

A muscle exterior is n identical arches in series along the contraction
axis plus an offset h0 contributed by sheet thickness and end components:

    width(p)  = w(L, p)
    length(p) = n * h(L, p) + h0

The ``kind`` label (radial or planar expansion) is descriptive only; both
kinds obey the same two formulas and differ in their (n, L, h0) values.
Width is the single-arch deflection taken literally, with no doubling for
opposed arch pairs.

The arch's shape depends on p alone, and w and h scale linearly with L.
So a curve is a table over its p grid (num_samples, p_cap), one
evaluation of beam's forward table per sample, scaled by each spec's L.
The tables of the last four grids are kept, 32 bytes per sample: a curve
on any of those grids evaluates no shape.
"""

from __future__ import annotations

import functools
import math
from array import array
from collections import namedtuple

from .beam import P_MAX, P_STRAIGHT, _check_shape_param, _height, _p_for_height, _shape
from .errors import _FLOAT_INT_LIMIT, DomainError, OutOfRangeError, _count, _make, _real

# Default contraction cap.  Beyond p ~ 0.97 the tip angle exceeds ~75 deg
# and neighbouring arches would start to interfere; overridable everywhere
# it is used (CLI: --p-cap flag or WWMTC_P_CAP).
DEFAULT_P_CAP = 0.97

KINDS = ("radial", "planar")


def _kind(kind) -> str:
    """kind as a plain str, for a str (numpy's too) in KINDS; any other
    value is a DomainError."""
    if not (isinstance(kind, str) and kind in KINDS):
        raise DomainError(f"kind={kind!r} must be one of {KINDS}")
    return str(kind)


class MuscleSpec(namedtuple("MuscleSpec", "n L h0 kind", defaults=("radial",))):
    """Arch count, arch beam length (mm), length offset (mm), kind label.

    n is stored as an int, and L and h0 as floats, whatever real type they
    were given as, and kind as a plain str.
    """

    __slots__ = ()

    # namedtuple's signature, so calls and their TypeErrors are its own;
    # the tuple is built by tuple.__new__ once the fields pass, without a
    # second frame for namedtuple's __new__: design search builds one spec
    # per result
    def __new__(cls, n, L, h0, kind="radial"):
        if not type(L) is type(h0) is float:
            L, h0 = _real("beam length L", L), _real("length offset h0", h0)
        if not (type(n) is int and 1 <= n < _FLOAT_INT_LIMIT):  # _count's rule, inline for an int
            n = _count("arch count n", n, 1)
        if not 0.0 < L < math.inf:
            raise DomainError(f"beam length L={L!r} must be positive and finite")
        if not 0.0 <= h0 < math.inf:
            raise DomainError(f"length offset h0={h0!r} must be finite and >= 0")
        if type(kind) is not str or kind not in KINDS:
            kind = _kind(kind)
        return tuple.__new__(cls, (n, L, h0, kind))

    _make = classmethod(_make)  # namedtuple's own, and so _replace, skips __new__


class MuscleState(namedtuple("MuscleState", "p width length contraction psi0")):
    """One point on a muscle's contraction-expansion curve.  mm / rad."""

    __slots__ = ()


class DeformationCurve(namedtuple("DeformationCurve", "spec samples")):
    """Sampled states (a tuple of MuscleState) of one spec, in order of p.

    Length decreases along the samples in exact arithmetic.  Neighbours
    whose lengths differ by less than rounding can be equal doubles, as
    they are for a cap within a few ULPs of P_STRAIGHT.
    """

    __slots__ = ()


def _check_p_cap(p_cap: float) -> float:
    p_cap = _real("p_cap", p_cap)
    if not P_STRAIGHT < p_cap <= P_MAX:
        raise DomainError(f"p_cap={p_cap!r} must lie in ({P_STRAIGHT!r}, {P_MAX!r}]")
    return p_cap


def natural_length(spec: MuscleSpec) -> float:
    """Length of the uncontracted muscle: n*L + h0 (all arches straight)."""
    return spec.n * spec.L + spec.h0


def state_at(spec: MuscleSpec, p: float) -> MuscleState:
    """Muscle width/length/contraction at shape parameter p.

    The spec is read once; the natural length is natural_length's
    expression, on the spec's own L.
    """
    n, L, h0, _ = spec
    p = _check_shape_param(p)  # a float, for a numpy p too
    return _state(n, L, h0, p, _shape(p))


def _state(n: int, L: float, h0: float, p: float, shape) -> MuscleState:
    """The state at p from beam._shape there: solve_beam's expressions,
    scaled by L, stacked n times and offset by h0."""
    h_unit, w_unit, psi0, _ = shape
    natural = n * L + h0
    length = n * (L * h_unit) + h0
    # tuple.__new__ is MuscleState's own constructor without the Python
    # frame of namedtuple's __new__, which took half of a warm curve
    return tuple.__new__(MuscleState, (p, L * w_unit, length, natural - length, psi0))


# Four entries.  A caller that checks the expansion at more than one
# resolution alternates grids: a dense curve between a few coarse ones, on
# one cap.  With one entry every coarse curve evicted the dense table, and
# the next dense curve evaluated all its shapes again.  A table is 32 B per
# sample, about a sixth of the curve drawn from it, and no more than four
# are kept for the life of the process: 1.3 MB for four grids of 10 000
# samples.
@functools.lru_cache(maxsize=4)
def _grid(num_samples: int, p_cap: float) -> tuple[array, array, array, array]:
    """The part of curve that depends on its grid alone: beam._shape at
    every sample.

    Returns the p of every sample and beam._shape's h/L, w/L and psi0 at
    each, as columns, which every curve on the grid shares and only reads.
    A straight sample's p is P_STRAIGHT exactly, where h/L is 1.0.  For a
    num_samples >= 2 and a float p_cap that _check_p_cap passed.
    """
    step = (p_cap - P_STRAIGHT) / (num_samples - 1)
    ps = array("d", [P_STRAIGHT + i * step for i in range(num_samples - 1)])
    ps.append(p_cap)
    h_units, w_units, psis = array("d"), array("d"), array("d")
    for p in ps:
        h_unit, w_unit, psi0, _ = _shape(p)
        h_units.append(h_unit)
        w_units.append(w_unit)
        psis.append(psi0)
    return ps, h_units, w_units, psis


def curve(spec: MuscleSpec, num_samples: int, p_cap: float = DEFAULT_P_CAP) -> DeformationCurve:
    """Contraction-expansion curve: p sampled uniformly on [1/sqrt(2), p_cap].

    The first sample is the exact natural state (width 0, length n*L + h0).
    Length decreases along the samples in exact arithmetic; neighbours can
    be equal doubles when p_cap is within rounding of P_STRAIGHT.  Each
    sample is state_at's at its p, the same doubles: _grid's table scaled
    by L with _state's expressions.  One evaluation of beam's forward table
    per sample but the first, none when one of the last four grids
    (num_samples, p_cap) that curves were drawn on is this one.
    """
    num_samples = _count("num_samples", num_samples, 2)
    ps, h_units, w_units, psis = _grid(num_samples, _check_p_cap(p_cap))
    n, L, h0, _ = spec
    natural = n * L + h0
    # _state's expressions written out: a _state call per sample made a
    # warm curve ~40 % slower
    new = tuple.__new__
    samples = []
    for p, h_unit, w_unit, psi0 in zip(ps, h_units, w_units, psis):
        length = n * (L * h_unit) + h0
        samples.append(new(MuscleState, (p, L * w_unit, length, natural - length, psi0)))
    return DeformationCurve(spec, tuple(samples))


def _ends(spec: MuscleSpec, p_cap: float) -> tuple[float, float, float]:
    """length_range's (shortest, natural) lengths and the arch height at a
    p_cap that _check_p_cap returned."""
    n, L, h0, _ = spec
    h_cap = _height(L, p_cap)
    return n * h_cap + h0, n * L + h0, h_cap


def length_range(spec: MuscleSpec, p_cap: float = DEFAULT_P_CAP) -> tuple[float, float]:
    """Achievable [shortest, natural] muscle length under the given cap.

    The shortest length is n * h(p_cap) + h0, with h(p_cap) from the
    forward table value that beam caches per p: one evaluation while p_cap
    is not in the cache.
    """
    lo, hi, _ = _ends(spec, _check_p_cap(p_cap))
    return lo, hi


def state_for_length(
    spec: MuscleSpec, length_target: float, p_cap: float = DEFAULT_P_CAP
) -> MuscleState:
    """Invert the length map: the state whose length matches the target.

    Raises OutOfRangeError (carrying the feasible interval) when the target
    is outside [length at p_cap, natural length].  The arch height
    (length_target - h0) / n can round past [h(p_cap), L] at either end of
    that interval, and the inverse of h(p_cap) past p_cap, so both are
    clamped.  p is beam's closed-form root, and the returned state is
    state_at's at that p, the same doubles, from one evaluation of beam's
    forward table (none at the natural length, the straight strip),
    plus the one for h(p_cap) while it is not cached.
    """
    # the type of every argument before any range, so that a str or bool
    # is refused as one whatever the other argument is
    length_target = _real("length target", length_target)
    p_cap = _check_p_cap(p_cap)
    lo, hi, h_cap = _ends(spec, p_cap)
    if not lo <= length_target <= hi:
        raise OutOfRangeError(
            f"length {length_target!r} mm unreachable; feasible interval is "
            f"[{lo!r}, {hi!r}] mm",
            lo=lo,
            hi=hi,
        )
    n, L, h0, _ = spec
    h_target = min(max((length_target - h0) / n, h_cap), L)
    p = min(_p_for_height(L, h_target), p_cap)
    return _state(n, L, h0, p, _shape(p))
