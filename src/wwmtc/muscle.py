"""Whole-muscle geometry: stacking n arches plus a fixed length offset.

A muscle exterior is n identical arches in series along the contraction
axis plus an offset h0 contributed by sheet thickness and end components:

    width(p)  = w(L, p)
    length(p) = n * h(L, p) + h0

The ``kind`` label (radial or planar expansion) is descriptive only; both
kinds obey the same two formulas and differ in their (n, L, h0) values.
Width is the single-arch deflection taken literally, with no doubling for
opposed arch pairs.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .beam import P_MAX, P_STRAIGHT, _arch, _check_shape_param, _height, _p_for_height
from .errors import DomainError, OutOfRangeError

# Default contraction cap.  Beyond p ~ 0.97 the tip angle exceeds ~75 deg
# and neighbouring arches would start to interfere; overridable everywhere
# it is used (CLI: --p-cap flag or WWMTC_P_CAP).
DEFAULT_P_CAP = 0.97

KINDS = ("radial", "planar")


class MuscleSpec(namedtuple("MuscleSpec", "n L h0 kind", defaults=("radial",))):
    """Arch count, arch beam length (mm), length offset (mm), kind label."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not (type(self.n) is int and self.n >= 1):  # a bool is no arch count
            raise DomainError(f"arch count n={self.n!r} must be an integer >= 1")
        if not 0.0 < self.L < math.inf:
            raise DomainError(f"beam length L={self.L!r} must be positive and finite")
        if not 0.0 <= self.h0 < math.inf:
            raise DomainError(f"length offset h0={self.h0!r} must be finite and >= 0")
        if self.kind not in KINDS:
            raise DomainError(f"kind={self.kind!r} must be one of {KINDS}")
        return self

    @classmethod
    def _make(cls, iterable):  # namedtuple's own, and so _replace, skips __new__
        return cls(*iterable)


class MuscleState(namedtuple("MuscleState", "p width length contraction psi0")):
    """One point on a muscle's contraction-expansion curve.  mm / rad."""

    __slots__ = ()


class DeformationCurve(namedtuple("DeformationCurve", "spec samples")):
    """Sampled states (a tuple of MuscleState) of one spec, ordered by
    strictly decreasing length."""

    __slots__ = ()


def _check_p_cap(p_cap: float) -> None:
    if not P_STRAIGHT < p_cap <= P_MAX:
        raise DomainError(f"p_cap={p_cap!r} must lie in ({P_STRAIGHT!r}, {P_MAX!r}]")


def natural_length(spec: MuscleSpec) -> float:
    """Length of the uncontracted muscle: n*L + h0 (all arches straight)."""
    return spec.n * spec.L + spec.h0


def _states(spec: MuscleSpec, ps) -> list[MuscleState]:
    """The state at each shape parameter of ps: state_at's and curve's arithmetic.

    The spec is read once; the natural length is natural_length's
    expression, on the spec's own L.
    """
    n, L, h0, _ = spec
    natural = n * L + h0
    # L was checked by MuscleSpec; float() keeps the fields Python floats,
    # as solve_beam's check does, for an int or numpy L
    L = float(L)
    states = []
    for p in ps:
        w, h, psi0, _ = _arch(L, _check_shape_param(p))
        length = n * h + h0
        states.append(MuscleState(p, w, length, natural - length, psi0))
    return states


def state_at(spec: MuscleSpec, p: float) -> MuscleState:
    """Muscle width/length/contraction at shape parameter p."""
    return _states(spec, (p,))[0]


def curve(spec: MuscleSpec, num_samples: int, p_cap: float = DEFAULT_P_CAP) -> DeformationCurve:
    """Contraction-expansion curve: p sampled uniformly on [1/sqrt(2), p_cap].

    The first sample is the exact natural state (width 0, length n*L + h0);
    length decreases strictly along the samples.
    """
    # an integer has __index__, numpy's too; a bool has one but is < 2
    if not (hasattr(num_samples, "__index__") and num_samples >= 2):
        raise DomainError(f"num_samples={num_samples!r} must be an integer >= 2")
    _check_p_cap(p_cap)
    step = (p_cap - P_STRAIGHT) / (num_samples - 1)
    ps = [P_STRAIGHT + i * step for i in range(num_samples - 1)]
    ps.append(p_cap)
    return DeformationCurve(spec, tuple(_states(spec, ps)))


def _ends(spec: MuscleSpec, p_cap: float) -> tuple[float, float, float]:
    """length_range's (shortest, natural) lengths and the arch height at p_cap."""
    _check_p_cap(p_cap)
    n, L, h0, _ = spec
    h_cap = _height(L, p_cap)
    return n * h_cap + h0, n * L + h0, h_cap


def length_range(spec: MuscleSpec, p_cap: float = DEFAULT_P_CAP) -> tuple[float, float]:
    """Achievable [shortest, natural] muscle length under the given cap.

    The shortest length is n * h(p_cap) + h0, with h(p_cap) from the
    Carlson pass that beam caches per p: one pass while p_cap is not in
    the cache.
    """
    lo, hi, _ = _ends(spec, p_cap)
    return lo, hi


def state_for_length(
    spec: MuscleSpec, length_target: float, p_cap: float = DEFAULT_P_CAP
) -> MuscleState:
    """Invert the length map: the state whose length matches the target.

    Raises OutOfRangeError (carrying the feasible interval) when the target
    is outside [length at p_cap, natural length].  The arch height
    (length_target - h0) / n can round past [h(p_cap), L] at either end of
    that interval, and the inverse of h(p_cap) past p_cap, so both are
    clamped.  Two Carlson passes for every target, one Newton step and
    the returned state (no Newton step at the natural length), plus the
    pass for h(p_cap) while it is not cached.
    """
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
    return state_at(spec, min(_p_for_height(L, h_target), p_cap))
