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
from dataclasses import dataclass

from .beam import P_MAX, P_STRAIGHT, _arch, _check_shape_param, _height, _p_for_height
from .errors import DomainError, OutOfRangeError

# Default contraction cap.  Beyond p ~ 0.97 the tip angle exceeds ~75 deg
# and neighbouring arches would start to interfere; overridable everywhere
# it is used (CLI: --p-cap flag or WWMTC_P_CAP).
DEFAULT_P_CAP = 0.97

KINDS = ("radial", "planar")


@dataclass(frozen=True)
class MuscleSpec:
    """Arch count, arch beam length (mm), length offset (mm), kind label."""

    n: int
    L: float
    h0: float
    kind: str = "radial"

    def __post_init__(self):
        if not (isinstance(self.n, int) and self.n >= 1):
            raise DomainError(f"arch count n={self.n!r} must be an integer >= 1")
        if not 0.0 < self.L < math.inf:
            raise DomainError(f"beam length L={self.L!r} must be positive and finite")
        if not 0.0 <= self.h0 < math.inf:
            raise DomainError(f"length offset h0={self.h0!r} must be finite and >= 0")
        if self.kind not in KINDS:
            raise DomainError(f"kind={self.kind!r} must be one of {KINDS}")


@dataclass(frozen=True)
class MuscleState:
    """One point on a muscle's contraction-expansion curve.  mm / rad."""

    p: float
    width: float
    length: float
    contraction: float
    psi0: float


@dataclass(frozen=True)
class DeformationCurve:
    """Sampled states of one spec, ordered by strictly decreasing length."""

    spec: MuscleSpec
    samples: tuple[MuscleState, ...]


def _check_p_cap(p_cap: float) -> None:
    if not P_STRAIGHT < p_cap <= P_MAX:
        raise DomainError(f"p_cap={p_cap!r} must lie in ({P_STRAIGHT!r}, {P_MAX!r}]")


def natural_length(spec: MuscleSpec) -> float:
    """Length of the uncontracted muscle: n*L + h0 (all arches straight)."""
    return spec.n * spec.L + spec.h0


def state_at(spec: MuscleSpec, p: float) -> MuscleState:
    """Muscle width/length/contraction at shape parameter p."""
    # spec.L was checked by MuscleSpec; float() keeps the fields Python
    # floats, as solve_beam's check does, for an int or numpy L
    w, h, psi0, _ = _arch(float(spec.L), _check_shape_param(p))
    length = spec.n * h + spec.h0
    return MuscleState(
        p=p,
        width=w,
        length=length,
        contraction=natural_length(spec) - length,
        psi0=psi0,
    )


def curve(spec: MuscleSpec, num_samples: int, p_cap: float = DEFAULT_P_CAP) -> DeformationCurve:
    """Contraction-expansion curve: p sampled uniformly on [1/sqrt(2), p_cap].

    The first sample is the exact natural state (width 0, length n*L + h0);
    length decreases strictly along the samples.
    """
    if num_samples < 2:
        raise DomainError(f"num_samples={num_samples!r} must be >= 2")
    _check_p_cap(p_cap)
    step = (p_cap - P_STRAIGHT) / (num_samples - 1)
    samples = []
    for i in range(num_samples):
        p = p_cap if i == num_samples - 1 else P_STRAIGHT + i * step
        samples.append(state_at(spec, p))
    return DeformationCurve(spec=spec, samples=tuple(samples))


def length_range(spec: MuscleSpec, p_cap: float = DEFAULT_P_CAP) -> tuple[float, float]:
    """Achievable [shortest, natural] muscle length under the given cap.

    The shortest length is n * h(p_cap) + h0, with h(p_cap) from the
    Carlson pass that beam caches per p: one pass while p_cap is not in
    the cache.
    """
    _check_p_cap(p_cap)
    return spec.n * _height(spec.L, p_cap) + spec.h0, natural_length(spec)


def state_for_length(
    spec: MuscleSpec, length_target: float, p_cap: float = DEFAULT_P_CAP
) -> MuscleState:
    """Invert the length map: the state whose length matches the target.

    Raises OutOfRangeError (carrying the feasible interval) when the target
    is outside [length at p_cap, natural length].  The arch height
    (length_target - h0) / n can round past [h(p_cap), L] at either end of
    that interval, and the inverse of h(p_cap) past p_cap, so both are
    clamped.  Two Carlson passes for every target, one Newton step and
    the returned state (no Newton step at the natural length), plus
    length_range's pass for h(p_cap) while it is not cached.
    """
    lo, hi = length_range(spec, p_cap)
    if not lo <= length_target <= hi:
        raise OutOfRangeError(
            f"length {length_target!r} mm unreachable; feasible interval is "
            f"[{lo!r}, {hi!r}] mm",
            lo=lo,
            hi=hi,
        )
    h_target = min(max((length_target - spec.h0) / spec.n, _height(spec.L, p_cap)), spec.L)
    return state_at(spec, min(_p_for_height(spec.L, h_target), p_cap))
