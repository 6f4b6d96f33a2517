"""Search the (n, L) plane for muscle specs meeting deformation requirements.

The length offset h0 is a fixed input (it is set by hardware, not by the
deformation model).  For each integer arch count n the feasible set in L is
located by a fixed 200-step grid scan followed by bisection refinement of
every feasibility boundary; all constraint functions are monotone in L for
this model, but the scan handles interval unions anyway.  The whole search
is a pure deterministic function of its inputs; the per-n scans are
independent, so callers may shard them across workers and merge by the
documented sort order.
"""

from __future__ import annotations

from dataclasses import dataclass

from .beam import solve_beam
from .errors import DomainError
from .muscle import DEFAULT_P_CAP, KINDS, MuscleSpec, natural_length, state_at

GRID_STEPS = 200
_REFINE_ITERS = 60


@dataclass(frozen=True)
class DesignConstraints:
    """Requirements on an expanding muscle at full contraction (p = p_cap).

    All lengths in mm.  ``min_stroke`` is the required contraction at p_cap,
    ``max_width_at_full`` the expansion ceiling there (the proxy for "gentle
    expansion": no default is asserted, the user must pick it).
    """

    natural_length_range: tuple[float, float]
    min_stroke: float
    max_width_at_full: float
    h0: float
    n_range: tuple[int, int]
    L_range: tuple[float, float]
    min_width_at_full: float = 0.0
    kind: str = "radial"  # label stamped on emitted specs; no formula effect

    def __post_init__(self):
        for name in ("natural_length_range", "n_range", "L_range"):
            lo, hi = getattr(self, name)
            if lo < 0 or hi < lo:
                raise DomainError(f"{name}={getattr(self, name)!r} must satisfy 0 <= min <= max")
        if self.min_stroke < 0 or self.max_width_at_full < 0 or self.min_width_at_full < 0:
            raise DomainError("stroke/width requirements must be >= 0")
        if self.h0 < 0:
            raise DomainError(f"h0={self.h0!r} must be >= 0")
        if self.L_range[0] <= 0:
            raise DomainError("L_range must be positive")
        if self.n_range[0] < 1:
            raise DomainError("n_range must start at >= 1")
        if self.kind not in KINDS:
            raise DomainError(f"kind={self.kind!r} must be one of {KINDS}")


@dataclass(frozen=True)
class AchievedMetrics:
    natural_length: float
    stroke: float
    width_at_full: float


@dataclass(frozen=True)
class DesignResult:
    """One feasible design: a representative spec plus its feasible L-interval."""

    spec: MuscleSpec
    achieved: AchievedMetrics
    feasible: bool
    L_interval: tuple[float, float]


_CONSTRAINT_NAMES = (
    "natural_length_min",
    "natural_length_max",
    "min_stroke",
    "max_width_at_full",
    "min_width_at_full",
)


def _margins(constraints: DesignConstraints, n: int, L: float,
             h_unit: float, w_unit: float) -> tuple[float, ...]:
    """Signed slack (mm) of every constraint; >= 0 everywhere means feasible."""
    nat = n * L + constraints.h0
    stroke = n * L * (1.0 - h_unit)
    width = L * w_unit
    return (
        nat - constraints.natural_length_range[0],
        constraints.natural_length_range[1] - nat,
        stroke - constraints.min_stroke,
        constraints.max_width_at_full - width,
        width - constraints.min_width_at_full,
    )


def constraint_slopes(constraints: DesignConstraints, n: int,
                      p_cap: float = DEFAULT_P_CAP) -> tuple[float, ...]:
    """|d margin / dL| per constraint (the model is affine in L)."""
    sol = solve_beam(1.0, p_cap)
    return (n, n, n * (1.0 - sol.h), sol.w, sol.w)


def evaluate(constraints: DesignConstraints, n: int, L: float,
             p_cap: float = DEFAULT_P_CAP) -> tuple[float, ...]:
    """Constraint margins at one candidate, using the exact forward model."""
    spec = MuscleSpec(n=n, L=L, h0=constraints.h0, kind=constraints.kind)
    state = state_at(spec, p_cap)
    nat = natural_length(spec)
    return (
        nat - constraints.natural_length_range[0],
        constraints.natural_length_range[1] - nat,
        state.contraction - constraints.min_stroke,
        constraints.max_width_at_full - state.width,
        state.width - constraints.min_width_at_full,
    )


def _result_for(constraints: DesignConstraints, n: int, lo: float, hi: float,
                p_cap: float) -> DesignResult:
    L = 0.5 * (lo + hi)
    spec = MuscleSpec(n=n, L=L, h0=constraints.h0, kind=constraints.kind)
    state = state_at(spec, p_cap)
    achieved = AchievedMetrics(
        natural_length=natural_length(spec),
        stroke=state.contraction,
        width_at_full=state.width,
    )
    return DesignResult(spec=spec, achieved=achieved, feasible=True,
                        L_interval=(lo, hi))


def search(constraints: DesignConstraints,
           p_cap: float = DEFAULT_P_CAP) -> list[DesignResult]:
    """All feasible designs, one per feasible L-interval per arch count.

    Results carry the bisection-refined feasible interval and a spec at its
    midpoint; they are sorted by achieved width at full contraction
    (ascending: gentlest expansion first), ties broken by (n, L).  An empty
    list is a valid outcome.  Deterministic for identical inputs.
    """
    sol = solve_beam(1.0, p_cap)
    h_unit, w_unit = sol.h, sol.w
    L_min, L_max = constraints.L_range
    step = (L_max - L_min) / GRID_STEPS

    def feasible(n: int, L: float) -> bool:
        return min(_margins(constraints, n, L, h_unit, w_unit)) >= 0.0

    results: list[DesignResult] = []
    for n in range(constraints.n_range[0], constraints.n_range[1] + 1):
        grid = [L_min + j * step for j in range(GRID_STEPS)] + [L_max]
        flags = [feasible(n, L) for L in grid]
        j = 0
        while j <= GRID_STEPS:
            if not flags[j]:
                j += 1
                continue
            j_end = j
            while j_end + 1 <= GRID_STEPS and flags[j_end + 1]:
                j_end += 1
            fn = lambda L, n=n: feasible(n, L)
            lo = _refine(fn, grid[j], grid[j - 1]) if j > 0 else grid[0]
            hi = (_refine(fn, grid[j_end], grid[j_end + 1])
                  if j_end < GRID_STEPS else grid[GRID_STEPS])
            results.append(_result_for(constraints, n, lo, hi, p_cap))
            j = j_end + 1

    results.sort(key=lambda res: (res.achieved.width_at_full, res.spec.n, res.spec.L))
    return results


def _refine(feasible, feasible_pt: float, infeasible_pt: float) -> float:
    """Bisect a feasibility boundary between the two points.

    Returns the feasible-side estimate, so emitted intervals never extend
    into infeasible territory.  Works for either boundary orientation.
    """
    for _ in range(_REFINE_ITERS):
        mid = 0.5 * (feasible_pt + infeasible_pt)
        if feasible(mid):
            feasible_pt = mid
        else:
            infeasible_pt = mid
    return feasible_pt


def infeasibility_report(constraints: DesignConstraints,
                         p_cap: float = DEFAULT_P_CAP) -> dict[int, str]:
    """For each n with no feasible L: the binding (most violated) constraint.

    The binding constraint is read off at the grid point with the best
    (least bad) margin, which names the requirement that cannot be met even
    at the most favorable L.
    """
    sol = solve_beam(1.0, p_cap)
    h_unit, w_unit = sol.h, sol.w
    L_min, L_max = constraints.L_range
    step = (L_max - L_min) / GRID_STEPS
    report: dict[int, str] = {}
    for n in range(constraints.n_range[0], constraints.n_range[1] + 1):
        best_margin = -float("inf")
        best_margins: tuple[float, ...] | None = None
        any_feasible = False
        for j in range(GRID_STEPS + 1):
            margins = _margins(constraints, n, L_min + j * step, h_unit, w_unit)
            worst = min(margins)
            if worst >= 0.0:
                any_feasible = True
                break
            if worst > best_margin:
                best_margin, best_margins = worst, margins
        if not any_feasible and best_margins is not None:
            report[n] = _CONSTRAINT_NAMES[best_margins.index(min(best_margins))]
    return report
