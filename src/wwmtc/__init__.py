"""Mechanics of wire-wound expanding muscle actuators.

A muscle exterior built from n arched spring strips contracts axially as an
internal wire is wound and expands radially while doing so.  This package
provides the elliptic-integral solution of one deflected strip, the
whole-muscle width/length maps and their inverses, a design search over
arch count and size, and empirical models of the tendon and winch
nonlinearities, plus a CLI (``wwmtc``) over all of it.
"""

from .beam import P_MAX, P_STRAIGHT, BeamSolution, solve_beam, solve_p_for_height
from .design import (
    AchievedMetrics,
    DesignConstraints,
    DesignResult,
    infeasibility_report,
    search,
)
from .elliptic import (
    MODULUS_MAX,
    ellip_e,
    ellip_e_complete,
    ellip_f,
    ellip_fe,
    ellip_k,
    ellip_ke,
)
from .errors import (
    DomainError,
    FitConvergenceError,
    InsufficientDataError,
    InsufficientSweepError,
    OutOfRangeError,
    WwmtcError,
)
from .muscle import (
    DEFAULT_P_CAP,
    DeformationCurve,
    MuscleSpec,
    MuscleState,
    curve,
    length_range,
    natural_length,
    state_at,
    state_for_length,
)

__version__ = "0.1.0"

# The actuator models load on first access (PEP 562): the geometry and design
# commands never use them, so they do not pay for the module at start-up.
# Importing it does not load numpy; only the fits import numpy, as they run.
_ACTUATOR_NAMES = frozenset({
    "HysteresisParams",
    "TendonFit",
    "fit_tendon",
    "fit_winch",
    "simulate_winch",
    "tendon_load",
})


def __getattr__(name: str):
    if name in _ACTUATOR_NAMES:
        from . import actuators

        return getattr(actuators, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "AchievedMetrics",
    "BeamSolution",
    "DEFAULT_P_CAP",
    "DeformationCurve",
    "DesignConstraints",
    "DesignResult",
    "DomainError",
    "FitConvergenceError",
    "HysteresisParams",
    "InsufficientDataError",
    "InsufficientSweepError",
    "MODULUS_MAX",
    "MuscleSpec",
    "MuscleState",
    "OutOfRangeError",
    "P_MAX",
    "P_STRAIGHT",
    "TendonFit",
    "WwmtcError",
    "curve",
    "ellip_e",
    "ellip_e_complete",
    "ellip_f",
    "ellip_fe",
    "ellip_k",
    "ellip_ke",
    "fit_tendon",
    "fit_winch",
    "infeasibility_report",
    "length_range",
    "natural_length",
    "search",
    "simulate_winch",
    "solve_beam",
    "solve_p_for_height",
    "state_at",
    "state_for_length",
    "tendon_load",
    "__version__",
]
