"""Synthetic datasets shared by the unit and acceptance tests.

Everything here is generated from the package's own model forms with known
ground-truth parameters, so fits can be checked for exact recovery
(noiseless) and for statistical recovery (seeded multiplicative noise).
"""

from __future__ import annotations

import numpy as np

from wwmtc.actuators import HysteresisParams, simulate_winch

TENDON_TRUE = dict(a=50.0, b=8.0, eps0=0.02)
WINCH_TRUE = HysteresisParams(c=20.0, r=5.0)


def make_tendon_data(a: float, b: float, eps0: float, n: int = 120,
                     noise: float = 0.0, rng: np.random.Generator | None = None):
    """Two on-model cycles after a bedding-in first cycle.

    The first cycle ramps load up and back down while the strain creeps out
    to exactly eps0 at its terminal sample, mimicking the one-time sleeve
    seating; later cycles follow the stiffening law exactly.  Noise, when
    requested, is multiplicative on the post-first-cycle loads only.

    Returns (strain, load, cycle) arrays.
    """
    up = np.linspace(0.0, a, 25)
    strain_1 = np.concatenate([eps0 * np.sqrt(np.linspace(0.0, 1.0, 25)), np.full(5, eps0)])
    load_1 = np.concatenate([up, np.linspace(a, 0.0, 5)])

    loads = np.linspace(0.02 * a, 1.5 * a, n)
    sweep = np.concatenate([loads, loads[::-1]])
    strains = eps0 + np.log(sweep / a + 1.0) / b

    strain = np.concatenate([strain_1, strains, strains])
    load = np.concatenate([load_1, sweep, sweep])
    cycle = np.concatenate(
        [np.zeros(strain_1.size, int), np.ones(2 * n, int), np.full(2 * n, 2, int)]
    )
    if noise and rng is not None:
        fitted = cycle > 0
        load = load.copy()
        load[fitted] = np.abs(load[fitted] * (1.0 + noise * rng.standard_normal(fitted.sum())))
    return strain, load, cycle


def make_triangle_profile(i_min: float = 0.0, i_max: float = 2.0,
                          n_half: int = 81, periods: int = 3) -> np.ndarray:
    """Triangle current wave; period endpoints shared between periods."""
    half = np.linspace(i_min, i_max, n_half)
    period = np.concatenate([half, half[-2::-1]])
    parts = [period[:-1]] * (periods - 1) + [period]
    return np.concatenate(parts)


def make_winch_data(params: HysteresisParams = WINCH_TRUE, noise: float = 0.0,
                    rng: np.random.Generator | None = None):
    """(current, tension) of the play operator over a triangle sweep."""
    current = make_triangle_profile()
    tension = np.asarray(simulate_winch(params, current))
    if noise and rng is not None:
        tension = tension * (1.0 + noise * rng.standard_normal(tension.size))
    return current, tension
