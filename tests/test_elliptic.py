"""Elliptic kernels: trivial identities, quadrature-oracle agreement, properties."""

import math
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wwmtc.elliptic import (
    MODULUS_MAX,
    ellip_e,
    ellip_e_complete,
    ellip_f,
    ellip_fe,
    ellip_k,
    ellip_ke,
    _rf_rd,
)
from wwmtc.errors import DomainError

from oracles import (
    ellip_e_complete_quadrature,
    ellip_e_quadrature,
    ellip_f_quadrature,
    ellip_k_quadrature,
)

HALF_PI = math.pi / 2.0


def rel_err(a: float, b: float) -> float:
    return abs(a - b) / max(1.0, abs(b))


# --- trivial identity cases -------------------------------------------------

def test_f_at_zero_modulus_is_amplitude():
    assert ellip_f(0.7, 0.0) == pytest.approx(0.7, rel=1e-14)
    assert ellip_f(HALF_PI, 0.0) == pytest.approx(HALF_PI, rel=1e-14)


def test_e_at_zero_modulus_is_amplitude():
    assert ellip_e(0.7, 0.0) == pytest.approx(0.7, rel=1e-14)


def test_complete_values_at_zero_modulus():
    assert ellip_k(0.0) == pytest.approx(HALF_PI, rel=1e-14)
    assert ellip_e_complete(0.0) == pytest.approx(HALF_PI, rel=1e-14)


def test_e_complete_approaches_one_near_unit_modulus():
    # analytic limit of the integrand: E(p) -> 1 as p -> 1
    assert ellip_e_complete(MODULUS_MAX) == pytest.approx(1.0, abs=5e-5)
    assert ellip_e_complete(0.999999) == pytest.approx(1.0, abs=1e-2)


# --- frozen oracle values (adaptive Simpson at 1e-12, cross-checked against
# --- 40-digit arbitrary-precision evaluation before freezing) ---------------

FROZEN = [
    # (fn, quadrature fn, args, frozen value)
    (ellip_f, ellip_f_quadrature, (math.pi / 4, 0.9), 0.8579401978855108),
    (ellip_e, ellip_e_quadrature, (math.pi / 3, 0.8), 0.9394548037249508),
    (ellip_k, ellip_k_quadrature, (1 / math.sqrt(2),), 1.8540746773013717),
    (ellip_k, ellip_k_quadrature, (0.99,), 3.356600523361191),
    (ellip_e_complete, ellip_e_complete_quadrature, (0.75,), 1.3184721079946207),
]


@pytest.mark.parametrize("fast, quad, args, frozen", FROZEN)
def test_frozen_quadrature_values(fast, quad, args, frozen):
    assert quad(*args) == pytest.approx(frozen, rel=1e-11)
    assert fast(*args) == pytest.approx(frozen, rel=1e-10)


def test_k_grows_toward_unit_modulus():
    assert ellip_k(0.99) > ellip_k(0.9)
    assert math.isfinite(ellip_k(MODULUS_MAX))


def test_e_at_right_angle_equals_complete():
    for p in (0.1, 0.5, 0.9, 0.995):
        assert ellip_e(HALF_PI, p) == pytest.approx(ellip_e_complete(p), rel=1e-14)
        assert ellip_f(HALF_PI, p) == pytest.approx(ellip_k(p), rel=1e-14)


# --- oracle equivalence on a grid (smaller than the acceptance grid) --------

def test_fast_path_matches_quadrature_grid():
    phis = np.linspace(0.0, HALF_PI, 12)
    ps = np.linspace(0.0, 0.995, 12)
    for p in ps:
        for phi in phis:
            assert rel_err(ellip_f(phi, p), ellip_f_quadrature(phi, p)) < 1e-10
            assert rel_err(ellip_e(phi, p), ellip_e_quadrature(phi, p)) < 1e-10
        assert rel_err(ellip_k(p), ellip_k_quadrature(p)) < 1e-10
        assert rel_err(ellip_e_complete(p), ellip_e_complete_quadrature(p)) < 1e-10


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(phi=st.floats(0.0, HALF_PI), p=st.floats(0.0, 0.995))
def test_fast_pairs_match_quadrature(phi, p):
    f, e = ellip_fe(phi, p)
    assert rel_err(f, ellip_f_quadrature(phi, p)) < 1e-10
    assert rel_err(e, ellip_e_quadrature(phi, p)) < 1e-10
    k, ec = ellip_ke(p)
    assert rel_err(k, ellip_k_quadrature(p)) < 1e-10
    assert rel_err(ec, ellip_e_complete_quadrature(p)) < 1e-10


# --- fused Carlson pass -------------------------------------------------------

def _rf_alone(x, y, z):
    """The SLATEC R_F loop on its own, as it reads without R_D beside it."""
    while True:
        sx, sy, sz = math.sqrt(x), math.sqrt(y), math.sqrt(z)
        lam = sx * (sy + sz) + sy * sz
        x, y, z = (x + lam) * 0.25, (y + lam) * 0.25, (z + lam) * 0.25
        mu = (x + y + z) / 3.0
        dx, dy, dz = (mu - x) / mu, (mu - y) / mu, (mu - z) / mu
        if max(abs(dx), abs(dy), abs(dz)) < 1e-4:
            break
    e2 = dx * dy - dz * dz
    e3 = dx * dy * dz
    return (1.0 + (e2 / 24.0 - 0.1 - 3.0 * e3 / 44.0) * e2 + e3 / 14.0) / math.sqrt(mu)


def _carlson_triples():
    """~1 200 fixed (x, y, z): the integrals' argument families and general ones.

    Beam arguments (m1/p^2, 2 m1, 1) dense at both ends of p, Legendre
    (cos^2 phi, 1 - p^2 sin^2 phi, 1), complete (0, 1 - p^2, 1) and general
    10^U(-6, 6) triples.
    """
    rng = np.random.default_rng(5)
    p_straight = 1.0 / math.sqrt(2.0)
    ps = [p_straight + 1e-16, 0.85, MODULUS_MAX,
          *(p_straight + 10.0 ** rng.uniform(-16.0, -0.54, 100)),
          *(1.0 - 10.0 ** rng.uniform(-9.0, -0.54, 100)),
          *rng.uniform(p_straight, MODULUS_MAX, 100)]
    triples = []
    for p in ps:
        m1 = (1.0 - p) * (1.0 + p)
        triples.append((m1 / (p * p), 2.0 * m1, 1.0))
    phis = [1e-300, 1e-8, HALF_PI, *rng.uniform(0.0, HALF_PI, 300)]
    ps = [0.0, 1e-8, 1 / math.sqrt(2.0), MODULUS_MAX, *rng.uniform(0.0, MODULUS_MAX, 300)]
    for phi, p in zip(phis, ps):
        c, ps_ = math.cos(phi), p * math.sin(phi)
        triples.append((c * c, 1.0 - ps_ * ps_, 1.0))
    triples += [(0.0, 1.0 - p * p, 1.0) for p in ps]
    triples += [tuple(t) for t in 10.0 ** rng.uniform(-6.0, 6.0, (300, 3))]
    return [tuple(map(float, t)) for t in triples]


def test_fused_pass_rf_is_bit_identical_to_slatec_loop():
    # R_F stops at SLATEC's step through SLATEC's expressions
    for x, y, z in _carlson_triples():
        assert _rf_rd(x, y, z)[0] == _rf_alone(x, y, z)


def test_fused_pass_matches_mpmath():
    # R_D, summed at R_F's stop, and R_F to a few ULP of 40-digit values
    bound = 5.0 * sys.float_info.epsilon
    with mpmath.workdps(40):
        for x, y, z in _carlson_triples():
            rf, rd = _rf_rd(x, y, z)
            ref_f = mpmath.elliprf(x, y, z)
            ref_d = mpmath.elliprd(x, y, z)
            assert abs((rf - ref_f) / ref_f) < bound, (x, y, z)
            assert abs((rd - ref_d) / ref_d) < bound, (x, y, z)


# --- structural properties ---------------------------------------------------

def test_legendre_relation():
    rng = np.random.default_rng(7)
    for p in rng.uniform(1e-6, 1.0 - 1e-6, 100):
        q = math.sqrt(1.0 - p * p)
        lhs = (
            ellip_e_complete(p) * ellip_k(q)
            + ellip_e_complete(q) * ellip_k(p)
            - ellip_k(p) * ellip_k(q)
        )
        assert abs(lhs - HALF_PI) < 1e-9


def test_monotonicity_in_modulus():
    ps = np.linspace(0.0, 0.995, 60)
    for phi in (0.4, 1.0, HALF_PI):
        f_vals = [ellip_f(phi, p) for p in ps]
        e_vals = [ellip_e(phi, p) for p in ps]
        assert all(b >= a for a, b in zip(f_vals, f_vals[1:]))
        assert all(b <= a for a, b in zip(e_vals, e_vals[1:]))
    k_vals = [ellip_k(p) for p in ps]
    ec_vals = [ellip_e_complete(p) for p in ps]
    assert all(b >= a for a, b in zip(k_vals, k_vals[1:]))
    assert all(b <= a for a, b in zip(ec_vals, ec_vals[1:]))


# --- domain guards -----------------------------------------------------------

@pytest.mark.parametrize("bad_p", [-0.1, 1.0, 1.5, 1.0 - 1e-12])
def test_rejects_bad_modulus(bad_p):
    with pytest.raises(DomainError):
        ellip_k(bad_p)
    with pytest.raises(DomainError):
        ellip_f(0.5, bad_p)
    with pytest.raises(DomainError):
        ellip_fe(0.5, bad_p)
    with pytest.raises(DomainError):
        ellip_ke(bad_p)


@pytest.mark.parametrize("bad_phi", [-0.1, HALF_PI + 0.01, 4.0])
def test_rejects_bad_amplitude(bad_phi):
    with pytest.raises(DomainError):
        ellip_f(bad_phi, 0.5)
    with pytest.raises(DomainError):
        ellip_e(bad_phi, 0.5)
    with pytest.raises(DomainError):
        ellip_fe(bad_phi, 0.5)
