"""conj_ratio, the reflection factor nu and its classification, theta, kappa."""

import cmath
import math

import numpy as np
import pytest

from zetalab import classify_nu, conj_ratio, eta, kappa, nu, theta, zeta
from zetalab.errors import (
    DenominatorZero,
    DomainError,
    EtaTwoSZero,
    NearPole,
    NearZeroOfZeta,
    Overflow,
    ZeroInput,
)
from zetalab.zeta_eval import FACTOR_ZERO_SPACING

KAPPA_075_REGRESSION = 0.8509680610516577  # frozen from eta(0.75)/eta(1.5)


def test_conj_ratio_equal_parts():
    assert conj_ratio(1.0, 1.0) == complex(0.0, -1.0)


def test_conj_ratio_real_input():
    for u in (0.5, -3.0, 7.25):
        assert conj_ratio(u, 0.0) == complex(1.0, 0.0)


def test_conj_ratio_three_four_via_linear_system():
    # Solve (x + iy)(3 + 4i) = 3 - 4i as the 2x2 real system.
    a = np.array([[3.0, -4.0], [4.0, 3.0]])
    b = np.array([3.0, -4.0])
    x, y = np.linalg.solve(a, b)
    got = conj_ratio(3.0, 4.0)
    assert abs(got - complex(x, y)) < 1e-15
    assert abs(got - complex(-0.28, -0.96)) < 1e-15


def test_conj_ratio_zero_input():
    with pytest.raises(ZeroInput):
        conj_ratio(0.0, 0.0)


def test_conj_ratio_unimodular_and_identity():
    rng = np.random.default_rng(13)
    for _ in range(1000):
        u = rng.uniform(-50.0, 50.0)
        v = rng.uniform(-50.0, 50.0)
        if u == 0.0 and v == 0.0:
            continue
        r = conj_ratio(u, v)
        assert abs(abs(r) - 1.0) < 1e-14
        scale = math.hypot(u, v)
        assert abs(r * complex(u, v) - complex(u, -v)) < 1e-14 * scale


def test_nu_is_one_on_critical_line():
    assert abs(nu(0.5 + 3.0j).value - 1.0) < 1e-9


def test_nu_guards():
    with pytest.raises(NearPole):
        nu(1.0 + 1e-10j)
    with pytest.raises(NearZeroOfZeta):
        nu(complex(0.5, 14.1347251417))  # first critical zero
    with pytest.raises(NearZeroOfZeta):
        nu(-2.0)  # trivial zero of zeta


def test_nu_raises_where_its_arithmetic_overflows():
    # 1/Gamma(conj s) overflows by reflection and meets inf / inf, not NaN
    with pytest.raises(Overflow):
        nu(-107.5 - 143.0j)


def test_nu_vanishes_toward_even_negatives():
    mags = [abs(nu(-2.0 + d).value) for d in (1e-2, 1e-3, 1e-4)]
    assert mags[0] > mags[1] > mags[2]
    assert mags[-1] < 1e-3


def test_nu_blows_up_toward_odd_positives():
    thresholds = (1e2, 1e3, 1e4)
    for d, floor in zip((1e-2, 1e-3, 1e-4), thresholds):
        assert abs(nu(3.0 + d).value) > floor


def test_theta_at_two():
    assert abs(theta(2.0).value - 1.75) < 1e-14


def test_theta_at_half_is_boundary_zero():
    # numerator 1 - 2/4^(1/2) = 0; 1/2 sits outside the admissible set
    assert abs(theta(0.5).value) < 1e-15


def test_theta_nonzero_in_strip():
    rng = np.random.default_rng(29)
    for _ in range(100):
        s = complex(rng.uniform(0.55, 0.95), rng.uniform(0.0, 30.0))
        assert abs(theta(s).value) > 1e-6


def test_theta_denominator_zero():
    with pytest.raises(DenominatorZero):
        theta(1.0 + 1e-10j)
    with pytest.raises(DenominatorZero):
        theta(complex(1.0, FACTOR_ZERO_SPACING) + 1e-11)


@pytest.mark.parametrize("im", [0.0, -0.0, 5.0, -37.5, 1e4])
def test_theta_far_left_is_a_bounded_value_or_overflow(im):
    mpmath = pytest.importorskip("mpmath")
    # 4^-s overflows from Re s of about -511 and 2^-s from -1024
    for re in np.linspace(-1100.0, -900.0, 81):
        s = complex(re, im)
        try:
            got = theta(s)
        except Overflow:
            assert re < -1023.0, s
            continue
        assert re > -1025.0, s
        assert cmath.isfinite(got.value) and math.isfinite(got.abs_err_est)
        with mpmath.workdps(40):
            ms = mpmath.mpc(s.real, s.imag)
            ref = (1 - 2 / mpmath.power(4, ms)) / (1 - 2 / mpmath.power(2, ms))
            assert float(abs(mpmath.mpc(got.value) - ref)) <= got.abs_err_est, s


def test_kappa_is_eta_ratio():
    k = kappa(0.75)
    assert abs(k.value - eta(0.75).value / eta(1.5).value) < 1e-15
    assert abs(k.value - KAPPA_075_REGRESSION) < 1e-10


def test_kappa_identity_to_rounding():
    rng = np.random.default_rng(37)
    for _ in range(50):
        s = complex(rng.uniform(0.3, 2.0), rng.uniform(-8.0, 8.0))
        k = kappa(s)
        resid = abs(eta(s).value - k.value * eta(2.0 * s).value)
        assert resid <= 5e-15 * (1.0 + abs(eta(s).value))


def test_kappa_domain_and_degenerate():
    with pytest.raises(DomainError):
        kappa(0.2 + 1.0j)
    # eta(2s) = 0 exactly on the factor-zero line
    with pytest.raises(EtaTwoSZero):
        kappa(complex(0.5, 0.5 * FACTOR_ZERO_SPACING))


def test_kappa_bounded_on_strip_sample():
    for re in np.linspace(0.55, 0.95, 8):
        for im in np.linspace(0.0, 30.0, 8):
            v = abs(kappa(complex(re, im)).value)
            assert 1e-6 < v < 1e6


def test_classify_nu_zeros_poles_regulars():
    zeros = classify_nu([0.0, -2.0, -4.0, -6.0, -8.0])
    assert all(c.kind == "zero" for c in zeros)
    assert all(not c.low_confidence for c in zeros)
    poles = classify_nu([1.0, 3.0, 5.0, 7.0, 9.0])
    assert all(c.kind == "pole" for c in poles)
    regular = classify_nu([-1.0, -3.0, -5.0, -7.0])
    assert all(c.kind == "regular" for c in regular)


def test_classify_nu_evidence_is_finest_probe():
    (c,) = classify_nu([-2.0])
    assert abs(c.evidence - abs(nu(-2.0 + 1e-4).value)) < 1e-12


def test_nu_error_is_consistent_with_identity():
    # zeta(s) = nu(s) zeta(1 - conj s) within the combined committed errors
    for s in [0.3 + 5.0j, 0.8 + 12.0j, 0.5 + 2.0j]:
        n = nu(s)
        lhs = zeta(s).value
        rhs = n.value * zeta(1.0 - s.conjugate()).value
        assert abs(lhs - rhs) <= 2.0 * (n.abs_err_est * abs(zeta(1.0 - s.conjugate()).value) + 1e-12)
