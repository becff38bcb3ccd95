"""Gamma, its reciprocal, its Lanczos sum, and the half-angle cosine."""

import cmath
import contextlib
import math

import numpy as np
import pytest

from zetalab import gamma, half_cos, zeta
from zetalab.errors import Overflow, PoleAtNonPositiveInteger, ZetaLabError
from zetalab.specfun import _LANCZOS_C, _LANCZOS_G, TWO_PI, _gamma_pair, _lanczos, _rgamma

SQRT_PI = 1.7724538509055160273


def test_gamma_factorial():
    assert abs(gamma(5).value - 24.0) < 24.0 * 1e-12


def test_gamma_half_is_sqrt_pi():
    assert abs(gamma(0.5).value - SQRT_PI) < 1e-12


def test_gamma_recurrence():
    s = 0.3 + 2.0j
    ratio = gamma(s + 1.0).value / (s * gamma(s).value)
    assert abs(ratio - 1.0) < 1e-10


@pytest.mark.parametrize("bad", [0.0, -1.0, -5.0, complex(-3.0, 1e-13), -7.0 + 0j])
def test_gamma_pole_raises(bad):
    with pytest.raises(PoleAtNonPositiveInteger):
        gamma(bad)


def test_gamma_conjugate_symmetry():
    rng = np.random.default_rng(11)
    checked = 0
    while checked < 200:
        s = complex(rng.uniform(-10, 10), rng.uniform(-20, 20))
        k = round(s.real)
        if k <= 0 and abs(s - k) < 1e-6:
            continue
        g = gamma(s).value
        gc = gamma(s.conjugate()).value
        assert abs(gc - g.conjugate()) <= 1e-12 * abs(g)
        checked += 1


def test_gamma_never_zero():
    for re in np.linspace(-9.5, 9.5, 20):
        for im in np.linspace(-19.0, 19.0, 10):
            assert abs(gamma(complex(re, im)).value) > 0.0


def test_gamma_error_commitment_via_recurrence():
    # |Gamma(s+1) - s Gamma(s)| should be explained by the committed bounds.
    rng = np.random.default_rng(5)
    for _ in range(50):
        s = complex(rng.uniform(0.5, 15), rng.uniform(-30, 30))
        a = gamma(s + 1.0)
        b = gamma(s)
        resid = abs(a.value - s * b.value)
        assert resid <= a.abs_err_est + abs(s) * b.abs_err_est + 1e-290


def test_rgamma_zero_at_nonpositive_integers():
    for k in range(0, 8):
        assert _rgamma(complex(-k)) == 0.0


def test_rgamma_is_the_reciprocal_of_gamma():
    rng = np.random.default_rng(29)
    for _ in range(60):
        s = complex(rng.uniform(-15, 15), rng.uniform(-15, 15))
        assert abs(_rgamma(s) * gamma(s).value - 1.0) < 1e-11
    assert abs(_rgamma(1.0) - 1.0) < 1e-15


def test_functional_equation_from_gamma_and_half_cos():
    # zeta(1-s) = 2 (2 pi)^-s cos(pi s / 2) Gamma(s) zeta(s)
    rng = np.random.default_rng(17)
    for _ in range(30):
        s = complex(rng.uniform(1.6, 6.0), rng.uniform(-20, 20))
        lhs = zeta(1.0 - s).value
        rhs = 2.0 * TWO_PI ** (-s) * half_cos(s) * gamma(s).value * zeta(s).value
        assert abs(lhs - rhs) < 1e-9 * (1.0 + abs(lhs))
    assert abs(2.0 * TWO_PI**-2.0 * half_cos(2.0) * gamma(2.0).value - (-1.0 / (2.0 * math.pi**2))) < 1e-15


@pytest.mark.parametrize("s", [1.0, -3.0, 5.0, -7.0])
def test_half_cos_exact_zeros_at_odd_integers(s):
    assert half_cos(s) == 0.0


def test_half_cos_matches_generic_cosine():
    rng = np.random.default_rng(3)
    for _ in range(100):
        s = complex(rng.uniform(-8, 8), rng.uniform(-8, 8))
        ref = cmath.cos(0.5 * math.pi * s)
        assert abs(half_cos(s) - ref) <= 1e-12 * (1.0 + abs(ref))


def test_half_cos_conjugate_symmetry_bit_exact():
    for s in [0.4 + 7.0j, -2.3 + 1.5j, 3.7 - 11.0j, 0.5 + 0.25j]:
        assert half_cos(s.conjugate()) == half_cos(s).conjugate()


def test_half_cos_overflow_guard():
    with pytest.raises(Overflow):
        half_cos(complex(0.0, 700.0 / math.pi + 1.0))


def test_gamma_reflection_overflow_is_typed():
    with pytest.raises(Overflow):
        gamma(-0.5 + 500j)


def test_gamma_is_finite_where_the_lanczos_power_alone_overflows():
    mpmath = pytest.importorskip("mpmath")
    # from Re s of about 143 t^(s - 1/2) overflows before exp(-t) shrinks it
    for s in (143.0, 150.5, 171.5, 160.0 + 20.0j):
        got = gamma(s)
        with mpmath.workdps(30):
            ref = mpmath.gamma(mpmath.mpc(s))
        assert float(abs(mpmath.mpc(got.value) - ref)) <= got.abs_err_est, s
    # the reflected route's Gamma((1 - s)/2) stays finite on these trivial zeros
    for s in (-286.0, -300.0, -330.0):
        assert zeta(s).value == 0.0
    with pytest.raises(Overflow):
        gamma(172.0)  # Gamma(172) = 171! exceeds the floating range


def _lanczos_loop(z: complex) -> complex:
    """The Lanczos sum with its terms added in a loop, the reference that
    _lanczos's one expression must match bit for bit."""
    w = z - 1.0
    acc = _LANCZOS_C[0]
    for k in range(1, 15):
        acc += _LANCZOS_C[k] / (w + k)
    t = w + _LANCZOS_G + 0.5
    try:
        return math.sqrt(TWO_PI) * t ** (w + 0.5) * cmath.exp(-t) * acc
    except OverflowError:
        with contextlib.suppress(OverflowError):
            p = t ** ((w + 0.5) / 2)
            if cmath.isfinite(value := math.sqrt(TWO_PI) * p * (cmath.exp(-t) * p) * acc):
                return value
    raise Overflow(f"the Lanczos sum for Gamma({z}) exceeds the floating range")


def _bits(f, *args):
    """float.hex of the real and imaginary parts of each number f returns,
    or the type and message of the ZetaLabError it raises."""
    try:
        out = f(*args)
    except ZetaLabError as exc:
        return type(exc), str(exc)
    return [(c.real.hex(), c.imag.hex()) for c in map(complex, out if isinstance(out, tuple) else (out,))]


def test_lanczos_sum_is_bit_identical_to_the_loop_form():
    rng = np.random.default_rng(16)
    near = [complex(rng.uniform(0.5, 40.0), rng.uniform(-60.0, 60.0)) for _ in range(1500)]
    # from Re z of about 143 the sum takes the power in two halves; past 171.6 it overflows
    far = [complex(rng.uniform(143.0, 175.0), rng.uniform(-30.0, 30.0)) for _ in range(450)]
    real = [complex(x, sign) for x in rng.uniform(0.5, 172.0, 25) for sign in (0.0, -0.0)]
    overflows = 0
    for z in near + far + real:
        got = _bits(_lanczos, z)
        assert got == _bits(_lanczos_loop, z), z
        overflows += isinstance(got, tuple)
    assert 0 < overflows < len(far)  # both values and overflows were compared there


def test_gamma_is_the_private_pair_as_an_eval_result():
    rng = np.random.default_rng(61)
    points = [complex(rng.uniform(-30.0, 30.0), rng.uniform(-80.0, 80.0)) for _ in range(400)]
    points += [-3.0, complex(-3.0, 1e-13), 172.0, complex(math.nan, 0.0), -0.5 + 500j, 2.5, complex(-7.5, -0.0)]
    for s in points:
        pair = _bits(_gamma_pair, complex(s))
        try:
            got = gamma(s)
        except ZetaLabError as exc:
            assert (type(exc), str(exc)) == pair, s
            continue
        assert got.method == "rational-approx"
        assert pair == _bits(lambda: (got.value, got.abs_err_est)), s
