"""Complex special functions: Gamma, its reciprocal, and cos(pi*s/2).

All operations are pure. The half-angle cosine is computed from its
real/imaginary decomposition so that conjugate symmetry holds bit-exactly.
"""

from __future__ import annotations

import cmath
import contextlib
import math
from dataclasses import dataclass

from .errors import DomainError, Overflow, PoleAtNonPositiveInteger

__all__ = ["EvalResult", "gamma", "half_cos"]

#: Method tags an EvalResult may carry.
METHODS = frozenset(
    {
        "direct-series",
        "accelerated-eta",
        "functional-equation",
        "quadrature",
        "rational-approx",
    }
)

#: Distance below which an argument counts as sitting on a Gamma pole.
POLE_TOL = 1e-12

#: half_cos raises Overflow beyond this |Im(s)| instead of returning inf.
HALF_COS_IM_MAX = 700.0 / math.pi

TWO_PI = 2.0 * math.pi
LOG_TWO_PI = math.log(TWO_PI)
_SQRT_TWO_PI = math.sqrt(TWO_PI)


@dataclass(frozen=True)
class EvalResult:
    """Value of an analytic evaluation plus a committed error bound.

    Attributes:
        value: the computed complex value.
        abs_err_est: upper bound on the absolute error the implementation
            commits to; acceptance tests rely on it.
        method: tag recording the evaluation route taken.
    """

    value: complex
    abs_err_est: float
    method: str

    def __post_init__(self) -> None:
        if self.method not in METHODS:
            raise ValueError(f"unknown method tag {self.method!r}")


# ---------------------------------------------------------------------------
# Exact-quadrant trigonometry.
#
# cos(pi*x/2) and sin(pi*x/2) evaluated so that integer x gives the exact
# values in {-1, 0, 1}: reduce x mod 4 (fmod is exact), split off the nearest
# integer quadrant, and evaluate the small residual d with |d| <= 1/2.
# ---------------------------------------------------------------------------

_COS_QUADRANT = (1.0, 0.0, -1.0, 0.0)
_SIN_QUADRANT = (0.0, 1.0, 0.0, -1.0)


def _cos_sin_pi_half(x: float) -> tuple[float, float]:
    """Return (cos(pi*x/2), sin(pi*x/2)), exact at integer x."""
    r = math.fmod(x, 4.0)
    if r < 0.0:
        r += 4.0
    n = int((r + 0.5) // 1.0)  # nearest integer to r, r - n in [-0.5, 0.5]
    d = r - n
    n &= 3
    cd = math.cos(0.5 * math.pi * d)
    sd = math.sin(0.5 * math.pi * d)
    c = _COS_QUADRANT[n] * cd - _SIN_QUADRANT[n] * sd
    s = _SIN_QUADRANT[n] * cd + _COS_QUADRANT[n] * sd
    return c, s


def _sin_pi_complex(z: complex) -> complex:
    """sin(pi*z) with exact argument reduction of the real part.

    Keeps full relative accuracy arbitrarily close to the zeros of sin,
    which the naive cmath.sin(pi*z) loses for |Re(z)| >> 1.
    """
    c, s = _cos_sin_pi_half(2.0 * z.real)
    y = math.pi * z.imag
    try:
        return complex(s * math.cosh(y), c * math.sinh(y))
    except OverflowError:
        raise Overflow(f"sin(pi*z) exceeds the floating range at z = {z}") from None


# ---------------------------------------------------------------------------
# Gamma: Lanczos rational approximation, g = 607/128 with 15 coefficients,
# reflected through sin(pi*z) for Re(z) < 1/2.
# ---------------------------------------------------------------------------

_LANCZOS_G = 607.0 / 128.0
_LANCZOS_C = (
    0.99999999999999709182,
    57.156235665862923517,
    -59.597960355475491248,
    14.136097974741747174,
    -0.49191381609762019978,
    0.33994649984811888699e-4,
    0.46523628927048575665e-4,
    -0.98374475304879564677e-4,
    0.15808870322491248884e-3,
    -0.21026444172410488319e-3,
    0.21743961811521264320e-3,
    -0.16431810653676389022e-3,
    0.84418223983852743293e-4,
    -0.26190838401581408670e-4,
    0.36899182659531622704e-5,
)

#: Relative error committed inside the contract domain |s| <= 20, |Im s| <= 50.
_GAMMA_REL_ERR = 5e-13
#: Looser commitment outside that domain.
_GAMMA_REL_ERR_FAR = 1e-11


def _lanczos(z: complex) -> complex:
    """Gamma(z) for Re(z) >= 0.5 via the Lanczos sum."""
    w = z - 1.0
    c0, c1, c2, c3, c4, c5, c6, c7, c8, c9, c10, c11, c12, c13, c14 = _LANCZOS_C
    # the terms added left to right, as a loop would add them
    acc = (c0 + c1 / (w + 1) + c2 / (w + 2) + c3 / (w + 3) + c4 / (w + 4) + c5 / (w + 5) + c6 / (w + 6)
           + c7 / (w + 7) + c8 / (w + 8) + c9 / (w + 9) + c10 / (w + 10) + c11 / (w + 11) + c12 / (w + 12)
           + c13 / (w + 13) + c14 / (w + 14))
    t = w + _LANCZOS_G + 0.5
    try:
        return _SQRT_TWO_PI * t ** (w + 0.5) * cmath.exp(-t) * acc
    except OverflowError:
        # from Re z of about 143 the power overflows before exp(-t) shrinks it;
        # its square root does not, up to Gamma's own overflow near 171.6
        with contextlib.suppress(OverflowError):
            p = t ** ((w + 0.5) / 2)
            if cmath.isfinite(value := _SQRT_TWO_PI * p * (cmath.exp(-t) * p) * acc):
                return value
    raise Overflow(f"the Lanczos sum for Gamma({z}) exceeds the floating range")


def _rgamma(z: complex) -> complex:
    """Reciprocal Gamma, entire; exactly 0 at 0, -1, -2, ..."""
    if z.imag == 0.0 and z.real <= 0.0 and z.real == int(z.real):
        return 0.0 + 0.0j
    if z.real >= 0.5:
        return 1.0 / _lanczos(z)
    return _sin_pi_complex(z) * _lanczos(1.0 - z) / math.pi


def gamma(s: complex) -> EvalResult:
    """Gamma(s) by rational approximation with reflection for Re(s) < 1/2.

    Args:
        s: any complex number farther than 1e-12 from 0, -1, -2, ...

    Returns:
        EvalResult with abs_err_est <= 1e-12 * |Gamma(s)| on the domain
        |s| <= 20, |Im(s)| <= 50.

    Raises:
        PoleAtNonPositiveInteger: if s sits on (or within 1e-12 of) a pole.
        Overflow: if the value, or the power in its Lanczos sum, leaves the
            floating range.
        DomainError: s is not finite.
    """
    return EvalResult(*_gamma_pair(complex(s)), "rational-approx")


def _gamma_pair(s: complex) -> tuple[complex, float]:
    """gamma(s)'s value and bound; raises what gamma(s) raises."""
    if not cmath.isfinite(s):
        raise DomainError(f"gamma requires a finite argument, got {s}")
    k = round(s.real)
    if k <= 0 and abs(s - k) < POLE_TOL:
        raise PoleAtNonPositiveInteger(f"gamma pole at or near {s}")
    if s.real >= 0.5:
        value = _lanczos(s)
    else:  # reflection: Gamma(s) = pi / (sin(pi s) Gamma(1 - s))
        value = math.pi / (_sin_pi_complex(s) * _lanczos(1.0 - s))
    if not cmath.isfinite(value) or value == 0.0:
        raise Overflow(f"gamma({s}) exceeds the floating range")
    if abs(s) <= 20.0 and abs(s.imag) <= 50.0:
        return value, _GAMMA_REL_ERR * abs(value)
    return value, _GAMMA_REL_ERR_FAR * abs(value)


def half_cos(s: complex) -> complex:
    """cos(pi*s/2) via the decomposition

        cos(a*pi/2)*cosh(b*pi/2) - i*sin(a*pi/2)*sinh(b*pi/2),  s = a + i*b,

    which makes conjugate symmetry bit-exact and odd integers exact zeros.

    Raises:
        Overflow: when |Im(s)| > 700/pi, where cosh would leave the range
            the invariants are asserted on.
        DomainError: s is not finite.
    """
    s = complex(s)
    if not cmath.isfinite(s):
        raise DomainError(f"half_cos requires a finite argument, got {s}")
    if abs(s.imag) > HALF_COS_IM_MAX:
        raise Overflow(f"half_cos overflow guard: |Im(s)| = {abs(s.imag)}")
    c, sn = _cos_sin_pi_half(s.real)
    y = 0.5 * math.pi * s.imag
    return complex(c * math.cosh(y), -sn * math.sinh(y))
