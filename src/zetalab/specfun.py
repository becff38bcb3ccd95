"""Complex special functions: Gamma, reciprocal Gamma, cos(pi*s/2), and the
reflection factor xi(s) = 2*Gamma(s)*(2*pi)^(-s)*cos(pi*s/2).

All operations are pure; complex powers use the principal branch of log.
The half-angle cosine is computed from its real/imaginary decomposition so
that conjugate symmetry holds bit-exactly.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, Overflow, PoleAtNonPositiveInteger

__all__ = [
    "EvalResult",
    "gamma",
    "recip_gamma_euler",
    "half_cos",
    "xi_factor",
]

#: Method tags an EvalResult may carry.
METHODS = frozenset(
    {
        "direct-series",
        "accelerated-eta",
        "functional-equation",
        "quadrature",
        "euler-product",
        "rational-approx",
    }
)

#: Distance below which an argument counts as sitting on a Gamma pole.
POLE_TOL = 1e-12

#: half_cos raises Overflow beyond this |Im(s)| instead of returning inf.
HALF_COS_IM_MAX = 700.0 / math.pi

#: machine epsilon rounded up, as committed in the bounds of recip_gamma_euler
#: and xi_factor.
_EPS_BOUND = 2.3e-16

TWO_PI = 2.0 * math.pi
LOG_TWO_PI = math.log(TWO_PI)


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


def _cos_sin_pi(x: float) -> tuple[float, float]:
    """Return (cos(pi*x), sin(pi*x)), exact at integer and half-integer x."""
    return _cos_sin_pi_half(2.0 * x)


def _sin_pi_complex(z: complex) -> complex:
    """sin(pi*z) with exact argument reduction of the real part.

    Keeps full relative accuracy arbitrarily close to the zeros of sin,
    which the naive cmath.sin(pi*z) loses for |Re(z)| >> 1.
    """
    c, s = _cos_sin_pi(z.real)
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
    acc = _LANCZOS_C[0]
    for k in range(1, 15):
        acc += _LANCZOS_C[k] / (w + k)
    t = w + _LANCZOS_G + 0.5
    return math.sqrt(TWO_PI) * t ** (w + 0.5) * cmath.exp(-t) * acc


def _gamma_value(z: complex) -> complex:
    if z.real >= 0.5:
        return _lanczos(z)
    # Reflection: Gamma(z) = pi / (sin(pi z) * Gamma(1 - z)).
    return math.pi / (_sin_pi_complex(z) * _lanczos(1.0 - z))


def _nearest_nonpositive_integer(s: complex) -> int | None:
    k = round(s.real)
    if k <= 0 and abs(s - k) < POLE_TOL:
        return k
    return None


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
        Overflow: if the reflection path overflows the floating range.
        DomainError: s is not finite.
    """
    s = complex(s)
    if not cmath.isfinite(s):
        raise DomainError(f"gamma requires a finite argument, got {s}")
    if _nearest_nonpositive_integer(s) is not None:
        raise PoleAtNonPositiveInteger(f"gamma pole at or near {s}")
    value = _gamma_value(s)
    if not (math.isfinite(value.real) and math.isfinite(value.imag)) or value == 0.0:
        raise Overflow(f"gamma({s}) exceeds the floating range")
    if abs(s) <= 20.0 and abs(s.imag) <= 50.0:
        rel = _GAMMA_REL_ERR
    else:
        rel = _GAMMA_REL_ERR_FAR
    return EvalResult(value, rel * abs(value), "rational-approx")


def recip_gamma_euler(s: complex, terms: int) -> EvalResult:
    """Truncated Euler product for 1/Gamma(s).

    1/Gamma(s) = s * prod_{n=1..terms} (1 + s/n) / (1 + 1/n)^s.

    Entire in s; returns exactly 0 at non-positive integers regardless of
    truncation (the limit value, which a finite product attains only for
    terms >= |s|). Convergence is O(1/terms), so this is an oracle, not a
    production path.

    Args:
        s: point of evaluation.
        terms: number of product factors, >= 1.

    Returns:
        EvalResult tagged 'euler-product'.

    Raises:
        DomainError: s is not finite.
    """
    s = complex(s)
    if not cmath.isfinite(s):
        raise DomainError(f"recip_gamma_euler requires a finite argument, got {s}")
    if terms < 1:
        raise ValueError("terms must be >= 1")
    if s.imag == 0.0 and s.real <= 0.0 and s.real == int(s.real):
        return EvalResult(0.0 + 0.0j, 0.0, "euler-product")

    prod = 1.0 + 0.0j
    chunk = 1_000_000
    lo = 1
    while lo <= terms:
        hi = min(lo + chunk - 1, terms)
        n = np.arange(lo, hi + 1, dtype=np.float64)
        # Per-factor ratio stays O(1), so the running product cannot overflow.
        factors = (1.0 + s / n) * np.exp(-s * np.log1p(1.0 / n))
        prod *= complex(np.prod(factors))
        lo = hi + 1
    value = s * prod
    # Truncation error ~ |s(s-1)|/(2 terms); rounding grows with the factor count.
    rel = abs(s * (s - 1.0)) / terms + 4.0 * terms * _EPS_BOUND
    return EvalResult(value, rel * max(abs(value), 1e-300), "euler-product")


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


def xi_factor(s: complex) -> EvalResult:
    """Reflection factor xi(s) = 2 * Gamma(s) * (2*pi)^(-s) * cos(pi*s/2).

    Satisfies zeta(1-s) = xi(s) * zeta(s); (2*pi)^(-s) uses the principal
    logarithm. Errors from gamma propagate.
    """
    s = complex(s)
    g = gamma(s)
    power = cmath.exp(-s * LOG_TWO_PI)
    value = 2.0 * g.value * power * half_cos(s)
    rel = (g.abs_err_est / abs(g.value)) + 8.0 * _EPS_BOUND
    return EvalResult(value, rel * abs(value), "rational-approx")
