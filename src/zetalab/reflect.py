"""Reflection machinery: the conjugate-ratio formula, the factor nu with
zeta(s) = nu(s) * zeta(1 - conj(s)), and the eta-ratio factors theta and
kappa, plus the zero/pole classification of nu by limit probes.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .errors import (
    DenominatorZero,
    DomainError,
    EtaTwoSZero,
    NearPole,
    NearZeroOfZeta,
    Overflow,
    ZeroInput,
    ZetaLabError,
)
from .specfun import LOG_TWO_PI, EvalResult, _rgamma, half_cos
from .zeta_eval import _EPS, LN2, _factor_zero_distance, eta, zeta

__all__ = [
    "NuClassification",
    "conj_ratio",
    "nu",
    "theta",
    "kappa",
    "classify_nu",
]

#: |zeta(s)| below this counts as "within 1e-9 of a zeta zero" for nu.
_ZETA_ZERO_GUARD = 1e-7

#: probe offsets for the zero/pole classification, largest first.
PROBE_OFFSETS = (1e-2, 1e-3, 1e-4)
PROBE_ZERO_CEILING = 1e-3
PROBE_POLE_FLOOR = 1e3


def conj_ratio(u: float, v: float) -> complex:
    """The unimodular factor carrying conjugation:

        (u^2 - v^2)/(u^2 + v^2) + i * (-2 u v)/(u^2 + v^2),

    which multiplied by (u + iv) gives (u - iv) exactly up to rounding.

    Raises:
        ZeroInput: when u = v = 0.
        DomainError: u or v is not finite.
    """
    u = float(u)
    v = float(v)
    if not (math.isfinite(u) and math.isfinite(v)):
        raise DomainError(f"conj_ratio requires finite arguments, got ({u}, {v})")
    if u == 0.0 and v == 0.0:
        raise ZeroInput("conj_ratio undefined at (0, 0)")
    scale = max(abs(u), abs(v))
    un = u / scale
    vn = v / scale
    den = un * un + vn * vn
    return complex((un * un - vn * vn) / den, -2.0 * un * vn / den)


def nu(s: complex) -> EvalResult:
    """Reflection factor nu with zeta(s) = nu(s) * zeta(1 - conj(s)).

    Computed from the inverted product form

        1/nu(s) = 2 Gamma(conj s) (2 pi)^(-conj s) cos(pi conj(s)/2)
                  * conj_ratio(Re zeta(s), Im zeta(s)),

    with the Gamma applied as a reciprocal so that the factor stays
    computable where the reflected zeta value degenerates.

    Raises:
        NearPole: within 1e-9 of s = 1, or where the cosine factor vanishes
            identically (exact odd-integer conj argument).
        NearZeroOfZeta: where |zeta(s)| is too small to condition the ratio.
        Overflow: the value or its bound leaves the floating range.
    """
    s = complex(s)
    if abs(s.imag) < 1e-9 and abs(s - 1.0) < 1e-9:  # abs(s - 1.0) alone overflows near |s| = 1e308
        raise NearPole(f"nu degenerates at the zeta pole, got {s}")
    z = zeta(s)
    if abs(z.value) < _ZETA_ZERO_GUARD:
        raise NearZeroOfZeta(f"|zeta({s})| = {abs(z.value):.2e} too small for nu")
    sb = s.conjugate()
    cos_term = half_cos(sb)
    if cos_term == 0.0:
        raise NearPole(f"cos(pi*conj(s)/2) vanishes exactly at {s}")
    ratio = conj_ratio(z.value.real, z.value.imag)
    try:  # (2 pi)^conj(s) overflows from Re s of about 385
        value = cmath.exp(sb * LOG_TWO_PI) * _rgamma(sb) / (2.0 * cos_term * ratio)
    except OverflowError:
        value = complex(math.inf)
    z_rel = z.abs_err_est / abs(z.value)
    err = abs(value) * (6e-13 + 2.0 * z_rel + 8.0 * _EPS)
    if not (cmath.isfinite(value) and math.isfinite(err)):
        raise Overflow(f"nu({s}) leaves the floating range")
    return EvalResult(value, err, "functional-equation")


def theta(s: complex) -> EvalResult:
    """Eta-ratio factor theta(s) = (1 - 2/4^s) / (1 - 2/2^s), closed form.

    Raises:
        DenominatorZero: within 1e-9 of a zero of (1 - 2^(1-s)).
        DomainError: s is not finite.
        Overflow: theta or its bound leaves the floating range (Re s below
            about -1024).
    """
    s = complex(s)
    if not cmath.isfinite(s):
        raise DomainError(f"theta requires a finite argument, got {s}")
    if _factor_zero_distance(s) < 1e-9:
        raise DenominatorZero(f"theta denominator vanishes near {s}")
    try:  # theta = x + 1/2 + 1/(2d), with x = 2^-s and d = 1 - 2x
        x = cmath.exp(-s * LN2)
        d = 1.0 - 2.0 * x
        value = x + 0.5 + 0.5 / d
        # x carries eps (|s| ln 2 + 2) relative from -s ln 2 and the exp, and
        # theta moves by (1 + 1/d^2) times it; plus the rounding of the sum
        err = _EPS * (abs(s) * LN2 + 2.0) * (abs(x) + abs(x) / abs(d) / abs(d))
        err += 4.0 * _EPS * abs(value) + 4.0 * _EPS * (abs(x) + 1.0 / abs(d))
    except OverflowError:  # 2^-s from Re s of about -1024, and |s| near the top of the floating range
        value, err = complex(math.inf), math.inf
    if not (cmath.isfinite(value) and math.isfinite(err)):
        raise Overflow(f"theta({s}) or its bound exceeds the floating range")
    return EvalResult(value, err, "rational-approx")


def kappa(s: complex) -> EvalResult:
    """Strip factor kappa(s) = eta(s) / eta(2s), defined for Re(s) > 1/4.

    The imaginary part of the result is reported as a finding metric by the
    harness rather than asserted away.

    Raises:
        DomainError: when Re(s) <= 1/4.
        EtaTwoSZero: when |eta(2s)| vanishes to working precision.
    """
    s = complex(s)
    if s.real <= 0.25:
        raise DomainError(f"kappa requires Re(s) > 1/4, got {s}")
    return _kappa_from_eta(s, eta(s), eta(2.0 * s))


def _kappa_from_eta(s: complex, e1: EvalResult, e2: EvalResult) -> EvalResult:
    """kappa(s) from e1 = eta(s) and e2 = eta(2s)."""
    if abs(e2.value) < 1e-12:
        raise EtaTwoSZero(f"|eta(2s)| = {abs(e2.value):.2e} at s = {s}")
    value = e1.value / e2.value
    err = (e1.abs_err_est + abs(value) * e2.abs_err_est) / abs(e2.value) + 4.0 * _EPS * abs(value)
    return EvalResult(value, err, "accelerated-eta")


@dataclass(frozen=True)
class NuClassification:
    """Outcome of probing nu near a real-axis point.

    evidence holds |nu| at the finest successful probe offset; kind = zero
    requires the probes to decrease below 1e-3, kind = pole to increase
    above 1e3. Inconclusive probes yield regular with low_confidence set.
    """

    point: complex
    kind: str  # 'zero' | 'pole' | 'regular'
    evidence: float
    low_confidence: bool = False


def classify_nu(points: list[complex]) -> list[NuClassification]:
    """Classify each real-axis point as a zero, pole, or regular point of nu
    by probing |nu| at offsets 1e-2, 1e-3, 1e-4 with monotonicity voting."""
    out = []
    for p in points:
        p = complex(p)
        mags: list[float] = []
        failed = False
        for off in PROBE_OFFSETS:
            try:
                mags.append(abs(nu(p + off).value))
            except ZetaLabError:
                failed = True
                break
        if failed or len(mags) < len(PROBE_OFFSETS):
            out.append(NuClassification(p, "regular", math.nan, low_confidence=True))
            continue
        decreasing = mags[0] > mags[1] > mags[2]
        increasing = mags[0] < mags[1] < mags[2]
        final = mags[-1]
        if decreasing and final < PROBE_ZERO_CEILING:
            out.append(NuClassification(p, "zero", final))
        elif increasing and final > PROBE_POLE_FLOOR:
            out.append(NuClassification(p, "pole", final))
        else:
            # crossing a threshold without the monotone pattern is suspicious
            suspicious = final < PROBE_ZERO_CEILING or final > PROBE_POLE_FLOOR
            out.append(NuClassification(p, "regular", final, low_confidence=suspicious))
    return out
