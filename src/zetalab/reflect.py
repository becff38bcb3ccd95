"""Reflection machinery: the conjugate-ratio formula, the factor nu with
zeta(s) = nu(s) * zeta(1 - conj(s)), and the eta-ratio factors theta and
kappa, plus the zero/pole classification of nu by limit probes.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass
from itertools import compress

from .errors import (
    DenominatorZero,
    DomainError,
    EtaTwoSZero,
    NearPole,
    NearZeroOfZeta,
    Overflow,
    PoleAtNonPositiveInteger,
    ZeroInput,
    ZetaLabError,
)
from .specfun import EvalResult, _chi
from .zeta_eval import _EPS, LN2, _eta_pairs, _factor_zero_distance, _ok, _try, _zeta_pairs, eta

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

    By the functional equation at conj(s),

        nu(s) = chi(conj s) / conj_ratio(Re zeta(s), Im zeta(s)),

    with chi the factor that zeta's reflected route takes. Its denominator
    Gamma is a reciprocal, so nu(0) = 0 exactly.

    Raises:
        NearPole: within 1e-9 of s = 1, or on (within rounding of) the
            poles of Gamma((1 - conj s)/2) at s = 3, 5, 7, ...
        NearZeroOfZeta: where |zeta(s)| is too small to condition the ratio.
        Overflow: the value or its bound leaves the floating range.
        DomainError: s is not finite, |Im s| is above zeta's MAX_HEIGHT, or
            chi(conj s) falls below the normal floating range (nu(300)).
    """
    return EvalResult(*_ok(*_nu_pairs([s])), "functional-equation")


def _nu_pairs(points) -> list[tuple[complex, float] | ZetaLabError]:
    """nu's (value, bound) pairs, or errors, with zeta read in one batch."""
    pts = [complex(p) for p in points]
    return [_try(_nu_value, s, z) for s, z in zip(pts, _zeta_pairs(pts))]


def _nu_value(s: complex, zeta_pair) -> tuple[complex, float]:
    """nu(s) and its bound from zeta's (value, bound) pair at s, or its error."""
    if abs(s.imag) < 1e-9 and abs(s - 1.0) < 1e-9:  # abs(s - 1.0) alone overflows near |s| = 1e308
        raise NearPole(f"nu degenerates at the zeta pole, got {s}")
    z_value, z_err = _ok(zeta_pair)
    if abs(z_value) < _ZETA_ZERO_GUARD:
        raise NearZeroOfZeta(f"|zeta({s})| = {abs(z_value):.2e} too small for nu")
    try:
        chi, chi_rel = _chi(s.conjugate())
    except PoleAtNonPositiveInteger:
        raise NearPole(f"nu has a pole at or near {s}") from None
    if not cmath.isfinite(chi):  # checked before abs(), which can raise on a NaN
        raise Overflow(f"nu({s}) leaves the floating range")
    # chi(conj s) is exactly 0 only at s = 0, -2, -4, ..., and zeta(s) is 0 at all but s = 0
    if abs(chi) < sys.float_info.min and s != 0.0:
        raise DomainError(f"nu({s}) falls below the normal floating range")
    value = chi / conj_ratio(z_value.real, z_value.imag)
    z_rel = z_err / abs(z_value)
    err = abs(value) * (chi_rel + 2.0 * z_rel + 8.0 * _EPS)
    if not (cmath.isfinite(value) and math.isfinite(err)):
        raise Overflow(f"nu({s}) leaves the floating range")
    return value, err


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
    if s.real <= 0.25:  # as _kappa_value does, but before eta raises its own DomainError
        raise DomainError(f"kappa requires Re(s) > 1/4, got {s}")
    return EvalResult(*_kappa_value(s, *[(e.value, e.abs_err_est) for e in (eta(s), eta(2.0 * s))]), "accelerated-eta")


def _kappa_pairs(points) -> list[tuple[complex, float] | ZetaLabError]:
    """kappa's (value, bound) pairs, or errors, from one eta batch over every s and 2s."""
    pts = [complex(p) for p in points]
    # eta runs only where kappa is defined, and at a NaN Re s, whose error is eta's;
    # _kappa_value refuses Re s <= 1/4 before it reads an eta pair
    defined = [not s.real <= 0.25 for s in pts]
    inside = list(compress(pts, defined))
    etas = _eta_pairs([*inside, *(2.0 * s for s in inside)])
    at = iter(zip(etas, etas[len(inside) :]))
    return [_try(_kappa_value, s, *(next(at) if d else (None, None))) for s, d in zip(pts, defined)]


def _kappa_value(s: complex, eta_pair, eta2_pair) -> tuple[complex, float]:
    """kappa(s) and its bound from eta's (value, bound) pairs, or errors, at s and 2s."""
    if s.real <= 0.25:
        raise DomainError(f"kappa requires Re(s) > 1/4, got {s}")
    (e1, e1_err), (e2, e2_err) = _ok(eta_pair), _ok(eta2_pair)
    if abs(e2) < 1e-12:
        raise EtaTwoSZero(f"|eta(2s)| = {abs(e2):.2e} at s = {s}")
    value = e1 / e2
    err = (e1_err + abs(value) * e2_err) / abs(e2) + 4.0 * _EPS * abs(value)
    return value, err


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
    by probing |nu| at offsets 1e-2, 1e-3, 1e-4, all in one batch, with monotonicity voting."""
    pts = [complex(p) for p in points]
    probes = iter(_nu_pairs([p + off for p in pts for off in PROBE_OFFSETS]))
    out = []
    for p in pts:
        pairs = [next(probes) for _ in PROBE_OFFSETS]
        if any(isinstance(r, ZetaLabError) for r in pairs):
            out.append(NuClassification(p, "regular", math.nan, low_confidence=True))
            continue
        mags = [abs(r[0]) for r in pairs]
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
