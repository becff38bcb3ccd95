"""Evaluation of zeta(s) and eta(s) everywhere via region dispatch, plus the
alternative representations (floor integral, eta integral, Euler product,
Mangoldt series) used as independent cross-checks.

Dispatch:
    Re(s) > 1.5   direct series with an Euler-Maclaurin tail
    0 < Re(s) <= 1.5   accelerated eta divided by (1 - 2^(1-s))
    Re(s) <= 0    functional equation, reflected to Re(1-s) >= 1

Everything here is pure and reentrant; an EvalConfig is immutable shared
input.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from . import arith
from .errors import (
    DomainError,
    EtaFactorZero,
    PoleAtOne,
    QuadratureFailure,
)
from .specfun import EvalResult, _rgamma, gamma

__all__ = [
    "EvalConfig",
    "DEFAULT_CONFIG",
    "zeta",
    "eta",
    "eta_integral",
    "zeta_floor_integral",
    "euler_product",
    "zeta_reflect",
    "log_deriv_zeta",
]

_EPS = 2.220446049250313e-16
LN2 = math.log(2.0)
LN_PI = math.log(math.pi)

#: zeros of (1 - 2^(1-s)) sit at 1 + 2*pi*k*i/ln 2; spacing of consecutive ones.
FACTOR_ZERO_SPACING = 2.0 * math.pi / LN2

#: raise EtaFactorZero below this distance from a factor zero with k != 0.
FACTOR_ZERO_RAISE = 1e-9
#: switch to the 4-point complex-offset average below this distance.
FACTOR_ZERO_AVERAGE = 5e-7
#: radius of the 4-point average.
FACTOR_ZERO_RADIUS = 1e-6


@dataclass(frozen=True)
class EvalConfig:
    """Shared evaluation parameters.

    Attributes:
        target_abs_err: absolute error the series evaluators aim for.
        series_max_terms: budget for any truncated sum or segment count.
        quadrature_tol: absolute tolerance for the integral representations.
    """

    target_abs_err: float = 1e-12
    series_max_terms: int = 10_000_000
    quadrature_tol: float = 1e-10

    def __post_init__(self) -> None:
        if not self.target_abs_err >= 10.0 * _EPS:
            raise ValueError("target_abs_err must be >= 10 * machine epsilon")
        if self.series_max_terms < 1:
            raise ValueError("series_max_terms must be positive")
        if not self.quadrature_tol > 0.0:
            raise ValueError("quadrature_tol must be positive")


DEFAULT_CONFIG = EvalConfig()


# ---------------------------------------------------------------------------
# Accelerated alternating series (binomial/Chebyshev weights).
# ---------------------------------------------------------------------------

_CVZ_RHO = 3.0 + math.sqrt(8.0)
_LN_CVZ_RHO = math.log(_CVZ_RHO)
_CVZ_MAX_N = 300
_cvz_cache: dict[int, tuple[float, np.ndarray]] = {}


def _cvz_weights(n: int) -> tuple[float, np.ndarray]:
    """Signed weights c_k and normalizer d for the n-term acceleration of
    sum_{k>=0} (-1)^k a_k."""
    hit = _cvz_cache.get(n)
    if hit is not None:
        return hit
    d = _CVZ_RHO**n
    d = 0.5 * (d + 1.0 / d)
    b = -1.0
    c = -d
    w = np.empty(n, dtype=np.float64)
    for k in range(n):
        c = b - c
        w[k] = c
        b *= (k + n) * (k - n) / ((k + 0.5) * (k + 1.0))
    _cvz_cache[n] = (d, w)
    return d, w


def _eta_series_bound(t_abs: float, n: int) -> float:
    """Committed truncation bound for the accelerated eta sum; DomainError
    once it leaves the floating range (|Im s| above about 450)."""
    try:
        growth = math.exp(0.5 * math.pi * t_abs)
    except OverflowError:
        raise DomainError(f"eta series bound overflows at height |Im s| = {t_abs}") from None
    return 8.0 * (1.0 + 2.0 * t_abs) * growth * _CVZ_RHO ** (-n)


def eta(s: complex, cfg: EvalConfig | None = None) -> EvalResult:
    """Dirichlet eta via accelerated alternating summation.

    Terms are evaluated in the decomposed form
    (-1)^(n+1) * [cos(b ln n) - i sin(b ln n)] / n^a, so conjugate symmetry
    of the result is bit-exact.

    Args:
        s: point with Re(s) > 0.
        cfg: evaluation parameters (defaults shared).

    Raises:
        DomainError: if Re(s) <= 0.
    """
    s = complex(s)
    cfg = cfg or DEFAULT_CONFIG
    alpha, beta = s.real, s.imag
    if alpha <= 0.0:
        raise DomainError(f"eta requires Re(s) > 0, got {s}")
    t = abs(beta)
    target = 0.5 * cfg.target_abs_err
    n = math.ceil((math.log(8.0 * (1.0 + 2.0 * t)) + 0.5 * math.pi * t - math.log(target)) / _LN_CVZ_RHO) + 2
    n = min(max(n, 8), _CVZ_MAX_N)
    d, w = _cvz_weights(n)
    lm = np.log(np.arange(1.0, n + 1.0))
    amp = np.exp(-alpha * lm)
    re = float(np.dot(w, amp * np.cos(beta * lm))) / d
    im = -float(np.dot(w, amp * np.sin(beta * lm))) / d
    value = complex(re, im)
    err = _eta_series_bound(t, n) + 5e-14 * (1.0 + abs(value))
    return EvalResult(value, err, "accelerated-eta")


# ---------------------------------------------------------------------------
# Direct series with Euler-Maclaurin tail, Re(s) > 1.5.
# ---------------------------------------------------------------------------

# B_{2j} / (2j)! for j = 1..13 (B_2 = 1/6, B_4 = -1/30, ...).
_EM_BERNOULLI = (
    1.0 / 6,
    -1.0 / 30,
    1.0 / 42,
    -1.0 / 30,
    5.0 / 66,
    -691.0 / 2730,
    7.0 / 6,
    -3617.0 / 510,
    43867.0 / 798,
    -174611.0 / 330,
    854513.0 / 138,
    -236364091.0 / 2730,
    8553103.0 / 6,
)
_EM_COEF = tuple(b / math.factorial(2 * (j + 1)) for j, b in enumerate(_EM_BERNOULLI))
_EM_ORDER = 12  # correction terms used; _EM_COEF[12] bounds the remainder


def _em_remainder_bound(s: complex, n: int) -> float:
    sigma = s.real
    p = 1.0
    for i in range(2 * _EM_ORDER + 1):
        p *= abs(s + i)
    p *= n ** (-sigma - 2 * _EM_ORDER - 1)
    return abs(_EM_COEF[_EM_ORDER]) * p * (abs(s) + 2 * _EM_ORDER + 1) / (sigma + 2 * _EM_ORDER + 1)


def _zeta_em(s: complex, cfg: EvalConfig) -> EvalResult:
    target = 0.5 * cfg.target_abs_err
    n = max(16, int(0.75 * abs(s.imag)) + 8)
    while _em_remainder_bound(s, n) > target and n < 1 << 20:
        n *= 2
    bound = _em_remainder_bound(s, n)

    m = np.arange(1.0, n)
    head = complex(np.sum(np.exp(-s * np.log(m))))
    npow = cmath.exp(-s * math.log(n))
    value = head + npow * n / (s - 1.0) + 0.5 * npow
    poch = s
    scale = npow / n
    for j in range(1, _EM_ORDER + 1):
        value += _EM_COEF[j - 1] * poch * scale * n ** (2 - 2 * j)
        poch *= (s + 2 * j - 1) * (s + 2 * j)
    err = bound + 4e-15 * (1.0 + abs(value)) * math.log2(n + 1)
    return EvalResult(value, err, "direct-series")


# ---------------------------------------------------------------------------
# Strip route and dispatch.
# ---------------------------------------------------------------------------


def _nearest_factor_zero(s: complex) -> tuple[int, float]:
    """Index k and distance to the nearest zero of (1 - 2^(1-s))."""
    k = round(s.imag / FACTOR_ZERO_SPACING)
    return k, abs(s - complex(1.0, k * FACTOR_ZERO_SPACING))


def _zeta_strip_quotient(s: complex, cfg: EvalConfig) -> EvalResult:
    e = eta(s, cfg)
    factor = 1.0 - cmath.exp((1.0 - s) * LN2)
    value = e.value / factor
    err = (e.abs_err_est + 4.0 * _EPS * abs(e.value)) / abs(factor) + 4.0 * _EPS * abs(value)
    return EvalResult(value, err, "accelerated-eta")


def zeta(s: complex, cfg: EvalConfig | None = None) -> EvalResult:
    """Riemann zeta with region dispatch; the method tag records the route.

    Args:
        s: any complex number except s = 1 (simple pole).
        cfg: evaluation parameters.

    Raises:
        PoleAtOne: within 1e-12 of s = 1.
        EtaFactorZero: within 1e-9 of 1 + 2*pi*k*i/ln 2, k != 0, where the
            eta quotient degenerates.
    """
    s = complex(s)
    cfg = cfg or DEFAULT_CONFIG
    if abs(s - 1.0) < 1e-12:
        raise PoleAtOne(f"zeta pole at s = 1 (got {s})")
    sigma = s.real
    if sigma > 1.5:
        return _zeta_em(s, cfg)
    if sigma > 0.0:
        k, dist = _nearest_factor_zero(s)
        if k != 0:
            if dist < FACTOR_ZERO_RAISE:
                raise EtaFactorZero(f"{s} within {dist:.2e} of eta-factor zero k={k}")
            if dist < FACTOR_ZERO_AVERAGE:
                # 4-point mean at radius 1e-6: the probes stay clear of the
                # factor zero while the analytic average matches zeta(s) to
                # O(radius^4).
                probes = [
                    _zeta_strip_quotient(s + FACTOR_ZERO_RADIUS * off, cfg)
                    for off in (1.0, 1.0j, -1.0, -1.0j)
                ]
                value = sum(p.value for p in probes) / 4.0
                err = max(p.abs_err_est for p in probes) + FACTOR_ZERO_RADIUS**4
                return EvalResult(value, err, "accelerated-eta")
        return _zeta_strip_quotient(s, cfg)
    if abs(s) < 1e-12:
        # Limit value at the origin; zeta varies by ~0.92*|s| nearby.
        return EvalResult(complex(-0.5, 0.0), 1e-12, "functional-equation")
    return zeta_reflect(s, cfg)


def zeta_reflect(s: complex, cfg: EvalConfig | None = None) -> EvalResult:
    """Right-hand side of the symmetric functional equation,

        zeta(s) = pi^(s-1/2) * Gamma((1-s)/2) / Gamma(s/2) * zeta(1-s),

    used to continue zeta to Re(s) < 0 and as a residual check elsewhere.
    The denominator Gamma is applied as a reciprocal, so its poles become
    exact zeros of the result.
    """
    s = complex(s)
    cfg = cfg or DEFAULT_CONFIG
    if abs(s - 1.0) < 1e-12:
        raise PoleAtOne("zeta_reflect undefined at s = 1")
    g1 = gamma((1.0 - s) / 2.0)
    rg = _rgamma(s / 2.0)
    z1 = zeta(1.0 - s, cfg)
    pre = cmath.exp((s - 0.5) * LN_PI)
    value = pre * g1.value * rg * z1.value
    g_rel = g1.abs_err_est / abs(g1.value)
    z_rel = z1.abs_err_est / max(abs(z1.value), 1e-300)
    err = abs(value) * (g_rel + 6e-13 + z_rel + 8.0 * _EPS)
    if value == 0.0:
        # exact zero from the reciprocal-Gamma factor
        err = abs(pre * g1.value * z1.value) * 1e-15
    return EvalResult(value, err, "functional-equation")


# ---------------------------------------------------------------------------
# Integral representations.
# ---------------------------------------------------------------------------


def _adaptive_simpson(f, nodes: np.ndarray, tol: float, budget: int) -> tuple[complex, float, int]:
    """Adaptive Simpson over an initial partition, bisecting with an embedded
    error estimate.

    The initial nodes must already resolve any oscillation coarsely (no more
    than ~a quarter period per panel), otherwise the error estimator can be
    aliased into accepting too early.

    Returns (integral, error_estimate, evaluations_used). Raises
    QuadratureFailure when the refinement budget runs out.
    """

    def simpson(x0, x2, f0, f1, f2):
        return (x2 - x0) / 6.0 * (f0 + 4.0 * f1 + f2)

    used = 0

    def recurse(x0, x2, f0, f1, f2, whole, tol_local, depth):
        nonlocal used
        xm = 0.5 * (x0 + x2)
        xl = 0.5 * (x0 + xm)
        xr = 0.5 * (xm + x2)
        fl = f(xl)
        fr = f(xr)
        used += 2
        if used > budget:
            raise QuadratureFailure(f"adaptive refinement exceeded {budget} evaluations")
        left = simpson(x0, xm, f0, fl, f1)
        right = simpson(xm, x2, f1, fr, f2)
        delta = left + right - whole
        if abs(delta) <= 15.0 * tol_local or depth >= 50:
            if depth >= 50 and abs(delta) > 15.0 * tol_local:
                raise QuadratureFailure("adaptive refinement exceeded depth 50")
            return left + right + delta / 15.0, abs(delta) / 15.0
        vl, el = recurse(x0, xm, f0, fl, f1, left, 0.5 * tol_local, depth + 1)
        vr, er = recurse(xm, x2, f1, fr, f2, right, 0.5 * tol_local, depth + 1)
        return vl + vr, el + er

    n_panels = len(nodes) - 1
    fvals = [f(x) for x in nodes]
    used += len(fvals)
    total = 0.0 + 0.0j
    err = 0.0
    for i in range(n_panels):
        x0, x2 = nodes[i], nodes[i + 1]
        f1 = f(0.5 * (x0 + x2))
        used += 1
        whole = simpson(x0, x2, fvals[i], f1, fvals[i + 1])
        v, e = recurse(x0, x2, fvals[i], f1, fvals[i + 1], whole, tol / n_panels, 0)
        total += v
        err += e
    return total, err, used


def eta_integral(s: complex, cfg: EvalConfig | None = None) -> EvalResult:
    """Dirichlet eta via its integral form

        eta(s) = (1/Gamma(s)) * integral_0^inf x^(s-1) / (e^x + 1) dx,

    restricted to the quadrature validity window 0 < Re(s) < 3.

    The integrand head [0, 1e-3] is integrated from the series expansion of
    1/(e^x + 1); the tail beyond X is truncated where x^2 * e^(-x) certifies
    the remainder below tol/10.

    Raises:
        DomainError: outside 0 < Re(s) < 3.
        QuadratureFailure: refinement exceeds its budget.
    """
    s = complex(s)
    cfg = cfg or DEFAULT_CONFIG
    sigma = s.real
    if not 0.0 < sigma < 3.0:
        raise DomainError(f"eta_integral window is 0 < Re(s) < 3, got {s}")
    tol = cfg.quadrature_tol

    cutoff = 45.0
    while (cutoff**2 + 2.0 * cutoff + 2.0) * math.exp(-cutoff) > 0.1 * tol and cutoff < 400.0:
        cutoff += 5.0
    tail_bound = (cutoff**2 + 2.0 * cutoff + 2.0) * math.exp(-cutoff)

    # 1/(e^x+1) = 1/2 - x/4 + x^3/48 - x^5/480 + ... on [0, delta]
    delta = 1e-3
    dpow = cmath.exp(s * math.log(delta))  # delta^s
    head = dpow * (
        1.0 / (2.0 * s)
        - delta / (4.0 * (s + 1.0))
        + delta**3 / (48.0 * (s + 3.0))
    )
    head_bound = delta ** (sigma + 5) / (480.0 * (sigma + 5.0))

    def integrand(x: float) -> complex:
        return cmath.exp((s - 1.0) * math.log(x)) / (math.exp(x) + 1.0)

    budget = min(cfg.series_max_terms, 400_000)
    # x^(i Im s) oscillates uniformly in ln x, so geometric panels hold each
    # to at most ~a quarter period; the singular head also benefits.
    n_panels = min(2000, max(24, int(math.ceil(3.0 * (abs(s.imag) + 1.0) * math.log(cutoff / delta)))))
    nodes = np.geomspace(delta, cutoff, n_panels + 1)
    body, quad_err, _ = _adaptive_simpson(integrand, nodes, 0.8 * tol, budget)

    integral = head + body
    rg = _rgamma(s)
    g = gamma(s)
    value = integral * rg
    err = (tail_bound + head_bound + quad_err) * abs(rg) + abs(value) * (
        g.abs_err_est / abs(g.value) + 4.0 * _EPS
    )
    return EvalResult(value, err, "quadrature")


def zeta_floor_integral(s: complex, cfg: EvalConfig | None = None) -> EvalResult:
    """zeta via  s/(s-1) - s * integral_1^inf {x} x^(-s-1) dx,  Re(s) > 1.

    The fractional-part integral is evaluated in closed form on every
    segment [n, n+1]; the tail beyond N is replaced by its mean value
    N^(-s)/(2s) with a rigorous bound on the oscillatory remainder.

    Raises:
        DomainError: when Re(s) <= 1.
    """
    s = complex(s)
    cfg = cfg or DEFAULT_CONFIG
    sigma = s.real
    if sigma <= 1.0:
        raise DomainError(f"zeta_floor_integral requires Re(s) > 1, got {s}")
    tol = cfg.quadrature_tol

    def tail_bound(n: float) -> float:
        return n ** (-sigma - 1.0) / 8.0 * (1.0 + abs(s + 1.0) / (sigma + 1.0))

    n_seg = 16
    while tail_bound(n_seg) > 0.5 * tol / max(abs(s), 1.0) and n_seg < cfg.series_max_terms:
        n_seg *= 2
    n_seg = min(n_seg, cfg.series_max_terms)

    m = np.arange(1.0, n_seg + 1.0)
    pw = np.exp(-s * np.log(m))  # m^(-s)
    a_pow = pw[:-1]  # n^(-s)
    b_pow = pw[1:]  # (n+1)^(-s)
    n_arr = m[:-1]
    seg = ((n_arr + 1.0) * b_pow - n_arr * a_pow) / (1.0 - s) - n_arr * (a_pow - b_pow) / s
    integral = complex(np.sum(seg)) + pw[-1] / (2.0 * s)
    value = s / (s - 1.0) - s * integral
    err = abs(s) * (tail_bound(n_seg) + 2e-14 / (sigma - 0.99)) + 8.0 * _EPS * abs(value)
    return EvalResult(value, err, "quadrature")


def euler_product(s: complex, prime_bound: int) -> EvalResult:
    """Truncated Euler product over primes p <= prime_bound, Re(s) > 1.

    On the real axis the partial products increase monotonically in modulus
    toward zeta(s); the committed error uses the integral bound on
    sum_{n > bound} n^(-Re s), which dominates the prime tail.

    Raises:
        DomainError: when Re(s) <= 1.
    """
    s = complex(s)
    sigma = s.real
    if sigma <= 1.0:
        raise DomainError(f"euler_product requires Re(s) > 1, got {s}")
    if prime_bound < 2:
        raise ValueError("prime_bound must be >= 2")
    p = arith.primes_upto(prime_bound).astype(np.float64)
    pw = np.exp(-s * np.log(p))
    value = complex(np.prod(1.0 / (1.0 - pw)))
    tail = prime_bound ** (1.0 - sigma) / (sigma - 1.0)
    err = abs(value) * (math.expm1(min(tail, 50.0)) + 4.0 * _EPS * math.sqrt(len(p) + 1.0))
    return EvalResult(value, err, "euler-product")


def log_deriv_zeta(s: complex, n_terms: int, cfg: EvalConfig | None = None) -> EvalResult:
    """Logarithmic derivative zeta'(s)/zeta(s) = -sum_{n>=2} Lambda(n) n^(-s),
    truncated at n_terms, Re(s) > 1.

    Raises:
        DomainError: when Re(s) <= 1.
    """
    s = complex(s)
    sigma = s.real
    if sigma <= 1.0:
        raise DomainError(f"log_deriv_zeta requires Re(s) > 1, got {s}")
    if n_terms < 1:
        raise ValueError("n_terms must be >= 1")

    def tail_bound(n: float) -> float:
        # sum_{m>n} Lambda(m) m^(-sigma), via psi(x) < 1.04 x
        return 1.04 * n ** (1.0 - sigma) * (1.0 + sigma / (sigma - 1.0))

    if n_terms < 2:
        return EvalResult(0.0 + 0.0j, tail_bound(1.0), "direct-series")
    table = arith.cached_table(n_terms)
    idx = np.nonzero(table.mangoldt)[0]
    lam = table.mangoldt[idx]
    value = -complex(np.sum(lam * np.exp(-s * np.log(idx.astype(np.float64)))))
    err = tail_bound(float(n_terms)) + 4e-15 * (1.0 + abs(value)) * math.log2(len(idx) + 2.0)
    return EvalResult(value, err, "direct-series")
