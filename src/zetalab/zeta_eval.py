"""Evaluation of zeta(s) and eta(s) everywhere via region dispatch, plus
the floor integral and the Euler product, reference routes that the
cross-checks compare zeta against.

Dispatch:
    Re(s) > 1.5   direct series with an Euler-Maclaurin tail
    0 < Re(s) <= 1.5   accelerated eta divided by (1 - 2^(1-s))
    Re(s) <= 0    functional equation, reflected to Re(1-s) >= 1

The series routes size themselves for one fixed absolute error target,
_TARGET_ABS_ERR = 1e-12. zeta_many and eta_many evaluate lists of points
through the same kernels. Everything here is pure and reentrant.
"""

from __future__ import annotations

import cmath
import functools
import math

import numpy as np

from . import arith
from .errors import DomainError, EtaFactorZero, PoleAtOne, ZetaLabError
from .specfun import EvalResult, _rgamma, gamma

__all__ = [
    "zeta",
    "eta",
    "zeta_many",
    "eta_many",
    "zeta_floor_integral",
    "euler_product",
    "zeta_reflect",
]

_EPS = 2.220446049250313e-16
LN2 = math.log(2.0)
LN_PI = math.log(math.pi)
_HALF_PI = 0.5 * math.pi

#: zeros of (1 - 2^(1-s)) sit at 1 + 2*pi*k*i/ln 2; spacing of consecutive ones.
FACTOR_ZERO_SPACING = 2.0 * math.pi / LN2

#: raise EtaFactorZero below this distance from a factor zero with k != 0.
FACTOR_ZERO_RAISE = 1e-9
#: switch to the 4-point complex-offset average below this distance.
FACTOR_ZERO_AVERAGE = 5e-7
#: radius of the 4-point average.
FACTOR_ZERO_RADIUS = 1e-6

#: absolute error the eta and Euler-Maclaurin series are sized for.
_TARGET_ABS_ERR = 1e-12
_LN_HALF_TARGET = math.log(0.5 * _TARGET_ABS_ERR)
#: absolute tolerance of zeta_floor_integral, and its cap on segments.
_FLOOR_TOL = 1e-10
_FLOOR_MAX_SEGMENTS = 10_000_000


# ---------------------------------------------------------------------------
# Accelerated alternating series (binomial/Chebyshev weights).
#
# A scalar call runs a kernel on one point for 1-D terms; a batch runs it on a
# (k, 1) column of points that share n for one row each. np.vecdot reduces each
# row with the same BLAS dot as 1-D terms (`rows @ w` is a matrix-vector
# product and rounds differently), and the eta tails stay in Python
# complex/cmath/math, so batches match scalar calls bit for bit. The
# Euler-Maclaurin tail runs on arrays, under the rules of its section.
# ---------------------------------------------------------------------------

_CVZ_RHO = 3.0 + math.sqrt(8.0)
_LN_CVZ_RHO = math.log(_CVZ_RHO)
_CVZ_MAX_N = 300
_cvz_cache: dict[int, tuple[float, np.ndarray, np.ndarray, float, float]] = {}

#: one batch kernel call covers about this many terms at most (rows x n).
_BATCH_TERMS = 1 << 16
#: heights whose eta plan is kept. The census meets the points at one height
#: one after another, as it evaluates them in order of height; a memo of 64
#: churned through scan's 401-height columns and raised its peak RSS by 0.5%.
_PLAN_CACHE_SIZE = 8


def _cvz_weights(n: int) -> tuple[float, np.ndarray, np.ndarray, float, float]:
    """Normalizer d, signed weights w_k, the table ln 1..ln n,
    eps * sum_k |w_k| ln k / d and rho^-n for the n-term acceleration of
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
    lm = np.log(np.arange(1.0, n + 1.0))
    _cvz_cache[n] = (d, w, lm, _EPS * float(np.dot(np.abs(w), lm)) / d, _CVZ_RHO ** (-n))
    return _cvz_cache[n]


def _try(f, *args):
    """f(*args), or the ZetaLabError it raises."""
    try:
        return f(*args)
    except ZetaLabError as exc:
        return exc


def _batch(pts: list[complex], plans: list, kernel, finish) -> list:
    """Run kernel(column, n) once per block of points that share n, where
    plans[i] is a tuple (n, ...) for pts[i] or its error, and finish each
    row as finish(s, *plans[i], *row)."""
    out = list(plans)
    groups: dict[int, list[int]] = {}
    for i, plan in enumerate(plans):
        if not isinstance(plan, ZetaLabError):
            groups.setdefault(plan[0], []).append(i)
    for n, members in groups.items():
        size = max(1, _BATCH_TERMS // n)
        for lo in range(0, len(members), size):
            block = members[lo : lo + size]
            column = np.array([pts[i] for i in block])[:, None]
            for i, *row in zip(block, *kernel(column, n)):
                out[i] = finish(pts[i], *plans[i], *row)
    return out


def _eta_plan(s: complex) -> tuple[int, float]:
    """Term count n for eta(s) and the committed truncation bound at n;
    DomainError where the bound's factor 8(1 + 2t) e^(pi t / 2) leaves the
    floating range (|Im s| above about 446.2)."""
    if not cmath.isfinite(s):
        raise DomainError(f"eta requires a finite argument, got {s}")
    if s.real <= 0.0:
        raise DomainError(f"eta requires Re(s) > 0, got {s}")
    return _eta_height_plan(abs(s.imag))


@functools.lru_cache(maxsize=_PLAN_CACHE_SIZE)
def _eta_height_plan(t: float) -> tuple[int, float]:
    """_eta_plan at height t = |Im s|, on which alone it depends; memoised,
    since a winding square's waypoints share a few dozen heights."""
    scale = 8.0 * (1.0 + 2.0 * t)
    half_pi_t = _HALF_PI * t
    n = math.ceil((math.log(scale) + half_pi_t - _LN_HALF_TARGET) / _LN_CVZ_RHO) + 2
    n = min(max(n, 8), _CVZ_MAX_N)
    try:
        bound = scale * math.exp(half_pi_t) * _cvz_weights(n)[4]
    except OverflowError:
        bound = math.inf
    if not math.isfinite(bound):
        raise DomainError(f"eta series bound overflows at height |Im s| = {t}")
    return n, bound


def _eta_kernel(s, n: int) -> tuple:
    """The weighted sums of k^-a cos(b ln k) and of k^-a sin(b ln k),
    k = 1..n, s = a + ib: floats for a scalar s, lists for a column, whose
    points share one cos/sin row per distinct b."""
    _, w, lm, _, _ = _cvz_weights(n)
    amp = np.exp(-s.real * lm)
    index = slice(None)
    if isinstance(s, complex):
        phase = s.imag * lm
    else:
        rows: dict[float, int] = {}
        index = [rows.setdefault(b, len(rows)) for b in s.imag.ravel().tolist()]
        phase = np.array(list(rows))[:, None] * lm
        if len(rows) == len(index):
            index = slice(None)
    # in place where possible, so that few rows are live at once; x * amp
    # rounds as amp * x does
    cos = np.cos(phase)[index]
    cos *= amp
    sin = np.sin(phase, out=phase)[index]
    sin *= amp
    return np.vecdot(cos, w).tolist(), np.vecdot(sin, w).tolist()


def _eta_value(s: complex, n: int, bound: float, cos_sum: float, sin_sum: float) -> tuple[complex, float]:
    """eta(s) and its committed bound from the kernel's sums."""
    d, _, _, phase_weight, _ = _cvz_weights(n)
    value = complex(cos_sum / d, -sin_sum / d)
    # rounding, plus the phase error eps |b| ln k of each cos/sin(b ln k)
    err = bound + 5e-14 * (1.0 + abs(value)) + abs(s.imag) * phase_weight
    return value, err


def _eta_result(s: complex, *plan_and_sums) -> EvalResult:
    return EvalResult(*_eta_value(s, *plan_and_sums), "accelerated-eta")


def eta(s: complex) -> EvalResult:
    """Dirichlet eta via accelerated alternating summation.

    Terms are evaluated in the decomposed form
    (-1)^(n+1) * [cos(b ln n) - i sin(b ln n)] / n^a, so conjugate symmetry
    of the result is bit-exact.

    Args:
        s: finite point with Re(s) > 0.

    Raises:
        DomainError: if Re(s) <= 0 or s is not finite.
    """
    s = complex(s)
    n, bound = _eta_plan(s)
    return _eta_result(s, n, bound, *_eta_kernel(s, n))


def eta_many(points) -> list[EvalResult | ZetaLabError]:
    """eta at each point, batched over the points that share a term count.

    Returns one entry per point, in order: the EvalResult eta(s) returns
    (the same value, bound and method), or the ZetaLabError it raises.
    """
    pts = [complex(p) for p in points]
    return _batch(pts, [_try(_eta_plan, s) for s in pts], _eta_kernel, _eta_result)


def _eta_pairs(points) -> list[tuple[complex, float] | ZetaLabError]:
    """eta_many's (value, bound) pairs, or errors."""
    pts = [complex(p) for p in points]
    return _batch(pts, [_try(_eta_plan, s) for s in pts], _eta_kernel, _eta_value)


# ---------------------------------------------------------------------------
# Direct series with Euler-Maclaurin tail, Re(s) > 1.5.
#
# The plan and the tail are written once: a scalar zeta runs them on complex
# numbers, a batch on _Pairs, which must round as CPython does. On x86-64
# (AVX-512, numpy 2.4, glibc) a 200k-point sweep found these numpy operations
# equal to CPython/libm: real + - * /, np.sqrt, np.cos, np.sin, np.hypot (as
# abs(complex), not math.hypot) and complex np.exp (as cmath.exp). These are
# not, so the batch path does not use them: float np.exp (9,256 of 200k
# differ), np.log (78), np.power (999 of 20k), and complex *, / and np.abs.
# _Pairs writes out products and Smith quotients as CPython 3.11 does; the
# float logs and powers stay in Python, once per distinct n or per point.
# ---------------------------------------------------------------------------


class _Pairs:
    """Complex numbers held as float64 arrays of real and imaginary parts,
    whose +, -, *, / and abs() round as CPython 3.11's complex arithmetic
    does; a real operand y counts as y + 0.0i, as in CPython."""

    __slots__ = ("real", "imag")

    def __init__(self, real, imag):
        self.real, self.imag = real, imag

    def __add__(self, y):
        return _Pairs(self.real + y.real, self.imag + y.imag)

    def __sub__(self, y):
        return _Pairs(self.real - y.real, self.imag - y.imag)

    def __neg__(self):
        return _Pairs(-self.real, -self.imag)

    def __mul__(self, y):  # IEEE * and + commute, so y * self rounds the same
        return _Pairs(self.real * y.real - self.imag * y.imag, self.real * y.imag + self.imag * y.real)

    __rmul__ = __mul__

    def __truediv__(self, y):
        # Smith: divide through by y's larger part, den; branch per element
        big = abs(y.real) >= abs(y.imag)
        num, den = np.where(big, y.imag, y.real), np.where(big, y.real, y.imag)
        ratio = num / den
        denom = den + num * ratio
        p, q = np.where(big, self.real, self.imag), np.where(big, self.imag, self.real)
        return _Pairs((p + q * ratio) / denom, np.where(big, q - p * ratio, p * ratio - q) / denom)

    def __abs__(self):
        return np.hypot(self.real, self.imag)

    def complex(self) -> np.ndarray:
        z = np.empty(np.shape(self.real), complex)
        z.real, z.imag = self.real, self.imag
        return z


def _exp(z):
    """exp(z) as cmath.exp rounds it, for a complex z or _Pairs."""
    if isinstance(z, complex):
        return cmath.exp(z)
    e = np.exp(z.complex())
    return _Pairs(e.real, e.imag)


def _pow_each(x, y):
    """x ** y in Python's float pow, point by point for arrays."""
    if isinstance(x, np.ndarray):
        return np.array([u**v for u, v in zip(x.tolist(), y.tolist())])
    return x**y


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


def _em_plan(s):
    """Head length n for zeta(s), as a float, and the remainder bound at n.
    The bound stays below 1e-20, far under the target, for every Re s > 1.5
    (tested), so n is never doubled."""
    sigma = s.real
    poch_abs = math.prod([abs(s + i) for i in range(2 * _EM_ORDER + 1)])
    n = 0.75 * abs(s.imag) // 1.0 + 8.0
    n = np.maximum(n, 16.0) if isinstance(n, np.ndarray) else max(n, 16.0)
    p = poch_abs * _pow_each(n, -sigma - 2 * _EM_ORDER - 1)
    return n, abs(_EM_COEF[_EM_ORDER]) * p * (abs(s) + 2 * _EM_ORDER + 1) / (sigma + 2 * _EM_ORDER + 1)


def _em_n_terms(n):
    """math.log(n), math.log2(n + 1) and n ** (2 - 2j) for j = 1..12, taken
    once per distinct n: floats, or one array each for an array n."""
    if isinstance(n, np.ndarray):
        rows: dict[float, int] = {}
        index = [rows.setdefault(m, len(rows)) for m in n.tolist()]
        return np.array([_em_n_row(m) for m in rows])[index].T
    return _em_n_row(n)


@functools.lru_cache(maxsize=64)
def _em_n_row(n: float) -> tuple[float, ...]:
    return math.log(n), math.log2(n + 1), *[n ** (2 - 2 * j) for j in range(1, _EM_ORDER + 1)]


def _em_kernel(s, n: int) -> tuple[np.ndarray]:
    """The head sum_{m<n} m^-s, as the 1-tuple of rows that _batch unpacks."""
    return (np.sum(np.exp(-s * np.log(np.arange(1.0, n))), axis=-1),)


def _em_value(s, n, bound, head) -> tuple:
    """zeta(s) from the head sum at n, and its committed bound."""
    log_n, log2_n1, *n_pows = _em_n_terms(n)
    npow = _exp(-s * log_n)
    value = head + npow * n / (s - 1.0) + 0.5 * npow
    poch = s
    scale = npow / n
    for j, (coef, n_pow) in enumerate(zip(_EM_COEF, n_pows), 1):
        value += coef * poch * scale * n_pow
        poch *= (s + 2 * j - 1) * (s + 2 * j)
    return value, bound + 4e-15 * (1.0 + abs(value)) * log2_n1


# ---------------------------------------------------------------------------
# Strip route, reflection and dispatch.
# ---------------------------------------------------------------------------


def _nearest_factor_zero(s: complex) -> tuple[int, float]:
    """Index k and distance to the nearest zero of (1 - 2^(1-s))."""
    k = round(s.imag / FACTOR_ZERO_SPACING)
    return k, abs(s - complex(1.0, k * FACTOR_ZERO_SPACING))


def _route(s: complex) -> str:
    """zeta's dispatch region: 'em', 'strip', 'average' (next to a factor
    zero), 'origin' or 'reflect'; raises where zeta has no value."""
    if not cmath.isfinite(s):
        raise DomainError(f"zeta requires a finite argument, got {s}")
    if abs(s - 1.0) < 1e-12:
        raise PoleAtOne(f"zeta pole at s = 1 (got {s})")
    sigma = s.real
    if sigma > 1.5:
        return "em"
    if sigma > 0.0:
        k, dist = _nearest_factor_zero(s)
        if k != 0:
            if dist < FACTOR_ZERO_RAISE:
                raise EtaFactorZero(f"{s} within {dist:.2e} of eta-factor zero k={k}")
            if dist < FACTOR_ZERO_AVERAGE:
                return "average"
        return "strip"
    return "origin" if abs(s) < 1e-12 else "reflect"


def _strip_value(s: complex, eta_value: complex, eta_err: float) -> tuple[complex, float]:
    """zeta(s) = eta(s) / (1 - 2^(1-s)) and its bound, from eta's."""
    factor = 1.0 - cmath.exp((1.0 - s) * LN2)
    value = eta_value / factor
    err = (eta_err + 4.0 * _EPS * abs(eta_value)) / abs(factor) + 4.0 * _EPS * abs(value)
    return value, err


def _strip_batch_value(s: complex, *plan_and_sums) -> tuple[complex, float]:
    return _strip_value(s, *_eta_value(s, *plan_and_sums))


def _zeta_strip_quotient(s: complex) -> EvalResult:
    e = eta(s)
    return EvalResult(*_strip_value(s, e.value, e.abs_err_est), "accelerated-eta")


def _zeta_average(s: complex) -> tuple[complex, float]:
    # 4-point mean at radius 1e-6: the probes stay clear of the factor zero
    # while the analytic average matches zeta(s) to O(radius^4).
    probes = [_zeta_strip_quotient(s + FACTOR_ZERO_RADIUS * off) for off in (1.0, 1.0j, -1.0, -1.0j)]
    value = sum(p.value for p in probes) / 4.0
    err = max(p.abs_err_est for p in probes) + FACTOR_ZERO_RADIUS**4
    return value, err


#: zeta(0) = -1/2 and its bound; zeta varies by ~0.92*|s| nearby.
_ZETA_AT_ORIGIN = (complex(-0.5, 0.0), 1e-12)

#: zeta's method tag on each dispatch route.
_ROUTE_METHODS = {
    "em": "direct-series",
    "strip": "accelerated-eta",
    "average": "accelerated-eta",
    "origin": "functional-equation",
    "reflect": "functional-equation",
}


def zeta(s: complex) -> EvalResult:
    """Riemann zeta with region dispatch; the method tag records the route.

    Args:
        s: any finite complex number except s = 1 (simple pole).

    Raises:
        PoleAtOne: within 1e-12 of s = 1.
        EtaFactorZero: within 1e-9 of 1 + 2*pi*k*i/ln 2, k != 0, where the
            eta quotient degenerates.
        DomainError: s is not finite.
    """
    s = complex(s)
    route = _route(s)
    if route == "em":
        n, bound = _em_plan(s)
        return EvalResult(*_em_value(s, n, bound, complex(*_em_kernel(s, n))), "direct-series")
    if route == "strip":
        return _zeta_strip_quotient(s)
    if route == "average":
        return EvalResult(*_zeta_average(s), "accelerated-eta")
    if route == "origin":
        return EvalResult(*_ZETA_AT_ORIGIN, "functional-equation")
    return zeta_reflect(s)


def zeta_many(points) -> list[EvalResult | ZetaLabError]:
    """zeta at each point, batched by route and term count.

    Returns one entry per point, in order: the EvalResult zeta(s) returns
    (the same value, bound and method), or the ZetaLabError it raises.
    """
    pts = [complex(p) for p in points]
    routes = [_try(_route, s) for s in pts]
    out = _zeta_values(pts, routes)
    for i, route in enumerate(routes):
        if not isinstance(out[i], ZetaLabError):
            out[i] = EvalResult(*out[i], _ROUTE_METHODS[route])
    return out


def _zeta_pairs(points) -> list[tuple[complex, float] | ZetaLabError]:
    """zeta_many's (value, bound) pairs, or errors."""
    pts = [complex(p) for p in points]
    return _zeta_values(pts, [_try(_route, s) for s in pts])


def _zeta_values(pts: list[complex], routes: list) -> list[tuple[complex, float] | ZetaLabError]:
    """zeta_many's (value, bound) pairs, or errors, on the given routes."""
    out = list(routes)
    em, strip, reflect = ([i for i, r in enumerate(routes) if r == name] for name in ("em", "strip", "reflect"))
    for i, r in enumerate(routes):
        if r == "average":
            out[i] = _try(_zeta_average, pts[i])
        elif r == "origin":
            out[i] = _ZETA_AT_ORIGIN
        elif r == "reflect":
            out[i] = _try(_reflect_gammas, pts[i])
    if em:
        em_pts = [pts[i] for i in em]
        z = np.array(em_pts)
        s = _Pairs(z.real, z.imag)
        with np.errstate(all="ignore"):  # inf and nan propagate, as in Python floats
            n, bound = _em_plan(s)
            plans = [(m,) for m in map(int, n.tolist())]
            heads = np.array(_batch(em_pts, plans, _em_kernel, lambda _s, _n, head: head))
            values, errs = _em_value(s, n, bound, _Pairs(heads.real, heads.imag))
        for i, value, err in zip(em, values.complex().tolist(), errs.tolist()):
            out[i] = value, err
    strip_pts = [pts[i] for i in strip]
    strip_plans = [_try(_eta_plan, s) for s in strip_pts]
    for i, r in zip(strip, _batch(strip_pts, strip_plans, _eta_kernel, _strip_batch_value)):
        out[i] = r
    reflect = [i for i in reflect if not isinstance(out[i], ZetaLabError)]
    if reflect:
        inner = [1.0 - pts[i] for i in reflect]
        for i, z1 in zip(reflect, _zeta_values(inner, [_try(_route, s) for s in inner])):
            out[i] = z1 if isinstance(z1, ZetaLabError) else _reflect_value(pts[i], *out[i], *z1)
    return out


def _reflect_gammas(s: complex) -> tuple[EvalResult, complex]:
    """Gamma((1-s)/2) and 1/Gamma(s/2); their errors come before those of
    the inner zeta(1-s)."""
    return gamma((1.0 - s) / 2.0), _rgamma(s / 2.0)


def _reflect_value(
    s: complex, g1: EvalResult, rg: complex, z1_value: complex, z1_err: float
) -> tuple[complex, float]:
    pre = cmath.exp((s - 0.5) * LN_PI)
    value = pre * g1.value * rg * z1_value
    g_rel = g1.abs_err_est / abs(g1.value)
    z_rel = z1_err / max(abs(z1_value), 1e-300)
    err = abs(value) * (g_rel + 6e-13 + z_rel + 8.0 * _EPS)
    if value == 0.0:
        # exact zero from the reciprocal-Gamma factor
        err = abs(pre * g1.value * z1_value) * 1e-15
    return value, err


def zeta_reflect(s: complex) -> EvalResult:
    """Right-hand side of the symmetric functional equation,

        zeta(s) = pi^(s-1/2) * Gamma((1-s)/2) / Gamma(s/2) * zeta(1-s),

    used to continue zeta to Re(s) < 0 and as a residual check elsewhere.
    The denominator Gamma is applied as a reciprocal, so its poles become
    exact zeros of the result. A non-finite s raises DomainError.
    """
    s = complex(s)
    if not cmath.isfinite(s):
        raise DomainError(f"zeta_reflect requires a finite argument, got {s}")
    if abs(s - 1.0) < 1e-12:
        raise PoleAtOne("zeta_reflect undefined at s = 1")
    g1, rg = _reflect_gammas(s)
    z1 = zeta(1.0 - s)
    return EvalResult(*_reflect_value(s, g1, rg, z1.value, z1.abs_err_est), "functional-equation")


# ---------------------------------------------------------------------------
# Reference routes for Re(s) > 1.
# ---------------------------------------------------------------------------


def zeta_floor_integral(s: complex) -> EvalResult:
    """zeta via  s/(s-1) - s * integral_1^inf {x} x^(-s-1) dx,  Re(s) > 1.

    The fractional-part integral is evaluated in closed form on every
    segment [n, n+1]; the tail beyond N is replaced by its mean value
    N^(-s)/(2s) with a rigorous bound on the oscillatory remainder.

    Raises:
        DomainError: when Re(s) <= 1 or s is not finite.
    """
    s = complex(s)
    if not cmath.isfinite(s):
        raise DomainError(f"zeta_floor_integral requires a finite argument, got {s}")
    sigma = s.real
    if sigma <= 1.0:
        raise DomainError(f"zeta_floor_integral requires Re(s) > 1, got {s}")

    def tail_bound(n: float) -> float:
        return n ** (-sigma - 1.0) / 8.0 * (1.0 + abs(s + 1.0) / (sigma + 1.0))

    n_seg = 16
    while tail_bound(n_seg) > 0.5 * _FLOOR_TOL / max(abs(s), 1.0) and n_seg < _FLOOR_MAX_SEGMENTS:
        n_seg *= 2
    n_seg = min(n_seg, _FLOOR_MAX_SEGMENTS)

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
        DomainError: when Re(s) <= 1 or s is not finite.
    """
    s = complex(s)
    if not cmath.isfinite(s):
        raise DomainError(f"euler_product requires a finite argument, got {s}")
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
