"""Evaluation of zeta(s) and eta(s) everywhere via region dispatch.

Dispatch:
    Re(s) > 1.5   direct series with an Euler-Maclaurin tail
    0 < Re(s) <= 1.5   accelerated eta divided by (1 - 2^(1-s)); the direct
                  series within 5e-7 of a zero of that factor (s = 1 too)
    Re(s) <= 0    functional equation, reflected to Re(1-s) >= 1
    |Im(s)| > MAX_HEIGHT   DomainError, from zeta and zeta_reflect alike

The series routes size themselves for one fixed absolute error target,
_TARGET_ABS_ERR = 1e-12. Each function has one evaluation path, a batch:
zeta_many and eta_many hand it lists of points, and zeta, eta and
zeta_reflect one-point lists. Everything here is pure and reentrant.
"""

from __future__ import annotations

import cmath
import functools
import math

import numpy as np

from .errors import DomainError, PoleAtOne, ZetaLabError
from .specfun import EvalResult, _chi

__all__ = [
    "zeta",
    "eta",
    "zeta_many",
    "eta_many",
    "zeta_reflect",
]

_EPS = 2.220446049250313e-16
LN2 = math.log(2.0)
_HALF_PI = 0.5 * math.pi

#: zeros of (1 - 2^(1-s)) sit at 1 + 2*pi*k*i/ln 2; spacing of consecutive ones.
FACTOR_ZERO_SPACING = 2.0 * math.pi / LN2
#: strip points this close to one of them take the direct series, not the quotient.
_FACTOR_ZERO_DISK = 5e-7

#: zeta raises DomainError above this |Im s|, before it allocates anything; the tier-1
#: mpmath sweep holds the direct series (0.75 |Im s| head terms) to its bound up to here.
MAX_HEIGHT = 1e5

#: absolute error the eta and Euler-Maclaurin series are sized for.
_TARGET_ABS_ERR = 1e-12
_LN_HALF_TARGET = math.log(0.5 * _TARGET_ABS_ERR)


# ---------------------------------------------------------------------------
# Accelerated alternating series (binomial/Chebyshev weights).
#
# Every evaluation here is a batch; eta, zeta and zeta_reflect evaluate a
# one-point list. _batch sorts the points by term count n and cuts them into
# blocks whose largest n is at most 9/8 of the smallest, so that padding
# costs little. A kernel computes a block's terms once, at its largest n,
# and reduces each run of one n on the prefix [..., :n]; ln 1..n is a prefix
# of ln 1..n_max. A point's result does not depend on the rest of its block:
# numpy's elementwise operations do not depend on position, and np.vecdot
# and np.sum reduce each row on its own (`rows @ w` is a matrix-vector
# product and rounds differently).
# ---------------------------------------------------------------------------

_CVZ_RHO = 3.0 + math.sqrt(8.0)
_LN_CVZ_RHO = math.log(_CVZ_RHO)
_CVZ_MAX_N = 300

#: one batch kernel call covers about this many terms at most (rows x n).
#: Callers pass whole lists, so this is the only chunking; at 1 << 16 the
#: critline benchmark ran slower (0.131 -> 0.149 s) and peaked 2.8 MB higher.
_BATCH_TERMS = 1 << 12


@functools.cache
def _cvz_weights(n: int) -> tuple[float, np.ndarray, np.ndarray, float, float]:
    """Normalizer d, signed weights w_k, the table ln 1..ln n,
    eps * sum_k |w_k| ln k / d and rho^-n for the n-term acceleration of
    sum_{k>=0} (-1)^k a_k."""
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
    return d, w, lm, _EPS * float(np.dot(np.abs(w), lm)) / d, _CVZ_RHO ** (-n)


def _try(f, *args):
    """f(*args), or the ZetaLabError it raises."""
    try:
        return f(*args)
    except ZetaLabError as exc:
        return exc


def _ok(result):
    """result, or raise it if it is a ZetaLabError."""
    if isinstance(result, ZetaLabError):
        raise result
    return result


def _batch(pts: list[complex], plans: list, kernel, finish) -> list:
    """Run kernel(points, ns) once per block of points with ascending term
    counts ns, where plans[i] is a tuple (n, ...) for pts[i] or its error, and
    finish each row as finish(s, *plans[i], *row). A block's largest n is at
    most 9/8 of its smallest, and rows x largest n at most _BATCH_TERMS."""
    out = list(plans)
    order = sorted((i for i, plan in enumerate(plans) if not isinstance(plan, ZetaLabError)), key=lambda i: plans[i][0])
    ns = [plans[i][0] for i in order]
    lo = 0
    while lo < len(ns):
        hi = lo + 1
        while hi < len(ns) and 8 * ns[hi] <= 9 * ns[lo] and (hi + 1 - lo) * ns[hi] <= _BATCH_TERMS:
            hi += 1
        block = order[lo:hi]
        for i, *row in zip(block, *kernel(np.array([pts[i] for i in block]), ns[lo:hi])):
            out[i] = finish(pts[i], *plans[i], *row)
        lo = hi
    return out


def _per_n(ns: list[int], reduce) -> list:
    """reduce(lo, hi, n) for each run ns[lo:hi] of one n in the ascending ns,
    joined along the last axis, as lists."""
    cuts = [0, *(i for i in range(1, len(ns)) if ns[i] != ns[i - 1]), len(ns)]
    return np.concatenate([reduce(lo, hi, ns[lo]) for lo, hi in zip(cuts, cuts[1:])], axis=-1).tolist()


def _eta_plan(s: complex) -> tuple[int, float]:
    """Term count n for eta(s) and the committed truncation bound at n;
    DomainError where the bound's factor 8(1 + 2t) e^(pi t / 2) leaves the
    floating range (|Im s| above about 446.2)."""
    if not cmath.isfinite(s):
        raise DomainError(f"eta requires a finite argument, got {s}")
    if s.real <= 0.0:
        raise DomainError(f"eta requires Re(s) > 0, got {s}")
    t = abs(s.imag)
    scale = 8.0 * (1.0 + 2.0 * t)
    half_pi_t = _HALF_PI * t
    x = (math.log(scale) + half_pi_t - _LN_HALF_TARGET) / _LN_CVZ_RHO
    n = min(max(math.ceil(min(x, _CVZ_MAX_N)) + 2, 8), _CVZ_MAX_N)  # x is inf near t = 1e308, which ceil refuses
    try:
        bound = scale * math.exp(half_pi_t) * _cvz_weights(n)[4]
    except OverflowError:
        bound = math.inf
    if not math.isfinite(bound):
        raise DomainError(f"eta series bound overflows at height |Im s| = {t}")
    return n, bound


def _eta_kernel(s: np.ndarray, ns: list[int]) -> list[list]:
    """The weighted sums of k^-a cos(b ln k) and of k^-a sin(b ln k),
    k = 1..n, for each point a + ib of s and its n in ns; points at one
    height share one cos/sin row, and points with one real part one k^-a row."""
    lm = _cvz_weights(ns[-1])[2]
    heights, reals = {}, {}
    at_height = [heights.setdefault(b, len(heights)) for b in s.imag.tolist()]
    at_real = [reals.setdefault(a, len(reals)) for a in s.real.tolist()]
    phase = np.array(list(heights))[:, None] * lm
    # the cos and the sin rows in one array, so that one product and one
    # vecdot serve both
    terms = np.empty((2, *phase.shape))
    np.cos(phase, out=terms[0])
    np.sin(phase, out=terms[1])
    if len(heights) < len(s):
        terms = terms[:, at_height]
    powers = np.exp(-np.array(list(reals))[:, None] * lm)
    terms *= powers[at_real] if len(reals) < len(s) else powers
    return _per_n(ns, lambda lo, hi, n: np.vecdot(terms[:, lo:hi, :n], _cvz_weights(n)[1]))


def _eta_value(s: complex, n: int, bound: float, cos_sum: float, sin_sum: float) -> tuple[complex, float]:
    """eta(s) and its committed bound from the kernel's sums."""
    d, _, _, phase_weight, _ = _cvz_weights(n)
    value = complex(cos_sum / d, -sin_sum / d)
    # rounding, plus the phase error eps |b| ln k of each cos/sin(b ln k)
    err = bound + 5e-14 * (1.0 + abs(value)) + abs(s.imag) * phase_weight
    return value, err


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
    return EvalResult(*_ok(*_eta_pairs([s])), "accelerated-eta")


def eta_many(points) -> list[EvalResult | ZetaLabError]:
    """eta at each point, batched over the points that share a term count.

    Returns one entry per point, in order: the EvalResult eta(s) returns
    (the same value, bound and method), or the ZetaLabError it raises.
    """
    return [r if isinstance(r, ZetaLabError) else EvalResult(*r, "accelerated-eta") for r in _eta_pairs(points)]


def _eta_pairs(points, finish=_eta_value) -> list[tuple[complex, float] | ZetaLabError]:
    """eta_many's (value, bound) pairs, or errors; zeta's strip passes _strip_value as finish."""
    pts = [complex(p) for p in points]
    plans = [_try(_eta_plan, s) for s in pts]
    # the kernel takes Re s at most 1e300, where eta is 1 to the last bit, so that -Re s ln k cannot overflow
    return _batch([complex(min(s.real, 1e300), s.imag) for s in pts], plans, _eta_kernel, finish)


# ---------------------------------------------------------------------------
# Direct series with Euler-Maclaurin tail, Re(s) > 1.5 and next to the zeros of
# (1 - 2^(1-s)). The plan and the tail run once per batch, on complex128 arrays.
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
#: 2j and B_2j/(2j)! for the correction terms j = 1..12, as columns.
_EM_TWO_J = 2.0 * np.arange(1.0, _EM_ORDER + 1.0)[:, None]
_EM_TERM_COEF = np.array(_EM_COEF[:_EM_ORDER])[:, None]


def _em_plan(s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Head lengths n for zeta at the points s, as floats, and the remainder
    bounds at n. The bound stays below 1e-20, far under the target, for
    every Re s > 1.5 and next to Re s = 1 (tested), so n is never doubled."""
    n = np.maximum(0.75 * np.abs(s.imag) // 1.0 + 8.0, 16.0)
    poch_abs = np.prod(np.abs(s[:, None] + np.arange(2 * _EM_ORDER + 1.0)), axis=1)
    p = poch_abs * n ** (-s.real - 2 * _EM_ORDER - 1)
    return n, abs(_EM_COEF[_EM_ORDER]) * p * (np.abs(s) + 2 * _EM_ORDER + 1) / (s.real + 2 * _EM_ORDER + 1)


def _em_kernel(s: np.ndarray, ns: list[int]) -> tuple[list]:
    """The head sums sum_{m<n} m^-s for each point of s and its n in ns, as
    the 1-tuple of rows that _batch unpacks."""
    terms = np.exp(-s[:, None] * np.log(np.arange(1.0, ns[-1])))
    return (_per_n(ns, lambda lo, hi, n: np.sum(terms[lo:hi, : n - 1], axis=-1)),)


def _em_value(s: np.ndarray, n: np.ndarray, bound: np.ndarray, head: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """zeta at the points s from their head sums at n, and the committed bounds."""
    ln_n = np.log(n)
    npow = np.exp(-s * ln_n)
    # row j holds the correction term B_2j/(2j)! (s)_(2j-1) n^(1-s-2j), where
    # (s)_(2j-1) = s (s+1) ... (s+2j-2); row 0 the rest of the value
    rows = np.empty((_EM_ORDER + 1, len(s)), dtype=complex)
    rows[0] = head + npow * n / (s - 1.0) + 0.5 * npow
    rows[1] = s
    rows[2:] = (s + _EM_TWO_J[:-1] - 1.0) * (s + _EM_TWO_J[:-1])
    terms = np.cumprod(rows[1:], axis=0, out=rows[1:])
    terms *= _EM_TERM_COEF
    terms *= npow / n
    terms *= n ** (2.0 - _EM_TWO_J)
    # cumsum adds the rows in order, for one point as for many; a sum over
    # axis 0 would add a single column pairwise
    value = np.cumsum(rows, axis=0, out=rows)[-1]
    # twice the phase error eps |Im s| ln m of each head term m^-s: sum_{m<n} m^-sigma ln m
    # is at most the integral of x^-sigma ln x over [1, n], bounded two ways, plus 1/(e sigma)
    sigma = s.real
    integral = np.minimum(
        np.where(sigma > 1.0, 1.0 / (sigma - 1.0) ** 2, np.inf), np.maximum(1.0, n ** (1.0 - sigma)) * ln_n**2 / 2.0
    )
    phase = 2.0 * _EPS * np.abs(s.imag) * (integral + 1.0 / (math.e * sigma))
    return value, bound + 4e-15 * (1.0 + np.abs(value)) * np.log2(n + 1.0) + phase


# ---------------------------------------------------------------------------
# Strip route, reflection and dispatch.
# ---------------------------------------------------------------------------


def _factor_zero_distance(s: complex) -> float:
    """Distance to the nearest zero 1 + 2*pi*k*i/ln 2 of (1 - 2^(1-s))."""
    return abs(s - complex(1.0, round(s.imag / FACTOR_ZERO_SPACING) * FACTOR_ZERO_SPACING))


def _check_entry(s: complex, name: str) -> None:
    """Raise where the function called name has no value at s: s not finite,
    above MAX_HEIGHT, or on the pole s = 1."""
    if not cmath.isfinite(s):
        raise DomainError(f"{name} requires a finite argument, got {s}")
    if abs(s.imag) > MAX_HEIGHT:
        raise DomainError(f"{name} is supported up to height |Im s| = {MAX_HEIGHT:g}, got {s}")
    if abs(s - 1.0) < 1e-12:
        raise PoleAtOne(f"{name} pole at s = 1 (got {s})")


def _route(s: complex) -> str:
    """zeta's dispatch region: 'em', 'strip', 'origin' or 'reflect'; raises
    where zeta has no value."""
    _check_entry(s, "zeta")
    sigma = s.real
    if sigma > 1.5:
        return "em"
    if sigma > 0.0:
        return "em" if _factor_zero_distance(s) < _FACTOR_ZERO_DISK else "strip"
    return "origin" if abs(s) < 1e-12 else "reflect"


def _strip_value(s: complex, *plan_and_sums) -> tuple[complex, float]:
    """zeta(s) = eta(s) / (1 - 2^(1-s)) and its bound, from eta's plan and
    kernel sums."""
    eta_value, eta_err = _eta_value(s, *plan_and_sums)
    factor = 1.0 - cmath.exp((1.0 - s) * LN2)
    value = eta_value / factor
    err = (eta_err + 4.0 * _EPS * abs(eta_value)) / abs(factor)
    # rounding of the quotient, and of 1 - 2^(1-s), which cancels near s = 1 and its other
    # zeros; 2^(1-s) is off by eps (4 + |1-s| ln 2) relative, from exp and from (1-s) ln 2
    err += _EPS * abs(value) * (4.0 + (4.0 + abs(1.0 - s) * LN2) * abs(1.0 - factor) / abs(factor))
    return value, err


#: zeta(0) = -1/2 and its bound; zeta varies by ~0.92*|s| nearby.
_ZETA_AT_ORIGIN = (complex(-0.5, 0.0), 1e-12)

#: zeta's method tag on each dispatch route.
_ROUTE_METHODS = {
    "em": "direct-series",
    "strip": "accelerated-eta",
    "origin": "functional-equation",
    "reflect": "functional-equation",
}


def zeta(s: complex) -> EvalResult:
    """Riemann zeta with region dispatch; the method tag records the route.

    Args:
        s: any finite complex number except s = 1 (simple pole).

    Raises:
        PoleAtOne: within 1e-12 of s = 1.
        DomainError: s is not finite, |Im s| > MAX_HEIGHT, or the evaluation
            leaves the floating range (the Euler-Maclaurin route from |s| of
            about 2e12).
    """
    s = complex(s)
    route = _route(s)
    return EvalResult(*_ok(*_zeta_values([s], [route])), _ROUTE_METHODS[route])


def zeta_many(points) -> list[EvalResult | ZetaLabError]:
    """zeta at each point, batched by route and term count.

    Returns one entry per point, in order: the EvalResult zeta(s) returns
    (the same value, bound and method), or the ZetaLabError it raises.
    """
    pts = [complex(p) for p in points]
    routes = _routes(pts)
    return [
        r if isinstance(r, ZetaLabError) else EvalResult(*r, _ROUTE_METHODS[route])
        for r, route in zip(_zeta_values(pts, routes), routes)
    ]


def _zeta_pairs(points) -> list[tuple[complex, float] | ZetaLabError]:
    """zeta_many's (value, bound) pairs, or errors."""
    pts = [complex(p) for p in points]
    return _zeta_values(pts, _routes(pts))


def _routes(pts: list[complex]) -> list:
    """_route of each point, or the error it raises."""
    return [_try(_route, s) for s in pts]


def _zeta_values(pts: list[complex], routes: list, name: str = "zeta") -> list[tuple[complex, float] | ZetaLabError]:
    """(value, bound) pairs of zeta at pts, or errors, on the given routes;
    an error in place of a route stands for itself. A value or bound that is
    not finite becomes a DomainError that names the function called name."""
    out = list(routes)
    em, strip = ([i for i, r in enumerate(routes) if r == key] for key in ("em", "strip"))
    reflect = []
    for i, r in enumerate(routes):
        if r == "reflect":
            try:  # chi(s) and its bound; their errors come before zeta(1-s)'s
                out[i] = _chi(pts[i])
                reflect.append(i)
            except ZetaLabError as exc:
                out[i] = exc
        elif r == "origin":
            out[i] = _ZETA_AT_ORIGIN
    if em:
        em_pts = [pts[i] for i in em]
        s = np.array(em_pts)
        with np.errstate(all="ignore"):  # inf and nan are caught below
            n, bound = _em_plan(s)
            heads = _batch(em_pts, [(m,) for m in map(int, n.tolist())], _em_kernel, lambda _s, _n, head: head)
            values, errs = _em_value(s, n, bound, np.array(heads))
        for i, value, err in zip(em, values.tolist(), errs.tolist()):
            out[i] = value, err
    for i, r in zip(strip, _eta_pairs([pts[i] for i in strip], _strip_value)):
        out[i] = r
    if reflect:
        inner = [1.0 - pts[i] for i in reflect]
        for i, z1 in zip(reflect, _zeta_values(inner, _routes(inner))):
            out[i] = z1 if isinstance(z1, ZetaLabError) else _reflect_value(*out[i], *z1)
    for i in em + reflect:  # the routes whose arithmetic can overflow
        if not (isinstance(out[i], ZetaLabError) or cmath.isfinite(out[i][0]) and math.isfinite(out[i][1])):
            out[i] = DomainError(f"{name} at s = {pts[i]} leaves the floating range on the {routes[i]} route")
    return out


def _reflect_value(chi: complex, chi_rel: float, z1_value: complex, z1_err: float) -> tuple[complex, float]:
    """zeta(s) = chi(s) zeta(1 - s) and its bound; a value that is not finite
    gets an infinite bound without abs(), which can raise on a NaN."""
    value = chi * z1_value
    if not cmath.isfinite(value):
        return value, math.inf
    z_rel = z1_err / max(abs(z1_value), 1e-300)
    # where 1/Gamma(s/2) is exactly 0, zeta(s) = 0 exactly, and so is err
    return value, abs(value) * (chi_rel + z_rel + 8.0 * _EPS)


def zeta_reflect(s: complex) -> EvalResult:
    """Right-hand side of the symmetric functional equation,

        zeta(s) = pi^(s-1/2) * Gamma((1-s)/2) / Gamma(s/2) * zeta(1-s),

    used to continue zeta to Re(s) < 0 and as a residual check elsewhere.
    The denominator Gamma is applied as a reciprocal, so its poles become
    exact zeros of the result. Within 1e-12 of 0, where zeta(1-s) has its
    pole, it returns zeta(0) = -1/2 as zeta does. It raises where zeta does on
    entry: DomainError for a non-finite s or |Im s| > MAX_HEIGHT, PoleAtOne
    within 1e-12 of 1.
    """
    s = complex(s)
    _check_entry(s, "zeta_reflect")
    route = "origin" if abs(s) < 1e-12 else "reflect"
    return EvalResult(*_ok(*_zeta_values([s], [route], "zeta_reflect")), "functional-equation")
