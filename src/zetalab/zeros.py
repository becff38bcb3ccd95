"""Zero location and counting: argument-principle census over rectangles,
critical-line zeros as sign changes of Hardy's Z(t), the multiplicity functional
w(f, a) = lim Re[eps * f'(a+eps)/f(a+eps)], and the zero-free line scans.
"""

from __future__ import annotations

import cmath
import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import BoundaryTooCloseToZero, DomainError, EvaluationFailure, NonIntegerWinding, PoleAtOne
from .specfun import TWO_PI
from .zeta_eval import _EPS, LN2, MAX_HEIGHT, _eta_pairs, _eta_plan, _ok, _try, _zeta_pairs, zeta

__all__ = [
    "Rect",
    "ZeroRecord",
    "count_zeros_rect",
    "find_critical_zeros",
    "multiplicity",
    "check_line_zeros",
]

logger = logging.getLogger(__name__)

#: boundary clearance demanded from the trivial zeros.
BOUNDARY_CLEARANCE = 1e-6
#: the pole s = 1 counts in the census only this far inside the boundary.
_POLE_CLEARANCE = 1e-4
#: |zeta| below this on the boundary means a zero is unresolvably close.
_BOUNDARY_ZETA_FLOOR = 5e-7

_MAX_SUBDIVISION_DEPTH = 48
#: the census refuses a rectangle whose initial samples would cost more series
#: terms than this, at 0.75 |Im s| + 8 per sample, the direct series' head at
#: the edge's largest height: about half a minute on a 2-core x86_64. The largest
#: census in the tests and the benchmark estimates 1.15e6 terms.
_MAX_CENSUS_TERMS = 1e9
#: width of the coarse cells of the critical-line scan; below eta's height
#: limit the closest zeros lie 0.4364 apart, so no cell holds two of them.
_COARSE_CELL = 0.2


@dataclass(frozen=True)
class Rect:
    """Axis-aligned rectangle in the complex plane for scans and windings."""

    re_min: float
    re_max: float
    im_min: float
    im_max: float

    def __post_init__(self) -> None:
        if not all(map(math.isfinite, (self.re_min, self.re_max, self.im_min, self.im_max))):
            raise ValueError("rectangle bounds must be finite")
        if not (self.re_min < self.re_max and self.im_min < self.im_max):
            raise ValueError("rectangle must satisfy re_min < re_max and im_min < im_max")

    @property
    def corners(self) -> tuple[complex, complex, complex, complex]:
        """Counterclockwise from the lower-left corner."""
        return (
            complex(self.re_min, self.im_min),
            complex(self.re_max, self.im_min),
            complex(self.re_max, self.im_max),
            complex(self.re_min, self.im_max),
        )

    def boundary_distance(self, z: complex) -> float:
        """Distance from z to the rectangle's boundary curve."""
        dx = max(self.re_min - z.real, 0.0, z.real - self.re_max)
        dy = max(self.im_min - z.imag, 0.0, z.imag - self.im_max)
        outside = math.hypot(dx, dy)
        if outside > 0.0:
            return outside
        return min(
            z.real - self.re_min,
            self.re_max - z.real,
            z.imag - self.im_min,
            self.im_max - z.imag,
        )


@dataclass(frozen=True)
class ZeroRecord:
    """A located zero: position, residual magnitude there, order (proven 1
    when winding-confirmed, else estimated), and how it was confirmed."""

    location: complex
    refined_abs_value: float
    multiplicity_estimate: float
    method: str  # 'winding-confirmed' (certified by the finder) | 'minimum-refinement'

    def __post_init__(self) -> None:
        if not self.refined_abs_value < 1e-6:
            raise ValueError(f"refined_abs_value {self.refined_abs_value} not < 1e-6")
        nearest = round(self.multiplicity_estimate)
        if nearest < 0 or abs(self.multiplicity_estimate - nearest) > 0.1:
            raise ValueError(
                f"multiplicity estimate {self.multiplicity_estimate} not near a non-negative integer"
            )
        if self.method not in ("minimum-refinement", "winding-confirmed"):
            raise ValueError(f"unknown method {self.method!r}")


def _above_floor(z: complex, val: complex) -> complex:
    if abs(val) < _BOUNDARY_ZETA_FLOOR:
        raise BoundaryTooCloseToZero(f"|zeta| = {abs(val):.2e} at boundary point {z}; zero too close")
    return val


def _pole_free(z: complex, zeta_at) -> complex:
    """(z - 1) zeta(z), where zeta_at() returns zeta(z) or raises, with
    |zeta(z)| held to the boundary floor; the limit 1 where zeta_at raises
    PoleAtOne."""
    try:
        return (z - 1.0) * _above_floor(z, zeta_at())
    except PoleAtOne:
        return 1.0


def _edges(r: Rect, samples_per_edge: int) -> list[tuple[complex, complex, int, float]]:
    """Each edge counterclockwise as (start, end, samples, largest |Im s|)."""
    corners = r.corners
    edges = []
    for p, q in zip(corners, corners[1:] + corners[:1]):
        # zeta's argument turns by about ln(T / 2 pi) per unit of height T, so
        # samples at most (pi/2) / ln(T / 2 pi) apart cannot wrap past pi
        height = max(abs(p.imag), abs(q.imag))
        n = samples_per_edge
        if height > TWO_PI:
            n = max(n, math.ceil(abs(q - p) * math.log(height / TWO_PI) / (0.5 * math.pi)))
        edges.append((p, q, n, height))
    return edges


def _boundary_waypoints(r: Rect, samples_per_edge: int) -> list[complex]:
    """Closed counterclockwise waypoint loop, evenly spaced on each edge."""
    waypoints = [p + (q - p) * (j / n) for p, q, n, _ in _edges(r, samples_per_edge) for j in range(n)]
    waypoints.append(waypoints[0])
    return waypoints


def count_zeros_rect(r: Rect, samples_per_edge: int = 256) -> int:
    """Zeros minus poles of zeta inside r: the accumulated argument change of
    the entire function (s - 1) zeta(s) along the discretized boundary,
    divided by 2*pi, counts the zeros, and the pole s = 1 is subtracted when
    it lies inside r at least 1e-4 from the boundary. A pole nearer the
    boundary, or on it, is not counted.

    Each edge takes at least samples_per_edge samples, and more at height:
    adjacent samples lie at most (pi/2) / ln(T / 2 pi) apart, T the edge's
    largest |Im s|, since zeta's argument turns about ln(T / 2 pi) per unit
    of height there. The samples are evaluated in boundary order, and then
    every segment whose argument increment exceeds pi/2 is halved, round by
    round, each round's midpoints in one batch. The floor on |zeta| applies
    to zeta itself, and within 1e-12 of s = 1 the product takes its limit 1.

    Args:
        r: the rectangle; its boundary must clear every zero by 1e-6.
        samples_per_edge: the least number of samples on each edge, >= 64.

    Raises:
        BoundaryTooCloseToZero: boundary within clearance of a zero, or the
            winding cannot be resolved within the refinement budget.
        DomainError: r reaches above MAX_HEIGHT, meets -0.5 <= Re s <= 1.5
            above eta's height limit (about 446.2), or its initial samples
            would take more than _MAX_CENSUS_TERMS series terms, checked
            before any evaluation.
        NonIntegerWinding: accumulated winding farther than 0.1 from an
            integer.
    """
    if samples_per_edge < 64:
        raise ValueError("samples_per_edge must be >= 64")

    # trivial zeros sit on the real axis at -2, -4, ...; one lies within the
    # clearance only next to a vertical edge, or anywhere along a horizontal
    # edge at Im s = 0, where the rightmost one in range is met first
    nearest_edges = {-2 * round(x / 2.0) for x in (r.re_min, r.re_max)}
    for k in sorted(nearest_edges | {max(2, 2 * math.ceil(-r.re_max / 2.0))}):
        if k >= 2 and -k >= r.re_min - 1.0 and r.boundary_distance(complex(-k, 0.0)) < BOUNDARY_CLEARANCE:
            raise BoundaryTooCloseToZero(f"boundary within {BOUNDARY_CLEARANCE} of trivial zero {-k}")

    # zeta's height limit, and eta's on -0.5 <= Re s <= 1.5 (left of 0 for zeta(1 - s)), come first
    height = max(abs(r.im_min), abs(r.im_max))
    if height > MAX_HEIGHT:
        raise DomainError(f"count_zeros_rect is supported up to height |Im s| = {MAX_HEIGHT:g}, got {height}")
    if r.re_min <= 1.5 and r.re_max >= -0.5:
        _eta_plan(complex(0.5, height))
    terms = sum(n * (0.75 * edge_height + 8.0) for _, _, n, edge_height in _edges(r, samples_per_edge))
    if terms > _MAX_CENSUS_TERMS:
        raise DomainError(
            f"count_zeros_rect would take an estimated {terms:.3g} series terms, over its cap {_MAX_CENSUS_TERMS:g}"
        )
    waypoints = _boundary_waypoints(r, samples_per_edge)
    # the loop closes on waypoints[0], whose value is already known
    values = [_pole_free(z, lambda: _ok(pair)[0]) for z, pair in zip(waypoints, _zeta_pairs(waypoints[:-1]))]
    values.append(values[0])

    segments = list(zip(waypoints, waypoints[1:], values, values[1:]))
    total = 0.0
    budget = 400_000
    for depth in range(_MAX_SUBDIVISION_DEPTH + 1):
        incs = [cmath.phase(f2 / f1) for _, _, f1, f2 in segments]
        total += sum(inc for inc in incs if abs(inc) <= 0.5 * math.pi)
        if not (wide := [seg for seg, inc in zip(segments, incs) if abs(inc) > 0.5 * math.pi]):
            break
        if depth == _MAX_SUBDIVISION_DEPTH:
            raise BoundaryTooCloseToZero(f"cannot resolve argument change near {wide[0][0]}; suspected singularity")
        budget -= len(wide)
        if budget <= 0:
            raise BoundaryTooCloseToZero("winding refinement budget exhausted")
        zms = [0.5 * (z1 + z2) for z1, z2, _, _ in wide]
        fms = [_pole_free(zm, lambda: _ok(pair)[0]) for zm, pair in zip(zms, _zeta_pairs(zms))]
        segments = [s for (z1, z2, f1, f2), zm, fm in zip(wide, zms, fms) for s in ((z1, zm, f1, fm), (zm, z2, fm, f2))]

    winding = total / (2.0 * math.pi)
    nearest = round(winding)
    if abs(winding - nearest) > 0.1:
        raise NonIntegerWinding(f"winding {winding:.4f} is not within 0.1 of an integer")
    pole_inside = min(1.0 - r.re_min, r.re_max - 1.0, -r.im_min, r.im_max) >= _POLE_CLEARANCE
    return int(nearest) - pole_inside


def _theta(t: float) -> tuple[float, float]:
    """Riemann-Siegel theta(t) by its Stirling series, and from t = 10 a bound
    on its error: twice the first omitted term 31/(80640 t^5) (Gabcke 1979),
    plus 4 eps (1 + t + |theta|) for rounding. The series is off by more than
    pi/2 below t = 0.2 and diverges as t -> 0, so t is floored at 1e-3; the
    finder's |eta| gate rejects the spurious sign changes down there."""
    u = max(t, 1e-3)
    theta = 0.5 * u * math.log(u / TWO_PI) - 0.5 * u - math.pi / 8.0 + 1.0 / (48.0 * u) + 7.0 / (5760.0 * u**3)
    return theta, 31.0 / (40320.0 * u**5) + 4.0 * _EPS * (1.0 + u + abs(theta))


def _hardy_z(t: float, eta_value: complex, eta_err: float) -> tuple[float, float]:
    """Hardy's Z(t) = Re(e^{i theta(t)} zeta(1/2 + it)) from eta(1/2 + it),
    and its bound: eta's over |1 - 2^(1/2 - it)|, plus |zeta| times the phase
    errors of theta and of 2^(-it); inf below t = 10."""
    theta, theta_err = _theta(t)
    factor = 1.0 - cmath.exp(complex(0.5, -t) * LN2)
    z = (cmath.exp(1j * theta) * eta_value / factor).real
    if t < 10.0:
        return z, math.inf
    return z, (eta_err + abs(eta_value) * (theta_err + 4.0 * _EPS * t)) / abs(factor)


def _z_signs(ts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Whether Z(t) < 0, and whether |Z(t)| exceeds its bound, at each t of ts."""
    etas = _eta_pairs([complex(0.5, t) for t in ts])
    z, bound = np.fromiter((_hardy_z(t, *_ok(pair)) for t, pair in zip(map(float, ts), etas)), (float, 2), len(ts)).T
    return z < 0.0, np.abs(z) > bound


def find_critical_zeros(t_min: float, t_max: float, step: float) -> list[ZeroRecord]:
    """Find the sign changes of Hardy's Z on a grid, bisect each to a 1e-10
    bracket, keep those where |eta| < 1e-8, and certify them together by one
    winding census of the window.

    The scan runs coarse to fine. Z is evaluated at every m-th grid point,
    m = max(1, int(0.2 / step)), and at the last one. Each coarse cell whose
    ends differ in sign is then halved on the grid, all cells at once, until
    its ends are adjacent grid points: about log2(m) evaluations of Z per
    cell, not m - 1. Below eta's height limit the closest zeros lie 0.4364
    apart, at t = 415.019 and 415.455 (mpmath zetazero, the first 236
    zeros), so no cell holds two of them, and each bracket, with Z's signs
    and bounds at its ends, is the one a scan of the full grid finds. The two
    differ only where the computed sign of Z flickers at a grid point, which
    takes |Z| within its bound there: the full grid would open spurious
    brackets around such a point, and the halving keeps one of them.

    A sign change with |Z| above Z's bound at both grid ends proves a zero on
    the line. If all are proven and count_zeros_rect(Rect(0, 1, t_min, t_max))
    counts as many, every zero of the window is on the line and simple (Brent
    1979): the records are 'winding-confirmed', of multiplicity 1. Otherwise
    (the census raises, or two zeros share a cell) a warning is logged, and
    the records are 'minimum-refinement', with multiplicity() of zeta.

    Args:
        t_min, t_max: scan window, 0 < t_min < t_max.
        step: grid spacing, <= 0.05.

    Returns:
        ZeroRecords in increasing t; empty when the window holds no zero.

    Raises:
        DomainError: the grid reaches above eta's height limit (about 446.2).
    """
    if not (0.0 < t_min < t_max):
        raise ValueError("need 0 < t_min < t_max")
    if not (0.0 < step <= 0.05):
        raise ValueError("step must be in (0, 0.05]")

    # the grid runs from t_min to its first point at or past t_max; eta's
    # height limit is checked at that point before the grid exists
    n_steps = float(np.ceil((t_max - t_min) / step))
    _eta_plan(complex(0.5, t_min + n_steps * step))
    # the census runs first, so that its waypoints and the scan's arrays never coexist
    census = _try(count_zeros_rect, Rect(0.0, 1.0, t_min, t_max))
    ts = t_min + step * np.arange(n_steps + 1.0)
    # Z's sign at every m-th grid point and the last one; a grid value of
    # exactly 0 counts as positive. Each coarse cell whose ends differ in sign
    # is halved on the grid indices, all at once, until its ends are adjacent
    coarse = np.array([*range(0, len(ts) - 1, max(1, int(_COARSE_CELL / step))), len(ts) - 1])
    clear = np.zeros(len(ts), dtype=bool)
    negative, clear[coarse] = _z_signs(ts[coarse])
    cells = np.flatnonzero(negative[1:] != negative[:-1])
    lo, hi, left_negative = coarse[cells], coarse[cells + 1], negative[cells]
    while (open_ := hi - lo > 1).any():
        mid = (lo[open_] + hi[open_]) // 2
        mid_negative, clear[mid] = _z_signs(ts[mid])
        to_left = mid_negative == left_negative[open_]
        lo[open_] = np.where(to_left, mid, lo[open_])
        hi[open_] = np.where(to_left, hi[open_], mid)

    # every bracket is halved at once, until it is 1e-10 wide
    proven = (clear[lo] & clear[hi]).tolist()
    a, b = ts[lo], ts[hi]
    while (open_ := b - a > 1e-10).any():
        m = 0.5 * (a[open_] + b[open_])
        to_left = _z_signs(m)[0] == left_negative[open_]
        a[open_] = np.where(to_left, m, a[open_])
        b[open_] = np.where(to_left, b[open_], m)
    t_stars = (0.5 * (a + b)).tolist()
    g_stars = [abs(_ok(pair)[0]) for pair in _eta_pairs([complex(0.5, t) for t in t_stars])]
    # |eta| >= 1e-8: the series error of theta flipped the sign, not a zero;
    # t > t_max: the last grid point lies past t_max
    kept = [(complex(0.5, t), g, p) for t, g, p in zip(t_stars, g_stars, proven) if g < 1e-8 and t <= t_max]
    n_proven = sum(p for *_, p in kept)
    if n_proven == len(kept) == census:
        return [ZeroRecord(z, g, 1.0, "winding-confirmed") for z, g, _ in kept]
    logger.warning("window [%g, %g] unconfirmed: %d of %d proven, census %s", t_min, t_max, n_proven, len(kept), census)
    return [ZeroRecord(z, g, multiplicity(lambda s: zeta(s).value, z, 1e-4), "minimum-refinement") for z, g, _ in kept]


def multiplicity(f, a: complex, eps: float) -> float:
    """Zero order of f at a (negative at a pole), from the functional

        w(f, a) = lim_{eps->0} Re[eps * f'(a + eps) / f(a + eps)].

    f' uses central differences at steps eps/10 and eps/20, Richardson
    combined (the step bias is O((h/eps)^2) at a pole, so a single step
    would bias the pole order by ~1%); the eps limit is then Richardson
    extrapolated across eps and eps/2. Level disagreement above 0.05 is
    logged as low confidence.

    Args:
        f: complex evaluator, callable on the probe circle.
        a: the point under test.
        eps: probe distance, in [1e-6, 1e-3].

    Raises:
        EvaluationFailure: f failed on a probe point.
    """
    a = complex(a)
    if not 1e-6 <= eps <= 1e-3:
        raise ValueError("eps must lie in [1e-6, 1e-3]")

    w = []
    for e in (eps, 0.5 * eps):
        z = a + e
        h = e / 10.0
        try:
            f0, f_plus, f_minus, f_plus2, f_minus2 = map(f, (z, z + h, z - h, z + 0.5 * h, z - 0.5 * h))
        except Exception as exc:  # noqa: BLE001 - contract: wrap evaluator faults
            raise EvaluationFailure(f"evaluator failed near {z}: {exc}") from exc
        d_h = (f_plus - f_minus) / (2.0 * h)
        d_h2 = (f_plus2 - f_minus2) / h
        deriv = (4.0 * d_h2 - d_h) / 3.0
        w.append((e * deriv / f0).real)
    w1, w2 = w
    if abs(w1 - w2) > 0.05:
        logger.warning("multiplicity levels disagree by %.3f at %s; low confidence", abs(w1 - w2), a)
    return 2.0 * w2 - w1


def check_line_zeros(line_re: float, t_max: float) -> tuple[float, int, str]:
    """Measure how far min |zeta| along Re(s) = 0 or Re(s) = 1 falls below
    the 1e-3 floor (excluding 1e-3 neighborhoods of s = 0 and s = 1); on
    the zero line also measure |zeta(0) + 1/2|.

    Args:
        line_re: 0 or 1.
        t_max: scan height, <= 50.

    Returns:
        (worst_residual, n_samples, details); the residual is 0 when the
        line stays above the floor and zeta(0) = -1/2 holds exactly.
    """
    if line_re not in (0, 1):
        raise ValueError("line_re must be 0 or 1")
    if t_max > 50.0:
        raise ValueError("t_max must be <= 50")

    ts = np.arange(0.002, t_max, 0.05)
    mags = np.array([abs(_ok(pair)[0]) for pair in _zeta_pairs([complex(line_re, t) for t in ts])])
    min_idx = int(np.argmin(mags))
    observed_min = float(mags[min_idx])
    residual = max(0.0, 1e-3 - observed_min)
    details = f"min |zeta({int(line_re)}+it)| = {observed_min:.6g} at t = {ts[min_idx]:.4f}"
    n = len(ts)
    if line_re == 0:
        at_zero = abs(zeta(0.0).value - (-0.5))
        residual = max(residual, at_zero)
        details += f"; |zeta(0) + 1/2| = {at_zero:.3g}"
        n += 1
    return residual, n, details
