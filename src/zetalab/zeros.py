"""Zero location and counting: argument-principle census over rectangles,
critical-line zeros as sign changes of Hardy's Z(t), the multiplicity functional
w(f, a) = lim Re[eps * f'(a+eps)/f(a+eps)], and the zero-free line scans.
"""

from __future__ import annotations

import cmath
import logging
import math
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .errors import (
    BoundaryTooCloseToZero,
    EvaluationFailure,
    NonIntegerWinding,
    ZetaLabError,
)
from .specfun import TWO_PI
from .zeta_eval import LN2, _eta_pairs, _eta_plan, _zeta_pairs, eta, zeta

__all__ = [
    "Rect",
    "ZeroRecord",
    "count_zeros_rect",
    "find_critical_zeros",
    "multiplicity",
    "check_line_zeros",
]

logger = logging.getLogger(__name__)

#: boundary clearance demanded from known zeros (and the pole when not indented).
BOUNDARY_CLEARANCE = 1e-6
#: indent the contour around the pole s=1 when it sits this close to the boundary.
_INDENT_TRIGGER = 1e-4
#: radius of the indentation arc.
_INDENT_RADIUS = 1e-2
#: |zeta| below this on the boundary means a zero is unresolvably close.
_BOUNDARY_ZETA_FLOOR = 5e-7

_MAX_SUBDIVISION_DEPTH = 48
#: width of the coarse cells of the critical-line scan; below eta's height
#: limit the closest zeros lie 0.4364 apart, so no cell holds two of them.
_COARSE_CELL = 0.2
#: points per batch call. 32 ran critline's winding squares about 12% faster
#: but added about 0.2 MB (0.6%) to its peak RSS; 64 added 0.3 MB more.
_BLOCK = 16


@dataclass(frozen=True)
class Rect:
    """Axis-aligned rectangle in the complex plane for scans and windings."""

    re_min: float
    re_max: float
    im_min: float
    im_max: float

    def __post_init__(self) -> None:
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
    """A located zero: position, residual magnitude there, estimated order,
    and how it was confirmed."""

    location: complex
    refined_abs_value: float
    multiplicity_estimate: float
    method: str  # 'minimum-refinement' | 'winding-confirmed'

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


def _clip_segment_outside_circle(
    p: complex, q: complex, center: complex, radius: float
) -> list[tuple[complex, complex]]:
    """Sub-segments of [p, q] lying outside the disk, in walk order."""
    d = q - p
    a = abs(d) ** 2
    if a == 0.0:
        return [(p, q)] if abs(p - center) >= radius else []
    b = 2.0 * ((p - center).real * d.real + (p - center).imag * d.imag)
    c = abs(p - center) ** 2 - radius * radius
    disc = b * b - 4.0 * a * c
    if disc <= 0.0:
        return [(p, q)]  # no crossing; tangency keeps the whole segment
    sq = math.sqrt(disc)
    t1 = (-b - sq) / (2.0 * a)
    t2 = (-b + sq) / (2.0 * a)
    t1c = min(max(t1, 0.0), 1.0)
    t2c = min(max(t2, 0.0), 1.0)
    pieces = []
    if t1c > 0.0:
        pieces.append((p, p + t1c * d))
    if t2c < 1.0:
        pieces.append((p + t2c * d, q))
    return pieces


def _value(pair) -> complex:
    """The value of an evaluator's (value, bound) pair; raises it if it is
    an error instead."""
    if isinstance(pair, ZetaLabError):
        raise pair
    return pair[0]


def _blocks(pairs, points):
    """pairs(block) for _BLOCK points per call, chained in point order."""
    points = iter(points)
    while block := list(islice(points, _BLOCK)):
        yield from pairs(block)


def _values(pairs, points):
    """Values of pairs(block), _BLOCK points per call, in point order;
    raises the first ZetaLabError where a scalar loop over points would."""
    return map(_value, _blocks(pairs, points))


def _above_floor(z: complex, val: complex) -> complex:
    if abs(val) < _BOUNDARY_ZETA_FLOOR:
        raise BoundaryTooCloseToZero(f"|zeta| = {abs(val):.2e} at boundary point {z}; zero too close")
    return val


def _boundary_waypoints(r: Rect, samples_per_edge: int) -> list[complex]:
    """Closed counterclockwise waypoint loop, with a clockwise indentation
    arc around the pole s = 1 whenever it hugs the boundary."""
    corners = r.corners
    edges = [(corners[i], corners[(i + 1) % 4]) for i in range(4)]
    pole = 1.0 + 0.0j
    indent = r.boundary_distance(pole) < _INDENT_TRIGGER

    pieces: list[tuple[complex, complex, float, int]] = []
    for p, q in edges:
        edge_len = abs(q - p)
        # zeta's argument turns by about ln(T / 2 pi) per unit of height T, so
        # samples at most (pi/2) / ln(T / 2 pi) apart cannot wrap past pi
        height = max(abs(p.imag), abs(q.imag))
        n_edge = samples_per_edge
        if height > TWO_PI:
            n_edge = max(n_edge, math.ceil(edge_len * math.log(height / TWO_PI) / (0.5 * math.pi)))
        subs = (
            _clip_segment_outside_circle(p, q, pole, _INDENT_RADIUS) if indent else [(p, q)]
        )
        pieces.extend((a, b, edge_len, n_edge) for a, b in subs)
    if not pieces:
        raise ValueError("rectangle degenerates to the indentation disk")

    waypoints: list[complex] = []
    n_pieces = len(pieces)
    for i, (p, q, edge_len, n_edge) in enumerate(pieces):
        n_pts = max(2, int(math.ceil(n_edge * abs(q - p) / edge_len)))
        for j in range(n_pts):
            waypoints.append(p + (q - p) * (j / n_pts))
        nxt = pieces[(i + 1) % n_pieces][0]
        if abs(q - nxt) > 1e-12:
            # gap swallowed by the disk: go clockwise around the pole so the
            # excised neighborhood (and the pole) stays outside the contour
            th_q = cmath.phase(q - pole)
            th_n = cmath.phase(nxt - pole)
            sweep = (th_q - th_n) % (2.0 * math.pi)
            n_arc = 64
            waypoints.append(q)
            for j in range(1, n_arc):
                waypoints.append(pole + _INDENT_RADIUS * cmath.exp(1j * (th_q - sweep * j / n_arc)))
    waypoints.append(waypoints[0])
    return waypoints


def count_zeros_rect(r: Rect, samples_per_edge: int = 256) -> int:
    """Zeros minus poles of zeta inside r, by the accumulated argument change
    of zeta along the discretized boundary divided by 2*pi.

    Each edge takes at least samples_per_edge samples, and more at height:
    adjacent samples lie at most (pi/2) / ln(T / 2 pi) apart, T the edge's
    largest |Im s|, since zeta's argument turns about ln(T / 2 pi) per unit
    of height there. Edges are then refined adaptively until consecutive
    argument increments stay below pi/2. If the pole s = 1 lies within 1e-4
    of the boundary the contour is indented around it (radius 1e-2),
    excluding it from the census; a zero that close to the boundary raises
    instead.

    Args:
        r: the rectangle; its boundary must clear every zero by 1e-6.
        samples_per_edge: the least number of samples on each edge, >= 64.

    Raises:
        BoundaryTooCloseToZero: boundary within clearance of a zero, or the
            winding cannot be resolved within the refinement budget.
        NonIntegerWinding: accumulated winding farther than 0.1 from an
            integer.
    """
    if samples_per_edge < 64:
        raise ValueError("samples_per_edge must be >= 64")

    # trivial zeros sit on the real axis at -2, -4, ...
    k = 2
    while -k >= r.re_min - 1.0:
        if r.boundary_distance(complex(-k, 0.0)) < BOUNDARY_CLEARANCE:
            raise BoundaryTooCloseToZero(f"boundary within {BOUNDARY_CLEARANCE} of trivial zero {-k}")
        k += 2

    waypoints = _boundary_waypoints(r, samples_per_edge)

    # evaluated in order of height, so that the two vertical edges, whose
    # heights coincide, share their cos/sin rows; checked in waypoint order.
    # The loop closes on waypoints[0], whose value is already known.
    order = sorted(range(len(waypoints) - 1), key=lambda i: waypoints[i].imag)
    values = [None] * len(order)
    for i, pair in zip(order, _blocks(_zeta_pairs, (waypoints[i] for i in order))):
        values[i] = pair if isinstance(pair, ZetaLabError) else pair[0]
    for z, value in zip(waypoints, values):
        if isinstance(value, ZetaLabError):
            raise value
        _above_floor(z, value)
    values.append(values[0])

    total = 0.0
    budget = [400_000]

    def accumulate(z1, z2, f1, f2, depth) -> float:
        inc = cmath.phase(f2 / f1)
        if abs(inc) <= 0.5 * math.pi:
            return inc
        if depth >= _MAX_SUBDIVISION_DEPTH:
            raise BoundaryTooCloseToZero(
                f"cannot resolve argument change near {z1}; suspected singularity"
            )
        budget[0] -= 1
        if budget[0] <= 0:
            raise BoundaryTooCloseToZero("winding refinement budget exhausted")
        zm = 0.5 * (z1 + z2)
        fm = _above_floor(zm, zeta(zm).value)
        return accumulate(z1, zm, f1, fm, depth + 1) + accumulate(zm, z2, fm, f2, depth + 1)

    for i in range(len(waypoints) - 1):
        total += accumulate(waypoints[i], waypoints[i + 1], values[i], values[i + 1], 0)

    winding = total / (2.0 * math.pi)
    nearest = round(winding)
    if abs(winding - nearest) > 0.1:
        raise NonIntegerWinding(f"winding {winding:.4f} is not within 0.1 of an integer")
    return int(nearest)


def _hardy_z(t: float, eta_value: complex) -> float:
    """Hardy's Z(t) = Re(e^{i theta(t)} zeta(1/2 + it)), zeta taken from
    eta_value = eta(1/2 + it) and theta from its Stirling series.

    The series is off by more than pi/2 below t = 0.2, and diverges as
    t -> 0; theta takes t >= 1e-3 so that it stays finite. No zero lies
    that low, and the |eta| gate of the finder rejects a spurious sign change.
    """
    u = max(t, 1e-3)
    theta = 0.5 * u * math.log(u / TWO_PI) - 0.5 * u - math.pi / 8.0 + 1.0 / (48.0 * u) + 7.0 / (5760.0 * u**3)
    return (cmath.exp(1j * theta) * eta_value / (1.0 - cmath.exp(complex(0.5, -t) * LN2))).real


def _z_negative(ts: np.ndarray) -> np.ndarray:
    """Whether Z(t) < 0, at each t of ts."""
    etas = _values(_eta_pairs, (complex(0.5, t) for t in ts))
    return np.fromiter(map(_hardy_z, map(float, ts), etas), float, len(ts)) < 0.0


def find_critical_zeros(t_min: float, t_max: float, step: float) -> list[ZeroRecord]:
    """Find the sign changes of Hardy's Z on a grid, bisect each to a 1e-10
    bracket, keep those where |eta| < 1e-8, confirm each by a winding count
    on a 0.2 x 0.2 square, and attach a multiplicity estimate.

    The scan runs coarse to fine. Z is evaluated at every m-th grid point,
    m = max(1, int(0.2 / step)), and at the last one; then at the interior
    grid points of each coarse cell whose ends differ in sign. Below eta's
    height limit the closest zeros lie 0.4364 apart, at t = 415.019 and
    415.455 (mpmath zetazero, the first 236 zeros), so no cell holds two of
    them, and the scan finds the sign changes of the full grid.

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
    ts = t_min + step * np.arange(n_steps + 1.0)
    # Z's sign at every m-th grid point and the last one; a coarse cell whose
    # ends share a sign holds no zero, and its interior takes that sign
    last = len(ts) - 1
    coarse = list(range(0, last, max(1, int(_COARSE_CELL / step)))) + [last]
    negative = np.empty(len(ts), dtype=bool)
    negative[coarse] = _z_negative(ts[coarse])
    fine = []
    for a, b in zip(coarse, coarse[1:]):
        if negative[a] == negative[b]:
            negative[a + 1 : b] = negative[a]
        else:
            fine.extend(range(a + 1, b))
    negative[fine] = _z_negative(ts[fine])

    records = []
    # a grid value of exactly 0 counts as positive, so it opens one bracket
    for i in np.flatnonzero(negative[1:] != negative[:-1]):
        a, b = float(ts[i]), float(ts[i + 1])
        while b - a > 1e-10:
            m = 0.5 * (a + b)
            if (_hardy_z(m, eta(complex(0.5, m)).value) < 0.0) == negative[i]:
                a = m
            else:
                b = m
        t_star = 0.5 * (a + b)
        g_star = abs(eta(complex(0.5, t_star)).value)
        if g_star >= 1e-8:
            continue  # the series error of theta flipped the sign, not a zero
        if t_star > t_max:
            continue  # the last grid point lies past t_max
        location = complex(0.5, t_star)
        method = "minimum-refinement"
        try:
            square = Rect(0.4, 0.6, t_star - 0.1, t_star + 0.1)
            if count_zeros_rect(square, 64) == 1:
                method = "winding-confirmed"
        except ZetaLabError as exc:
            logger.warning("winding confirmation failed at t=%.6f: %s", t_star, exc)
        # the ten probes share the height t_star, so one batch evaluates them
        probes = [z for level in _multiplicity_probes(location, 1e-4) for z in level]
        known = dict(zip(probes, _zeta_pairs(probes)))
        mult = multiplicity(lambda z: _value(known[z]), location, 1e-4)
        records.append(ZeroRecord(location, g_star, mult, method))
    return records


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
    for e, (z, *offset) in zip((eps, 0.5 * eps), _multiplicity_probes(a, eps)):
        try:
            f0, f_plus, f_minus, f_plus2, f_minus2 = [f(z), *map(f, offset)]
        except Exception as exc:  # noqa: BLE001 - contract: wrap evaluator faults
            raise EvaluationFailure(f"evaluator failed near {z}: {exc}") from exc
        h = e / 10.0
        d_h = (f_plus - f_minus) / (2.0 * h)
        d_h2 = (f_plus2 - f_minus2) / h
        deriv = (4.0 * d_h2 - d_h) / 3.0
        w.append((e * deriv / f0).real)
    w1, w2 = w
    if abs(w1 - w2) > 0.05:
        logger.warning("multiplicity levels disagree by %.3f at %s; low confidence", abs(w1 - w2), a)
    return 2.0 * w2 - w1


def _multiplicity_probes(a: complex, eps: float) -> list[list[complex]]:
    """multiplicity's probe points at its levels e = eps and eps/2, in the
    order it evaluates them: z = a + e, then z +- h and z +- h/2, h = e/10."""
    levels = []
    for e in (eps, 0.5 * eps):
        z = a + e
        h = e / 10.0
        levels.append([z, z + h, z - h, z + 0.5 * h, z - 0.5 * h])
    return levels


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
    mags = np.array([abs(v) for v in _values(_zeta_pairs, (complex(line_re, t) for t in ts))])
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
