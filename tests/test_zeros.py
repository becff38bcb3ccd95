"""Winding census, critical-line zero location, multiplicity, line checks."""

import dataclasses
import math
import time

import numpy as np
import pytest

from zetalab import (
    Rect,
    ZeroRecord,
    check_line_zeros,
    count_zeros_rect,
    eta,
    find_critical_zeros,
    multiplicity,
    zeta,
)
from zetalab import zeros
from zetalab.errors import (
    BoundaryTooCloseToZero,
    DomainError,
    EvaluationFailure,
    ZetaLabError,
)
from zetalab.zeta_eval import FACTOR_ZERO_SPACING, _eta_pairs, _try, _zeta_pairs


def test_rect_validation():
    with pytest.raises(ValueError):
        Rect(1.0, 0.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        Rect(0.0, 1.0, 2.0, 2.0)
    for bounds in ((0.0, 1.0, 0.0, math.inf), (-math.inf, 0.0, 1.0, 2.0), (0.0, math.nan, 0.0, 1.0)):
        with pytest.raises(ValueError, match="finite"):
            Rect(*bounds)


@pytest.mark.parametrize(
    "r, error",
    [
        # the trivial zeros are checked only where they can meet the boundary,
        # not one by one down to re_min
        (Rect(-1e12, 0.0, 1.0, 2.0), ZetaLabError),
        # eta's height limit is checked before 205,903 waypoints exist
        (Rect(0.0, 1.0, 0.0, 2e4), DomainError),
        (Rect(-3.0, -0.5, -1e9, 1.0), DomainError),
        (Rect(1.5, 4.0, 10.0, 500.0), DomainError),
        # zeta's MAX_HEIGHT, checked before a billion-unit edge is sampled
        (Rect(2.0, 3.0, 0.0, 1e9), DomainError),
        # under MAX_HEIGHT, but an estimated 9.2e10 series terms
        (Rect(2.0, 3.0, 0.0, 1e5), DomainError),
    ],
    ids=["wide", "tall-strip", "band-left-edge", "band-right-edge", "above-max-height", "over-cost-cap"],
)
def test_census_fails_fast(r, error):
    start = time.perf_counter()
    with pytest.raises(error):
        count_zeros_rect(r)
    assert time.perf_counter() - start < 1.0


def test_samples_per_edge_minimum():
    with pytest.raises(ValueError):
        count_zeros_rect(Rect(0.0, 1.0, 2.0, 3.0), samples_per_edge=32)


def test_census_empty_below_first_zero():
    assert count_zeros_rect(Rect(0.0, 1.0, 2.0, 12.0)) == 0


def test_census_single_zero():
    assert count_zeros_rect(Rect(0.0, 1.0, 13.0, 15.0)) == 1


@pytest.mark.parametrize(
    "rect, count",
    [
        (Rect(0.5, 1.5, -0.5, 0.5), -1),  # inside, far from the boundary
        (Rect(0.0, 2.0, 0.0, 1.0), 0),  # on an edge's interior
        (Rect(1.0, 2.0, 0.0, 1.0), 0),  # at a corner
        (Rect(0.99995, 1.5, -0.3, 0.2), 0),  # within 1e-4 inside
        (Rect(0.9998, 1.5, -0.3, 0.2), -1),  # just past 1e-4 inside
        (Rect(1.00005, 1.5, -0.3, 0.2), 0),  # outside
        (Rect(0.99995, 1.00005, -5e-5, 5e-5), 0),  # a tiny box around it
    ],
)
def test_census_counts_pole_negative(rect, count):
    # the pole s = 1 counts only when it lies at least 1e-4 inside
    assert count_zeros_rect(rect) == count


def test_census_trivial_zero_inside():
    # zeros - poles on a box around s = -2
    assert count_zeros_rect(Rect(-3.0, -1.0, -1.0, 1.0)) == 1


def test_census_counts_tall_rectangles():
    # near t = 400 the argument of zeta on Re s = 0 turns about 4 rad per unit
    # height; 256 samples per edge let increments wrap past pi, and read 44
    assert count_zeros_rect(Rect(0.0, 1.0, 10.0, 446.0)) == 232  # zeros 1..232 of mpmath.zetazero


def test_census_samples_grow_with_height():
    waypoints = zeros._boundary_waypoints(Rect(0.0, 1.0, 10.0, 446.0), 256)
    gaps = [abs(b - a) for a, b in zip(waypoints, waypoints[1:])]
    assert max(gaps) <= 0.5 * math.pi / math.log(446.0 / (2.0 * math.pi))
    # samples_per_edge is the least count: low and short edges keep it
    assert len(zeros._boundary_waypoints(Rect(0.0, 1.0, 2.0, 30.0), 256)) == 4 * 256 + 1
    assert len(zeros._boundary_waypoints(Rect(0.4, 0.6, 440.0, 440.2), 64)) == 4 * 64 + 1


def test_census_returns_python_int():
    assert isinstance(count_zeros_rect(Rect(0.0, 1.0, 2.0, 12.0)), int)


def test_boundary_through_zero_raises():
    records = find_critical_zeros(14.0, 14.3, 0.01)
    assert len(records) == 1
    t0 = records[0].location.imag
    with pytest.raises(BoundaryTooCloseToZero):
        count_zeros_rect(Rect(0.3, 0.7, 13.5, t0))


def test_boundary_near_trivial_zero_raises():
    with pytest.raises(BoundaryTooCloseToZero):
        count_zeros_rect(Rect(-2.0 + 1e-9, -1.0, -0.5, 0.5))


def test_find_critical_zeros_window():
    # below t = 0.2 the Stirling theta flips the sign of Z where no zero
    # lies, and at t_min = 1e-200 its series would overflow unless floored
    for t_min in (13.0, 0.005, 1e-200):
        records = find_critical_zeros(t_min, 15.0, 0.01)
        assert len(records) == 1
        rec = records[0]
        assert abs(rec.location.imag - 14.134725) < 1e-6
        assert rec.location.real == 0.5
        assert rec.refined_abs_value < 1e-6
        assert abs(rec.multiplicity_estimate - 1.0) < 0.1
        assert rec.method == "winding-confirmed"


def test_find_critical_zeros_falls_back_when_the_census_raises(caplog):
    t0 = find_critical_zeros(14.0, 14.3, 0.01)[0].location.imag
    # the census's top edge now runs through the zero, so it raises
    with pytest.raises(BoundaryTooCloseToZero):
        count_zeros_rect(Rect(0.0, 1.0, 14.0, t0))
    with caplog.at_level("WARNING", logger="zetalab.zeros"):
        (rec,) = find_critical_zeros(14.0, t0, 0.01)
    assert "unconfirmed" in caplog.text
    assert rec.location == complex(0.5, t0)
    assert rec.method == "minimum-refinement"
    assert rec.multiplicity_estimate == multiplicity(_zeta_value, rec.location, 1e-4)
    assert abs(rec.multiplicity_estimate - 1.0) < 1e-2


def test_find_critical_zeros_falls_back_when_the_census_disagrees(monkeypatch):
    confirmed = find_critical_zeros(10.0, 30.0, 0.01)
    assert [(r.multiplicity_estimate, r.method) for r in confirmed] == [(1.0, "winding-confirmed")] * 3
    windows = []

    def census_plus_one(r):
        windows.append(r)
        return count_zeros_rect(r) + 1

    monkeypatch.setattr(zeros, "count_zeros_rect", census_plus_one)
    records = find_critical_zeros(10.0, 30.0, 0.01)
    assert windows == [Rect(0.0, 1.0, 10.0, 30.0)]  # one census per call
    assert [r.location for r in records] == [r.location for r in confirmed]
    for rec in records:
        assert rec.method == "minimum-refinement"
        assert abs(rec.multiplicity_estimate - 1.0) < 1e-2


def test_hardy_z_holds_its_bound_against_mpmath():
    mpmath = pytest.importorskip("mpmath")
    ts = np.random.default_rng(2029).uniform(10.0, 446.0, 200).tolist()
    for t, (eta_value, eta_err) in zip(ts, _eta_pairs([complex(0.5, t) for t in ts])):
        z, z_err = zeros._hardy_z(t, eta_value, eta_err)
        theta, theta_err = zeros._theta(t)
        with mpmath.workdps(30):
            assert float(abs(mpmath.siegelz(t) - z)) <= z_err, t
            # the Stirling remainder of theta, which dominates below t = 60
            assert float(abs(mpmath.siegeltheta(t) - theta)) <= theta_err, t


def test_find_critical_zeros_empty_window():
    assert find_critical_zeros(1.0, 10.0, 0.01) == []


@pytest.mark.parametrize("t_min, t_max", [(10.0, 14.1349), (14.13, 16.0)])
def test_find_critical_zeros_near_either_end(t_min, t_max):
    # the zero at 14.134725 lies within one grid step of the window's end
    records = find_critical_zeros(t_min, t_max, 0.01)
    assert len(records) == count_zeros_rect(Rect(0.0, 1.0, t_min, t_max)) == 1
    assert abs(records[0].location.imag - 14.134725) < 1e-6
    assert records[0].method == "winding-confirmed"


@pytest.mark.parametrize("t_min, t_max", [(10.0, 14.1347), (14.1348, 16.0)])
def test_find_critical_zeros_skips_zero_just_outside(t_min, t_max):
    assert find_critical_zeros(t_min, t_max, 0.01) == []
    assert count_zeros_rect(Rect(0.0, 1.0, t_min, t_max)) == 0


def test_find_critical_zeros_validation():
    with pytest.raises(ValueError):
        find_critical_zeros(10.0, 5.0, 0.01)
    with pytest.raises(ValueError):
        find_critical_zeros(1.0, 5.0, 0.1)


def test_z_sign_changes_stay_apart_below_the_height_limit():
    # the coarse scan of find_critical_zeros would miss two zeros that share
    # a cell; cells are at most 0.2 wide, and below eta's height limit the
    # closest zeros lie 0.4364 apart (t = 415.019 and 415.455). A higher
    # ceiling breaks the first assertion, so this premise gets checked again.
    with pytest.raises(DomainError):
        eta(complex(0.5, 447.0))
    step = 0.02
    ts = np.arange(10.0, 446.0, step)
    negative, clear = zeros._z_signs(ts)
    changes = np.flatnonzero(np.diff(negative))
    assert len(changes) == 232  # zeros 1..232 of mpmath.zetazero
    # |Z| clears its bound at both ends of each, so each proves a zero, up to
    # t = 327; above, eta's 300-term cap lets eta's bound grow like e^(pi t / 2)
    proven = clear[changes] & clear[changes + 1]
    assert proven[ts[changes] < 327.0].all()
    assert float(np.min(np.diff(ts[changes]))) > 0.4
    assert zeros._COARSE_CELL <= 0.2


#: windows around the three closest pairs of zeros below the height limit.
CLOSE_PAIRS = [(415.0, 415.5), (375.8, 376.4), (333.6, 334.3)]


@pytest.mark.parametrize("step", [0.05, 0.03, 0.001])
@pytest.mark.parametrize("t_min, t_max", [*CLOSE_PAIRS, (0.05, 15.0)])
def test_coarse_scan_matches_the_full_grid(monkeypatch, t_min, t_max, step):
    coarse = [dataclasses.astuple(z) for z in find_critical_zeros(t_min, t_max, step)]
    monkeypatch.setattr(zeros, "_COARSE_CELL", step)
    assert coarse == [dataclasses.astuple(z) for z in find_critical_zeros(t_min, t_max, step)]
    assert len(coarse) == (1 if t_min < 1.0 else 2)


def test_coarse_scan_evaluates_z_only_around_sign_changes(monkeypatch):
    seen = []

    def counting_eta_pairs(points):
        points = list(points)
        seen.extend(points)
        return _eta_pairs(points)

    monkeypatch.setattr(zeros, "_eta_pairs", counting_eta_pairs)
    records = find_critical_zeros(100.0, 110.0, 0.01)
    # the scan: every 20th of the 1001 grid points plus the last, then the 19
    # interior points of each cell that holds a zero
    grid = set((100.0 + 0.01 * np.arange(1001.0)).tolist())
    scan = [z for z in seen if z.imag in grid]
    assert len(records) == 4
    assert len(scan) == 51 + 19 * len(records)
    # the bisection: 27 halvings take each 0.01 bracket below 1e-10, and one
    # more point gates its midpoint; these all lie between grid points
    assert len(seen) - len(scan) == (27 + 1) * len(records)


def test_census_evaluates_each_waypoint_once(monkeypatch):
    seen = []

    def counting_zeta_pairs(points):
        seen.extend(points)
        return _zeta_pairs(points)

    monkeypatch.setattr(zeros, "_zeta_pairs", counting_zeta_pairs)
    r = Rect(0.4, 0.6, 14.0, 14.2)
    assert count_zeros_rect(r, 64) == 1
    # the closing waypoint repeats the first and reuses its value; the others
    # are evaluated in order of height, so the vertical edges share cos/sin rows
    waypoints = zeros._boundary_waypoints(r, 64)
    assert waypoints[-1] == waypoints[0]
    assert seen == sorted(waypoints[:-1], key=lambda z: z.imag)


@pytest.mark.parametrize("t_max", [20.0, 40.0])
def test_census_agrees_with_scan(t_max):
    records = find_critical_zeros(1.0, t_max, 0.02)
    assert count_zeros_rect(Rect(0.0, 1.0, 0.0, t_max)) == len(records)


def test_conjugate_pairing_of_found_zeros():
    for rec in find_critical_zeros(13.0, 15.0, 0.01):
        assert abs(zeta(rec.location.conjugate()).value) < 1e-5


def test_zero_record_invariants():
    with pytest.raises(ValueError):
        ZeroRecord(0.5 + 14.13j, 1e-3, 1.0, "winding-confirmed")
    with pytest.raises(ValueError):
        ZeroRecord(0.5 + 14.13j, 1e-9, 1.6, "winding-confirmed")
    with pytest.raises(ValueError):
        ZeroRecord(0.5 + 14.13j, 1e-9, 1.0, "guesswork")


def _zeta_value(z: complex) -> complex:
    return zeta(z).value


def test_multiplicity_at_pole():
    assert abs(multiplicity(_zeta_value, 1.0, 1e-4) - (-1.0)) < 1e-2


def test_multiplicity_at_regular_point():
    assert abs(multiplicity(_zeta_value, 2.0, 1e-4)) < 1e-2


def test_multiplicity_at_trivial_zero():
    assert abs(multiplicity(_zeta_value, -2.0, 1e-4) - 1.0) < 1e-2


def test_multiplicity_on_synthetic_double_zero():
    f = lambda z: (z - 0.5) ** 2 * (z + 2.0)
    assert abs(multiplicity(f, 0.5, 1e-4) - 2.0) < 1e-2


def test_multiplicity_eps_validation():
    with pytest.raises(ValueError):
        multiplicity(_zeta_value, 2.0, 1e-7)
    with pytest.raises(ValueError):
        multiplicity(_zeta_value, 2.0, 1e-2)


def test_multiplicity_wraps_evaluator_failures():
    def bad(z):
        raise RuntimeError("no value here")

    with pytest.raises(EvaluationFailure):
        multiplicity(bad, 2.0, 1e-4)


def test_line_checks_pass():
    residual1, _, details1 = check_line_zeros(1, 40.0)
    assert residual1 <= 1e-10
    assert "min |zeta" in details1
    residual0, _, details0 = check_line_zeros(0, 40.0)
    assert residual0 <= 1e-10
    assert "zeta(0)" in details0


def test_line_checks_validation():
    with pytest.raises(ValueError):
        check_line_zeros(0.5, 40.0)
    with pytest.raises(ValueError):
        check_line_zeros(1, 60.0)


# ---------------------------------------------------------------------------
# The batched consumers against scalar loops.
# ---------------------------------------------------------------------------


def _scalar_pair(f, s):
    r = _try(f, s)
    return r if isinstance(r, ZetaLabError) else (r.value, r.abs_err_est)


def _use_scalar_calls(monkeypatch) -> list[complex]:
    """Run the zeros module on scalar eta/zeta loops instead of batches; the
    returned list collects the points those loops evaluate."""
    seen = []

    def scalar_pairs(f):
        def pairs(points):
            points = list(points)
            seen.extend(points)
            return [_scalar_pair(f, p) for p in points]

        return pairs

    for name, f in (("_eta_pairs", eta), ("_zeta_pairs", zeta)):
        monkeypatch.setattr(zeros, name, scalar_pairs(f))
    return seen


#: zero ordinates in (10, 30) and (100, 110), from mpmath.zetazero to 20 digits.
KNOWN_ZEROS = {
    10.0: [14.134725141734693791, 21.022039638771554993, 25.010857580145688763],
    100.0: [101.31785100573139123, 103.72553804047833942, 105.44662305232609449, 107.16861118427640752],
}


@pytest.mark.parametrize("t_min, t_max", [(10.0, 30.0), (100.0, 110.0)])
def test_find_critical_zeros_batched_matches_scalar(monkeypatch, t_min, t_max):
    batched = [dataclasses.astuple(z) for z in find_critical_zeros(t_min, t_max, 0.01)]
    scalar_points = _use_scalar_calls(monkeypatch)
    assert batched == [dataclasses.astuple(z) for z in find_critical_zeros(t_min, t_max, 0.01)]
    # the Z scan and every census waypoint ran scalar; certified zeros need
    # no multiplicity probe
    assert len(scalar_points) > 10 * len(batched)
    assert not any(z.real == 0.5 + 1e-4 for z in scalar_points)
    assert len(batched) == {10.0: 3, 100.0: 4}[t_min]
    for located, gamma in zip(batched, KNOWN_ZEROS[t_min]):
        assert abs(located[0].imag - gamma) <= 1e-9


@pytest.mark.parametrize(
    "rect", [Rect(0.0, 1.0, 0.0, 30.0), Rect(-3.0, 2.0, -5.0, 5.0), Rect(1.0, 2.0, 0.0, 1.0)]
)
def test_census_batched_matches_scalar(monkeypatch, rect):
    # the last rectangle has the pole s = 1 at a corner, a waypoint where
    # zeta raises and (s - 1) zeta(s) takes its limit 1
    batched = count_zeros_rect(rect)
    scalar_points = _use_scalar_calls(monkeypatch)
    assert count_zeros_rect(rect) == batched
    assert scalar_points == sorted(zeros._boundary_waypoints(rect, 256)[:-1], key=lambda z: z.imag)


@pytest.mark.parametrize("line_re", [0, 1])
def test_line_check_batched_matches_scalar(monkeypatch, line_re):
    batched = check_line_zeros(line_re, 40.0)
    scalar_points = _use_scalar_calls(monkeypatch)
    assert check_line_zeros(line_re, 40.0) == batched
    assert len(scalar_points) == 800


def _scalar_census_error(r: Rect) -> ZetaLabError:
    """The error the scalar loop over the initial waypoints raises first."""
    for z in zeros._boundary_waypoints(r, 256):
        try:
            val = zeta(z).value
        except ZetaLabError as exc:
            return exc
        if abs(val) < zeros._BOUNDARY_ZETA_FLOOR:
            return BoundaryTooCloseToZero(f"|zeta| = {abs(val):.2e} at boundary point {z}; zero too close")
    raise AssertionError("the scalar loop raised nothing")


def test_census_errors_match_the_scalar_loop():
    t0 = find_critical_zeros(14.0, 14.3, 0.01)[0].location.imag
    through_zero = Rect(0.3, 0.7, 13.5, t0)
    # zeta(1e13) leaves the floating range on the Euler-Maclaurin route
    out_of_range = Rect(1e13, 2e13, 0.0, 1.0)
    for r, kind in ((through_zero, BoundaryTooCloseToZero), (out_of_range, DomainError)):
        expected = _scalar_census_error(r)
        assert type(expected) is kind
        with pytest.raises(kind) as exc:
            count_zeros_rect(r)
        assert str(exc.value) == str(expected)
    # a corner on the zero 1 + 2*pi*i/ln 2 of the eta quotient's denominator,
    # where zeta takes the direct series
    assert count_zeros_rect(Rect(1.0, 2.0, FACTOR_ZERO_SPACING, 10.0)) == 0


@pytest.mark.parametrize("first, second", [(3, 5), (5, 3)])
def test_first_failure_in_point_order_wins(first, second):
    # a value under the boundary floor at one point, an evaluator error at
    # the other, both in one block: whichever comes first is raised
    points = [complex(0.5, k) for k in range(20)]

    def many(block):
        out = []
        for p in block:
            k = int(p.imag)
            if k == first:
                out.append((1e-9, 0.0))
            elif k == second:
                out.append(DomainError(f"fault at {k}"))
            else:
                out.append((1.0, 0.0))
        return out

    seen = []
    with pytest.raises((BoundaryTooCloseToZero, DomainError)) as exc:
        for z, v in zip(points, zeros._values(many, points)):
            seen.append(zeros._above_floor(z, v))
    assert len(seen) == min(first, second)
    assert type(exc.value) is (BoundaryTooCloseToZero if first < second else DomainError)


@pytest.mark.parametrize("t_max", [460.0, 1e15, math.inf, 449.0])
def test_find_critical_zeros_checks_the_height_before_the_grid(monkeypatch, t_max):
    def no_grid(points):
        raise AssertionError("the grid was evaluated")

    monkeypatch.setattr(zeros, "_eta_pairs", no_grid)
    with pytest.raises(DomainError):
        find_critical_zeros(10.0, t_max, 0.01)


def test_mertens_inequality_seeded():
    rng = np.random.default_rng(61)
    theta = rng.uniform(0.0, 2.0 * math.pi, size=10_000)
    expr = 3.0 + 4.0 * np.cos(theta) + np.cos(2.0 * theta)
    assert float(np.min(expr)) >= -1e-12
    at_pi = 3.0 + 4.0 * math.cos(math.pi) + math.cos(2.0 * math.pi)
    assert abs(at_pi) < 1e-12


def test_w_combination_nonpositive():
    for beta in (14.134725, 21.022040):
        combo = (
            3.0 * multiplicity(_zeta_value, 1.0, 1e-4)
            + 4.0 * multiplicity(_zeta_value, complex(1.0, beta), 1e-4)
            + multiplicity(_zeta_value, complex(1.0, 2.0 * beta), 1e-4)
        )
        assert combo <= 0.1
