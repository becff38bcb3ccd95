"""Winding census, critical-line zero location, multiplicity, line checks."""

import math

import numpy as np
import pytest

from zetalab import (
    Rect,
    ZeroRecord,
    check_line_zeros,
    count_zeros_rect,
    find_critical_zeros,
    multiplicity,
    zeta,
)
from zetalab.errors import BoundaryTooCloseToZero, EvaluationFailure


def test_rect_validation():
    with pytest.raises(ValueError):
        Rect(1.0, 0.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        Rect(0.0, 1.0, 2.0, 2.0)


def test_samples_per_edge_minimum():
    with pytest.raises(ValueError):
        count_zeros_rect(Rect(0.0, 1.0, 2.0, 3.0), samples_per_edge=32)


def test_census_empty_below_first_zero():
    assert count_zeros_rect(Rect(0.0, 1.0, 2.0, 12.0)) == 0


def test_census_single_zero():
    assert count_zeros_rect(Rect(0.0, 1.0, 13.0, 15.0)) == 1


def test_census_counts_pole_negative():
    assert count_zeros_rect(Rect(0.5, 1.5, -0.5, 0.5)) == -1


def test_census_trivial_zero_inside():
    # zeros - poles on a box around s = -2
    assert count_zeros_rect(Rect(-3.0, -1.0, -1.0, 1.0)) == 1


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
    records = find_critical_zeros(13.0, 15.0, 0.01)
    assert len(records) == 1
    rec = records[0]
    assert abs(rec.location.imag - 14.134725) < 1e-6
    assert rec.location.real == 0.5
    assert rec.refined_abs_value < 1e-6
    assert abs(rec.multiplicity_estimate - 1.0) < 0.1
    assert rec.method == "winding-confirmed"


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
    r1 = check_line_zeros(1, 40.0)
    assert r1.verdict == "pass"
    assert "min |zeta" in r1.details
    r0 = check_line_zeros(0, 40.0)
    assert r0.verdict == "pass"
    assert "zeta(0)" in r0.details


def test_line_checks_validation():
    with pytest.raises(ValueError):
        check_line_zeros(0.5, 40.0)
    with pytest.raises(ValueError):
        check_line_zeros(1, 60.0)


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
