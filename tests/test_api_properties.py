"""Property test: for finite points up to the largest double in either part,
the public evaluators raise nothing but ZetaLabError (ValueError is kept for
malformed arguments, and a finite complex number is not one), and every
value and bound they return is finite."""

import cmath
import math
import sys

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from zetalab import eta, gamma, kappa, nu, theta, zeta, zeta_many, zeta_reflect  # noqa: E402
from zetalab.errors import ZetaLabError  # noqa: E402
from zetalab.zeta_eval import MAX_HEIGHT  # noqa: E402

DERANDOMIZED = settings.get_profile("derandomized")

#: the top of the floating range, either way.
EXTREMES = [1e308, -1e308, 1.7e308, -1.7e308, sys.float_info.max, -sys.float_info.max]
#: real parts on every route and its edges, up to 1e4 either way, and the extremes.
REALS = st.sampled_from([0.0, 0.25, 0.5, 1.0, 1.5, -2.0, -171.5, 171.7, -1024.0, *EXTREMES]) | st.floats(
    -20.0, 20.0
) | st.floats(-1e4, 1e4)
#: heights inside eta's and zeta's limits, at and past MAX_HEIGHT, up to 1e100, and the extremes.
HEIGHTS = (
    st.sampled_from([0.0, -0.0, 446.3, MAX_HEIGHT, math.nextafter(MAX_HEIGHT, math.inf), 1e12, *EXTREMES])
    | st.floats(-500.0, 500.0)
    | st.floats(-2.0 * MAX_HEIGHT, 2.0 * MAX_HEIGHT)
    | st.floats(-1e100, 1e100)
)


def _finite(result) -> bool:
    return cmath.isfinite(result.value) and math.isfinite(result.abs_err_est)


@DERANDOMIZED
@given(st.lists(st.builds(complex, REALS, HEIGHTS), min_size=1, max_size=6))
def test_evaluators_raise_typed_errors_and_return_finite_values(points):
    for f in (zeta, eta, gamma, nu, kappa, theta):
        for s in points:
            try:
                result = f(s)
            except ZetaLabError:
                continue
            assert _finite(result), (f.__name__, s, result)
    for s, result in zip(points, zeta_many(points)):
        assert isinstance(result, ZetaLabError) or _finite(result), (s, result)


@pytest.mark.parametrize(
    "f, s",
    [
        (gamma, 1e308 + 1e308j),  # the Lanczos power raises ZeroDivisionError
        (gamma, 0.5 - 1e308j),
        (gamma, -1e308 + 1e308j),  # 2 Re s is inf in sin(pi s)
        (gamma, -1.7e308 + 0.5j),
        (eta, 0.5 - 1e308j),  # the term count's log term is inf
        (kappa, 0.5 - 1e308j),
        (eta, 1e308 + 1e308j),
    ],
)
def test_evaluators_raise_typed_errors_at_the_top_of_the_float_range(f, s):
    with pytest.raises(ZetaLabError):
        f(s)


def test_every_evaluator_raises_typed_errors_on_the_grid_of_extremes():
    # abs(s - 1) overflows where both parts are near the largest double, as in nu's pole test
    points = [complex(x, y) for x in (0.5, *EXTREMES) for y in (0.0, 0.5, *EXTREMES)]
    for f in (zeta, zeta_reflect, eta, gamma, nu, kappa, theta):
        for s in points:
            try:
                result = f(s)
            except ZetaLabError:
                continue
            assert _finite(result), (f.__name__, s, result)


#: real parts on all three dispatch regions (Euler-Maclaurin above 1.5, the
#: strip, the reflection at and below 0) and at their edges.
SYMMETRY_REALS = st.sampled_from([0.0, 1e-3, 0.5, 1.0, 1.5, 1.5000000000000002, -2.0, -171.5]) | st.floats(
    -200.0, 200.0
)


@DERANDOMIZED
@given(st.builds(complex, SYMMETRY_REALS, st.floats(-400.0, 400.0)))
def test_zeta_is_conjugate_symmetric_within_its_bounds(s):
    try:
        upper, lower = zeta(s), zeta(s.conjugate())
    except ZetaLabError:
        return
    gap = abs(lower.value - upper.value.conjugate())
    assert gap <= upper.abs_err_est + lower.abs_err_est, (s, upper, lower)


@DERANDOMIZED
@given(st.builds(complex, st.floats(-30.0, 31.0), st.floats(-400.0, 400.0)))
def test_zeta_satisfies_the_functional_equation_within_its_bounds(s):
    # zeta_reflect is chi(s) zeta(1 - s) on every route; zeta takes it only for Re s <= 0
    try:
        direct, reflected = zeta(s), zeta_reflect(s)
    except ZetaLabError:
        return
    gap = abs(direct.value - reflected.value)
    assert gap <= direct.abs_err_est + reflected.abs_err_est, (s, direct, reflected)
