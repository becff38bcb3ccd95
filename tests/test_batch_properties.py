"""Property test: eta_many and zeta_many on batches whose points share
heights and real parts, where one cos/sin row serves several points, equal
the scalar calls bit for bit."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st  # noqa: E402

from zetalab import Rect, eta, eta_many, zeta, zeta_many  # noqa: E402
from zetalab.errors import ZetaLabError  # noqa: E402
from zetalab.zeros import _boundary_waypoints  # noqa: E402

settings.register_profile(
    "derandomized",
    derandomize=True,
    database=None,
    deadline=None,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
DERANDOMIZED = settings.get_profile("derandomized")

#: heights up to and past eta's limit (about 446.2), both signs of zero.
HEIGHTS = st.sampled_from([0.0, -0.0, 14.134725141734693, 150.25, 446.1, 446.2, 446.3, 447.0]) | st.floats(
    -460.0, 460.0
)
#: real parts on every dispatch route and at its edges, and past +-3 on the
#: Euler-Maclaurin and reflected routes (the scan grid's edges and beyond).
REALS = st.sampled_from(
    [0.0, 1e-3, 0.5, 1.0, 1.5, 1.5000000000000002, -2.0, 3.0, 4.05, 12.5, -3.95, -12.5]
) | st.floats(-3.0, 3.0)


@st.composite
def structured_batches(draw) -> list[complex]:
    heights = draw(st.lists(HEIGHTS, min_size=1, max_size=4))
    reals = draw(st.lists(REALS, min_size=1, max_size=4))
    grid = [complex(a, b) for b in heights for a in reals]
    shape = draw(st.sampled_from(["rows", "columns", "square", "repeats", "conjugates"]))
    if shape == "rows":
        return grid
    if shape == "columns":
        return [complex(a, b) for a in reals for b in heights]
    if shape == "square":
        a, b = reals[0], heights[0]
        side = draw(st.sampled_from([0.2, 1.0]))
        return _boundary_waypoints(Rect(a, a + side, b, b + side), 64)
    if shape == "repeats":
        return draw(st.lists(st.sampled_from(grid), min_size=1, max_size=40))
    return grid + [s.conjugate() for s in grid]


def _bits(outcome):
    if isinstance(outcome, ZetaLabError):
        return type(outcome), str(outcome)
    v = outcome.value
    return v.real.hex(), v.imag.hex(), outcome.abs_err_est.hex(), outcome.method


def _scalar(f, s):
    try:
        return f(s)
    except ZetaLabError as exc:
        return exc


@DERANDOMIZED
@given(structured_batches())
def test_structured_batches_match_scalar_calls(points):
    for f, many in ((eta, eta_many), (zeta, zeta_many)):
        batch = many(points)
        assert len(batch) == len(points)
        for s, got in zip(points, batch):
            assert _bits(got) == _bits(_scalar(f, s)), (f.__name__, s)
