"""zeta/eta evaluators, their alternative representations, and cross-route
agreement. Expected values are frozen from the independent oracles below."""

import math

import numpy as np
import pytest

from zetalab import (
    conj_ratio,
    eta,
    euler_product,
    gamma,
    half_cos,
    recip_gamma_euler,
    theta,
    xi_factor,
    zeta,
    zeta_floor_integral,
    zeta_reflect,
)
from zetalab.arith import cached_table
from zetalab.errors import DomainError, EtaFactorZero, Overflow, PoleAtOne, ZetaLabError
from zetalab.zeta_eval import FACTOR_ZERO_SPACING, _zeta_strip_quotient

PI2_OVER_6 = math.pi**2 / 6.0


def zeta_sum_oracle(k: int, n: int = 10**6) -> float:
    """Direct summation of n^-k with an integral-comparison tail."""
    m = np.arange(1.0, n + 1.0)
    partial = float(np.sum(m ** (-float(k))))
    # tail: 1/((k-1) N^(k-1)) - 1/(2 N^k) + k/(12 N^(k+1))
    tail = 1.0 / ((k - 1) * n ** (k - 1)) - 0.5 / n**k + k / (12.0 * n ** (k + 1))
    return partial + tail


def eta_avg_oracle(s: complex, n_terms: int = 420, passes: int = 360) -> complex:
    """Iterated averaging of the alternating partial sums."""
    k = np.arange(1.0, n_terms + 1.0)
    terms = (-1.0) ** (k + 1.0) * np.exp(-s * np.log(k))
    ps = np.cumsum(terms)
    for _ in range(passes):
        ps = 0.5 * (ps[:-1] + ps[1:])
    return complex(ps[-1])


def test_oracles_are_sane():
    assert abs(zeta_sum_oracle(2) - PI2_OVER_6) < 1e-13
    assert abs(eta_avg_oracle(1.0 + 0j) - math.log(2.0)) < 1e-13


def test_zeta_at_two():
    assert abs(zeta(2.0).value - PI2_OVER_6) < 1e-12


def test_zeta_at_zero():
    assert abs(zeta(0.0).value - (-0.5)) < 1e-10


def test_zeta_trivial_zero():
    assert abs(zeta(-2.0).value) < 1e-12


def test_zeta_pole_raises():
    with pytest.raises(PoleAtOne):
        zeta(1.0)
    with pytest.raises(PoleAtOne):
        zeta(1.0 + 5e-13j)


def test_zeta_method_tags_follow_dispatch():
    assert zeta(2.0).method == "direct-series"
    assert zeta(0.5 + 3.0j).method == "accelerated-eta"
    assert zeta(-1.5).method == "functional-equation"


def test_eta_factor_zero_raises():
    for k in (1, 2, -3):
        s = complex(1.0, k * FACTOR_ZERO_SPACING)
        with pytest.raises(EtaFactorZero):
            zeta(s + 1e-10)


def test_zeta_near_factor_zero_uses_average():
    # Oracle: 4-point mean of the plain quotient on a much larger circle,
    # where the quotient itself is solid; the mean matches zeta(center) to
    # O(radius^4).
    s = complex(1.0, FACTOR_ZERO_SPACING) + 1e-8
    big_r = 1e-3
    probes = [_zeta_strip_quotient(s + big_r * o).value for o in (1, 1j, -1, -1j)]
    oracle = sum(probes) / 4.0
    z = zeta(s)
    assert abs(z.value - oracle) < 1e-6
    assert abs(z.value - oracle) <= z.abs_err_est + 1e-9


def test_eta_at_one():
    assert abs(eta(1.0).value - math.log(2.0)) < 1e-13


def test_eta_domain_error():
    with pytest.raises(DomainError):
        eta(0.0)
    with pytest.raises(DomainError):
        eta(-0.5 + 3.0j)


def test_eta_conjugate_symmetry():
    s = 0.7 + 9.0j
    assert abs(eta(s.conjugate()).value - eta(s).value.conjugate()) < 1e-13


def test_eta_near_first_critical_zero():
    assert abs(eta(complex(0.5, 14.134725)).value) < 1e-5


@pytest.mark.parametrize(
    "s",
    [0.05 + 0.5j, 0.1 + 2.0j, 0.3 + 0j, 0.5 + 0j, 0.5 + 3.0j, 1.5 + 1.0j, 2.0 + 0j, 0.9 - 2.5j],
)
def test_eta_committed_error_bound(s):
    e = eta(s)
    assert abs(e.value - eta_avg_oracle(s)) <= e.abs_err_est


def test_floor_integral_at_two():
    assert abs(zeta_floor_integral(2.0).value - PI2_OVER_6) < 1e-8


def test_floor_integral_pole_residual():
    s = 1.0 + 1e-6
    assert abs((s - 1.0) * zeta_floor_integral(s).value - 1.0) < 1e-4


def test_floor_integral_magnitude_bound():
    # |integral_1^inf {x} x^(-s-1) dx| < (1/a) sum (n^-a - (n+1)^-a) = 1/a at a=1.5
    s = 1.5 + 3.0j
    res = zeta_floor_integral(s)
    integral = (s / (s - 1.0) - res.value) / s
    assert abs(integral) < 2.0 / 3.0


def test_floor_integral_domain():
    with pytest.raises(DomainError):
        zeta_floor_integral(1.0 + 3.0j)
    with pytest.raises(DomainError):
        zeta_floor_integral(0.5)


def test_euler_product_single_factor():
    assert abs(euler_product(3.0, 2).value - 8.0 / 7.0) < 1e-15


def test_euler_product_at_two():
    assert abs(euler_product(2.0, 10**5).value - PI2_OVER_6) < 1e-5


def test_euler_product_monotone_on_real_axis():
    vals = [abs(euler_product(2.0, b).value) for b in (10, 100, 1000, 10000)]
    assert vals == sorted(vals)
    assert vals[-1] < PI2_OVER_6


def test_euler_product_domain():
    with pytest.raises(DomainError):
        euler_product(1.0 + 2.0j, 100)
    with pytest.raises(ValueError):
        euler_product(2.0, 1)


def test_euler_product_committed_bound():
    rng = np.random.default_rng(23)
    for _ in range(20):
        s = complex(rng.uniform(1.5, 4.0), rng.uniform(-10, 10))
        p = euler_product(s, 10**4)
        assert abs(p.value - zeta(s).value) <= p.abs_err_est + 1e-12


def test_pole_weight_near_one():
    # Re[eps * zeta'/zeta(1+eps)] -> -1; derivative by Richardson-combined
    # central differences.
    eps = 1e-4
    s = 1.0 + eps
    h = 1e-6
    d1 = (zeta(s + h).value - zeta(s - h).value) / (2.0 * h)
    d2 = (zeta(s + h / 2).value - zeta(s - h / 2).value) / h
    deriv = (4.0 * d2 - d1) / 3.0
    w = (eps * deriv / zeta(s).value).real
    assert abs(w - (-1.0)) < 1e-3


def test_reflect_is_identity_in_strip():
    s = 0.5 + 3.0j
    assert abs(zeta_reflect(s).value - zeta(s).value) < 1e-9


def test_reflect_trivial_zero_exact():
    assert abs(zeta_reflect(-2.0).value) < 1e-10
    assert zeta_reflect(-2.0).value == 0.0


def test_route_agreement_floor_and_euler():
    rng = np.random.default_rng(41)
    for _ in range(100):
        s = complex(rng.uniform(1.0 + 1e-3, 3.0), rng.uniform(-20, 20))
        z = zeta(s)
        f = zeta_floor_integral(s)
        assert abs(z.value - f.value) < 1e-6
        p = euler_product(s, 10**6)
        # near Re(s)=1 the prime tail dominates; the committed estimate
        # covers it (the flat 1e-6 would need alpha >~ 1.8)
        assert abs(z.value - p.value) < 1e-6 + p.abs_err_est


def test_conjugate_symmetry_all_regions():
    rng = np.random.default_rng(2)
    boxes = [(1.6, 4.0), (0.05, 1.45), (-5.0, -0.05)]
    for lo, hi in boxes:
        for _ in range(34):
            s = complex(rng.uniform(lo, hi), rng.uniform(0.1, 30.0))
            assert abs(zeta(s.conjugate()).value - zeta(s).value.conjugate()) < 1e-12


def test_mobius_inverse_series():
    table = cached_table(10**6)
    n = np.arange(1.0, table.bound + 1.0)
    series = complex(np.dot(table.mu[1:].astype(np.float64), n**-3.0))
    assert abs(series * zeta(3.0).value - 1.0) < 1e-4


def test_euler_lower_bound_random_points():
    from zetalab.arith import primes_upto

    log_p = np.log(primes_upto(10**6).astype(np.float64))
    rng = np.random.default_rng(9)
    for _ in range(50):
        alpha = rng.uniform(1.1, 4.0)
        s = complex(alpha, rng.uniform(0.0, 30.0))
        lower = math.exp(-float(np.sum(np.exp(-alpha * log_p))))
        assert abs(zeta(s).value) >= lower


def test_dual_route_error_budgets():
    for s in [2.0 + 5.0j, 1.7 - 12.0j, 3.5 + 0.3j]:
        z = zeta(s)
        f = zeta_floor_integral(s)
        assert abs(z.value - f.value) <= z.abs_err_est + f.abs_err_est


def test_large_height_raises_typed_errors():
    with pytest.raises(DomainError, match="1000"):
        eta(0.5 + 1000j)
    with pytest.raises(DomainError):
        zeta(0.5 + 1000j)
    # the bound's factor 8(1 + 2t) e^(pi t / 2) overflows before the exponential does
    for s in (0.5 + 447j, 0.5 + 451j):
        with pytest.raises(DomainError, match="height"):
            eta(s)
        with pytest.raises(DomainError, match="height"):
            zeta(s)
    with pytest.raises(ZetaLabError):
        zeta(-0.5 + 1000j)
    with pytest.raises(Overflow):
        zeta(-0.5 + 600j)  # sin(pi s / 2) leaves the floating range first


@pytest.mark.parametrize("t", [0.0, 0.3, 14.134725141734693, 150.25, 309.9, 310.5, 446.0])
def test_memoised_eta_plan_equals_a_fresh_one(t):
    from zetalab.zeta_eval import _eta_height_plan, _eta_plan

    eta(complex(0.5, t))  # warm the memo at this height
    hits = _eta_height_plan.cache_info().hits
    fresh_n, fresh_bound = _eta_height_plan.__wrapped__(t)
    for s in (complex(0.5, t), complex(1.2, -t), complex(1e-3, t)):
        n, bound = _eta_plan(s)
        assert n == fresh_n and bound.hex() == fresh_bound.hex()
    assert _eta_height_plan.cache_info().hits == hits + 3


def test_eta_still_raises_above_the_height_limit_with_a_warm_memo():
    from zetalab import eta_many

    heights = [446.0, 446.1, 446.2, 150.0]
    eta_many([complex(0.5, t) for t in heights])
    for t in heights:
        eta(complex(0.7, -t))
    for _ in range(2):
        with pytest.raises(DomainError, match="height"):
            eta(0.5 + 447j)
        with pytest.raises(DomainError, match="height"):
            zeta(0.5 + 447j)
    assert isinstance(eta_many([0.5 + 446j, 0.5 + 447j])[1], DomainError)


def test_eta_and_zeta_hold_their_bounds_against_mpmath():
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(2026)
    pts = [complex(rng.uniform(0.05, 0.95), rng.uniform(100.0, 440.0)) for _ in range(120)]
    for s in pts + [0.5 + 260j]:
        with mpmath.workdps(30):
            ms = mpmath.mpc(s.real, s.imag)
            zeta_ref = mpmath.zeta(ms)
            eta_ref = (1 - mpmath.power(2, 1 - ms)) * zeta_ref
        for f, ref in ((eta, eta_ref), (zeta, zeta_ref)):
            got = f(s)
            assert float(abs(mpmath.mpc(got.value) - ref)) <= got.abs_err_est, (f.__name__, s)


def _outcome(f, s):
    try:
        return f(s)
    except ZetaLabError as exc:
        return exc


def _batch_sweep_points() -> list[complex]:
    """Seeded points over all three dispatch regions up to |Im s| = 700,
    plus the points where zeta or eta raises or takes a special branch."""
    rng = np.random.default_rng(17)
    boxes = [(1.5, 6.0), (0.0, 1.5), (-6.0, 0.0)]
    pts = []
    for i in range(3000):
        lo, hi = boxes[i % 3]
        height = 700.0 if i % 2 else 50.0
        pts.append(complex(rng.uniform(lo, hi), rng.uniform(-height, height)))
    factor_zero = complex(1.0, FACTOR_ZERO_SPACING)
    pts += [1.0, 1.0 + 5e-13j, 0j, 1e-13, 1.5, 1.5 + 3.0j, -2.0, -4.0, -10.0, 2.0, 0.3]
    pts += [factor_zero + 1e-10, factor_zero + 3e-7, factor_zero.conjugate() + 2e-7j]
    pts += [0.5 + 1000j, -0.5 + 600j, -0.5 + 1000j, 0.5 + 452.5j, 3.0 + 700j, 0.5 + 447j, 0.5 + 451j]
    pts += [complex(math.nan, 1.0), complex(0.5, math.inf), complex(math.inf, 0.0), complex(-math.inf, 2.0)]
    return pts


@pytest.mark.parametrize("fn", ["zeta", "eta"])
def test_batch_matches_scalar(fn):
    import zetalab

    scalar, many = getattr(zetalab, fn), getattr(zetalab, f"{fn}_many")
    pts = _batch_sweep_points()
    batch = many(pts)
    assert len(batch) == len(pts)
    n_errors = 0
    for s, got in zip(pts, batch):
        want = _outcome(scalar, s)
        if isinstance(want, ZetaLabError):
            n_errors += 1
            assert type(got) is type(want) and str(got) == str(want), s
        else:
            assert got == want, s  # value, abs_err_est and method, exactly
            assert type(got.value) is complex and type(got.abs_err_est) is float
    assert 0 < n_errors < len(pts)


def test_batch_special_points():
    from zetalab import zeta_many

    s_avg = complex(1.0, FACTOR_ZERO_SPACING) + 3e-7
    res = zeta_many([1.0, 0j, -2.0, s_avg, complex(1.0, FACTOR_ZERO_SPACING) + 1e-10, -0.5 + 600j])
    assert isinstance(res[0], PoleAtOne)
    assert res[1].value == -0.5 and res[1].method == "functional-equation"
    assert res[2].value == 0.0
    assert res[3] == zeta(s_avg) and res[3].method == "accelerated-eta"
    assert isinstance(res[4], EtaFactorZero)
    assert isinstance(res[5], Overflow)  # the Gamma factors fail before the inner zeta
    assert zeta_many([]) == []


NON_FINITE = [
    complex(0.5, math.inf),
    complex(math.nan, 1.0),
    complex(math.inf, 0.0),
    complex(-math.inf, 2.0),
    complex(2.0, math.nan),
    complex(math.nan, math.nan),
]


@pytest.mark.parametrize("s", NON_FINITE)
def test_non_finite_input_raises_domain_error(s):
    from zetalab import eta_many, zeta_many

    with pytest.raises(DomainError, match="finite"):
        zeta(s)
    with pytest.raises(DomainError, match="finite"):
        eta(s)
    for res in (zeta_many([s, 2.0]), eta_many([s, 2.0])):
        assert isinstance(res[0], DomainError) and "finite" in str(res[0])
        assert isinstance(res[1].value, complex)
    for f in (gamma, zeta_reflect, xi_factor):
        with pytest.raises(DomainError, match="finite"):
            f(s)


@pytest.mark.parametrize(
    "s", [complex(math.nan, 1.0), complex(0.5, math.inf), complex(math.inf, 0.0), complex(3.0, math.nan)]
)
@pytest.mark.parametrize(
    "f",
    [
        half_cos,
        theta,
        lambda s: conj_ratio(s.real, s.imag),
        lambda s: recip_gamma_euler(s, 100),
        zeta_floor_integral,
        lambda s: euler_product(s, 100),
    ],
    ids=["half_cos", "theta", "conj_ratio", "recip_gamma_euler", "zeta_floor_integral", "euler_product"],
)
def test_non_finite_input_to_the_other_routes_raises_domain_error(f, s):
    with pytest.raises(DomainError, match="finite"):
        f(s)


# The Euler-Maclaurin batch path runs zeta's formulas on _Pairs, whose
# arithmetic must round exactly as CPython's complex arithmetic does.


def _hex_pairs(z) -> list[tuple[str, str]]:
    return [(v.real.hex(), v.imag.hex()) for v in z]


def _seeded_operands(n: int = 4000) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(20)
    x = rng.uniform(-1, 1, (2, n)) * 10.0 ** rng.uniform(-3, 3, (2, n))
    y = rng.uniform(-1, 1, (2, n)) * 10.0 ** rng.uniform(-3, 3, (2, n))
    y[1, :500] = 0.0  # Im y = 0, as in npow / n
    y[1, 500:600] = -0.0
    y[1, 600:700] = y[0, 600:700]  # |Re y| = |Im y|
    y[1, 700:800] = -y[0, 700:800]
    y[0, 800:900] = 0.0
    return x, y


def test_pairs_quotient_matches_cpython_in_both_smith_branches():
    from zetalab.zeta_eval import _Pairs

    x, y = _seeded_operands()
    big = np.abs(y[0]) >= np.abs(y[1])
    assert big.sum() > 1000 and (~big).sum() > 1000
    got = (_Pairs(*x) / _Pairs(*y)).complex()
    want = [complex(*a) / complex(*b) for a, b in zip(x.T.tolist(), y.T.tolist())]
    assert _hex_pairs(got.tolist()) == _hex_pairs(want)
    # a real array divisor counts as y + 0.0i
    got = (_Pairs(*x[:, 1000:]) / y[0, 1000:]).complex()
    want = [complex(*a) / b for a, b in zip(x.T[1000:].tolist(), y[0, 1000:].tolist())]
    assert _hex_pairs(got.tolist()) == _hex_pairs(want)


def test_pairs_products_and_sums_match_cpython():
    from zetalab.zeta_eval import _Pairs

    x, y = _seeded_operands()
    xs, ys = [complex(*a) for a in x.T.tolist()], [complex(*b) for b in y.T.tolist()]
    cases = [
        (_Pairs(*x) * _Pairs(*y), [a * b for a, b in zip(xs, ys)]),
        (_Pairs(*x) * y[0], [a * b for a, b in zip(xs, y[0].tolist())]),
        (0.5 * _Pairs(*x), [0.5 * a for a in xs]),
        (-_Pairs(*x) * 2.75, [-a * 2.75 for a in xs]),
        (_Pairs(*x) + 3 - 1, [a + 3 - 1 for a in xs]),
        (_Pairs(*x) - _Pairs(*y), [a - b for a, b in zip(xs, ys)]),
    ]
    for got, want in cases:
        assert _hex_pairs(got.complex().tolist()) == _hex_pairs(want)


def test_hypot_and_complex_exp_match_cpython():
    import cmath

    from zetalab.zeta_eval import _exp, _Pairs

    x, _ = _seeded_operands()
    assert [v.hex() for v in abs(_Pairs(*x)).tolist()] == [abs(complex(*a)).hex() for a in x.T.tolist()]
    # exp(-s ln n) as the tail takes it, s on the EM and reflected routes
    rng = np.random.default_rng(21)
    n = rng.integers(16, 400, 4000).astype(float)
    a, b = rng.uniform(1.5, 14.0, 4000), rng.uniform(-460.0, 460.0, 4000)
    b[:100] = 0.0
    b[100:200] = -0.0
    z = _Pairs(-a * np.log(n), -b * np.log(n))
    want = [cmath.exp(complex(*p)) for p in zip(z.real.tolist(), z.imag.tolist())]
    assert _hex_pairs(_exp(z).complex().tolist()) == _hex_pairs(want)


def test_em_head_length_meets_the_target_without_doubling():
    from zetalab.zeta_eval import _TARGET_ABS_ERR, _em_plan, _Pairs

    re = np.concatenate([1.5 + np.geomspace(1e-9, 1.5, 40), np.geomspace(3.0, 1e8, 40)])
    im = np.concatenate([np.linspace(0.0, 40.0, 801), np.geomspace(40.0, 1e9, 400)])
    a, b = (g.ravel() for g in np.meshgrid(re, im))
    _, bound = _em_plan(_Pairs(a, b))
    assert bound.max() < 1e-20 < 0.5 * _TARGET_ABS_ERR
