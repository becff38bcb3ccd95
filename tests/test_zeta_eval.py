"""zeta/eta evaluators, their alternative representations, and cross-route
agreement. Expected values are frozen from the independent oracles below."""

import cmath
import math

import numpy as np
import pytest

from zetalab import (
    EvalResult,
    conj_ratio,
    eta,
    gamma,
    kappa,
    nu,
    theta,
    zeta,
    zeta_reflect,
)
from zetalab.arith import cached_table
from zetalab.errors import DomainError, Overflow, PoleAtOne, ZetaLabError
from zetalab.zeta_eval import FACTOR_ZERO_SPACING, MAX_HEIGHT

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


@pytest.mark.parametrize("s", [-2.0, -284.0, -330.0])
def test_zeta_trivial_zero(s):
    # 1/Gamma(s/2) is exactly 0 there, so the value and its error are too
    r = zeta(s)
    assert r.value == 0.0 and r.abs_err_est == 0.0


def test_zeta_pole_raises():
    with pytest.raises(PoleAtOne):
        zeta(1.0)
    with pytest.raises(PoleAtOne):
        zeta(1.0 + 5e-13j)


def test_zeta_method_tags_follow_dispatch():
    assert zeta(2.0).method == "direct-series"
    assert zeta(0.5 + 3.0j).method == "accelerated-eta"
    assert zeta(-1.5).method == "functional-equation"


def test_zeta_at_factor_zeros_takes_the_direct_series():
    # eta(s) / (1 - 2^(1-s)) is 0/0 at 1 + 2*pi*k*i/ln 2; the direct series is not
    mpmath = pytest.importorskip("mpmath")
    for k in (1, 2, -3):
        for offset in (0.0, 1e-10, -3e-7j):
            s = complex(1.0, k * FACTOR_ZERO_SPACING) + offset
            z = zeta(s)
            assert z.method == "direct-series" and z.abs_err_est < 1e-11
            with mpmath.workdps(30):
                assert float(abs(mpmath.mpc(z.value) - mpmath.zeta(mpmath.mpc(s.real, s.imag)))) <= z.abs_err_est


def test_zeta_near_factor_zero_matches_the_mean_of_the_quotient():
    # Oracle: 4-point mean of the plain quotient on a much larger circle,
    # where the quotient itself is solid; the mean matches zeta(center) to
    # O(radius^4).
    s = complex(1.0, FACTOR_ZERO_SPACING) + 1e-8
    big_r = 1e-3
    probes = [eta(p).value / (1.0 - 2.0 ** (1.0 - p)) for p in (s + big_r * o for o in (1, 1j, -1, -1j))]
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


@pytest.mark.parametrize("s", [0.0, 1e-13])
def test_reflect_at_the_origin_returns_zeta_of_zero(s):
    # Gamma((1-s)/2) / Gamma(s/2) * zeta(1-s) has a removable singularity at 0
    assert zeta_reflect(s) == zeta(0.0) == EvalResult(-0.5 + 0j, 1e-12, "functional-equation")


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


ABOVE_MAX_HEIGHT = [
    (f, s)
    for f in (zeta, zeta_reflect)
    for s in (3.0 + 1e12j, 3.0 - 1e100j, 0.5 + 2e5j, -0.5 + 2e5j, -3.0 + 1e100j, complex(2.0, 1.000001 * MAX_HEIGHT))
]


@pytest.mark.parametrize(
    "f, s", ABOVE_MAX_HEIGHT, ids=[str(s) if f is zeta else f"{s}-zeta_reflect" for f, s in ABOVE_MAX_HEIGHT]
)
def test_zeta_raises_above_max_height_before_it_allocates(f, s):
    # zeta(3+1e12j) asked numpy for 5.46 TiB, and zeta(3+1e100j) raised a bare ValueError;
    # zeta_reflect(0.5+2e5j) and zeta_reflect(-3+1e100j) raised Overflow from sin and Gamma
    with pytest.raises(DomainError, match="supported up to height"):
        f(s)
    assert zeta(complex(2.0, MAX_HEIGHT)).method == "direct-series"


def test_eta_raises_above_the_height_limit_on_every_call():
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


def test_em_and_reflected_zeta_hold_their_bounds_against_mpmath():
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(2027)
    em = [complex(rng.uniform(1.5, 40.0), rng.uniform(-400.0, 400.0)) for _ in range(125)]
    reflected = [complex(rng.uniform(-40.0, 0.0), rng.uniform(-60.0, 60.0)) for _ in range(125)]
    for s in em + reflected:
        got = zeta(s)
        assert got.method == ("direct-series" if s.real > 1.5 else "functional-equation")
        with mpmath.workdps(30):
            ref = mpmath.zeta(mpmath.mpc(s.real, s.imag))
            assert float(abs(mpmath.mpc(got.value) - ref)) <= got.abs_err_est, s


@pytest.mark.parametrize("s", [1e13, 5e12 + 3j, 1e14, 1e300])
def test_em_route_raises_where_its_value_or_bound_leaves_the_floating_range(s):
    from zetalab import zeta_many

    # the 25-factor Pochhammer modulus overflows and meets n^(-Re s - 25) = 0
    with pytest.raises(DomainError, match="floating range"):
        zeta(s)
    res = zeta_many([s, 2.0])
    assert isinstance(res[0], DomainError) and "floating range" in str(res[0])
    assert res[1] == zeta(2.0)


def test_reflect_route_errors_name_the_function_called():
    # zeta_reflect runs in the batch zeta uses, and its errors name the function called
    with pytest.raises(DomainError, match=r"^zeta_reflect at s = \(-300\+10j\) leaves the floating range"):
        zeta_reflect(-300 + 10j)
    with pytest.raises(DomainError, match=r"^zeta at s = \(-300\+10j\) leaves the floating range"):
        zeta(-300 + 10j)


def _reflected_reference(s: complex) -> tuple[complex, float]:
    """zeta(s) on the reflected route and its bound, from gamma(), _rgamma and
    zeta(1 - s) by the functional equation's formula term for term."""
    from zetalab.specfun import _rgamma
    from zetalab.zeta_eval import _EPS

    g1, rg, z1 = gamma((1.0 - s) / 2.0), _rgamma(s / 2.0), zeta(1.0 - s)
    value = cmath.exp((s - 0.5) * math.log(math.pi)) * g1.value * rg * z1.value
    rel = g1.abs_err_est / abs(g1.value) + 6e-13 + z1.abs_err_est / max(abs(z1.value), 1e-300) + 8.0 * _EPS
    return value, abs(value) * rel


def test_reflected_zeta_many_is_bit_identical_to_the_reference_formula():
    from zetalab import zeta_many

    rng = np.random.default_rng(1804)
    points = [complex(rng.uniform(-60.0, 0.0), rng.uniform(-80.0, 80.0)) for _ in range(300)]
    points += [complex(rng.uniform(-0.5, 0.0), rng.uniform(-40.0, 40.0)) for _ in range(60)]  # zeta(1-s) in the strip
    points += [complex(-2.0 * k, sign) for k in (1, 2, 7, 142) for sign in (0.0, -0.0)]  # trivial zeros
    points += [complex(x, sign) for x in rng.uniform(-30.0, -1e-3, 20) for sign in (0.0, -0.0)]
    for s, got in zip(points, zeta_many(points)):
        value, bound = _reflected_reference(s)
        assert got.method == "functional-equation"
        assert (got.value.real.hex(), got.value.imag.hex()) == (value.real.hex(), value.imag.hex()), s
        assert got.abs_err_est.hex() == bound.hex(), s


def test_lanczos_overflow_is_a_typed_error():
    from zetalab import zeta_many

    with pytest.raises(Overflow):
        gamma(172)
    with pytest.raises(Overflow):
        zeta(-1e13)  # Gamma((1 - s)/2) on the reflected route
    res = zeta_many([-1e13, 2.0])
    assert isinstance(res[0], Overflow)
    assert res[1] == zeta(2.0)


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

    factor_zero = complex(1.0, FACTOR_ZERO_SPACING)
    # the direct series takes the disks of radius 5e-7 around the factor
    # zeros and around the pole, and the quotient resumes just outside
    disks = [factor_zero, factor_zero + 1e-10, factor_zero + 4.9e-7j, 1.0 + 1e-9, 1.0 - 4.9e-7]
    outside = [factor_zero + 5.1e-7, 1.0 + 5.1e-7j]
    res = zeta_many([1.0, 0j, -2.0, -0.5 + 600j, 3.0 + 2 * MAX_HEIGHT * 1j, *disks, *outside])
    assert isinstance(res[0], PoleAtOne)
    assert res[1].value == -0.5 and res[1].method == "functional-equation"
    assert res[2].value == 0.0
    assert isinstance(res[3], Overflow)  # the Gamma factors fail before the inner zeta
    assert isinstance(res[4], DomainError) and "height" in str(res[4])
    for s, r in zip(disks + outside, res[5:]):
        assert r == zeta(s) and r.method == ("direct-series" if s in disks else "accelerated-eta"), s
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
    for f in (gamma, zeta_reflect):
        with pytest.raises(DomainError, match="finite"):
            f(s)


@pytest.mark.parametrize(
    "s", [complex(math.nan, 1.0), complex(0.5, math.inf), complex(math.inf, 0.0), complex(3.0, math.nan)]
)
@pytest.mark.parametrize(
    "f",
    [
        theta,
        lambda s: conj_ratio(s.real, s.imag),
        nu,
        kappa,
    ],
    ids=["theta", "conj_ratio", "nu", "kappa"],
)
def test_non_finite_input_to_the_other_routes_raises_domain_error(f, s):
    with pytest.raises(DomainError, match="finite"):
        f(s)


def test_em_head_length_meets_the_target_without_doubling():
    from zetalab.zeta_eval import _TARGET_ABS_ERR, _em_plan

    re = np.concatenate([1.5 + np.geomspace(1e-9, 1.5, 40), np.geomspace(3.0, 1e8, 40)])
    im = np.concatenate([np.linspace(0.0, 40.0, 801), np.geomspace(40.0, 1e9, 400)])
    a, b = (g.ravel() for g in np.meshgrid(re, im))
    _, bound = _em_plan(a + 1j * b)
    assert bound.max() < 1e-20 < 0.5 * _TARGET_ABS_ERR
