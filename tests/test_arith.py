"""Sieves against trial-division brute force, and the convolution kernel."""

import math
import tracemalloc
from functools import lru_cache

import numpy as np
import pytest

from zetalab import build_table, dirichlet_convolve
from zetalab.arith import _construction_checks, cached_table, primes_upto
from zetalab.errors import BoundMismatch, CapacityError

# ---------------------------------------------------------------------------
# Trial-division oracles.
# ---------------------------------------------------------------------------


def factorize(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def mu_brute(n: int) -> int:
    f = factorize(n)
    if any(e > 1 for e in f.values()):
        return 0
    return -1 if len(f) % 2 else 1


def omega_brute(n: int) -> int:
    return sum(factorize(n).values())


def mangoldt_brute(n: int) -> float:
    f = factorize(n)
    if len(f) == 1:
        (p,) = f.keys()
        return math.log(p)
    return 0.0


def divisors(n: int) -> list[int]:
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
        d += 1
    return sorted(out)


def sigma_brute(n: int) -> int:
    if n % 2 == 1:
        return 0
    return sum(mu_brute(d) for d in divisors(n // 2))


# ---------------------------------------------------------------------------
# Sieve correctness.
# ---------------------------------------------------------------------------


def test_sieve_matches_bruteforce_to_1e4():
    table = cached_table(10**4)
    for n in range(1, 10**4 + 1):
        assert table.mu[n] == mu_brute(n), n
        assert table.big_omega[n] == omega_brute(n), n
        assert table.liouville[n] == (-1) ** omega_brute(n), n
        assert abs(table.mangoldt[n] - mangoldt_brute(n)) < 1e-12, n
        assert table.sigma_paper[n] == sigma_brute(n), n


#: largest bound the split-edge tests compare against the oracles.
ORACLE_BOUND = 3**10 + 1


@lru_cache(maxsize=1)
def oracle_arrays(n: int) -> dict[str, np.ndarray]:
    """The trial-division oracles at every index 1..n (entry 0 unused)."""
    idx = range(1, n + 1)
    mu = np.array([0] + [mu_brute(k) for k in idx])
    omega = np.array([0] + [omega_brute(k) for k in idx])
    sigma = [0] + [0 if k % 2 else int(sum(mu[d] for d in divisors(k // 2))) for k in idx]
    return {
        "mu": mu,
        "big_omega": omega,
        "liouville": np.where(omega % 2, -1, 1),
        "mangoldt": np.array([0.0] + [mangoldt_brute(k) for k in idx]),
        "sigma_paper": np.array(sigma),
    }


def assert_table_matches_oracle(n: int) -> None:
    table = build_table(n)
    oracle = oracle_arrays(ORACLE_BOUND)
    for name, expected in oracle.items():
        got = getattr(table, name)
        assert got.shape == (n + 1,), (n, name)
        assert np.array_equal(got[1:], expected[1 : n + 1]), (n, name)


def test_sieve_matches_bruteforce_every_small_bound():
    # Each bound moves isqrt(n) and isqrt(n // 2), the split points of the sieve.
    for n in range(2, 301):
        assert_table_matches_oracle(n)


@pytest.mark.parametrize("p", [2, 3, 7, 31, 97, 157])
def test_sieve_matches_bruteforce_around_prime_squares(p):
    # p*q with q the next prime is the smallest bound at which m = p multiplies a prime
    # above isqrt(n): the edges of the range m <= n // (isqrt(n) + 1) of the marking loop
    q = next(k for k in range(p + 1, 2 * p + 1) if all(k % d for d in range(2, math.isqrt(k) + 1)))
    for n in (p * p - 1, p * p, p * p + 1, 2 * p * p - 1, 2 * p * p, 2 * p * p + 1, p * q - 1, p * q, p * q + 1):
        if n >= 2:
            assert_table_matches_oracle(n)


@pytest.mark.parametrize("n", [1024, 1025, 2187, 4097, 9999, 3**10, 3**10 + 1])
def test_sieve_matches_bruteforce_at_prime_powers_and_odd_bounds(n):
    assert_table_matches_oracle(n)


def convolve_products(f: np.ndarray, g: np.ndarray) -> np.ndarray:
    """dirichlet_convolve as it was before +-1 coefficients were added in
    place: every stride forms its product array."""
    n = f.shape[0] - 1
    dtype = np.result_type(f, g, np.int64)
    out = np.zeros(n + 1, dtype=dtype)
    r = math.isqrt(n)
    for d in (np.flatnonzero(f[1 : r + 1]) + 1).tolist():
        out[d::d] += dtype.type(f[d]) * g[1 : n // d + 1]
    for k in (np.flatnonzero(g[1 : n // (r + 1) + 1]) + 1).tolist():
        hi = n // k
        out[k * (r + 1) : k * hi + 1 : k] += dtype.type(g[k]) * f[r + 1 : hi + 1]
    return out


def reference_table(n: int) -> dict[str, np.ndarray]:
    """The four sieved columns as the sign-flip sieve computed them before
    mu became (-1)^Omega on squarefree flags: mu negated on every multiple of
    each prime, a whole-length flag array for the prime above isqrt(n), and
    sigma_paper from the product-form convolution."""
    primes = np.array([p for p in range(2, n + 1) if all(p % d for d in range(2, math.isqrt(p) + 1))], dtype=np.int64)
    r = math.isqrt(n)
    n_small = int(np.searchsorted(primes, r, side="right"))
    mu = np.ones(n + 1, dtype=np.int8)
    mu[0] = 0
    omega = np.zeros(n + 1, dtype=np.int16)
    for p in primes[:n_small].tolist():
        mu[p::p] *= -1
        mu[p * p :: p * p] = 0
        pk = p
        while pk <= n:
            omega[pk::pk] += 1
            pk *= p
    large = primes[n_small:]
    has_large = np.zeros(n + 1, dtype=bool)
    for m in range(1, n // (r + 1) + 1):
        has_large[m * large[: np.searchsorted(large, n // m, side="right")]] = True
    omega += has_large
    mu *= 1 - 2 * has_large.view(np.int8)
    liouville = 1 - 2 * (omega & 1).astype(np.int8)
    liouville[0] = 0
    sigma = np.zeros(n + 1, dtype=np.int8)
    sigma[::2] = convolve_products(mu[: n // 2 + 1], np.ones(n // 2 + 1, dtype=np.int8))
    return {"mu": mu, "big_omega": omega, "liouville": liouville, "sigma_paper": sigma}


@pytest.mark.parametrize("n", [2, 3, 4, 24, 25, 26, 48, 49, 50, 9409, 9410, 24649, 99991, 10**5, 10**6])
def test_build_table_matches_the_sign_flip_sieve(n):
    # 9409 = 97^2, 24649 = 157^2, 99991 prime: bounds at and past the split point isqrt(n)
    table = build_table(n)
    for name, expected in reference_table(n).items():
        got = getattr(table, name)
        assert got.dtype == expected.dtype, name
        assert np.array_equal(got, expected), name


def test_build_table_peaks_under_9_5_mb_at_1e6():
    from zetalab import arith

    arith.primes_upto.cache_clear()  # count the primes array as a cold build does
    tracemalloc.start()
    try:
        build_table(10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the four columns take 5 MB, the int64 divisor sum behind sigma_paper 4 MB
    # while it lasts, and the primes 0.6 MB; the sign-flip sieve peaked at 13.2 MB
    assert peak < 9.5e6, peak


def test_primes_upto_keeps_only_the_last_bound():
    assert primes_upto(100).tolist()[-3:] == [83, 89, 97]
    assert primes_upto(200).dtype == np.int64
    assert primes_upto.cache_info().currsize <= 1


def test_build_table_dtypes():
    table = build_table(1000)
    assert table.mu.dtype == np.int8
    assert table.big_omega.dtype == np.int16
    assert table.liouville.dtype == np.int8
    assert table.mangoldt.dtype == np.float64
    assert table.sigma_paper.dtype == np.int8


def test_build_table_leaves_mangoldt_uncomputed_until_it_is_read():
    tracemalloc.start()
    try:
        table = build_table(10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the sieve peaks under 9.5 MB (test_build_table_peaks_under_9_5_mb_at_1e6);
    # the float64 mangoldt column would add 8 MB
    assert peak < 16e6, peak
    assert "mangoldt" not in vars(table)
    mangoldt = table.mangoldt
    assert table.mangoldt is mangoldt and mangoldt.dtype == np.float64
    assert mangoldt[999983] == math.log(999983) and mangoldt[2**19] == math.log(2) and mangoldt[10**6] == 0.0


def test_build_table_refuses_a_sigma_outside_int8(monkeypatch):
    from zetalab import arith

    monkeypatch.setattr(arith, "dirichlet_convolve", lambda f, g: np.full(f.shape, 200))
    with pytest.raises(AssertionError, match="int8"):
        build_table(100)


def test_sigma_paper_divisor_sum_collapses_at_1e6():
    sigma = cached_table(10**6).sigma_paper
    assert np.flatnonzero(sigma).tolist() == [2]
    assert sigma[2] == 1


@pytest.mark.parametrize("d, value", [(6, 0), (4, 1), (9973, 0)])
def test_construction_checks_catch_a_corrupted_mu(d, value):
    # d = 4 and 6 lie at or below sqrt(10^4), 9973 above it
    table = build_table(10**4)
    _construction_checks(table.bound, table.mu, table.big_omega, table.liouville)
    mu = table.mu.copy()
    mu[d] = value
    with pytest.raises(AssertionError, match="Mobius divisor-sum"):
        _construction_checks(table.bound, mu, table.big_omega, table.liouville)


def test_construction_checks_catch_a_corrupted_liouville():
    table = build_table(10**4)
    liouville = table.liouville.copy()
    liouville[12] = 1
    with pytest.raises(AssertionError, match="liouville/omega"):
        _construction_checks(table.bound, table.mu, table.big_omega, liouville)


def test_build_table_spot_values():
    table = build_table(12)
    assert table.mu[6] == 1 and table.mu[4] == 0
    assert table.liouville[12] == -1  # Omega(12) = 3, counted with multiplicity
    assert abs(table.mangoldt[8] - math.log(2.0)) < 1e-15
    assert table.mu[1] == 1 and table.liouville[1] == 1 and table.big_omega[1] == 0
    assert table.sigma_paper[2] == 1  # mu(1) over divisors of 1
    assert table.sigma_paper[12] == 0  # 1 - 1 - 1 + 1 over divisors of 6


def test_build_table_validation():
    with pytest.raises(ValueError):
        build_table(1)
    with pytest.raises(CapacityError):
        build_table(200_000_000)


# ---------------------------------------------------------------------------
# Convolution kernel.
# ---------------------------------------------------------------------------


def convolve_brute(f: np.ndarray, g: np.ndarray) -> list[int | float]:
    """(f*g)(m) by the double loop over d | m, in Python numbers."""
    n = len(f) - 1
    return [0] + [sum(f[d].item() * g[m // d].item() for d in divisors(m)) for m in range(1, n + 1)]


def test_convolution_with_delta_is_identity():
    rng = np.random.default_rng(31)
    f = np.zeros(201)
    f[1:] = rng.integers(-5, 6, size=200)
    delta = np.zeros(201)
    delta[1] = 1.0
    assert np.array_equal(dirichlet_convolve(f, delta), f)


def test_one_star_mu_is_delta():
    table = cached_table(10**4)
    conv = dirichlet_convolve(np.ones(10**4 + 1), table.mu)
    assert conv[1] == 1
    assert not np.any(conv[2:])


def test_convolution_commutative_and_associative():
    rng = np.random.default_rng(8)

    def rand_seq(n):
        c = np.zeros(n + 1)
        c[1:] = rng.integers(-4, 5, size=n)
        return c

    n = 512
    f, g, h = rand_seq(n), rand_seq(n), rand_seq(n)
    assert np.array_equal(dirichlet_convolve(f, g), dirichlet_convolve(g, f))
    lhs = dirichlet_convolve(dirichlet_convolve(f, g), h)
    rhs = dirichlet_convolve(f, dirichlet_convolve(g, h))
    assert np.array_equal(lhs, rhs)
    # the split point isqrt(n) moves between these lengths
    for n in (1, 2, 3, 4, 5, 8, 9, 10, 15, 16, 17, 24, 25, 26, 35, 36, 37, 99, 100, 101):
        f, g = rand_seq(n), rand_seq(n)
        assert dirichlet_convolve(f, g).tolist() == convolve_brute(f, g), n
    # int8 inputs of 100 give products of 10^4, which int8 would wrap
    f = np.full(65, 100, dtype=np.int8)
    conv = dirichlet_convolve(f, f)
    assert conv.dtype == np.int64 and conv[2] == 20000
    assert conv.tolist() == convolve_brute(f, f)


def test_convolution_mixes_unit_and_other_coefficients():
    # +-1 coefficients add their stride in place, the others form a product;
    # both give the divisor-sum definition in every result dtype, and the
    # float sums the product form's bits
    rng = np.random.default_rng(29)
    for n in (1, 2, 3, 15, 16, 17, 99, 100, 101):
        f8 = rng.choice(np.array([-128, -1, 0, 1, 2, 127], dtype=np.int8), size=n + 1)
        g8 = rng.choice(np.array([-128, -3, -1, 1, 5], dtype=np.int8), size=n + 1)
        conv = dirichlet_convolve(f8, g8)
        assert conv.dtype == np.int64
        assert conv.tolist() == convolve_brute(f8, g8), n
        ff = rng.choice(np.array([-1.0, 1.0, 0.5, -2.25, 0.0]), size=n + 1)
        gf = rng.normal(size=n + 1)
        for f, g in ((ff, gf), (f8, gf), (ff, g8)):
            conv = dirichlet_convolve(f, g)
            assert conv.dtype == np.float64
            assert np.array_equal(conv, convolve_products(f, g)), n
            assert np.allclose(conv, convolve_brute(f, g), rtol=1e-13, atol=1e-12), n
    # -128 * -128 summed over the divisors of 64 leaves int8 and int16 alike
    f = np.full(65, -128, dtype=np.int8)
    assert dirichlet_convolve(f, f)[64] == 7 * 128 * 128


@pytest.mark.parametrize(
    "f, g, error",
    [
        (np.ones(11), np.ones(12), BoundMismatch),
        (np.ones((2, 11)), np.ones((2, 11)), ValueError),
        (np.ones(1), np.ones(1), ValueError),
        (np.ones(11), np.array([0.0, 1.0, np.nan, *np.ones(8)]), ValueError),
        (np.array([0.0, np.inf, *np.ones(9)]), np.ones(11), ValueError),
    ],
    ids=["unequal-lengths", "not-1d", "length-1", "nan", "inf"],
)
def test_convolution_rejects_malformed_input(f, g, error):
    with pytest.raises(error):
        dirichlet_convolve(f, g)


def test_g_paper_convolution_reproduces_sigma():
    # (1 * g)(n) with g[m] = mu(m/2) on even m, read literally from
    # 1/zeta(2s) = sum mu(n) (2n)^(-s), equals the sigma definition, and the
    # brute-force oracle shows both collapse to [n == 2].
    n = 10**4
    table = cached_table(n)
    g = np.zeros(n + 1)
    g[2::2] = table.mu[1 : n // 2 + 1]
    conv = dirichlet_convolve(np.ones(n + 1), g)
    assert np.array_equal(conv, table.sigma_paper)
    expected = np.zeros(n + 1)
    expected[2] = 1.0
    assert np.array_equal(conv, expected)
