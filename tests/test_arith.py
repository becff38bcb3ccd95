"""Sieves against trial-division brute force, and the convolution engine."""

import math
from functools import lru_cache

import numpy as np
import pytest

from zetalab import CoeffSeq, build_table, dirichlet_convolve, sigma_paper
from zetalab.arith import (
    _construction_checks,
    cached_table,
    delta_seq,
    g_paper_seq,
    mu_seq,
    one_seq,
)
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
    for n in (p * p - 1, p * p, p * p + 1, 2 * p * p - 1, 2 * p * p, 2 * p * p + 1):
        if n >= 2:
            assert_table_matches_oracle(n)


@pytest.mark.parametrize("n", [1024, 1025, 2187, 4097, 9999, 3**10, 3**10 + 1])
def test_sieve_matches_bruteforce_at_prime_powers_and_odd_bounds(n):
    assert_table_matches_oracle(n)


def test_build_table_dtypes():
    table = build_table(1000)
    assert table.mu.dtype == np.int8
    assert table.big_omega.dtype == np.int16
    assert table.liouville.dtype == np.int8
    assert table.mangoldt.dtype == np.float64
    assert table.sigma_paper.dtype == np.int64


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


def test_build_table_validation():
    with pytest.raises(ValueError):
        build_table(1)
    with pytest.raises(CapacityError):
        build_table(200_000_000)


def test_sigma_paper_examples():
    assert sigma_paper(9) == 0
    assert sigma_paper(2) == 1  # mu(1) over divisors of 1
    assert sigma_paper(12) == 0  # 1 - 1 - 1 + 1 over divisors of 6
    for n in range(1, 300):
        assert sigma_paper(n) == sigma_brute(n) == (1 if n == 2 else 0)


# ---------------------------------------------------------------------------
# Convolution engine.
# ---------------------------------------------------------------------------


def test_convolution_with_delta_is_identity():
    rng = np.random.default_rng(31)
    coeffs = np.zeros(201)
    coeffs[1:] = rng.integers(-5, 6, size=200)
    f = CoeffSeq(coeffs)
    out = dirichlet_convolve(f, delta_seq(200))
    assert np.array_equal(out.coeffs, f.coeffs)


def test_one_star_mu_is_delta():
    table = cached_table(10**4)
    conv = dirichlet_convolve(one_seq(10**4), mu_seq(table))
    assert conv.coeffs[1] == 1.0
    assert not np.any(conv.coeffs[2:])


def test_convolution_commutative_and_associative():
    rng = np.random.default_rng(8)
    n = 512

    def rand_seq():
        c = np.zeros(n + 1)
        c[1:] = rng.integers(-4, 5, size=n)
        return CoeffSeq(c)

    f, g, h = rand_seq(), rand_seq(), rand_seq()
    assert np.array_equal(dirichlet_convolve(f, g).coeffs, dirichlet_convolve(g, f).coeffs)
    lhs = dirichlet_convolve(dirichlet_convolve(f, g), h).coeffs
    rhs = dirichlet_convolve(f, dirichlet_convolve(g, h)).coeffs
    assert np.array_equal(lhs, rhs)


def test_convolution_bound_mismatch():
    with pytest.raises(BoundMismatch):
        dirichlet_convolve(one_seq(10), one_seq(11))


def test_g_paper_convolution_reproduces_sigma():
    # (1 * g)(n) with g[m] = mu(m/2) on even m equals the sigma definition,
    # and the brute-force oracle shows both collapse to [n == 2].
    table = cached_table(10**4)
    conv = dirichlet_convolve(one_seq(10**4), g_paper_seq(table))
    assert np.array_equal(conv.coeffs, table.sigma_paper.astype(np.float64))
    expected = np.zeros(10**4 + 1)
    expected[2] = 1.0
    assert np.array_equal(conv.coeffs, expected)
