"""Integer arithmetic functions, sieves, and the Dirichlet convolution
kernel.

Sieve conventions: Omega counts prime factors with multiplicity and
Omega(1) = 0, so liouville(1) = 1; mangoldt(n) = ln p iff n = p^k;
the column sigma_paper[n] is 0 for odd n and sum_{d | n/2} mu(d) for even
n, taken literally and computed as (1*mu)(n/2) through dirichlet_convolve
(the divisor-sum oracle shows this collapses to [n == 2]).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import BoundMismatch, CapacityError

__all__ = [
    "ArithTable",
    "build_table",
    "cached_table",
    "dirichlet_convolve",
    "primes_upto",
]

#: refuse sieve bounds above this many entries.
MEMORY_BUDGET = 100_000_000

#: construction-time invariant checks run up to this index.
SELF_CHECK_LIMIT = 10_000


@lru_cache(maxsize=8)
def _primes_upto_cached(n: int) -> np.ndarray:
    if n < 2:
        return np.array([], dtype=np.int64)
    is_prime = np.ones(n + 1, dtype=bool)
    is_prime[:2] = False
    for i in range(2, int(n**0.5) + 1):
        if is_prime[i]:
            is_prime[i * i :: i] = False
    return np.nonzero(is_prime)[0].astype(np.int64)


def primes_upto(n: int) -> np.ndarray:
    """Primes <= n by Eratosthenes sieve (cached, do not mutate)."""
    return _primes_upto_cached(int(n))


@dataclass(frozen=True)
class ArithTable:
    """Sieved arithmetic-function arrays, index 1..bound (index 0 unused).

    Attributes:
        bound: largest index N.
        mu: Mobius function, values in {-1, 0, 1} (int8).
        big_omega: number of prime factors counted with multiplicity (int16).
        liouville: (-1)^big_omega, values in {-1, 1} (int8).
        sigma_paper: 0 at odd n, sum_{d | n/2} mu(d) at even n, in {0, 1} (int8).
        mangoldt: ln p at prime powers p^k, else 0 (float64), computed on first access.
    """

    bound: int
    mu: np.ndarray
    big_omega: np.ndarray
    liouville: np.ndarray
    sigma_paper: np.ndarray

    @cached_property
    def mangoldt(self) -> np.ndarray:
        n = self.bound
        primes = primes_upto(n)
        out = np.zeros(n + 1, dtype=np.float64)
        out[primes] = np.fromiter(map(math.log, primes.tolist()), dtype=np.float64, count=primes.size)
        for p in primes[: np.searchsorted(primes, math.isqrt(n), side="right")].tolist():
            pk = p * p
            while pk <= n:
                out[pk] = out[p]
                pk *= p
        return out


def build_table(n: int) -> ArithTable:
    """Sieve mu, big_omega, liouville and sigma_paper up to n and run the
    construction invariants; mangoldt waits for its first access.

    Args:
        n: bound, 2 <= n <= memory budget.

    Raises:
        CapacityError: n beyond the configured budget.
    """
    n = int(n)
    if n < 2:
        raise ValueError("bound must be >= 2")
    if n > MEMORY_BUDGET:
        raise CapacityError(f"bound {n} exceeds budget {MEMORY_BUDGET}")

    primes = primes_upto(n)
    r = math.isqrt(n)
    n_small = int(np.searchsorted(primes, r, side="right"))

    # strided passes over the primes <= r
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
    # each i <= n has at most one prime factor q > r, and i = q*m with m <= n // (r + 1)
    large = primes[n_small:]
    has_large = np.zeros(n + 1, dtype=bool)
    for m in range(1, n // (r + 1) + 1):
        has_large[m * large[: np.searchsorted(large, n // m, side="right")]] = True
    omega += has_large
    mu *= 1 - 2 * has_large.view(np.int8)
    del has_large

    liouville = 1 - 2 * (omega & 1).astype(np.int8)
    liouville[0] = 0

    # sigma[2m] = (1*mu)(m), the divisor sum of mu over m = n/2, stored as int8
    divsum = dirichlet_convolve(mu[: n // 2 + 1], np.ones(n // 2 + 1, dtype=np.int8))
    sigma = np.zeros(n + 1, dtype=np.int8)
    sigma[::2] = divsum
    if not np.array_equal(sigma[::2], divsum):
        raise AssertionError("sigma_paper leaves the int8 range at construction")

    _construction_checks(n, mu, omega, liouville)
    return ArithTable(n, mu, omega, liouville, sigma)


def dirichlet_convolve(f, g) -> np.ndarray:
    """(f*g)(m) = sum_{d | m} f(d) g(m/d) for m = 1..n, from coefficient
    arrays indexed 0..n (entry 0 unused, and 0 in the result). Products are
    formed in np.result_type(f, g, np.int64), so small integers do not wrap.

    Every divisor pair d*k = m <= n has d <= r = isqrt(n) or, if d > r,
    k <= n // (r + 1): one loop strides by d over the first pairs, the other
    by k over the rest, and both skip zero coefficients.

    Raises:
        ValueError: an array is not 1-d and finite with at least 2 entries.
        BoundMismatch: the arrays differ in length.
    """
    f, g = np.asarray(f), np.asarray(g)
    for c in (f, g):
        if c.ndim != 1 or c.shape[0] < 2 or not np.all(np.isfinite(c)):
            raise ValueError("coefficients must be a finite 1-d array with entries 1..n")
    n = f.shape[0] - 1
    if g.shape[0] != n + 1:
        raise BoundMismatch(f"bounds differ: {n} vs {g.shape[0] - 1}")
    dtype = np.result_type(f, g, np.int64)
    out = np.zeros(n + 1, dtype=dtype)
    r = math.isqrt(n)
    for d in (np.flatnonzero(f[1 : r + 1]) + 1).tolist():
        out[d::d] += dtype.type(f[d]) * g[1 : n // d + 1]
    for k in (np.flatnonzero(g[1 : n // (r + 1) + 1]) + 1).tolist():
        hi = n // k
        out[k * (r + 1) : k * hi + 1 : k] += dtype.type(g[k]) * f[r + 1 : hi + 1]
    return out


def _construction_checks(n: int, mu: np.ndarray, omega: np.ndarray, liouville: np.ndarray) -> None:
    limit = min(n, SELF_CHECK_LIMIT)
    divsum = dirichlet_convolve(np.ones(limit + 1, dtype=np.int8), mu[: limit + 1])
    if divsum[1] != 1 or np.any(divsum[2:]):
        raise AssertionError("Mobius divisor-sum invariant failed at construction")
    if mu[1] != 1 or np.any(liouville[1:] != np.where(omega[1:] & 1, np.int8(-1), np.int8(1))):
        raise AssertionError("liouville/omega invariant failed at construction")


@lru_cache(maxsize=4)
def cached_table(n: int) -> ArithTable:
    """Memoized build_table for the table bounds the harness reuses."""
    return build_table(n)
