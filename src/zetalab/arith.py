"""Integer arithmetic functions, sieves, and the Dirichlet convolution
engine.

Sieve conventions: Omega counts prime factors with multiplicity and
Omega(1) = 0, so liouville(1) = 1; mangoldt(n) = ln p iff n = p^k;
sigma_paper(n) is 0 for odd n and sum_{d | n/2} mu(d) for even n, taken
literally (the divisor-sum oracle shows this collapses to [n == 2]).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import BoundMismatch, CapacityError

__all__ = [
    "ArithTable",
    "CoeffSeq",
    "build_table",
    "cached_table",
    "sigma_paper",
    "dirichlet_convolve",
    "primes_upto",
    "delta_seq",
    "one_seq",
    "mu_seq",
    "g_paper_seq",
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
        mu: Mobius function, values in {-1, 0, 1}.
        big_omega: number of prime factors counted with multiplicity.
        liouville: (-1)^big_omega, values in {-1, 1}.
        mangoldt: ln p at prime powers p^k, else 0.
        sigma_paper: 0 at odd n, sum_{d | n/2} mu(d) at even n.
    """

    bound: int
    mu: np.ndarray
    big_omega: np.ndarray
    liouville: np.ndarray
    mangoldt: np.ndarray
    sigma_paper: np.ndarray


def build_table(n: int) -> ArithTable:
    """Sieve all five arrays up to n and run the construction invariants.

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
    n_small = int(np.searchsorted(primes, math.isqrt(n), side="right"))

    # Strided passes over the primes <= sqrt(n); dividing them out of `rest`
    # leaves 1 or the single prime factor above sqrt(n) at each index.
    mu = np.ones(n + 1, dtype=np.int8)
    mu[0] = 0
    omega = np.zeros(n + 1, dtype=np.int16)
    mangoldt = np.zeros(n + 1, dtype=np.float64)
    rest = np.arange(n + 1, dtype=np.int32)
    for p in primes[:n_small].tolist():
        mu[p::p] *= -1
        mu[p * p :: p * p] = 0
        log_p = math.log(p)
        pk = p
        while pk <= n:
            omega[pk::pk] += 1
            mangoldt[pk] = log_p
            rest[pk::pk] //= p
            pk *= p
    has_large = rest > 1
    del rest
    omega += has_large
    mu *= 1 - 2 * has_large.view(np.int8)
    del has_large
    large = primes[n_small:]
    mangoldt[large] = np.fromiter(map(math.log, large), dtype=np.float64, count=large.size)

    liouville = 1 - 2 * (omega & 1).astype(np.int8)
    liouville[0] = 0

    # the divisor sum of mu over m = n/2, accumulated at sigma[n]
    sigma = np.zeros(n + 1, dtype=np.int64)
    _add_divisor_sums(mu, sigma[::2])

    _construction_checks(n, mu, omega, liouville)
    return ArithTable(n, mu, omega, liouville, mangoldt, sigma)


def _add_divisor_sums(mu: np.ndarray, out: np.ndarray) -> None:
    """out[m] += sum_{d | m} mu[d] for m = 1..len(out) - 1: strided by d up
    to r = isqrt(m) where mu[d] != 0, then by the cofactor k for d > r."""
    m = out.size - 1
    r = math.isqrt(m)
    for d in (np.flatnonzero(mu[1 : r + 1]) + 1).tolist():
        out[d::d] += mu[d]
    for k in range(1, m // (r + 1) + 1):
        hi = m // k
        out[k * (r + 1) : k * hi + 1 : k] += mu[r + 1 : hi + 1]


def _construction_checks(n: int, mu: np.ndarray, omega: np.ndarray, liouville: np.ndarray) -> None:
    limit = min(n, SELF_CHECK_LIMIT)
    divsum = np.zeros(limit + 1, dtype=np.int64)
    _add_divisor_sums(mu, divsum)
    if divsum[1] != 1 or np.any(divsum[2:]):
        raise AssertionError("Mobius divisor-sum invariant failed at construction")
    if mu[1] != 1 or np.any(liouville[1:] != np.where(omega[1:] & 1, -1, 1)):
        raise AssertionError("liouville/omega invariant failed at construction")


@lru_cache(maxsize=4)
def cached_table(n: int) -> ArithTable:
    """Memoized build_table for the table bounds the harness reuses."""
    return build_table(n)


def _mu_single(n: int) -> int:
    """Mobius by trial division, for desk-scale single values."""
    if n == 1:
        return 1
    result = 1
    d = 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            result = -result
        d += 1
    if n > 1:
        result = -result
    return result


def sigma_paper(n: int) -> int:
    """0 for odd n; for even n the Mobius sum over divisors of n/2,
    evaluated exactly as written via divisor enumeration."""
    n = int(n)
    if n < 1:
        raise ValueError("n must be >= 1")
    if n % 2 == 1:
        return 0
    m = n // 2
    total = 0
    d = 1
    while d * d <= m:
        if m % d == 0:
            total += _mu_single(d)
            if d != m // d:
                total += _mu_single(m // d)
        d += 1
    return total


# ---------------------------------------------------------------------------
# Dirichlet-series coefficient sequences and the convolution engine.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CoeffSeq:
    """Dirichlet-series coefficients indexed 1..bound (entry 0 unused)."""

    coeffs: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.coeffs, dtype=np.float64)
        if arr.ndim != 1 or arr.shape[0] < 2:
            raise ValueError("coeffs must be a 1-d array with entries 1..N")
        if not np.all(np.isfinite(arr)):
            raise ValueError("coefficients must be finite")
        object.__setattr__(self, "coeffs", arr)

    @property
    def bound(self) -> int:
        return self.coeffs.shape[0] - 1

    def __getitem__(self, n: int) -> float:
        return float(self.coeffs[n])


def delta_seq(n: int) -> CoeffSeq:
    """Convolution identity (1, 0, 0, ...)."""
    c = np.zeros(n + 1)
    c[1] = 1.0
    return CoeffSeq(c)


def one_seq(n: int) -> CoeffSeq:
    """Constant sequence 1 (the zeta coefficients)."""
    c = np.ones(n + 1)
    c[0] = 0.0
    return CoeffSeq(c)


def mu_seq(table: ArithTable) -> CoeffSeq:
    return CoeffSeq(table.mu.astype(np.float64))


def g_paper_seq(table: ArithTable) -> CoeffSeq:
    """Coefficients read literally from 1/zeta(2s) = sum mu(n) (2n)^(-s):
    g[m] = mu(m/2) for even m, else 0."""
    n = table.bound
    c = np.zeros(n + 1)
    even = np.arange(2, n + 1, 2)
    c[even] = table.mu[even // 2]
    return CoeffSeq(c)


def dirichlet_convolve(f: CoeffSeq, g: CoeffSeq) -> CoeffSeq:
    """Exact Dirichlet convolution (f*g)(n) = sum_{d|n} f(d) g(n/d) up to the
    common bound via the divisor double loop.

    Raises:
        BoundMismatch: when the sequences have different bounds.
    """
    n = f.bound
    if g.bound != n:
        raise BoundMismatch(f"bounds differ: {n} vs {g.bound}")
    out = np.zeros(n + 1)
    fc = f.coeffs
    gc = g.coeffs
    for d in range(1, n + 1):
        fd = fc[d]
        if fd == 0.0:
            continue
        m = n // d
        out[d :: d] += fd * gc[1 : m + 1]
    return CoeffSeq(out)
