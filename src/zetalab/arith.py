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


@lru_cache(maxsize=1)
def primes_upto(n: int) -> np.ndarray:
    """Primes <= n by Eratosthenes sieve (the last bound's are cached; do not mutate)."""
    n = int(n)
    if n < 2:
        return np.array([], dtype=np.int64)
    is_prime = np.ones(n + 1, dtype=bool)
    is_prime[:2] = False
    for i in range(2, int(n**0.5) + 1):
        if is_prime[i]:
            is_prime[i * i :: i] = False
    return np.flatnonzero(is_prime).astype(np.int64, copy=False)


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

    # strided passes over the primes <= r: omega counts each prime power, and
    # mu starts as the squarefree flags, cleared on the multiples of each p^2
    mu = np.ones(n + 1, dtype=np.int8)
    mu[0] = 0
    omega = np.zeros(n + 1, dtype=np.int16)
    for p in primes[:n_small].tolist():
        mu[p * p :: p * p] = 0
        pk = p
        while pk <= n:
            omega[pk::pk] += 1
            pk *= p
    # each i <= n has at most one prime factor q > r, and i = q*m with m <= n // (r + 1) <= r:
    # the passes above counted all of m's primes and none of i's but q, so omega(i) = omega(m) + 1
    large = primes[n_small:]
    for m in range(1, n // (r + 1) + 1):
        omega[m * large[: np.searchsorted(large, n // m, side="right")]] = omega[m] + 1
    # a squarefree n has omega distinct primes, so mu(n) = (-1)^omega(n) there
    mu *= _parity_sign(omega)

    # sigma[2m] = (1*mu)(m), the divisor sum of mu over m = n/2, stored as int8
    divsum = dirichlet_convolve(mu[: n // 2 + 1], np.ones(n // 2 + 1, dtype=np.int8))
    if divsum.min() < -128 or divsum.max() > 127:
        raise AssertionError("sigma_paper leaves the int8 range at construction")
    sigma = np.zeros(n + 1, dtype=np.int8)
    sigma[::2] = divsum
    del divsum

    # formed again here, not kept from mu's sign, so that it never sits beside the divisor sum
    liouville = _parity_sign(omega)
    liouville[0] = 0
    _construction_checks(n, mu, omega, liouville)
    return ArithTable(n, mu, omega, liouville, sigma)


def _parity_sign(omega: np.ndarray) -> np.ndarray:
    """(-1)^omega as int8, formed in place in its one int8 array."""
    sign = np.bitwise_and(omega, 1, dtype=np.int8)
    sign *= -2
    sign += 1
    return sign


def dirichlet_convolve(f, g) -> np.ndarray:
    """(f*g)(m) = sum_{d | m} f(d) g(m/d) for m = 1..n, from coefficient
    arrays indexed 0..n (entry 0 unused, and 0 in the result). Products are
    formed in np.result_type(f, g, np.int64), so small integers do not wrap.

    Every divisor pair d*k = m <= n has d <= r = isqrt(n) or, if d > r,
    k <= n // (r + 1): one loop strides by d over the first pairs, the other
    by k over the rest, and both skip zero coefficients. A coefficient of
    +1 or -1 adds or subtracts its stride in place, with no product array.

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
    out = np.zeros(n + 1, dtype=np.result_type(f, g, np.int64))
    r = math.isqrt(n)
    for d in (np.flatnonzero(f[1 : r + 1]) + 1).tolist():
        _add_multiple(out[d::d], f[d], g[1 : n // d + 1])
    for k in (np.flatnonzero(g[1 : n // (r + 1) + 1]) + 1).tolist():
        hi = n // k
        _add_multiple(out[k * (r + 1) : k * hi + 1 : k], g[k], f[r + 1 : hi + 1])
    return out


def _add_multiple(view: np.ndarray, c, x: np.ndarray) -> None:
    """view += c * x in view's dtype, with no product array when c is +1 or -1."""
    if c == 1:
        np.add(view, x, out=view)
    elif c == -1:
        np.subtract(view, x, out=view)
    else:
        view += view.dtype.type(c) * x


def _construction_checks(n: int, mu: np.ndarray, omega: np.ndarray, liouville: np.ndarray) -> None:
    limit = min(n, SELF_CHECK_LIMIT)
    divsum = dirichlet_convolve(np.ones(limit + 1, dtype=np.int8), mu[: limit + 1])
    if divsum[1] != 1 or np.any(divsum[2:]):
        raise AssertionError("Mobius divisor-sum invariant failed at construction")
    # liouville = 1 - 2 (omega & 1) leaves 1 in every entry of liouville + 2 (omega & 1)
    odd = np.bitwise_and(omega[1:], 1, dtype=np.int8)
    odd *= 2
    odd += liouville[1:]
    if mu[1] != 1 or np.any(odd != 1):
        raise AssertionError("liouville/omega invariant failed at construction")


@lru_cache(maxsize=4)
def cached_table(n: int) -> ArithTable:
    """Memoized build_table for the table bounds the harness reuses."""
    return build_table(n)
