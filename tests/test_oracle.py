"""One seeded table of evaluators against mpmath at 40 digits: every value
lies within its committed bound abs_err_est of the reference, and every
sampled point returns a value."""

import math
import zlib

import numpy as np
import pytest

mpmath = pytest.importorskip("mpmath")

from zetalab import gamma, kappa, nu, theta, zeta  # noqa: E402
from zetalab.zeta_eval import FACTOR_ZERO_SPACING, MAX_HEIGHT  # noqa: E402


def _mp_eta(s):
    return (1 - mpmath.power(2, 1 - s)) * mpmath.zeta(s)


REFERENCES = {
    gamma: mpmath.gamma,
    zeta: mpmath.zeta,
    nu: lambda s: mpmath.zeta(s) / mpmath.zeta(1 - mpmath.conj(s)),
    kappa: lambda s: _mp_eta(s) / _mp_eta(2 * s),
    theta: lambda s: (1 - 2 / mpmath.power(4, s)) / (1 - 2 / mpmath.power(2, s)),
}


def _em_band(lo, hi):
    return lambda rng: complex(rng.uniform(1.5, 2.5), rng.choice([-1.0, 1.0]) * rng.uniform(lo, hi))


def _disk(centre):
    """A point within 5e-7 of centre(rng), at least 1e-12 from it, or the centre itself."""

    def sample(rng):
        c = centre(rng)
        if rng.uniform() < 0.1 and c != 1.0:
            return c
        radius = 10.0 ** rng.uniform(-11.9, math.log10(4.9e-7))
        return c + radius * complex(np.exp(1j * rng.uniform(0.0, 2.0 * math.pi)))

    return sample


def _annulus(centre):
    """A point 5e-7 to 1e-2 from centre(rng), log-uniform in the distance:
    outside the disk of the direct series, where the strip quotient runs."""

    def sample(rng):
        radius = 10.0 ** rng.uniform(math.log10(5e-7), -2.0)
        return centre(rng) + radius * complex(np.exp(1j * rng.uniform(0.0, 2.0 * math.pi)))

    return sample


def _factor_zero(rng):
    k = int(rng.integers(1, 46)) * int(rng.choice([-1, 1]))
    return complex(1.0, k * FACTOR_ZERO_SPACING)


def _near_factor_zero(rng):
    """The zero 1 + 2 pi i k / ln 2 of (1 - 2^(1-s)) for k = +-1, +-2 or +-20."""
    return complex(1.0, int(rng.choice([-20, -2, -1, 1, 2, 20])) * FACTOR_ZERO_SPACING)


def _box(re, im):
    return lambda rng: complex(rng.uniform(*re), rng.uniform(*im))


def _gamma_contract(lanczos):
    """A point of gamma's contract domain |s| <= 20 on the Lanczos branch
    (Re s >= 1/2) or on the reflected one."""

    def sample(rng):
        while True:
            s = 20.0 * math.sqrt(rng.uniform()) * complex(np.exp(1j * rng.uniform(0.0, 2.0 * math.pi)))
            if (s.real >= 0.5) == lanczos:
                return s

    return sample


def _gamma_far(rng):
    return complex(rng.choice([-1.0, 1.0]) * rng.uniform(20.0, 140.0), rng.uniform(-50.0, 50.0))


#: row id, function, point sampler, number of points, the method zeta must take
TABLE = [
    ("em-400-5e3", zeta, _em_band(400.0, 5e3), 8, "direct-series"),
    ("em-5e3-3e4", zeta, _em_band(5e3, 3e4), 6, "direct-series"),
    ("em-3e4-max", zeta, _em_band(3e4, MAX_HEIGHT), 6, "direct-series"),
    ("em-at-max", zeta, lambda rng: complex(rng.uniform(1.5, 40.0), MAX_HEIGHT), 2, "direct-series"),
    ("factor-zero-disks", zeta, _disk(_factor_zero), 90, "direct-series"),
    ("pole-disk", zeta, _disk(lambda rng: 1.0), 40, "direct-series"),
    ("pole-annulus", zeta, _annulus(lambda rng: 1.0), 40, "accelerated-eta"),
    ("factor-zero-annuli", zeta, _annulus(_near_factor_zero), 60, "accelerated-eta"),
    # both sides of the Re s = 1.5 switch between the strip and the direct series
    ("right-of-strip-low", zeta, _box((1.001, 3.0), (-20.0, 20.0)), 100, None),
    ("gamma-lanczos", gamma, _gamma_contract(True), 150, None),
    ("gamma-reflected", gamma, _gamma_contract(False), 150, None),
    ("gamma-far", gamma, _gamma_far, 150, None),
    ("nu", nu, _box((-10.0, 10.0), (-40.0, 40.0)), 60, None),
    ("nu-strip", nu, _box((0.1, 0.9), (1.0, 25.0)), 100, None),
    ("kappa", kappa, _box((0.26, 3.0), (-100.0, 100.0)), 60, None),
    ("theta-strip", theta, _box((-20.0, 20.0), (-50.0, 50.0)), 100, None),
    ("theta-left", theta, _box((-1020.0, -1.0), (-50.0, 50.0)), 100, None),
    # where 4^-s leaves the floating range; theta's closed form takes 2^-s alone, and stays finite there
    ("theta-switch", theta, _box((-512.0, -505.0), (-50.0, 50.0)), 50, None),
    ("theta-high", theta, _box((0.0, 5.0), (1e3, 1e4)), 100, None),
]


@pytest.mark.parametrize("row, f, sample, count, method", TABLE, ids=[row[0] for row in TABLE])
def test_values_hold_their_bounds_against_mpmath(row, f, sample, count, method):
    rng = np.random.default_rng(zlib.crc32(row.encode()))
    reference = REFERENCES[f]
    for _ in range(count):
        s = sample(rng)
        got = f(s)
        if method is not None:
            assert got.method == method, s
        with mpmath.workdps(40):
            ref = reference(mpmath.mpc(s.real, s.imag))
            assert float(abs(mpmath.mpc(got.value) - ref)) <= got.abs_err_est, (row, s)
