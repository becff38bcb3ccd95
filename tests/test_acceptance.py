"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL
line. Expected values come from the independent oracles defined here
(direct summation with tail bounds, trial division, averaged alternating
sums), never from the evaluation paths under test."""

import math

import numpy as np
import pytest

from zetalab import (
    Rect,
    RunConfig,
    classify_nu,
    count_zeros_rect,
    emit_report,
    eta,
    find_critical_zeros,
    kappa,
    multiplicity,
    nu,
    run_check,
    zeta,
    zeta_reflect,
)
from zetalab.arith import cached_table, primes_upto
from zetalab.reporting import strip_durations

ZERO_TS = (14.134725, 21.022040, 25.010858)


def _report(criterion: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


# ---------------------------------------------------------------------------
# Oracles.
# ---------------------------------------------------------------------------


def zeta_sum_oracle(k: int, n: int = 10**6) -> float:
    m = np.arange(1.0, n + 1.0)
    tail = 1.0 / ((k - 1) * n ** (k - 1)) - 0.5 / n**k + k / (12.0 * n ** (k + 1))
    return float(np.sum(m ** (-float(k)))) + tail


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


# ---------------------------------------------------------------------------
# Shared expensive artifacts.
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def table6():
    return cached_table(10**6)


@pytest.fixture(scope="module")
def found_zeros():
    return find_critical_zeros(10.0, 30.0, 0.01)


@pytest.fixture(scope="module")
def kappa_grid():
    cfg = RunConfig()
    res = np.linspace(0.55, 0.95, cfg.kappa_grid[0])
    ims = np.linspace(0.0, 30.0, cfg.kappa_grid[1])
    return [
        (complex(re, im), kappa(complex(re, im))) for re in res for im in ims
    ]


# ---------------------------------------------------------------------------
# Criteria.
# ---------------------------------------------------------------------------


def test_criterion_1_special_values():
    pi2_6 = zeta_sum_oracle(2)
    ok = abs(zeta(2.0).value - math.pi**2 / 6.0) < 1e-12
    ok &= abs(pi2_6 - math.pi**2 / 6.0) < 1e-12  # oracle confirms the constant
    ok &= abs(zeta(0.0).value - (-0.5)) < 1e-10
    ok &= abs(zeta_reflect(-1.0).value - (-1.0 / 12.0)) < 1e-10
    _report(1, ok, "zeta(2), zeta(0), zeta_reflect(-1) special values")


def test_criterion_2_functional_equation():
    rng = np.random.default_rng(101)
    worst = 0.0
    count = 0
    while count < 100:
        s = complex(
            rng.uniform(0.05, 0.95),
            rng.uniform(0.5, 30.0) * (1.0 if rng.uniform() < 0.5 else -1.0),
        )
        if abs(zeta(s).value) < 1e-3:
            continue  # 1e-3 zero neighborhood excluded
        worst = max(worst, abs(zeta(s).value - zeta_reflect(s).value))
        count += 1
    _report(2, worst < 1e-8, f"functional-equation residual {worst:.3e} over 100 strip points")


def test_criterion_3_conjugate_symmetry():
    rng = np.random.default_rng(103)
    worst = 0.0
    boxes = [(1.6, 4.0), (0.05, 1.45), (-5.0, -0.05)]
    for lo, hi in boxes:
        for _ in range(67):
            s = complex(
                rng.uniform(lo, hi),
                rng.uniform(0.1, 30.0) * (1.0 if rng.uniform() < 0.5 else -1.0),
            )
            worst = max(worst, abs(zeta(s.conjugate()).value - zeta(s).value.conjugate()))
    _report(3, worst < 1e-12, f"conjugate-symmetry residual {worst:.3e} over 201 points")


def test_criterion_4_nu_on_critical_line():
    rng = np.random.default_rng(104)
    worst = 0.0
    count = 0
    while count < 50:
        t = rng.uniform(1.0, 30.0)
        s = complex(0.5, t)
        if abs(zeta(s).value) < 1e-3:
            continue
        worst = max(worst, abs(nu(s).value - 1.0))
        count += 1
    _report(4, worst < 1e-8, f"|nu(1/2+it) - 1| worst {worst:.3e} over 50 points")


def test_criterion_5_nu_classification():
    zeros = classify_nu([0.0, -2.0, -4.0, -6.0, -8.0])
    poles = classify_nu([1.0, 3.0, 5.0, 7.0, 9.0])
    regular = classify_nu([-1.0, -3.0, -5.0, -7.0])
    ok = all(c.kind == "zero" for c in zeros)
    ok &= all(c.kind == "pole" for c in poles)
    ok &= all(c.kind == "regular" for c in regular)
    _report(5, ok, "nu zeros at even negatives, poles at odd positives, regular at odd negatives")


def test_criterion_6_zero_census(found_zeros):
    census = count_zeros_rect(Rect(0.0, 1.0, 0.0, 30.0))
    ok = census == 3
    ok &= len(found_zeros) == 3
    t_found = []
    for rec, t_ref in zip(found_zeros, ZERO_TS):
        ok &= abs(rec.location.imag - t_ref) < 1e-6
        ok &= abs(zeta(1.0 - rec.location.conjugate()).value) < 1e-5
        ok &= abs(rec.multiplicity_estimate - 1.0) < 0.1
        t_found.append(f"{rec.location.imag:.6f}")
    _report(6, ok, f"census {census}; zeros at t = {', '.join(t_found)}")


def test_criterion_7_multiplicities():
    f = lambda z: zeta(z).value
    w_pole = multiplicity(f, 1.0, 1e-4)
    ok = abs(w_pole - (-1.0)) < 1e-2
    for a in (-2.0, -4.0):
        ok &= abs(multiplicity(f, a, 1e-4) - 1.0) < 1e-2
    _report(7, ok, f"w(zeta,1) = {w_pole:.4f}; trivial zeros at -2, -4 have order 1")


def test_criterion_8_euler_bound_and_mertens():
    log_p = np.log(primes_upto(10**6).astype(np.float64))
    rng = np.random.default_rng(108)
    ok = True
    for _ in range(50):
        alpha = rng.uniform(1.1, 4.0)
        s = complex(alpha, rng.uniform(0.0, 30.0))
        lower = math.exp(-float(np.sum(np.exp(-alpha * log_p))))
        ok &= abs(zeta(s).value) >= lower
    theta = rng.uniform(0.0, 2.0 * math.pi, size=10_000)
    min_expr = float(np.min(3.0 + 4.0 * np.cos(theta) + np.cos(2.0 * theta)))
    ok &= min_expr >= -1e-12
    _report(8, ok, f"Euler lower bound at 50 points; Mertens min {min_expr:.2e}")


def test_criterion_9_sieve_oracle(table6):
    ok = True
    for n in range(1, 10**4 + 1):
        f = factorize(n)
        omega = sum(f.values())
        mu = 0 if any(e > 1 for e in f.values()) else (-1 if len(f) % 2 else 1)
        mangoldt = math.log(next(iter(f))) if len(f) == 1 else 0.0
        sigma = 0
        if n % 2 == 0:
            m = n // 2
            d = 1
            while d * d <= m:
                if m % d == 0:
                    for dd in {d, m // d}:
                        ff = factorize(dd) if dd > 1 else {}
                        if not any(e > 1 for e in ff.values()):
                            sigma += -1 if len(ff) % 2 else 1
                d += 1
        ok &= int(table6.mu[n]) == mu
        ok &= int(table6.big_omega[n]) == omega
        ok &= int(table6.liouville[n]) == (-1) ** omega
        ok &= abs(float(table6.mangoldt[n]) - mangoldt) < 1e-12
        ok &= int(table6.sigma_paper[n]) == sigma
        if not ok:
            break
    from zetalab.arith import dirichlet_convolve

    small = cached_table(10**4)
    conv = dirichlet_convolve(np.ones(10**4 + 1), small.mu)
    ok &= conv[1] == 1 and not np.any(conv[2:])
    _report(9, ok, "mu, Omega, lambda, Lambda, sigma match trial division; (1*mu) = [n=1]")


def test_criterion_10_liouville_series(table6):
    n = np.arange(1.0, table6.bound + 1.0)
    series = float(np.dot(table6.liouville[1:].astype(np.float64), n**-3.0))
    target = zeta_sum_oracle(6) / zeta_sum_oracle(3)
    resid = abs(series - target)
    _report(10, resid < 1e-4, f"|sum lambda(n) n^-3 - zeta(6)/zeta(3)| = {resid:.3e}")


def test_criterion_11_finding_determinism(table6):
    n = np.arange(1.0, table6.bound + 1.0)
    sigma_series = float(np.dot(table6.sigma_paper[1:].astype(np.float64), n**-3.0))
    ok = sigma_series == 0.125

    ratio = zeta_sum_oracle(6) / zeta_sum_oracle(3)
    expected_resid = abs(0.125 * ratio - 1.0)
    r58 = run_check("EQ58_PRODUCT")
    ok &= abs(r58.worst_residual - expected_resid) < 1e-10
    ok &= r58.verdict == "finding"

    cfg = RunConfig(seed=7)
    ids = ["EQ56_SIGMA", "EQ58_PRODUCT", "KAPPA_REALNESS"]
    first = emit_report(strip_durations([run_check(i, cfg) for i in ids]), "json", seed=7)
    second = emit_report(strip_durations([run_check(i, cfg) for i in ids]), "json", seed=7)
    ok &= first == second

    r_kappa = run_check("KAPPA_REALNESS", cfg)
    ok &= r_kappa.verdict == "finding" and r_kappa.worst_residual > 0.0
    _report(
        11,
        ok,
        f"sigma series = {sigma_series!r}; EQ58 residual {r58.worst_residual:.6f}; "
        "same-seed reports byte-identical",
    )


def test_criterion_12_kappa_grid(kappa_grid):
    ok = True
    worst_ident = 0.0
    for s, k in kappa_grid:
        mag = abs(k.value)
        ok &= 1e-6 < mag < 1e6
        e1 = eta(s)
        resid = abs(e1.value - k.value * eta(2.0 * s).value)
        worst_ident = max(worst_ident, resid)
        ok &= resid <= 5e-15 * (1.0 + abs(e1.value))
    _report(12, ok, f"40x40 strip grid: |kappa| in range, identity residual {worst_ident:.2e}")
