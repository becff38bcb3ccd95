"""Claim registry, check runner, and grid scanner.

Each registered check measures a worst residual against its tolerance and
never raises on mathematical failure; failures become verdicts. Sampling for
check <id> draws from PCG64 seeded with (seed, crc32(id)), so results do not
depend on execution order. Finding-class checks (the disputed convolution
identities and the kappa realness claim) report measurements without a
pass/fail verdict.
"""

from __future__ import annotations

import logging
import math
import time
import zlib
from functools import lru_cache
from typing import Callable

import numpy as np

from . import arith
from .errors import ZetaLabError
from .reflect import classify_nu, kappa, _kappa_from_eta, nu
from .reporting import CheckResult, RunConfig
from .specfun import EvalResult
from .zeros import Rect, check_line_zeros, find_critical_zeros, multiplicity
from .zeta_eval import _eta_pairs, _try, _zeta_pairs, eta_many, zeta, zeta_floor_integral, zeta_reflect

__all__ = ["REGISTRY", "run_check", "run_all", "grid_scan", "all_assertions_pass"]

logger = logging.getLogger(__name__)

#: reference ordinates of the first critical-line zeros used by several checks.
_FIRST_ZERO_TS = (14.134725, 21.022040, 25.010858)
#: table bound of the Dirichlet series checks EQ54, EQ56 and EQ58.
_SERIES_BOUND = 1_000_000


def _rng_for(seed: int, check_id: str) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, zlib.crc32(check_id.encode())])))


def _sample_away_from_zeros(rng, n, re_lo, re_hi, im_lo, im_hi, min_abs_zeta=1e-3):
    """Seeded points in the box with |zeta| above min_abs_zeta (zero
    neighborhoods excluded by resampling) and both half-planes of Im."""
    pts = []
    while len(pts) < n:
        re = rng.uniform(re_lo, re_hi)
        im = rng.uniform(im_lo, im_hi) * (1.0 if rng.uniform() < 0.5 else -1.0)
        s = complex(re, im)
        try:
            if abs(zeta(s).value) < min_abs_zeta:
                continue
        except ZetaLabError:
            continue
        pts.append(s)
    return pts


# ---------------------------------------------------------------------------
# Check bodies. Each returns (worst_residual, n_samples, details).
# ---------------------------------------------------------------------------


def _check_conj_ratio(cfg: RunConfig, rng) -> tuple[float, int, str]:
    from .reflect import conj_ratio

    worst = 0.0
    n = 1000
    for _ in range(n):
        u = rng.uniform(-10.0, 10.0)
        v = rng.uniform(-10.0, 10.0)
        if u == 0.0 and v == 0.0:
            continue
        ratio = conj_ratio(u, v)
        scale = math.hypot(u, v)
        worst = max(
            worst,
            abs(ratio * complex(u, v) - complex(u, -v)) / scale,
            abs(abs(ratio) - 1.0),
        )
    return worst, n, "identity and unimodularity of the conjugate ratio"


def _check_symmetry(cfg: RunConfig, rng) -> tuple[float, int, str]:
    worst = 0.0
    samples = []
    per_region = [67, 67, 66]
    boxes = [(1.6, 4.0), (0.05, 1.45), (-5.0, -0.05)]
    for count, (lo, hi) in zip(per_region, boxes):
        for _ in range(count):
            re = rng.uniform(lo, hi)
            im = rng.uniform(0.1, 30.0) * (1.0 if rng.uniform() < 0.5 else -1.0)
            samples.append(complex(re, im))
    for s in samples:
        try:
            a = zeta(s.conjugate()).value
            b = zeta(s).value.conjugate()
        except ZetaLabError:
            continue
        worst = max(worst, abs(a - b))
    return worst, len(samples), "zeta(conj s) vs conj(zeta(s)) on all three dispatch regions"


def _check_nu_critline(cfg: RunConfig, rng) -> tuple[float, int, str]:
    worst = 0.0
    n = 50
    count = 0
    while count < n:
        t = rng.uniform(1.0, 30.0)
        s = complex(0.5, t)
        try:
            if abs(zeta(s).value) < 1e-3:
                continue  # zero neighborhood
            worst = max(worst, abs(nu(s).value - 1.0))
        except ZetaLabError:
            continue
        count += 1
    return worst, n, "|nu(1/2 + it) - 1| on the critical line"


def _check_nu_zeros(cfg: RunConfig, rng) -> tuple[float, int, str]:
    points = [0.0, -2.0, -4.0, -6.0, -8.0]
    results = classify_nu([complex(p) for p in points])
    kinds = {c.point.real: c.kind for c in results}
    bad = [p for p in points if kinds[p] != "zero"]
    if bad:
        return math.inf, len(points), f"points not classified as zeros: {bad}"
    worst = max(c.evidence for c in results)
    return worst, len(points), "probe |nu| decreasing below 1e-3 at 0, -2, -4, -6, -8"


def _check_nu_poles(cfg: RunConfig, rng) -> tuple[float, int, str]:
    poles = [1.0, 3.0, 5.0, 7.0, 9.0]
    regular = [-1.0, -3.0, -5.0, -7.0]
    res_p = classify_nu([complex(p) for p in poles])
    res_r = classify_nu([complex(p) for p in regular])
    bad_p = [c.point.real for c in res_p if c.kind != "pole"]
    bad_r = [c.point.real for c in res_r if c.kind != "regular"]
    n = len(poles) + len(regular)
    if bad_p or bad_r:
        return math.inf, n, f"misclassified poles {bad_p}, regulars {bad_r}"
    worst = max(1.0 / c.evidence for c in res_p)
    return worst, n, "1/|nu| below 1e-3 at odd positives; -1, -3, -5, -7 regular"


def _check_zero_reflection(cfg: RunConfig, rng) -> tuple[float, int, str]:
    zeros = find_critical_zeros(10.0, 30.0, 0.02)
    if len(zeros) != 3:
        return math.inf, len(zeros), f"expected 3 zeros below t=30, found {len(zeros)}"
    worst = max(abs(zeta(1.0 - z.location.conjugate()).value) for z in zeros)
    return worst, len(zeros), "|zeta(1 - conj(rho))| at each located zero"


def _check_pole(cfg: RunConfig, rng) -> tuple[float, int, str]:
    pts = [1.0 + 1e-5, 1.0 + 1e-6, complex(1.0, 1e-5), complex(1.0, 1e-6)]
    worst = 0.0
    for s in pts:
        if s.real > 1.0:
            val = zeta_floor_integral(s).value
        else:
            val = zeta(s).value
        worst = max(worst, abs((s - 1.0) * val - 1.0))
    return worst, len(pts), "(s-1) * zeta(s) -> 1 approaching the simple pole"


def _check_euler_bound(cfg: RunConfig, rng) -> tuple[float, int, str]:
    primes = arith.primes_upto(1_000_000).astype(np.float64)
    log_p = np.log(primes)
    worst = 0.0
    n = 50
    for _ in range(n):
        alpha = rng.uniform(1.1, 4.0)
        beta = rng.uniform(0.0, 30.0)
        s = complex(alpha, beta)
        lower = math.exp(-float(np.sum(np.exp(-alpha * log_p))))
        worst = max(worst, lower - abs(zeta(s).value))
    return max(worst, 0.0), n, "exp(-sum p^-alpha) lower bound on |zeta|"


def _check_trivial_zeros(cfg: RunConfig, rng) -> tuple[float, int, str]:
    worst = max(abs(zeta(complex(-2.0 * k)).value) for k in range(1, 6))
    return worst, 5, "|zeta(-2k)| for k = 1..5"


def _check_mertens(cfg: RunConfig, rng) -> tuple[float, int, str]:
    theta = rng.uniform(0.0, 2.0 * math.pi, size=10_000)
    expr = 3.0 + 4.0 * np.cos(theta) + np.cos(2.0 * theta)
    at_pi = 3.0 + 4.0 * math.cos(math.pi) + math.cos(2.0 * math.pi)
    worst = max(0.0, -float(np.min(expr)), abs(at_pi))
    return worst, len(theta) + 1, "3 + 4 cos(t) + cos(2t) >= 0, equality at t = pi"


def _check_w_inequality(cfg: RunConfig, rng) -> tuple[float, int, str]:
    f = lambda z: zeta(z).value
    worst = -math.inf
    vals = []
    for beta in _FIRST_ZERO_TS[:2]:
        combo = (
            3.0 * multiplicity(f, 1.0 + 0.0j, 1e-4)
            + 4.0 * multiplicity(f, complex(1.0, beta), 1e-4)
            + multiplicity(f, complex(1.0, 2.0 * beta), 1e-4)
        )
        vals.append(combo)
        worst = max(worst, combo)
    return max(worst, 0.0), 2, f"3w(1) + 4w(1+ib) + w(1+2ib) = {[f'{v:.3f}' for v in vals]}"


def _check_lines(cfg: RunConfig, rng) -> tuple[float, int, str]:
    worst1, n1, details1 = check_line_zeros(1, cfg.line_t_max)
    worst0, n0, details0 = check_line_zeros(0, cfg.line_t_max)
    return max(worst0, worst1), n0 + n1, f"{details1} | {details0}"


def _check_funceq(cfg: RunConfig, rng) -> tuple[float, int, str]:
    pts = _sample_away_from_zeros(rng, 100, 0.05, 0.95, 0.5, 30.0)
    worst = 0.0
    for s in pts:
        lhs = zeta(s).value
        rhs = zeta_reflect(s).value
        worst = max(worst, abs(lhs - rhs))
    return worst, len(pts), "residual of the symmetric functional equation in the strip"


@lru_cache(maxsize=2)
def _cube_series(bound: int) -> tuple[float, float]:
    """(sum lambda(n) n^-3, sum sigma(n) n^-3) over the table up to bound;
    shared by EQ54, EQ56 and EQ58."""
    table = arith.cached_table(bound)
    pw = np.arange(1.0, bound + 1.0) ** -3.0
    lam = float(np.dot(table.liouville[1:].astype(np.float64), pw))
    return lam, float(np.dot(table.sigma_paper[1:].astype(np.float64), pw))


def _check_liouville(cfg: RunConfig, rng) -> tuple[float, int, str]:
    series, _ = _cube_series(_SERIES_BOUND)
    target = (zeta(6.0).value / zeta(3.0).value).real
    resid = abs(series - target)
    return resid, _SERIES_BOUND, f"sum lambda(n) n^-3 = {series!r} vs zeta(6)/zeta(3) = {target!r}"


def _check_sigma_series(cfg: RunConfig, rng) -> tuple[float, int, str]:
    _, series = _cube_series(_SERIES_BOUND)
    claimed = (zeta(3.0).value / zeta(6.0).value).real
    resid = abs(series - claimed)
    return resid, _SERIES_BOUND, (
        f"sum sigma(n) n^-3 = {series!r} (single surviving term 2^-3); "
        f"the claimed value zeta(3)/zeta(6) = {claimed!r} differs"
    )


def _check_product_identity(cfg: RunConfig, rng) -> tuple[float, int, str]:
    lam, sig = _cube_series(_SERIES_BOUND)
    resid = abs(lam * sig - 1.0)
    return resid, _SERIES_BOUND, (
        f"(sum lambda n^-3)(sum sigma n^-3) = {lam * sig!r}; "
        "the claimed product is 1"
    )


@lru_cache(maxsize=2)
def _kappa_grid(shape: tuple[int, int]) -> tuple[tuple[complex, EvalResult, EvalResult, EvalResult], ...]:
    """(s, eta(s), eta(2s), kappa(s)) over the kappa grid, re-major; shared
    by EQ61 and KAPPA_REALNESS."""
    n_re, n_im = shape
    res = np.linspace(0.55, 0.95, n_re)
    ims = np.linspace(0.0, 30.0, n_im)
    points = [complex(re, im) for re in res for im in ims]
    grid = []
    for s, e1, e2 in zip(points, eta_many(points), eta_many([2.0 * s for s in points])):
        for e in (e1, e2):
            if isinstance(e, ZetaLabError):
                raise e
        grid.append((s, e1, e2, _kappa_from_eta(s, e1, e2)))
    return tuple(grid)


def _check_kappa_grid(cfg: RunConfig, rng) -> tuple[float, int, str]:
    grid = _kappa_grid(cfg.kappa_grid)
    worst = 0.0
    min_abs = math.inf
    max_abs = 0.0
    for s, e1, e2, k in grid:
        a = abs(k.value)
        min_abs = min(min_abs, a)
        max_abs = max(max_abs, a)
        if a <= 1e-6:
            worst = max(worst, 1e-6 - a + 1.0)  # range violation dominates
        if a >= 1e6:
            worst = max(worst, a - 1e6)
        ident = abs(e1.value - k.value * e2.value)
        worst = max(worst, ident)
    details = f"|kappa| in [{min_abs:.4g}, {max_abs:.4g}]; identity residual within rounding"
    return worst, len(grid), details


def _check_kappa_realness(cfg: RunConfig, rng) -> tuple[float, int, str]:
    grid = _kappa_grid(cfg.kappa_grid)
    worst = 0.0
    arg = None
    for s, _, _, k in grid:
        if abs(k.value.imag) > worst:
            worst = abs(k.value.imag)
            arg = s
    details = f"max |Im(kappa)| = {worst!r} at s = {arg}; the claimed codomain is real"
    return worst, len(grid), details


_CheckFunc = Callable[[RunConfig, np.random.Generator], tuple[float, int, str]]

#: id -> (body, finding-class?, default tolerance)
REGISTRY: dict[str, tuple[_CheckFunc, bool, float]] = {
    "P1_CONJ_RATIO": (_check_conj_ratio, False, 1e-14),
    "P2_SYMMETRY": (_check_symmetry, False, 1e-12),
    "P3_NU_CRITLINE": (_check_nu_critline, False, 1e-8),
    "P5_NU_ZEROS": (_check_nu_zeros, False, 1e-3),
    "P6_NU_POLES": (_check_nu_poles, False, 1e-3),
    "P7_ZERO_REFLECTION": (_check_zero_reflection, False, 1e-5),
    "P9_POLE": (_check_pole, False, 1e-4),
    "EQ33_EULER_BOUND": (_check_euler_bound, False, 1e-15),
    "SEC4_TRIVIAL_ZEROS": (_check_trivial_zeros, False, 1e-10),
    "EQ44_MERTENS": (_check_mertens, False, 1e-12),
    "EQ46_W_INEQUALITY": (_check_w_inequality, False, 0.1),
    "SEC5_LINES": (_check_lines, False, 1e-10),
    "FUNCEQ_34": (_check_funceq, False, 1e-8),
    "EQ54_LIOUVILLE": (_check_liouville, False, 1e-4),
    "EQ56_SIGMA": (_check_sigma_series, True, 0.0),
    "EQ58_PRODUCT": (_check_product_identity, True, 0.0),
    "EQ61_KAPPA": (_check_kappa_grid, False, 1e-14),
    "KAPPA_REALNESS": (_check_kappa_realness, True, 0.0),
}


def run_check(check_id: str, cfg: RunConfig | None = None) -> CheckResult:
    """Execute one registered check with deterministic sampling.

    Mathematical failure never escapes as an exception; it becomes a 'fail'
    verdict with the error recorded in details.

    Raises:
        UnknownCheckId: when the id is not registered.
    """
    from .errors import UnknownCheckId

    cfg = cfg or RunConfig()
    entry = REGISTRY.get(check_id)
    if entry is None:
        raise UnknownCheckId(check_id)
    body, is_finding, default_tol = entry
    tolerance = cfg.tolerance_overrides.get(check_id, default_tol)
    rng = _rng_for(cfg.seed, check_id)
    start = time.perf_counter()
    try:
        worst, n_samples, details = body(cfg, rng)
    except Exception as exc:  # noqa: BLE001 - contract: failures become verdicts
        duration = int((time.perf_counter() - start) * 1000)
        return CheckResult(check_id, "fail", math.inf, tolerance, 0, f"error: {exc!r}", duration)
    duration = int((time.perf_counter() - start) * 1000)
    if is_finding:
        verdict = "finding"
    else:
        verdict = "pass" if worst <= tolerance else "fail"
    return CheckResult(check_id, verdict, worst, tolerance, n_samples, details, duration)


def run_all(cfg: RunConfig | None = None) -> list[CheckResult]:
    """Run the full registry in deterministic order; a failing check never
    prevents later checks from running."""
    cfg = cfg or RunConfig()
    return [run_check(check_id, cfg) for check_id in REGISTRY]


def all_assertions_pass(results: list[CheckResult]) -> bool:
    """Exit-code contract: findings never count, every pass-class must pass."""
    return all(r.verdict != "fail" for r in results)


def _each_kappa(points) -> list:
    """kappa at each point as a (value, bound) pair or its error, the form
    of _zeta_pairs."""
    results = [_try(kappa, s) for s in points]
    return [r if isinstance(r, ZetaLabError) else (r.value, r.abs_err_est) for r in results]


def grid_scan(region: Rect, step: float, quantity: str) -> str:
    """Evaluate a field on a grid over the region and return CSV rows
    re,im,value. Evaluator errors leave the value cell empty (noted in the
    log) and never abort the scan.

    Args:
        region: rectangle to scan (grid includes both boundaries).
        step: grid spacing, > 0.
        quantity: abs_zeta | abs_eta | abs_kappa | im_kappa.
    """
    if step <= 0.0:
        raise ValueError("step must be positive")
    evaluators = {
        "abs_zeta": (_zeta_pairs, abs),
        "abs_eta": (_eta_pairs, abs),
        "abs_kappa": (_each_kappa, abs),
        "im_kappa": (_each_kappa, lambda v: v.imag),
    }
    if quantity not in evaluators:
        raise ValueError(f"unknown quantity {quantity!r}")
    many, pick = evaluators[quantity]
    lines = ["re,im,value"]
    res = np.arange(region.re_min, region.re_max + 0.5 * step, step)
    ims = np.arange(region.im_min, region.im_max + 0.5 * step, step)
    for re in res:
        # one column (fixed Re) per batch call keeps the batch arrays small
        column = [complex(float(re), float(im)) for im in ims]
        for s, r in zip(column, many(column)):
            if isinstance(r, ZetaLabError):
                logger.info("grid_scan: no value at %s: %s", s, r)
                lines.append(f"{s.real!r},{s.imag!r},")
            else:
                lines.append(f"{s.real!r},{s.imag!r},{float(pick(r[0]))!r}")
    return "\n".join(lines) + "\n"
