"""Registry, runner determinism and isolation, report emission, grid scan."""

import json
import math

import numpy as np
import pytest

from zetalab import REGISTRY, Rect, RunConfig, emit_report, grid_scan, run_all, run_check, zeta
from zetalab.errors import UnknownCheckId, ZetaLabError
from zetalab.harness import _sample_away_from_zeros, all_assertions_pass
from zetalab.reporting import CheckResult, strip_durations

EXPECTED_IDS = [
    "P1_CONJ_RATIO",
    "P2_SYMMETRY",
    "P3_NU_CRITLINE",
    "P5_NU_ZEROS",
    "P6_NU_POLES",
    "P7_ZERO_REFLECTION",
    "P9_POLE",
    "EQ33_EULER_BOUND",
    "SEC4_TRIVIAL_ZEROS",
    "EQ44_MERTENS",
    "EQ46_W_INEQUALITY",
    "SEC5_LINES",
    "FUNCEQ_34",
    "EQ54_LIOUVILLE",
    "EQ56_SIGMA",
    "EQ58_PRODUCT",
    "EQ61_KAPPA",
    "KAPPA_REALNESS",
]

FINDING_IDS = {"EQ56_SIGMA", "EQ58_PRODUCT", "KAPPA_REALNESS"}


def test_registry_contents_and_order():
    assert list(REGISTRY) == EXPECTED_IDS
    assert {cid for cid, (_, finding, _) in REGISTRY.items() if finding} == FINDING_IDS


def test_unknown_check_id():
    with pytest.raises(UnknownCheckId):
        run_check("NO_SUCH_CHECK")


def test_single_check_passes():
    r = run_check("P1_CONJ_RATIO")
    assert r.verdict == "pass"
    assert r.worst_residual <= r.tolerance
    assert r.n_samples == 1000


def test_finding_checks_report_finding():
    for cid in FINDING_IDS:
        r = run_check(cid)
        assert r.verdict == "finding"
        assert math.isfinite(r.worst_residual)


def test_tolerance_override_applies():
    cfg = RunConfig(tolerance_overrides={"FUNCEQ_34": 1e-6})
    r = run_check("FUNCEQ_34", cfg)
    assert r.tolerance == 1e-6
    assert r.verdict == "pass"


def test_failure_isolation_and_exit_contract():
    # An impossible tolerance forces a fail without stopping later checks.
    cfg = RunConfig(tolerance_overrides={"P1_CONJ_RATIO": -1.0})
    results = run_all(cfg)
    assert len(results) == len(REGISTRY)
    by_id = {r.id: r for r in results}
    assert by_id["P1_CONJ_RATIO"].verdict == "fail"
    assert by_id["SEC4_TRIVIAL_ZEROS"].verdict == "pass"
    assert not all_assertions_pass(results)
    assert all_assertions_pass([r for r in results if r.id != "P1_CONJ_RATIO"])


def test_run_all_deterministic():
    cfg = RunConfig(seed=1)
    a = emit_report(strip_durations(run_all(cfg)), "json", seed=1)
    b = emit_report(strip_durations(run_all(cfg)), "json", seed=1)
    assert a == b


def test_run_all_shape_and_verdicts():
    results = run_all(RunConfig(seed=0))
    assert len(results) == 18
    assert [r.id for r in results] == EXPECTED_IDS
    assert all(r.verdict == ("finding" if r.id in FINDING_IDS else "pass") for r in results)


def test_emit_json_schema():
    results = [CheckResult("X", "pass", 0.0, 1.0, 3, "demo", 7)]
    doc = json.loads(emit_report(results, "json", seed=5))
    assert list(doc.keys()) == ["version", "seed", "results"]
    assert doc["seed"] == 5
    row = doc["results"][0]
    assert list(row.keys()) == [
        "id",
        "verdict",
        "worst_residual",
        "tolerance",
        "n_samples",
        "details",
        "duration_ms",
    ]


def test_emit_csv_schema():
    results = [CheckResult("X", "pass", 0.5, 1.0, 3, "demo", 7)]
    lines = emit_report(results, "csv").decode().splitlines()
    assert lines[0] == "id,verdict,worst_residual,tolerance,n_samples"
    assert lines[1] == "X,pass,0.5,1.0,3"


def test_every_residual_is_a_python_float_and_its_csv_cell_parses():
    results = run_all(RunConfig(seed=1))
    assert [r.id for r in results if type(r.worst_residual) is not float] == []
    rows = emit_report(results, "csv").decode().splitlines()[1:]
    for row in rows:
        float(row.split(",")[2])


def test_emit_text_aligned():
    results = [
        CheckResult("SHORT", "pass", 0.0, 1.0, 1, "a", 0),
        CheckResult("A_MUCH_LONGER_ID", "finding", 2.0, 0.0, 1, "b", 0),
    ]
    lines = emit_report(results, "text").decode().splitlines()
    assert lines[0].index("pass") == lines[1].index("finding")
    assert lines[-1] == "1 pass, 0 fail, 1 finding"


def test_emit_unknown_format():
    with pytest.raises(ValueError):
        emit_report([], "yaml")


def test_grid_scan_single_cell():
    csv_text = grid_scan(Rect(2.0, 2.01, 0.0, 0.005), 0.05, "abs_zeta")
    lines = csv_text.strip().splitlines()
    assert lines[0] == "re,im,value"
    assert len(lines) == 2
    value = float(lines[1].split(",")[2])
    assert abs(value - math.pi**2 / 6.0) < 1e-12


def test_grid_scan_pole_cell_empty():
    csv_text = grid_scan(Rect(0.95, 1.05, -0.05, 0.05), 0.05, "abs_zeta")
    rows = {tuple(line.split(",")[:2]): line.split(",")[2] for line in csv_text.strip().splitlines()[1:]}
    assert rows[("1.0", "0.0")] == ""
    assert float(rows[("0.95", "0.0")]) > 0.0


def test_grid_scan_validation():
    with pytest.raises(ValueError):
        grid_scan(Rect(0.0, 1.0, 0.0, 1.0), 0.0, "abs_zeta")
    with pytest.raises(ValueError):
        grid_scan(Rect(0.0, 1.0, 0.0, 1.0), 0.1, "zeta")


def test_grid_scan_kappa_quantities():
    csv_text = grid_scan(Rect(0.6, 0.7, 1.0, 1.1), 0.1, "im_kappa")
    lines = csv_text.strip().splitlines()
    assert len(lines) >= 2 and lines[0] == "re,im,value"


def test_grid_scan_leaves_cells_past_the_height_limit_empty():
    csv_text = grid_scan(Rect(-0.5, 2.0, 999.0, 1000.0), 0.5, "abs_zeta")
    rows = [line.split(",") for line in csv_text.strip().splitlines()[1:]]
    assert len(rows) == 6 * 3
    for re, _, value in rows:
        if float(re) < 2.0:
            assert value == ""  # eta bound and reflection overflow at this height
        else:
            assert float(value) > 0.0


def test_kappa_checks_share_one_grid():
    from zetalab import kappa
    from zetalab.harness import _kappa_grid

    cfg = RunConfig(seed=3, kappa_grid=(3, 4))
    realness = run_check("KAPPA_REALNESS", cfg)
    misses = _kappa_grid.cache_info().misses
    grid = run_check("EQ61_KAPPA", cfg)
    assert _kappa_grid.cache_info().misses == misses
    assert realness.n_samples == grid.n_samples == 12
    direct = max(
        abs(kappa(complex(re, im)).value.imag)
        for re in (0.55, 0.75, 0.95)
        for im in (0.0, 10.0, 20.0, 30.0)
    )
    assert realness.worst_residual == direct
    assert grid.verdict == "pass"


@pytest.mark.parametrize("quantity", ["abs_zeta", "abs_eta"])
def test_grid_scan_matches_scalar_reference(quantity):
    import numpy as np

    from zetalab import eta, zeta
    from zetalab.errors import ZetaLabError

    scalar = {"abs_zeta": zeta, "abs_eta": eta}[quantity]
    # Re -1..2 covers the reflected, strip and EM routes, the origin and the
    # pole at s = 1; Im up to 453 passes the height where the eta bound and
    # the reflection overflow.
    region, step = Rect(-1.0, 2.0, 0.0, 453.0), 0.5
    lines = ["re,im,value"]
    for re in np.arange(region.re_min, region.re_max + 0.5 * step, step):
        for im in np.arange(region.im_min, region.im_max + 0.5 * step, step):
            s = complex(float(re), float(im))
            try:
                lines.append(f"{s.real!r},{s.imag!r},{float(abs(scalar(s).value))!r}")
            except ZetaLabError:
                lines.append(f"{s.real!r},{s.imag!r},")
    expected = "\n".join(lines) + "\n"
    assert grid_scan(region, step, quantity) == expected
    rows = [line.split(",") for line in lines[1:]]
    if quantity == "abs_zeta":
        assert ["1.0", "0.0", ""] in rows  # the pole cell
        assert ["0.5", "453.0", ""] in rows and ["-1.0", "453.0", ""] in rows
        assert float(dict(((r[0], r[1]), r[2]) for r in rows)[("2.0", "453.0")]) > 0.0


def test_kappa_grid_residual_matches_scalar_evaluation():
    import numpy as np

    from zetalab import eta, kappa

    cfg = RunConfig(seed=5, kappa_grid=(3, 5))
    worst, lo, hi = 0.0, math.inf, 0.0
    for re in np.linspace(0.55, 0.95, 3):
        for im in np.linspace(0.0, 30.0, 5):
            s = complex(re, im)
            k = kappa(s).value
            lo, hi = min(lo, abs(k)), max(hi, abs(k))
            worst = max(worst, abs(eta(s).value - k * eta(2.0 * s).value))
    r = run_check("EQ61_KAPPA", cfg)
    assert r.worst_residual == worst
    assert r.n_samples == 15
    assert r.details == f"|kappa| in [{lo:.4g}, {hi:.4g}]; identity residual within rounding"


def test_series_checks_do_not_depend_on_order():
    from zetalab.harness import _cube_series

    cfg = RunConfig(seed=7)
    inside = {r.id: r for r in run_all(cfg)}
    _cube_series.cache_clear()
    alone = run_check("EQ58_PRODUCT", cfg)
    assert _cube_series.cache_info().misses == 1
    for check_id in ("EQ54_LIOUVILLE", "EQ56_SIGMA", "EQ58_PRODUCT"):
        r = alone if check_id == "EQ58_PRODUCT" else run_check(check_id, cfg)
        assert (r.worst_residual, r.n_samples, r.details) == (
            inside[check_id].worst_residual,
            inside[check_id].n_samples,
            inside[check_id].details,
        )
    assert _cube_series.cache_info().misses == 1


def _scalar_sample_away_from_zeros(rng, n, re_lo, re_hi, im_lo, im_hi, min_abs_zeta=1e-3):
    """The sampler as a loop of one-point zeta calls, one candidate at a time."""
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


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize(
    "box, min_abs_zeta",
    [
        ((0.05, 0.95, 0.5, 30.0), 1e-3),
        # about a quarter of the candidates rejected, so more rounds of resampling
        ((0.05, 0.95, 0.5, 30.0), 0.8),
        # candidates above eta's height limit (about 446.2) raise and are rejected
        ((0.05, 0.95, 400.0, 500.0), 1e-3),
    ],
    ids=["P2-box", "strict-gate", "past-height-limit"],
)
def test_sampler_matches_the_scalar_loop(seed, box, min_abs_zeta):
    batched_rng, scalar_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    batched = _sample_away_from_zeros(batched_rng, 40, *box, min_abs_zeta)
    assert batched == _scalar_sample_away_from_zeros(scalar_rng, 40, *box, min_abs_zeta)
    assert batched_rng.bit_generator.state == scalar_rng.bit_generator.state
