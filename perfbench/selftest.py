"""Self-test of the benchmark's output checks and tracer, on small inputs.

    python3 perfbench/selftest.py

Small versions of the three workloads must pass their checks, and each
check must count a deliberately wrong output as a failed op. Then the
tracer is installed in this process: the same small workloads must give
byte-identical outputs, and every per-layer metric BENCHMARK.json names
must be measured. Exits 1 on the first broken expectation.
"""

from __future__ import annotations

import dataclasses
import json
import sys

import run
import worker
from tracer import LAYERS, Tracer

sys.path.insert(0, str(run.SRC))
import zetalab  # noqa: E402

N_RE, N_IM = 41, 21  # cells of SMALL_RECT at step 0.1
SMALL_RECT = zetalab.Rect(-1.95, 2.05, 0.5, 2.5)
SMALL_CONFIG = zetalab.RunConfig(seed=3, kappa_grid=(4, 4), line_t_max=5.0)


def expect(cond: bool, what: str) -> None:
    if not cond:
        print(f"selftest FAILED: {what}", file=sys.stderr)
        sys.exit(1)


def failed_ops(result: tuple) -> int:
    return result[1]


def small_outputs():
    results = zetalab.run_all(SMALL_CONFIG)
    verify = (results, zetalab.emit_report(results, "json", SMALL_CONFIG.seed))
    critline = (zetalab.find_critical_zeros(14.0, 40.0, 0.01), zetalab.count_zeros_rect(zetalab.Rect(0.0, 1.0, 14.0, 40.0)))
    scan = zetalab.grid_scan(SMALL_RECT, 0.1, "abs_zeta")
    return verify, critline, scan


def check_all(outputs) -> tuple:
    verify, critline, scan = outputs
    return (
        worker.check_verify(zetalab.REGISTRY, verify),
        worker.check_critline(critline),
        worker.check_scan(scan, N_RE * N_IM),
    )


def test_inputs() -> None:
    for name in run.WORKLOADS:
        expect(run.make_inputs(name, 7) == run.make_inputs(name, 7), f"{name} inputs repeat for a seed")
        expect(run.make_inputs(name, 7) != run.make_inputs(name, 8), f"{name} inputs follow the seed")
    expect(100.0 <= run.make_inputs("critline", 7)["t0"] < 110.0, "T0 in [100, 110)")
    expect(0.0 <= run.make_inputs("scan", 7)["delta"] < 0.1, "delta in [0, 0.1)")
    expect(worker.scan_cells() == 81 * 401, "scan grid is 81 x 401 cells")


def test_checks_fire(outputs, checked) -> None:
    (results, report), (zeros, census), scan = outputs
    for name, result in zip(run.WORKLOADS, checked):
        expect(failed_ops(result) == 0, f"small {name} passes its checks: {result}")
    expect(checked[1][0] == 1 + len(zeros) and len(zeros) == 6, "six zeros below t = 40")

    expect(failed_ops(worker.check_critline((zeros, census + 1))) == 1, "census off by one fails")
    unconfirmed = [dataclasses.replace(zeros[0], method="minimum-refinement"), *zeros[1:]]
    expect(failed_ops(worker.check_critline((unconfirmed, census))) == 1, "unconfirmed zero fails")

    rows = scan.splitlines(keepends=True)
    blanked = rows[5].rsplit(",", 1)[0] + ",\n"
    expect(failed_ops(worker.check_scan("".join([*rows[:5], blanked, *rows[6:]]), N_RE * N_IM)) == 1, "blank cell fails")
    nan_cell = rows[5].rsplit(",", 1)[0] + ",nan\n"
    expect(failed_ops(worker.check_scan("".join([*rows[:5], nan_cell, *rows[6:]]), N_RE * N_IM)) == 1, "nan cell fails")
    expect(failed_ops(worker.check_scan("".join(rows[:-1]), N_RE * N_IM)) == 1, "missing cell fails")

    i = next(k for k, r in enumerate(results) if r.verdict == "pass")
    failing = [*results[:i], dataclasses.replace(results[i], verdict="fail"), *results[i + 1 :]]
    expect(failed_ops(worker.check_verify(zetalab.REGISTRY, (failing, report))) == 1, "failed verdict fails")

    slower = [dataclasses.replace(r, duration_ms=r.duration_ms + 5) for r in results]
    same = worker.check_verify(zetalab.REGISTRY, (results, zetalab.emit_report(slower, "json", SMALL_CONFIG.seed)))
    expect(same[2] == checked[0][2], "durations do not enter the verify digest")
    payload = json.loads(report)
    payload["results"][i]["worst_residual"] *= 2.0
    moved = worker.check_verify(zetalab.REGISTRY, (results, json.dumps(payload, indent=2).encode()))
    expect(moved[2] != checked[0][2], "a changed residual changes the verify digest")
    samples = [{"attempted": 3, "failed": 0, "digest": d} for d in ("a", "a", "b")]
    expect(run.tally(samples) == (11, 1), "a digest that does not repeat is a failed op")


def test_tracer(checked) -> None:
    result = zetalab.EvalResult(1.0 + 0.0j, 0.0, "direct-series")
    expect(Tracer().wrap("x.f", lambda: result, Exception)() is result, "wrapper returns the EvalResult it got")

    tracer = Tracer()
    expect(tracer.install() > 0, "tracer wraps bindings")
    expect(all(hasattr(f, "__wrapped__") for f in (zetalab.zeros.zeta, zetalab.harness.zeta, zetalab.reflect.eta)), "consumer bindings wrapped")
    traced = check_all(small_outputs())
    for name, plain, with_trace in zip(run.WORKLOADS, checked, traced):
        expect(with_trace == plain, f"tracing changes no {name} result")
    errors = tracer.layer_metrics()["zeta_eval.errors"]
    try:
        zetalab.zeta(1.0)
    except zetalab.errors.PoleAtOne:
        pass
    metrics = tracer.layer_metrics()
    expect(metrics["zeta_eval.errors"] == errors + 1, "an escaping ZetaLabError is counted")
    roots = sum(rec[3] - rec[2] for rec in tracer.spans if rec[1] < 0)
    own = sum(metrics[f"{layer}.self_s"] for layer in LAYERS)
    expect(abs(own - roots) < 1e-6, "layer self times add up to the top-level spans")
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    missing = [m["name"] for m in bench["per_layer"] if m["name"] not in metrics and m["name"] != "trace.overhead"]
    expect(not missing, f"every per-layer metric is measured, missing {missing}")
    for route in ("direct-series", "accelerated-eta", "functional-equation"):
        expect(metrics[f"zeta_eval.zeta.calls.{route}"] > 0, f"zeta route {route} seen")


def main() -> None:
    test_inputs()
    outputs = small_outputs()
    checked = check_all(outputs)
    test_checks_fire(outputs, checked)
    test_tracer(checked)
    print("selftest passed")


if __name__ == "__main__":
    main()
