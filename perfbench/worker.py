"""One benchmark iteration: a fresh interpreter imports zetalab, runs one
workload once through the public API, and checks the output.

run.py starts one worker per iteration, so every iteration pays the cold
costs that a `zetalab` command pays: interpreter start, imports, and the
arith sieve behind `cached_table`. The worker reads a JSON spec on stdin,

    {"workload": ..., "inputs": {...}, "src": <dir holding zetalab>, "trace": 0|1}

and prints one JSON line with its timings, check counts and output digest.
The workload functions and their checks are importable without side
effects, so the self-test can run them on small inputs.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import resource
import sys
import time

#: scan region before the seeded shift; step 0.1 gives 81 x 401 cells.
SCAN_RE = (-3.95, 4.05)
SCAN_IM = (0.5, 40.5)
SCAN_STEP = 0.1
#: critical-line window height and grid step.
CRITLINE_HEIGHT = 150.0
CRITLINE_STEP = 0.01


def run_verify(zl, inputs):
    seed = inputs["config_seed"]
    results = zl.run_all(zl.RunConfig(seed=seed))
    return results, zl.emit_report(results, "json", seed)


def run_critline(zl, inputs):
    t0 = inputs["t0"]
    t1 = t0 + CRITLINE_HEIGHT
    zeros = zl.find_critical_zeros(t0, t1, CRITLINE_STEP)
    return zeros, zl.count_zeros_rect(zl.Rect(0.0, 1.0, t0, t1))


def run_scan(zl, inputs):
    d = inputs["delta"]
    region = zl.Rect(SCAN_RE[0] + d, SCAN_RE[1] + d, SCAN_IM[0] + d, SCAN_IM[1] + d)
    return zl.grid_scan(region, SCAN_STEP, "abs_zeta")


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# Each check returns (attempted ops, failed ops, digest, items). The digest
# identifies the output; run.py requires it to repeat across the iterations
# of one run, traced or not.


def check_verify(registry: dict, output) -> tuple[int, int, str, int]:
    """One op per assert-class registry check: it ran and passed. The digest
    covers the json report with duration fields zeroed."""
    results, report = output
    verdicts = {r.id: r.verdict for r in results}
    assert_ids = [cid for cid, (_, is_finding, _) in registry.items() if not is_finding]
    failed = sum(verdicts.get(cid) != "pass" for cid in assert_ids)
    payload = json.loads(report)
    for r in payload["results"]:
        r["duration_ms"] = 0
    stripped = (json.dumps(payload, indent=2) + "\n").encode("utf-8")
    return len(assert_ids), failed, _digest(stripped), len(results)


def check_critline(output) -> tuple[int, int, str, int]:
    """One op for the located count matching the winding census, and one per
    zero for its winding confirmation."""
    zeros, census = output
    failed = int(len(zeros) != census)
    failed += sum(z.method != "winding-confirmed" for z in zeros)
    text = repr([dataclasses.astuple(z) for z in zeros] + [census])
    return 1 + len(zeros), failed, _digest(text.encode("utf-8")), len(zeros)


def check_scan(output: str, expected_cells: int) -> tuple[int, int, str, int]:
    """One op per cell (present and finite) and one for the cell count."""
    rows = output.splitlines()[1:]
    failed = int(len(rows) != expected_cells)
    for row in rows:
        value = row.split(",")[2]
        if not value or not math.isfinite(float(value)):
            failed += 1
    return 1 + len(rows), failed, _digest(output.encode("utf-8")), len(rows)


def scan_cells() -> int:
    n_re = round((SCAN_RE[1] - SCAN_RE[0]) / SCAN_STEP) + 1
    n_im = round((SCAN_IM[1] - SCAN_IM[0]) / SCAN_STEP) + 1
    return n_re * n_im


def run_and_check(zl, workload: str, inputs: dict) -> dict:
    """Time one workload (the timed phase) and check its output."""
    run = {"verify": run_verify, "critline": run_critline, "scan": run_scan}[workload]
    start = time.perf_counter()
    output = run(zl, inputs)
    wall = time.perf_counter() - start
    if workload == "verify":
        attempted, failed, digest, items = check_verify(zl.REGISTRY, output)
    elif workload == "critline":
        attempted, failed, digest, items = check_critline(output)
    else:
        attempted, failed, digest, items = check_scan(output, scan_cells())
    return {
        "wall_s": wall,
        "attempted": attempted,
        "failed": failed,
        "digest": digest,
        "items": items,
    }


def main() -> None:
    spec = json.loads(sys.stdin.read())
    src = spec["src"]
    sys.path.insert(0, src)
    import zetalab

    imported_at = time.monotonic()
    if not zetalab.__file__.startswith(src):
        raise SystemExit(f"imported zetalab from {zetalab.__file__}, not from {src}")
    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    sample = run_and_check(zetalab, spec["workload"], spec["inputs"])
    sample["imported_at"] = imported_at
    sample["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    import numpy

    sample["numpy"] = numpy.__version__
    if tracer is not None:
        sample["layers"] = tracer.layer_metrics()
    print(json.dumps(sample))


if __name__ == "__main__":
    main()
