"""zetalab benchmark: one workload, end to end or traced by layer.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

with W one of verify, critline, scan.

Run it from the root of a checkout that holds src/zetalab. The seed stays
here: it only generates the workload's inputs (the verify RunConfig seed,
the critline start height T0, the scan shift delta), which are printed
first so any run can be reproduced.

The loop is closed and single-threaded: one fresh worker interpreter per
iteration (worker.py), started only after the previous one has exited,
until S seconds have passed and at least MIN_ITERATIONS have run. Each
iteration pays the cold costs every `zetalab` command pays, so verify
rebuilds the 10^6 arith sieve every time.

--trace 0 reports the end-to-end metrics, each the median over the
iterations: setup_s (worker start until `import zetalab` returns), wall_s
(the timed workload call), peak_rss_mb (the worker's ru_maxrss) and
items_per_s (grid cells on scan, located zeros on critline, registry checks
on verify, per second of wall_s). --trace 1 alternates untraced and traced
workers and reports the per-layer metrics of the traced ones (tracer.py),
plus trace.overhead, the ratio of traced to untraced median wall_s.

Every iteration's output is checked (worker.py); its digest must also
repeat across all iterations of the run, traced or not. error_rate is
failed / attempted of these ops, carried by the result's `failed` and
`attempted` fields. The last stdout line is the JSON result; the metric
names and units come from BENCHMARK.json at the checkout root.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = ("verify", "critline", "scan")
MIN_ITERATIONS = 5
MIN_TRACED_PAIRS = 3
WORKER_TIMEOUT_S = 100
#: what items_per_s counts on each workload.
ITEM_NAMES = {"verify": "checks_per_s", "critline": "zeros_per_s", "scan": "cells_per_s"}


class WorkerFailed(RuntimeError):
    pass


def make_inputs(workload: str, seed: int) -> dict:
    """The only values the program receives; the same seed gives the same inputs."""
    rng = random.Random(f"{workload}/{seed}")
    if workload == "verify":
        return {"config_seed": rng.randrange(1 << 32)}
    if workload == "critline":
        return {"t0": 100.0 + 10.0 * rng.random()}
    return {"delta": 0.1 * rng.random()}


def run_worker(workload: str, inputs: dict, trace: int) -> dict:
    spec = {"workload": workload, "inputs": inputs, "src": str(SRC), "trace": trace}
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    started = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-E", "-s", str(HERE / "worker.py")],
        input=json.dumps(spec),
        capture_output=True,
        text=True,
        timeout=WORKER_TIMEOUT_S,
        env=env,
        cwd=ROOT,
    )
    if proc.returncode != 0:
        raise WorkerFailed(f"worker exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
    sample = json.loads(proc.stdout.splitlines()[-1])
    sample["setup_s"] = sample["imported_at"] - started
    return sample


def tally(samples: list[dict]) -> tuple[int, int]:
    """Attempted and failed ops: every iteration's own checks, plus one op
    per iteration after the first that its output digest repeats."""
    digests = [s["digest"] for s in samples]
    attempted = sum(s["attempted"] for s in samples) + len(samples) - 1
    failed = sum(s["failed"] for s in samples) + sum(d != digests[0] for d in digests[1:])
    return attempted, failed


def end_to_end(samples: list[dict]) -> dict[str, float]:
    med = statistics.median
    return {
        "setup_s": med(s["setup_s"] for s in samples),
        "wall_s": med(s["wall_s"] for s in samples),
        "peak_rss_mb": med(s["rss_mb"] for s in samples),
        "items_per_s": med(s["items"] / s["wall_s"] for s in samples),
    }


def per_layer(untraced: list[dict], traced: list[dict]) -> dict[str, float]:
    names = traced[0]["layers"].keys()
    values = {name: statistics.median(s["layers"][name] for s in traced) for name in names}
    values["trace.overhead"] = statistics.median(s["wall_s"] for s in traced) / statistics.median(
        s["wall_s"] for s in untraced
    )
    return values


def select(specs: list[dict], values: dict[str, float]) -> dict:
    """The metrics BENCHMARK.json names, in its order and with its units."""
    out = {}
    for spec in specs:
        name = spec["name"]
        if name in values:
            value = values[name]
        elif name.startswith("harness.run_check."):
            value = 0.0  # the check did not run on this workload
        else:
            raise KeyError(f"metric {name} was not measured")
        out[name] = {"value": value, "unit": spec["unit"]}
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "zetalab" / "__init__.py").is_file():
        print(f"error: no zetalab package under {SRC}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    inputs = make_inputs(args.workload, args.seed)
    print(json.dumps({"workload": args.workload, "seed": args.seed, "inputs": inputs, "trace": args.trace}))

    deadline = time.monotonic() + args.seconds
    untraced: list[dict] = []
    traced: list[dict] = []
    try:
        if args.trace:
            while len(traced) < MIN_TRACED_PAIRS or time.monotonic() < deadline:
                order = (0, 1) if len(traced) % 2 == 0 else (1, 0)
                for trace in order:
                    (traced if trace else untraced).append(run_worker(args.workload, inputs, trace))
        else:
            while len(untraced) < MIN_ITERATIONS or time.monotonic() < deadline:
                untraced.append(run_worker(args.workload, inputs, 0))
    except (WorkerFailed, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    samples = untraced + traced
    attempted, failed = tally(samples)
    if args.trace:
        metrics = select(bench["per_layer"], per_layer(untraced, traced))
    else:
        values = end_to_end(untraced)
        metrics = select(bench["end_to_end"], values)
        print(f"{ITEM_NAMES[args.workload]} = {values['items_per_s']:.6g} 1/s")
    env = {
        "python": platform.python_version(),
        "numpy": samples[0]["numpy"],
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
    }
    print(json.dumps({"env": env, "iterations": len(samples), "digest": samples[0]["digest"]}))
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(f"error_rate = {failed / attempted:.6g} ratio ({failed} of {attempted} ops failed)")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
