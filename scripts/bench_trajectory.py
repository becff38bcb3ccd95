"""Record one point of the benchmark trajectory.

    python3 scripts/bench_trajectory.py --out BENCH_<n>.json [--root DIR]
        [--seeds 1 2 3] [--seconds 30]

Runs `perfbench/run.py` of the checkout at --root (default: this one) for
every workload and seed, one run after another, and writes to --out the
median over the seeds of each end-to-end metric, the environment, and each
run's output digest, correctness and metrics.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("verify", "critline", "scan")


def run(root: Path, workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """The env/digest line and the result line of one perfbench run."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    lines = subprocess.run(cmd, cwd=root, capture_output=True, text=True, check=True).stdout.splitlines()
    info = next(json.loads(line) for line in lines if line.startswith('{"env"'))
    return info, json.loads(lines[-1])


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parent.parent)
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    parser.add_argument("--seconds", type=float, default=30.0)
    args = parser.parse_args()

    def git(*cmd: str) -> str:
        return subprocess.run(["git", *cmd], cwd=args.root, capture_output=True, text=True).stdout.strip()

    record = {
        "commit": git("rev-parse", "HEAD"),
        "dirty": bool(git("status", "--porcelain", "src")),  # src differs from the commit
        "seconds": args.seconds,
        "seeds": args.seeds,
        "env": None,
        "workloads": {},
    }
    for workload in WORKLOADS:
        runs = []
        for seed in args.seeds:
            info, result = run(args.root, workload, seed, args.seconds)
            record["env"] = info["env"]
            metrics = {name: m["value"] for name, m in result["metrics"].items()}
            runs.append({"seed": seed, "digest": info["digest"], "correct": result["correct"], "metrics": metrics})
        medians = {name: statistics.median(r["metrics"][name] for r in runs) for name in runs[0]["metrics"]}
        record["workloads"][workload] = {"median": medians, "runs": runs}
    args.out.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
