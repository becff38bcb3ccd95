"""Record one point of the benchmark trajectory.

    python3 scripts/bench_trajectory.py --out BENCH_<n>.json [--root DIR]
        [--baseline-root DIR] [--seeds 1 2 3] [--seconds 30]

Runs `perfbench/run.py` of the checkout at --root (default: this one) for
every workload and seed, and writes to --out the median and the quartiles
(q1, q3) over the seeds of each end-to-end metric, the environment, and each
run's output digest, correctness and metrics.

With --baseline-root, the checkout there runs too, alternately with --root:
both trees run each workload and seed back to back, and the one that runs
first flips from one pair to the next, so that a slow phase of the host
falls on both. The record then also holds the baseline's medians and runs
under "baseline", under "ratio" the change/baseline ratio of the
medians of each metric, and under "wins" the number of pairs in which the
change did better, by the metric's `better` in BENCHMARK.json. Runs of one
tree after the other do not compare trees on a shared host; these pairs do.
Under "digests_equal" it records, and it prints, per workload, whether
every change run gave the baseline run's output digest for the same seed,
so a record shows whether the change moved any output byte.

Each tree's record names its source: "commit" (HEAD) and "dirty" (whether
src differs from it), both null where git fails, as in a plain copy, and
"src_sha256", a SHA-256 over the sorted paths of src/**/*.py and their bytes,
which tells two trees apart with or without git.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
from itertools import product
from pathlib import Path

WORKLOADS = ("verify", "critline", "scan")


def run(root: Path, workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """The env/digest line and the result line of one perfbench run."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    lines = subprocess.run(cmd, cwd=root, capture_output=True, text=True, check=True).stdout.splitlines()
    info = next(json.loads(line) for line in lines if line.startswith('{"env"'))
    return info, json.loads(lines[-1])


def git(root: Path, *cmd: str) -> str | None:
    """git's stripped output at root, or None where git fails."""
    try:
        proc = subprocess.run(["git", *cmd], cwd=root, capture_output=True, text=True)
    except OSError:  # no git on the PATH
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def src_sha256(root: Path) -> str:
    """SHA-256 over src/**/*.py under root: each relative path, in sorted
    order, with its length and then its bytes."""
    digest = hashlib.sha256()
    for path in sorted(p.relative_to(root).as_posix() for p in root.glob("src/**/*.py")):
        data = (root / path).read_bytes()
        digest.update(f"{path}\0{len(data)}\0".encode())
        digest.update(data)
    return digest.hexdigest()


def medians(runs: list[dict]) -> dict[str, float]:
    return {name: statistics.median(r["metrics"][name] for r in runs) for name in runs[0]["metrics"]}


def quartiles(runs: list[dict]) -> dict[str, list[float]]:
    """q1 and q3 of each metric over the runs, as numpy's default computes them."""
    out = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name] for r in runs]
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
        out[name] = [q1, q3]
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parent.parent)
    parser.add_argument("--baseline-root", type=Path)
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    parser.add_argument("--seconds", type=float, default=30.0)
    args = parser.parse_args()

    roots = {"change": args.root}
    if args.baseline_root:
        roots["baseline"] = args.baseline_root
    runs: dict[str, dict[str, list]] = {tree: {w: [] for w in WORKLOADS} for tree in roots}
    env = None
    for k, (workload, seed) in enumerate(product(WORKLOADS, args.seeds)):
        for tree in list(roots)[:: 1 if k % 2 == 0 else -1]:
            info, result = run(roots[tree], workload, seed, args.seconds)
            env = info["env"]
            metrics = {name: m["value"] for name, m in result["metrics"].items()}
            run_record = {"seed": seed, "digest": info["digest"], "correct": result["correct"], "metrics": metrics}
            runs[tree][workload].append(run_record)

    def tree_record(tree: str) -> dict:
        status = git(roots[tree], "status", "--porcelain", "src")  # src differs from the commit
        return {
            "commit": git(roots[tree], "rev-parse", "HEAD"),
            "dirty": None if status is None else bool(status),
            "src_sha256": src_sha256(roots[tree]),
            "workloads": {
                w: {"median": medians(r), "quartiles": quartiles(r), "runs": r} for w, r in runs[tree].items()
            },
        }

    record = {**tree_record("change"), "seconds": args.seconds, "seeds": args.seeds, "env": env}
    if args.baseline_root:
        record["baseline"] = tree_record("baseline")
        base = record["baseline"]["workloads"]
        record["ratio"] = {
            w: {name: m / b if (b := base[w]["median"][name]) else None for name, m in v["median"].items()}
            for w, v in record["workloads"].items()
        }
        specs = json.loads((args.root / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]
        sign = {m["name"]: 1.0 if m["better"] == "higher" else -1.0 for m in specs}
        pairs = {w: list(zip(runs["change"][w], runs["baseline"][w])) for w in WORKLOADS}
        record["wins"] = {
            w: {name: sum(sign[name] * (c["metrics"][name] - b["metrics"][name]) > 0 for c, b in ps) for name in sign}
            for w, ps in pairs.items()
        }
        record["digests_equal"] = {w: all(c["digest"] == b["digest"] for c, b in ps) for w, ps in pairs.items()}
        for w, ps in pairs.items():
            same = sum(c["digest"] == b["digest"] for c, b in ps)
            print(f"{w}: {same} of {len(ps)} change runs give the baseline's digest for the same seed")
    args.out.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
