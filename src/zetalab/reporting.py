"""Check results, run configuration, and report emission (json/csv/text)."""

from __future__ import annotations

import csv
import io
import json
from dataclasses import asdict, dataclass, replace

__all__ = ["CheckResult", "RunConfig", "emit_report", "VERSION"]

VERSION = "0.1.0"

VERDICTS = ("pass", "fail", "finding")


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one registered check.

    verdict is 'pass' iff worst_residual <= tolerance for assert-class
    checks; finding-class checks always carry verdict 'finding' and never
    affect exit status.
    """

    id: str
    verdict: str
    worst_residual: float
    tolerance: float
    n_samples: int
    details: str
    duration_ms: int = 0

    def __post_init__(self) -> None:
        if self.verdict not in VERDICTS:
            raise ValueError(f"bad verdict {self.verdict!r}")


@dataclass(frozen=True)
class RunConfig:
    """Deterministic run parameters: same seed + same config reproduce the
    report byte-for-byte apart from duration fields.

    Per-check sampling derives its substream from (seed, crc32(check id))
    feeding a PCG64 generator, so execution order cannot change results.
    """

    seed: int = 0
    kappa_grid: tuple[int, int] = (40, 40)
    line_t_max: float = 40.0


def strip_durations(results: list[CheckResult]) -> list[CheckResult]:
    """Copy of the results with duration fields zeroed, for byte comparisons."""
    return [replace(r, duration_ms=0) for r in results]


def emit_report(results: list[CheckResult], format: str, seed: int = 0) -> bytes:
    """Serialize results with stable field order.

    Args:
        results: check results in registry order.
        format: 'json', 'csv', or 'text'.
        seed: seed recorded in the json header.
    """
    if format == "json":
        payload = {
            "version": VERSION,
            "seed": seed,
            "results": [asdict(r) for r in results],
        }
        return (json.dumps(payload, indent=2) + "\n").encode("utf-8")

    if format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["id", "verdict", "worst_residual", "tolerance", "n_samples"])
        for r in results:
            writer.writerow([r.id, r.verdict, repr(r.worst_residual), repr(r.tolerance), r.n_samples])
        return buf.getvalue().encode("utf-8")

    if format == "text":
        width = max((len(r.id) for r in results), default=10)
        lines = []
        for r in results:
            lines.append(
                f"{r.id:<{width}}  {r.verdict:<7}  "
                f"residual={r.worst_residual:<12.5g} tol={r.tolerance:<12.5g} "
                f"n={r.n_samples}  {r.details}"
            )
        n_fail = sum(1 for r in results if r.verdict == "fail")
        n_finding = sum(1 for r in results if r.verdict == "finding")
        n_pass = sum(1 for r in results if r.verdict == "pass")
        lines.append(f"{n_pass} pass, {n_fail} fail, {n_finding} finding")
        return ("\n".join(lines) + "\n").encode("utf-8")

    raise ValueError(f"unknown report format {format!r}")
