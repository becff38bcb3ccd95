"""Command-line interface: eval, sieve, verify, scan, zeros subcommands."""

from __future__ import annotations

import argparse
import itertools
import json
import os
import re
import sys

from . import arith
from .errors import UnknownCheckId, ZetaLabError
from .harness import REGISTRY, all_assertions_pass, grid_scan, run_all, run_check
from .reflect import kappa, nu, theta
from .reporting import RunConfig, emit_report
from .zeros import Rect, find_critical_zeros
from .zeta_eval import eta, zeta

_EVAL_FNS = {
    "zeta": zeta,
    "eta": eta,
    "nu": nu,
    "theta": theta,
    "kappa": kappa,
}

_SIEVE_COLUMNS = {
    "mu": lambda t: t.mu,
    "lambda": lambda t: t.liouville,
    "mangoldt": lambda t: t.mangoldt,
    "sigma": lambda t: t.sigma_paper,
}

#: sieve rows per string written; at 10^7 rows on a 2-core x86_64, a string per row took 5.3-6.2 s
#: where blocks take 3.8-4.1 s, and one string for all rows peaked at 989 MB RSS where blocks take 117 MB.
_SIEVE_BLOCK = 1 << 16

#: a negative number as float() reads it. Before Python 3.13, argparse takes
#: one written with an exponent, or as inf or nan, for an option flag.
_NEGATIVE_NUMBER = re.compile(r"-(\d+\.?\d*|\.\d+)(e[-+]?\d+)?$|-(inf|infinity|nan)$", re.IGNORECASE)


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that reads every negative number, -1e5 and -inf
    included, as a value; subcommand parsers are of the same class."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NEGATIVE_NUMBER


def _write_out(chunks, path: str | None) -> None:
    if path is None or path == "-":
        sys.stdout.writelines(chunks)
    else:
        with open(path, "w", encoding="utf-8") as handle:
            handle.writelines(chunks)


def _cmd_eval(args: argparse.Namespace) -> int:
    s = complex(args.re, args.im)
    try:
        result = _EVAL_FNS[args.fn](s)
    except ZetaLabError as exc:
        print(json.dumps({"fn": args.fn, "re": args.re, "im": args.im, "error": str(exc)}))
        return 1
    payload = {
        "fn": args.fn,
        "re": args.re,
        "im": args.im,
        "value_re": result.value.real,
        "value_im": result.value.imag,
        "abs_err_est": result.abs_err_est,
        "method": result.method,
    }
    print(json.dumps(payload))
    return 0


def _cmd_sieve(args: argparse.Namespace) -> int:
    column = _SIEVE_COLUMNS[args.fn](arith.build_table(args.n))
    # repr of the Python ints and floats of tolist() is each cell's text
    blocks = (
        "".join(f"{k},{v!r}\n" for k, v in enumerate(column[lo : lo + _SIEVE_BLOCK].tolist(), lo))
        for lo in range(1, args.n + 1, _SIEVE_BLOCK)
    )
    _write_out(itertools.chain(["n,value\n"], blocks), args.out)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    seed = args.seed
    if seed is None:
        raw = os.environ.get("ZETALAB_SEED", "0")
        try:
            seed = int(raw)
        except ValueError:
            raise ValueError(f"ZETALAB_SEED must be an integer, got {raw!r}") from None
    cfg = RunConfig(seed=seed)
    if args.only is not None:
        ids = [x.strip() for x in args.only.split(",") if x.strip()]
        if not ids:
            raise ValueError(f"--only names no check ids: {args.only!r}")
        unknown = [x for x in ids if x not in REGISTRY]
        if unknown:
            raise UnknownCheckId(f"unknown check ids: {', '.join(unknown)}")
        results = [run_check(check_id, cfg) for check_id in ids]
    else:
        results = run_all(cfg)
    _write_out([emit_report(results, args.report, seed=seed).decode("utf-8")], args.out)
    return 0 if all_assertions_pass(results) else 1


def _cmd_scan(args: argparse.Namespace) -> int:
    parts = [float(x) for x in args.rect.split(",")]
    if len(parts) != 4:
        raise ValueError("--rect expects re_min,re_max,im_min,im_max")
    region = Rect(*parts)
    csv_text = grid_scan(region, args.step, args.quantity)
    _write_out([csv_text], args.out)
    return 0


def _cmd_zeros(args: argparse.Namespace) -> int:
    records = find_critical_zeros(args.tmin, args.tmax, args.step)
    lines = ["t,re,im,abs_zeta,multiplicity,method"]
    for rec in records:
        lines.append(
            f"{rec.location.imag!r},{rec.location.real!r},{rec.location.imag!r},"
            f"{rec.refined_abs_value!r},{rec.multiplicity_estimate!r},{rec.method}"
        )
    _write_out(["\n".join(lines) + "\n"], args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="zetalab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    eval_cmd = sub.add_parser("eval", help="Evaluate a function at re + i*im")
    eval_cmd.add_argument("re", type=float)
    eval_cmd.add_argument("im", type=float)
    eval_cmd.add_argument("--fn", choices=sorted(_EVAL_FNS), default="zeta")

    sieve_cmd = sub.add_parser("sieve", help="Dump a sieved array as CSV (columns n,value)")
    sieve_cmd.add_argument("n", type=int)
    sieve_cmd.add_argument("--fn", choices=sorted(_SIEVE_COLUMNS), required=True)
    sieve_cmd.add_argument("--out", default=None, help="output path (default stdout)")

    verify_cmd = sub.add_parser("verify", help="Run registered checks and emit a report")
    verify_cmd.add_argument("--only", default=None, help="comma-separated check ids")
    verify_cmd.add_argument("--seed", type=int, default=None)
    verify_cmd.add_argument("--report", choices=["json", "csv", "text"], default="text")
    verify_cmd.add_argument("--out", default=None, help="output path (default stdout)")

    scan_cmd = sub.add_parser("scan", help="Grid-scan a quantity over a rectangle (CSV)")
    scan_cmd.add_argument(
        "--rect", required=True, help="re_min,re_max,im_min,im_max; write --rect=-1,1,0,2 when re_min is negative"
    )
    scan_cmd.add_argument("--step", type=float, required=True)
    scan_cmd.add_argument(
        "--quantity", choices=["abs_zeta", "abs_eta", "abs_kappa", "im_kappa"], required=True
    )
    scan_cmd.add_argument("--out", default=None, help="output path (default stdout)")

    zeros_cmd = sub.add_parser("zeros", help="Locate critical-line zeros (CSV)")
    zeros_cmd.add_argument("--tmin", type=float, required=True)
    zeros_cmd.add_argument("--tmax", type=float, required=True)
    zeros_cmd.add_argument("--step", type=float, default=0.01)
    zeros_cmd.add_argument("--out", default=None, help="output path (default stdout)")

    return parser


_HANDLERS = {
    "eval": _cmd_eval,
    "sieve": _cmd_sieve,
    "verify": _cmd_verify,
    "scan": _cmd_scan,
    "zeros": _cmd_zeros,
}


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand. Library errors, malformed input (a bad
    ZETALAB_SEED, --only or --rect) and an --out that cannot be written end
    the process with one `zetalab: error: ...` line on stderr and exit
    status 2; verify's exit status 1 means only that a check failed."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except (ZetaLabError, ValueError, OSError) as exc:
        parser.exit(2, f"{parser.prog}: error: {exc}\n")


if __name__ == "__main__":
    raise SystemExit(main())
