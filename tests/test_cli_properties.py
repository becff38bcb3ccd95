"""Property test: every subcommand, given any values for its arguments, ends
with exit status 0, 1 or 2 and prints no traceback. Inputs stay cheap: sieve
bounds up to 10^4, scans under 10^4 cells (larger grids are refused by the
cap before any cell is evaluated) and zero windows up to 60 high."""

import contextlib
import io
import math
import os

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st  # noqa: E402

from zetalab import cli  # noqa: E402
from zetalab.harness import REGISTRY  # noqa: E402

DERANDOMIZED = hypothesis.settings.get_profile("derandomized")

#: floats at the edges argparse and the evaluators see.
SPECIALS = [0.0, -0.0, 1.0, -1.0, 0.25, 1e-320, 447.0, 1e9, 1e300, math.inf, -math.inf, math.nan]
#: --out: stdout either way, a path below a file and a directory, neither of them writable.
OUTS = st.sampled_from(
    [[], ["--out", "-"], ["--out", os.path.join(__file__, "x.csv")], ["--out", os.path.dirname(__file__)]]
)


def number(lo: float, hi: float, specials=SPECIALS):
    """A float in [lo, hi] three times in four, else one of the specials."""
    return st.one_of(*[st.floats(lo, hi)] * 3, st.sampled_from(specials))


EVAL = st.builds(
    lambda re, im, fn: ["eval", repr(re), repr(im), "--fn", fn],
    number(-30.0, 30.0),
    number(-500.0, 500.0),
    st.sampled_from(sorted(cli._EVAL_FNS)),
)
SIEVE = st.builds(
    lambda n, fn, out: ["sieve", str(n), "--fn", fn, *out],
    st.integers(-3, 10**4),
    st.sampled_from(sorted(cli._SIEVE_COLUMNS)),
    OUTS,
)
CHECK_IDS = st.sampled_from([*REGISTRY, "", " ", "BOGUS", "p1_conj_ratio"])
VERIFY = st.builds(
    lambda ids, seed, report, out: ["verify", "--only", ",".join(ids), *seed, "--report", report, *out],
    st.lists(CHECK_IDS, max_size=3),
    st.sampled_from([[], ["--seed", "0"], ["--seed", "-1"], ["--seed", str(2**70)]]) | st.builds(
        lambda s: ["--seed", str(s)], st.integers(0, 2**32)
    ),
    st.sampled_from(["json", "csv", "text"]),
    OUTS,
)
# re_min and im_min within 2 of the origin, widths and steps in 0.05..2, or special values:
# at most 41 x 41 cells, unless the cap or the rectangle refuses the grid (no special
# width is finite and above 2)
WIDTHS = [0.0, -0.0, 1e-320, 0.25, 1.0, -1.0, 1e300, math.inf, math.nan]
SCAN = st.builds(
    lambda re, width, im, height, step, quantity, out: [
        "scan",
        f"--rect={re!r},{re + width!r},{im!r},{im + height!r}",
        "--step",
        repr(step),
        "--quantity",
        quantity,
        *out,
    ],
    number(-2.0, 2.0),
    number(0.05, 2.0, WIDTHS),
    number(-2.0, 2.0),
    number(0.05, 2.0, WIDTHS),
    number(0.05, 2.0),
    st.sampled_from(["abs_zeta", "abs_eta", "abs_kappa", "im_kappa"]),
    OUTS,
)
ZEROS = st.builds(
    lambda t_min, height, step, out: [
        "zeros",
        "--tmin",
        repr(t_min),
        "--tmax",
        repr(t_min + height),
        "--step",
        repr(step),
        *out,
    ],
    number(0.5, 40.0),
    number(0.5, 20.0),
    number(0.005, 0.05),
    OUTS,
)


def run_main(argv: list[str]) -> tuple[int, str]:
    """cli.main's exit status and its stderr; any other exception escapes."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, err.getvalue()


@pytest.mark.parametrize(
    "argvs", [EVAL, SIEVE, VERIFY, SCAN, ZEROS], ids=["eval", "sieve", "verify", "scan", "zeros"]
)
def test_every_subcommand_exits_0_1_or_2_without_a_traceback(argvs):
    @DERANDOMIZED
    @given(argvs)
    def check(argv):
        code, err = run_main(argv)
        assert code in (0, 1, 2), (argv, code, err)
        assert "Traceback" not in err, (argv, err)

    check()
