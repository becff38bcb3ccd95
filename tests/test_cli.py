"""CLI subcommands exercised through main(argv)."""

import importlib
import json
import math
import os
import subprocess
import sys
import tracemalloc

import pytest

from zetalab import build_table, cli
from zetalab import harness


def run_cli(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, out


def assert_one_line_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("zetalab: error: ") and err.count("\n") == 1
    assert "Traceback" not in err
    return err


def test_eval_zeta(capsys):
    code, out = run_cli(["eval", "2", "0"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert abs(doc["value_re"] - math.pi**2 / 6.0) < 1e-12
    assert doc["method"] == "direct-series"


def test_eval_other_functions(capsys):
    for fn in ("eta", "nu", "theta", "kappa"):
        code, out = run_cli(["eval", "0.6", "5.0", "--fn", fn], capsys)
        assert code == 0
        assert "value_re" in json.loads(out)


def test_eval_theta_far_left_is_a_value_or_a_json_error(capsys):
    code, out = run_cli(["eval", "-1000", "0", "--fn", "theta"], capsys)
    assert code == 0
    assert json.loads(out)["value_re"] == pytest.approx(2.0**1000)
    code, out = run_cli(["eval", "-1100", "0", "--fn", "theta"], capsys)
    assert code == 1
    assert "floating range" in json.loads(out)["error"]


def test_eval_error_is_reported(capsys):
    code, out = run_cli(["eval", "1", "0"], capsys)
    assert code == 1
    assert "error" in json.loads(out)


@pytest.mark.parametrize("re_arg", ["-1e5", "-1E-3", "-2.5e+1", "-inf", "-Infinity", "-nan"])
def test_eval_reads_a_negative_number_in_any_float_form(re_arg, capsys):
    # argparse before Python 3.13 takes these for option flags unless the parser says otherwise
    code, out = run_cli(["eval", re_arg, "-1e1", "--fn", "zeta"], capsys)
    assert code in (0, 1)
    doc = json.loads(out)
    assert repr(doc["re"]) == repr(float(re_arg)) and doc["im"] == -10.0


@pytest.mark.parametrize(
    "argv, message",
    [
        (["zeros", "--tmin", "-1e5", "--tmax", "10"], "t_min"),
        (["zeros", "--tmin", "-inf", "--tmax", "10"], "t_min"),
        (["zeros", "--tmin", "10", "--tmax", "11", "--step", "-1e-2"], "step"),
        (["zeros", "--tmin", "10", "--tmax", "11", "--step", "-nan"], "step"),
        (["scan", "--rect=0,1,0,1", "--step", "-1e-1", "--quantity", "abs_zeta"], "step"),
    ],
)
def test_negative_option_values_reach_the_library(argv, message, capsys):
    err = assert_one_line_error(argv, capsys)
    assert message in err and "expected one argument" not in err


def test_sieve_stdout(capsys):
    code, out = run_cli(["sieve", "6", "--fn", "mu"], capsys)
    assert code == 0
    assert out.splitlines() == ["n,value", "1,1", "2,-1", "3,-1", "4,0", "5,-1", "6,1"]


def _sieve_text_row_by_row(n, fn):
    """zetalab sieve's output as it was formed one row at a time."""
    column = cli._SIEVE_COLUMNS[fn](build_table(n))
    is_real = column.dtype.kind == "f"
    lines = ["n,value"] + [f"{k},{float(column[k])!r}" if is_real else f"{k},{int(column[k])}" for k in range(1, n + 1)]
    return "\n".join(lines) + "\n"


# 65537 rows: one past the first block of rows written
@pytest.mark.parametrize("n", [12, 65537])
@pytest.mark.parametrize("fn", sorted(cli._SIEVE_COLUMNS))
def test_sieve_text_matches_the_row_by_row_form(tmp_path, capsys, n, fn):
    expected = _sieve_text_row_by_row(n, fn).encode()
    path = tmp_path / "column.csv"
    assert run_cli(["sieve", str(n), "--fn", fn, "--out", str(path)], capsys) == (0, "")
    assert path.read_bytes() == expected
    assert run_cli(["sieve", str(n), "--fn", fn], capsys) == (0, expected.decode())


def test_sieve_streams_its_column(tmp_path):
    tracemalloc.start()
    try:
        assert cli.main(["sieve", "1000000", "--fn", "mu", "--out", str(tmp_path / "mu.csv")]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the table's build peaks under 9.5 MB, and a block of 65536 rows takes a
    # few MB while it is joined; one string per row held about 90 MB
    assert peak < 20e6, peak


def test_sieve_to_file(tmp_path, capsys):
    path = tmp_path / "lambda.csv"
    code, _ = run_cli(["sieve", "8", "--fn", "lambda", "--out", str(path)], capsys)
    assert code == 0
    lines = path.read_text().splitlines()
    assert lines[0] == "n,value"
    assert lines[8] == "8,-1"  # Omega(8) = 3


def test_verify_single_json(capsys):
    code, out = run_cli(["verify", "--only", "P1_CONJ_RATIO", "--report", "json"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["results"][0]["id"] == "P1_CONJ_RATIO"
    assert doc["results"][0]["verdict"] == "pass"


def test_verify_unknown_id(capsys):
    assert "BOGUS" in assert_one_line_error(["verify", "--only", "BOGUS"], capsys)


def test_verify_env_seed(monkeypatch, capsys):
    monkeypatch.setenv("ZETALAB_SEED", "42")
    code, out = run_cli(["verify", "--only", "EQ44_MERTENS", "--report", "json"], capsys)
    assert code == 0
    assert json.loads(out)["seed"] == 42


def test_verify_exit_code_on_failure(monkeypatch, capsys):
    body, finding, _ = harness.REGISTRY["EQ44_MERTENS"]
    monkeypatch.setitem(harness.REGISTRY, "EQ44_MERTENS", (body, finding, -1.0))
    code, out = run_cli(["verify", "--only", "EQ44_MERTENS", "--report", "csv"], capsys)
    assert code == 1
    assert ",fail," in out


def test_verify_text_report_to_file(tmp_path, capsys):
    path = tmp_path / "report.txt"
    code, _ = run_cli(
        ["verify", "--only", "SEC4_TRIVIAL_ZEROS", "--report", "text", "--out", str(path)], capsys
    )
    assert code == 0
    assert "SEC4_TRIVIAL_ZEROS" in path.read_text()


@pytest.mark.parametrize("command", [["sieve", "10", "--fn", "sigma"], ["verify", "--only", "P1_CONJ_RATIO"]])
@pytest.mark.parametrize("where", ["missing-dir", "a-directory"])
def test_an_unwritable_out_is_a_one_line_error(tmp_path, capsys, command, where):
    path = tmp_path / "missing" / "x.csv" if where == "missing-dir" else tmp_path
    err = assert_one_line_error([*command, "--out", str(path)], capsys)
    assert str(path) in err


@pytest.mark.parametrize("only", [",,,", "", " , "])
def test_verify_only_naming_no_check_is_a_one_line_error(capsys, only):
    assert "no check ids" in assert_one_line_error(["verify", "--only", only], capsys)


def test_scan(capsys):
    code, out = run_cli(
        ["scan", "--rect", "1.9,2.1,0,0.05", "--step", "0.1", "--quantity", "abs_zeta"], capsys
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "re,im,value"
    assert len(lines) == 4


def test_scan_rect_with_negative_re_min_takes_the_equals_form(capsys):
    argv = ["--step", "0.5", "--quantity", "abs_zeta"]
    # argparse reads a value that starts with '-' as an option
    with pytest.raises(SystemExit) as exc:
        cli.main(["scan", "--rect", "-1,1,0,2", *argv])
    assert exc.value.code == 2
    assert "--rect: expected one argument" in capsys.readouterr().err
    code, out = run_cli(["scan", "--rect=-1,1,0,2", *argv], capsys)
    assert code == 0
    assert len(out.strip().splitlines()) == 1 + 5 * 5
    with pytest.raises(SystemExit):
        cli.main(["scan", "--help"])
    assert "--rect=-1,1,0,2" in capsys.readouterr().out


def test_scan_bad_rect(capsys):
    assert_one_line_error(["scan", "--rect", "1,2,3", "--step", "0.1", "--quantity", "abs_zeta"], capsys)


def test_zeros_csv(capsys):
    code, out = run_cli(["zeros", "--tmin", "14", "--tmax", "14.3", "--step", "0.02"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "t,re,im,abs_zeta,multiplicity,method"
    assert len(lines) == 2
    t = float(lines[1].split(",")[0])
    assert abs(t - 14.134725) < 1e-6
    assert lines[1].split(",")[5] == "winding-confirmed"


def test_sieve_over_budget_is_a_one_line_error(capsys):
    err = assert_one_line_error(["sieve", "200000000", "--fn", "mu"], capsys)
    assert "exceeds budget" in err


def test_bad_env_seed_is_a_one_line_error(monkeypatch, capsys):
    monkeypatch.setenv("ZETALAB_SEED", "abc")
    err = assert_one_line_error(["verify"], capsys)
    assert "ZETALAB_SEED" in err


def test_cli_process_prints_no_traceback(tmp_path):
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, ZETALAB_SEED="abc", PYTHONPATH=src)
    for argv in (["sieve", "200000000", "--fn", "mu"], ["verify"]):
        proc = subprocess.run(
            [sys.executable, "-m", "zetalab.cli", *argv], capture_output=True, text=True, env=env, cwd=tmp_path
        )
        assert proc.returncode == 2
        assert proc.stderr.startswith("zetalab: error: ")
        assert "Traceback" not in proc.stderr


def test_series_report_does_not_depend_on_blas_threads(tmp_path):
    # OpenBLAS reads its thread count at load, hence one process per count.
    # On a 1-core host both runs take one thread, and this cannot fail.
    src = os.path.dirname(os.path.dirname(cli.__file__))
    argv = ["verify", "--seed", "1", "--only", "EQ54_LIOUVILLE,EQ58_PRODUCT", "--report", "csv"]
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        proc = subprocess.run(
            [sys.executable, "-m", "zetalab.cli", *argv], capture_output=True, env=env, cwd=tmp_path, check=True
        )
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]
    assert b"EQ54_LIOUVILLE" in outputs[0] and b"EQ58_PRODUCT" in outputs[0]


def test_eval_at_large_height_keeps_json_error(capsys):
    code, out = run_cli(["eval", "0.5", "1000"], capsys)
    assert code == 1
    assert "1000" in json.loads(out)["error"]
    # below eta's exponential overflow, where the bound used to print Infinity
    for height in ("447", "451"):
        for fn in ("eta", "zeta"):
            code, out = run_cli(["eval", "0.5", height, "--fn", fn], capsys)
            assert code == 1
            assert height in json.loads(out)["error"]


def test_version_has_one_source():
    import zetalab
    from zetalab.reporting import VERSION

    assert zetalab.__version__ is VERSION == "0.1.0"


LAYERS = ("specfun", "zeta_eval", "arith", "reflect", "zeros", "harness", "reporting")


@pytest.mark.parametrize("module", ["zetalab", *(f"zetalab.{layer}" for layer in LAYERS)])
def test_every_exported_name_resolves(module):
    # perfbench/tracer.py wraps every name in a layer's __all__ by getattr
    mod = importlib.import_module(module)
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []


def test_zeros_above_the_supported_height_is_a_one_line_error(capsys):
    err = assert_one_line_error(["zeros", "--tmin", "10", "--tmax", "1e9", "--step", "0.01"], capsys)
    assert "height" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["zeros", "--tmin", "10", "--tmax", "20", "--step", "1e-12"], "grid points"),
        (["scan", "--rect", "0,1,0,1", "--step", "1e-13", "--quantity", "abs_zeta"], "cells"),
    ],
    ids=["zeros", "scan"],
)
def test_an_oversized_grid_is_a_one_line_error(capsys, argv, message):
    # steps whose grids numpy would refuse at once, so that a missing cap cannot exhaust memory
    err = assert_one_line_error(argv, capsys)
    assert message in err and "over its cap" in err
