"""CLI subcommands exercised through main(argv)."""

import importlib
import json
import math
import os
import subprocess
import sys

import pytest

from zetalab import cli
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


def test_eval_error_is_reported(capsys):
    code, out = run_cli(["eval", "1", "0"], capsys)
    assert code == 1
    assert "error" in json.loads(out)


def test_sieve_stdout(capsys):
    code, out = run_cli(["sieve", "6", "--fn", "mu"], capsys)
    assert code == 0
    assert out.splitlines() == ["n,value", "1,1", "2,-1", "3,-1", "4,0", "5,-1", "6,1"]


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


def test_scan(capsys):
    code, out = run_cli(
        ["scan", "--rect", "1.9,2.1,0,0.05", "--step", "0.1", "--quantity", "abs_zeta"], capsys
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "re,im,value"
    assert len(lines) == 4


def test_scan_bad_rect(capsys):
    assert_one_line_error(["scan", "--rect", "1,2,3", "--step", "0.1", "--quantity", "abs_zeta"], capsys)


def test_zeros_csv(capsys):
    code, out = run_cli(["zeros", "--tmin", "14", "--tmax", "14.3", "--step", "0.02"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "t,re,im,abs_eta,multiplicity,method"
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


def test_eval_at_large_height_keeps_json_error(capsys):
    code, out = run_cli(["eval", "0.5", "1000"], capsys)
    assert code == 1
    assert "1000" in json.loads(out)["error"]


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
