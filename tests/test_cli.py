"""CLI: golden outputs on the shipped fixtures, exit codes, JSON schema."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

from superdelta.cli import main

ROOT = pathlib.Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"
BV = str(FIXTURES / "bv.sd")
LB = str(FIXTURES / "lb.sd")
PENCIL = str(FIXTURES / "pencil.sd")
MASTER = str(FIXTURES / "master.sd")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# ---------------------------------------------------------------------------
# golden outputs


def test_derived_golden(capsys):
    code, out, _ = run(capsys, "derived", "--input", BV, "--op", "Delta",
                       "--args", "x,xi")
    assert code == 0 and out == "1\n"


def test_apply_golden(capsys):
    code, out, _ = run(capsys, "apply", "--input", BV, "--op", "Delta",
                       "--args", "f")
    assert code == 0 and out == "1\n"


def test_bracket_golden(capsys):
    code, out, _ = run(capsys, "bracket", "--input", BV, "--op", "Delta",
                       "--args", "x,xi")
    assert code == 0 and out == "1\n"


def test_pencil_golden(capsys):
    code, out, _ = run(capsys, "pencil", "--input", LB, "--bracket", "S",
                       "--gamma", "gamma", "--theta", "0")
    assert code == 0
    assert out == "(-2*x*W + x)*d(xi) + d(x)*d(xi)\n"


def test_pencil_weight_zero_is_laplacian(capsys):
    code, out, _ = run(capsys, "pencil", "--input", LB, "--bracket", "S",
                       "--gamma", "gamma", "--theta", "0", "--weight", "0")
    assert code == 0
    # the Laplace-Beltrami pencil at w = 0 is the odd Laplacian of sigma:
    # 1/2 e^{-x^2} d_a e^{x^2} S d_b = d(x)d(xi) + x d(xi)
    assert out == "x*d(xi) + d(x)*d(xi)\n"


def test_adjoint_golden(capsys):
    code, out, _ = run(capsys, "adjoint", "--input", PENCIL, "--op", "P")
    assert code == 0 and out == "(2*W - 1)*d(x)\n"


def test_jacobiator_golden(capsys):
    code, out, _ = run(capsys, "jacobiator", "--input", BV, "--op", "Delta",
                       "--n", "2", "--args", "x,xi")
    assert code == 0 and out == "0\n"


def test_classify_golden_json(capsys):
    code, out, _ = run(capsys, "classify", "--input", BV, "--op", "Delta",
                       "--json")
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {"result", "parity", "order", "extra"}
    assert doc["result"] == "<=0"
    assert doc["extra"]["square_order"] == "zero"
    assert doc["extra"]["level"] == "Jacobi_1"
    assert doc["extra"]["linfty_certified"] is True


def test_master_golden(capsys):
    code, out, _ = run(capsys, "master", "--input", MASTER, "--bracket", "S",
                       "--sigma0", "flat", "--sigma", "sigma_good", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["result"] == "0"
    assert doc["extra"]["master_equation_holds"] is True
    code, out, _ = run(capsys, "master", "--input", MASTER, "--bracket", "S",
                       "--sigma0", "flat", "--sigma", "sigma_bad")
    assert code == 0
    assert out.splitlines()[0] == "(1/2)*xi2"
    assert "master_equation_holds: False" in out


def test_report_golden(capsys):
    code, out, _ = run(capsys, "report", "--input", PENCIL, "--bracket", "S",
                       "--gamma", "gamma")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "(S,S) = 0"
    assert lines[1] != "(S,gamma) = 0"
    assert "jacobi: False" in out


def test_transform_golden(tmp_path, capsys):
    src = tmp_path / "tr.sd"
    src.write_text(
        "chart C { even x; odd xi1, xi2; }\n"
        "operator Delta on C = d(x)*d(xi1);\n"
        "map phi on C { x -> x + xi1*xi2; xi1 -> xi1; xi2 -> xi2;\n"
        "  inverse { x -> x - xi1*xi2; xi1 -> xi1; xi2 -> xi2; } }\n")
    code, out, _ = run(capsys, "transform", "--input", str(src), "--map",
                       "phi", "--op", "Delta")
    assert code == 0 and out == "d(x)*d(xi1) + xi2*d(x)^2\n"


def test_version_and_conventions(capsys):
    code, out, _ = run(capsys, "--version")
    assert code == 0 and out.strip().count(".") == 2
    code, out, _ = run(capsys, "--conventions")
    assert code == 0
    assert "frozen sign conventions" in out
    assert "Delta_{e^sigma rho} = Delta_rho - H" in out  # resolved sign
    assert "(d_a)* = -d_a" in out
    assert "Koszul" in out


# ---------------------------------------------------------------------------
# exit codes


def test_exit_code_usage(capsys):
    code, _, err = run(capsys, "derived", "--input", BV, "--op", "Nope",
                       "--args", "x")
    assert code == 1 and "usage error" in err
    code, _, err = run(capsys)
    assert code == 1
    code, _, err = run(capsys, "apply", "--input", BV, "--op", "Delta")
    assert code == 1


def test_exit_code_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.sd"
    bad.write_text("chart C { even x; odd xi; } density s on C = x*xi;\n")
    code, _, err = run(capsys, "apply", "--input", str(bad), "--op", "D",
                       "--args", "x")
    assert code == 2
    assert "line 1:" in err


def test_exit_code_parse_error_not_utf8(tmp_path, capsys):
    bad = tmp_path / "latin1.sd"
    bad.write_bytes(b"chart C { even x; odd xi; }\n# caf\xe9\n"
                    b"operator D on C = d(x);\n")
    code, _, err = run(capsys, "apply", "--input", str(bad), "--op", "D",
                       "--args", "x")
    assert code == 2
    assert "line 2:6: invalid UTF-8 byte 0xe9" in err


def test_args_diagnostics_point_into_the_expression(capsys):
    """--args and --theta errors are placed in the text the user gave,
    whose end reads as the end of input."""
    code, out, err = run(capsys, "derived", "--input", BV, "--op", "Delta",
                         "--args", "x +")
    assert (code, out) == (2, "")
    assert err == ("error: line 1:4: unexpected end of input "
                   "(expected '(', '-', identifier, number)\n")
    code, out, err = run(capsys, "pencil", "--input", LB, "--bracket", "S",
                         "--theta", "x )")
    assert (code, out, err) == (2, "", "error: line 1:3: trailing input ')'\n")


def test_module_may_declare_any_element_name(tmp_path, capsys):
    src = tmp_path / "arg.sd"
    src.write_text((FIXTURES / "bv.sd").read_text() + "element __arg on C = x;\n")
    code, out, _ = run(capsys, "derived", "--input", str(src), "--op", "Delta",
                       "--args", "__arg,xi")
    assert code == 0 and out == "1\n"


def test_exit_code_domain_error(tmp_path, capsys):
    src = tmp_path / "dom.sd"
    src.write_text(
        "chart C { even x; odd xi; }\n"
        "tensor S on C parity odd { [x,xi] = 1; }\n"
        "tensor gamma on C parity odd { [xi] = -2*x; }\n"
        "density sigma on C = x^2;\n")
    # theta of the wrong parity for an odd bracket
    code, _, err = run(capsys, "pencil", "--input", str(src), "--bracket",
                       "S", "--gamma", "gamma", "--theta", "x")
    assert code == 3 and "domain error" in err


def test_color_env(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("SUPERDELTA_COLOR", "1")
    code, _, err = run(capsys, "derived", "--input", BV, "--op", "Nope",
                       "--args", "x")
    assert code == 1 and "\x1b[31m" in err


# ---------------------------------------------------------------------------
# demo scripts


@pytest.mark.parametrize("script, line", [
    ("classify_demo.py", "certified: True"),
    ("pencil_demo.py", "bracket satisfies Jacobi: True"),
])
def test_demo_script_runs(script, line):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / script)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert line in [ln.strip() for ln in proc.stdout.splitlines()]
