"""CLI: golden outputs on the shipped fixtures, exit codes, JSON schema."""

import contextlib
import io
import json
import os
import pathlib
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def test_apply_pencil_to_a_polynomial(tmp_path, capsys):
    """A W pencil applied to a t-free polynomial acts at weight 0 and
    prints a polynomial."""
    src = tmp_path / "m.sd"
    src.write_text("chart C { even x; odd xi; }\noperator P on C = W*d(x) + x;\n")
    argv = ("apply", "--input", str(src), "--op", "P", "--args", "x^2")
    assert run(capsys, *argv) == (0, "x^3\n", "")
    assert run(capsys, *argv, "--json") == (
        0, '{"extra": {}, "order": null, "parity": "even", "result": "x^3"}\n', "")


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


def test_jacobiator_past_twice_the_order_enumerates_no_shuffle(capsys, monkeypatch):
    """ord Delta = 2 on bv.sd, so J^17 = 0 by the order bound: no shuffle
    block is evaluated and the bracket table is read 0 times."""
    from superdelta import brackets
    calls = []
    real = brackets._products
    monkeypatch.setattr(brackets, "_products",
                        lambda I, monos: calls.append((I, monos)) or real(I, monos))
    code, out, _ = run(capsys, "jacobiator", "--input", BV, "--op", "Delta",
                       "--n", "17", "--args", ",".join(["x", "xi"] * 8 + ["x"]))
    assert (code, out) == (0, "0\n")
    assert calls == []
    # the counter sees the reads of an arity below the bound
    run(capsys, "jacobiator", "--input", BV, "--op", "Delta", "--n", "2",
        "--args", "x,xi")
    assert calls


def test_classify_forms_the_square_once(capsys, count_calls):
    """One classify request composes Delta with itself once: the level and
    the L-infinity report read the same square.  Counted, not timed."""
    from superdelta import diffop
    calls = count_calls(diffop, "compose")
    for flags in ([], ["--json"]):
        calls.clear()
        code, _, _ = run(capsys, "classify", "--input", BV, "--op", "Delta", *flags)
        assert code == 0
        assert len(calls) == 1 and calls[0][0] is calls[0][1]


def test_import_loads_no_dataclasses():
    """The package defines its records without dataclasses, which would pull
    inspect, ast, dis and tokenize into every process."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    code = ("import sys, superdelta; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


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


# a (1|2) map with a non-identity body, x -> 2x + xi1 xi2
_SCALING_MAP = (
    "map phi on C { x -> 2*x + xi1*xi2; xi1 -> xi1 + x*xi2; xi2 -> xi2;\n"
    "  inverse { x -> (1/2)*x - (1/2)*xi1*xi2; xi1 -> xi1 - (1/2)*x*xi2;\n"
    "  xi2 -> xi2; } }\n")


def test_transform_bracket_golden(tmp_path, capsys):
    src = tmp_path / "tr.sd"
    src.write_text(
        "chart C { even x; odd xi1, xi2; }\n"
        "tensor S on C parity odd { [x,xi1] = 1 + x*xi1*xi2; [x,x] = xi2;\n"
        "  [xi1,xi2] = x*xi1; }\n"
        "tensor gamma on C parity odd { [x] = x*xi1; [xi2] = x^2 + xi1*xi2; }\n"
        + _SCALING_MAP)
    code, out, _ = run(capsys, "transform", "--input", str(src), "--map",
                       "phi", "--bracket", "S", "--gamma", "gamma",
                       "--theta", "xi2 + x^2*xi1")
    assert code == 0 and out == (
        "S[x,x] = 8*xi2\n"
        "S[x,xi1] = 2 + x*xi1*xi2 - (1/4)*x^2*xi1*xi2\n"
        "S[x,xi2] = -(1/2)*x*xi1*xi2\n"
        "S[xi1,x] = 2 + x*xi1*xi2 - (1/4)*x^2*xi1*xi2\n"
        "S[xi1,xi2] = (1/2)*x*xi1 - (1/4)*x^2*xi2\n"
        "S[xi2,x] = -(1/2)*x*xi1*xi2\n"
        "S[xi2,xi1] = -(1/2)*x*xi1 + (1/4)*x^2*xi2\n"
        "gamma[x] = x*xi1 - (1/4)*x^2*xi1 - (1/2)*x^2*xi2 + (1/8)*x^3*xi2\n"
        "gamma[xi1] = x*xi1*xi2 + (1/8)*x^3 - (3/8)*x^2*xi1*xi2\n"
        "gamma[xi2] = xi1*xi2 + (1/4)*x^2 - (1/2)*x*xi1*xi2\n"
        "theta = xi2 + (1/4)*x^2*xi1 - (1/8)*x^3*xi2\n")


def test_transform_sigma_golden(tmp_path, capsys):
    src = tmp_path / "tr.sd"
    src.write_text(
        "chart C { even x; odd xi1, xi2; }\n"
        "density sigma on C = x^3 + xi1*xi2 + x*xi1*xi2;\n" + _SCALING_MAP)
    code, out, _ = run(capsys, "transform", "--input", str(src), "--map",
                       "phi", "--sigma", "sigma")
    assert code == 0
    assert out == "xi1*xi2 + (1/2)*x*xi1*xi2 + (1/8)*x^3 - (3/8)*x^2*xi1*xi2\n"


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


# One row per refusal a subcommand can reach: (module, argv after --input,
# exit code, the whole stderr line).  "MOD" stands for the module below.
MOD = """chart C { even x; odd xi; }
tensor S on C parity odd { [x,xi] = 1; }
tensor E on C parity even { [x,x] = 1; }
tensor gamma on C parity odd { [xi] = -2*x; }
tensor ge on C parity even { [x] = 1; }
operator Delta on C = d(x)*d(xi);
operator P3 on C = W*d(x)^3;
operator K3 on C = d(x)^2*d(xi);
operator Xi on C = xi;
operator E1 on C = d(x);
operator Mixed on C = d(x) + d(xi);
element psi on C = x*t^(1/2);
"""
LIMIT = 4300
BIG = "1" * (LIMIT + 1)
HDR = "chart C { even x; odd xi; }\n"
IDMAP = HDR + "map phi on C { x -> x; xi -> xi; inverse { x -> x; xi -> xi; } }"
_REFUSALS = [
    # preconditions of the engine: exit 3
    ("MOD", ["bracket", "--op", "P3", "--args", "x,xi"], 3,
     "domain error: pencil bracket requires order <= 2"),
    ("MOD", ["classify", "--op", "K3"], 3,
     "domain error: classification requires order <= 2"),
    ("MOD", ["classify", "--op", "Xi"], 3,
     "domain error: operator must be normalized: D1 = 0"),
    ("MOD", ["classify", "--op", "E1"], 3,
     "domain error: classification requires an odd operator"),
    ("MOD", ["derived", "--op", "Mixed", "--args", "x"], 3,
     "domain error: bracket generator must be homogeneous"),
    ("MOD", ["jacobiator", "--op", "Delta", "--n", "2", "--args", "x + xi,x"], 3,
     "domain error: Jacobiator arguments must be homogeneous"),
    ("MOD", ["derived", "--op", "Delta", "--args", "psi"], 3,
     "domain error: derived-bracket arguments must be t-free polynomials"),
    ("MOD", ["pencil", "--bracket", "S", "--theta", "psi"], 3,
     "domain error: --theta must be a t-free polynomial"),
    ("MOD", ["pencil", "--bracket", "S", "--gamma", "gamma", "--theta", "x"], 3,
     "domain error: theta has wrong parity"),
    ("MOD", ["pencil", "--bracket", "S", "--gamma", "ge"], 3,
     "domain error: gamma[x] has wrong parity"),
    ("MOD", ["report", "--bracket", "E"], 3,
     "domain error: Jacobi report requires an odd bracket"),
    # an output coefficient past the digit limit: exit 3
    ("MOD", ["apply", "--op", "Delta", "--args", "3^10000*x*xi"], 3,
     f"domain error: output coefficient longer than the limit of {LIMIT} digits"),
    # number flags past the digit limit: exit 1, naming the limit, not the digits
    ("MOD", ["apply", "--op", "Delta", "--args", "x", "--weight", BIG], 1,
     f"usage error: --weight: number longer than the limit of {LIMIT} digits"),
    ("MOD", ["jacobiator", "--op", "Delta", "--n", BIG, "--args", "x"], 1,
     f"usage error: --n: number longer than the limit of {LIMIT} digits"),
    ("MOD", ["jacobiator", "--op", "Delta", "--n", "two", "--args", "x"], 1,
     "usage error: --n: not an integer: 'two'"),
    # preconditions met while elaborating the module: exit 2
    ("chart C { even x, x; }", ["classify", "--op", "D"], 2,
     "error: line 1:1: chart variable names must be distinct"),
    ("chart C { }", ["classify", "--op", "D"], 2,
     "error: line 1:1: chart needs at least one variable"),
    # integer literals past the digit limit: exit 2, at the literal
    (HDR + f"element e on C = {BIG}*x;", ["classify", "--op", "D"], 2,
     f"error: line 2:18: integer literal longer than the limit of {LIMIT} digits"),
    ("MOD", ["apply", "--op", "Delta", "--args", f"{BIG}*x"], 2,
     f"error: line 1:1: integer literal longer than the limit of {LIMIT} digits"),
    ("MOD", ["apply", "--op", "Delta", "--args", f"x^{BIG}"], 2,
     f"error: line 1:3: integer literal longer than the limit of {LIMIT} digits"),
    ("MOD", ["apply", "--op", "Delta", "--args", f"t^(1/{BIG})"], 2,
     f"error: line 1:6: integer literal longer than the limit of {LIMIT} digits"),
    # nesting deeper than the fixed limit: exit 2, at the token crossing it
    (HDR + "element e on C = " + "(" * 101 + "x" + ")" * 101 + ";",
     ["classify", "--op", "D"], 2,
     "error: line 2:118: expression nested deeper than 100 levels"),
    ("MOD", ["apply", "--op", "Delta", "--args=" + "-" * 101 + "x"], 2,
     "error: line 1:101: expression nested deeper than 100 levels"),
    ("MOD", ["derived", "--op", "Delta", "--args", "(" * 200 + "x" + ")" * 200], 2,
     "error: line 1:101: expression nested deeper than 100 levels"),
    # repeated entries: exit 2, at the second one
    (HDR + "map phi on C { x -> x; xi -> xi; x -> 2*x; "
     "inverse { x -> 1/2*x; xi -> xi; } }", ["classify", "--op", "D"], 2,
     "error: line 2:34: duplicate rule for 'x'"),
    (HDR + "map phi on C { x -> x; xi -> xi; "
     "inverse { x -> x; xi -> xi; xi -> -xi; } }", ["classify", "--op", "D"], 2,
     "error: line 2:62: duplicate rule for 'xi'"),
    (HDR + "tensor g on C parity odd { [xi] = 0; [xi] = x; }",
     ["classify", "--op", "D"], 2, "error: line 2:38: duplicate entry [xi]"),
    # a long flag value that is no number at all: exit 1, quoting its first
    # 40 characters and its length
    ("MOD", ["apply", "--op", "Delta", "--args", "x", "--weight", "x" * 5000], 1,
     "usage error: --weight: not a rational number: '" + "x" * 40
     + "'... (5000 characters)"),
    # characters outside ASCII: exit 2 in an expression, at the character;
    # exit 1 in a number flag, which int() and Fraction() would read
    ("MOD", ["apply", "--op", "Delta", "--args", "3\u00b2"], 2,
     "error: line 1:2: unexpected character '\u00b2'"),
    ("MOD", ["apply", "--op", "Delta", "--args", "\u0663*x"], 2,
     "error: line 1:1: unexpected character '\u0663'"),
    ("MOD", ["apply", "--op", "Delta", "--args", "x*xi", "--weight", "\u0663"], 1,
     "usage error: --weight: not a rational number: '\u0663'"),
    ("MOD", ["jacobiator", "--op", "Delta", "--n", "\u0662", "--args", "x"], 1,
     "usage error: --n: not an integer: '\u0662'"),
    # an exponent past the digit limit, refused before Fraction() builds
    # 10^99999999
    ("MOD", ["apply", "--op", "Delta", "--args", "x*xi", "--weight", "1e99999999"], 1,
     f"usage error: --weight: number longer than the limit of {LIMIT} digits"),
    ("MOD", ["apply", "--op", "Delta", "--args", "x*xi", "--weight", "1e-99999999"], 1,
     f"usage error: --weight: number longer than the limit of {LIMIT} digits"),
    # names and argument counts the subcommand cannot use: exit 1
    ("MOD", ["master", "--bracket", "gamma", "--sigma0", "s", "--sigma", "s"], 1,
     "usage error: --bracket: no two-index tensor named 'gamma'"),
    ("MOD", ["pencil", "--bracket", "S", "--gamma", "S"], 1,
     "usage error: --gamma: no one-index tensor named 'S'"),
    ("MOD", ["master", "--bracket", "S", "--sigma0", "nope", "--sigma", "nope"], 1,
     "usage error: --sigma0: no log-volume named 'nope'"),
    ("MOD", ["bracket", "--op", "Delta", "--args", "x"], 1,
     "usage error: bracket takes exactly two --args expressions"),
    ("MOD", ["transform", "--map", "nope", "--op", "Delta"], 1,
     "usage error: --map: no map named 'nope'"),
    (IDMAP, ["transform", "--map", "phi"], 1,
     "usage error: transform needs exactly one of --op, --sigma, --bracket"),
    (IDMAP, ["transform", "--map", "phi", "--op", "D", "--sigma", "s"], 1,
     "usage error: transform needs exactly one of --op, --sigma, --bracket"),
    # --args diagnostics: line:col counts in the --args value as given, past
    # the blanks and the other expressions before the one in error
    ("MOD", ["bracket", "--op", "Delta", "--args", "x,  xi $"], 2,
     "error: line 1:8: unexpected character '$'"),
    ("MOD", ["derived", "--op", "Delta", "--args", "x,"], 2,
     "error: line 1:3: unexpected end of input (expected '(', '-', identifier, number)"),
    ("MOD", ["apply", "--op", "Delta", "--args", " x\n* $"], 2,
     "error: line 2:3: unexpected character '$'"),
    # --args is stripped of the lexer's blanks only: a no-break space is
    # refused where it stands, as everywhere else in .sd text
    ("MOD", ["apply", "--op", "Delta", "--args", "\u00a0x*xi"], 2,
     "error: line 1:1: unexpected character '\\xa0'"),
    ("MOD", ["apply", "--op", "Delta", "--args", "x*xi\u00a0"], 2,
     "error: line 1:5: unexpected character '\\xa0'"),
    ("MOD", ["derived", "--op", "Delta", "--args", "\u00a0"], 2,
     "error: line 1:1: unexpected character '\\xa0'"),
    # inhomogeneous generators met after their arguments pass: exit 3
    ("MOD", ["jacobiator", "--op", "Mixed", "--n", "1", "--args", "x"], 3,
     "domain error: bracket generator must be homogeneous"),
    (HDR + "operator P on C = W*d(x) + d(xi);", ["bracket", "--op", "P", "--args", "x, xi"], 3,
     "domain error: pencil must be homogeneous"),
]


@pytest.fixture
def digit_limit():
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(LIMIT)
    yield
    sys.set_int_max_str_digits(old)


@pytest.mark.parametrize("module, argv, code, line", _REFUSALS)
def test_exit_code_table(tmp_path, capsys, digit_limit, module, argv, code, line):
    src = tmp_path / "m.sd"
    src.write_text(MOD if module == "MOD" else module)
    got, out, err = run(capsys, argv[0], "--input", str(src), *argv[1:])
    assert (got, out, err) == (code, "", line + "\n")


def test_unreadable_input_is_a_usage_error(tmp_path, capsys):
    missing = str(tmp_path / "missing.sd")
    assert run(capsys, "classify", "--input", missing, "--op", "D") == (
        1, "", f"usage error: [Errno 2] No such file or directory: {missing!r}\n")


def test_nesting_limit_is_inclusive(capsys):
    for args in ("(" * 100 + "x*xi" + ")" * 100, "-" * 100 + "x*xi"):
        code, out, _ = run(capsys, "apply", "--input", BV, "--op", "Delta",
                           "--args=" + args)
        assert (code, out) == (0, "1\n")


_ARG_TOKENS = ["x", "xi", "f", "g", "y", "0", "1", "2", "3", "+", "-", "*", "^",
               "/", "(", ")", ",", "t", "W", "d", "(-1/2)", " ", "#", "$", "é"]


@given(st.one_of(st.binary(max_size=80),
                 st.binary(max_size=60).map(lambda b: HDR.encode() + b)),
       st.lists(st.sampled_from(_ARG_TOKENS), max_size=12).map("".join))
@settings(derandomize=True, max_examples=250, deadline=None)
def test_fuzz_exit_codes(tmp_path_factory, module, args):
    """Random bytes as the module and random token strings as --args end
    in a documented exit code, never in an exception."""
    src = tmp_path_factory.getbasetemp() / "fuzz.sd"
    src.write_bytes(module)
    requests = [["apply", "--input", str(src), "--op", "D", "--args", "x"],
                ["apply", "--input", BV, "--op", "Delta", "--args=" + args],
                ["derived", "--input", BV, "--op", "Delta", "--args=" + args],
                ["jacobiator", "--input", BV, "--op", "Delta", "--n", "1",
                 "--args=" + args]]
    for argv in requests:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            assert main(argv) in (0, 1, 2, 3)


def test_color_env(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("SUPERDELTA_COLOR", "1")
    code, _, err = run(capsys, "derived", "--input", BV, "--op", "Nope",
                       "--args", "x")
    assert code == 1 and "\x1b[31m" in err


# ---------------------------------------------------------------------------
# demo scripts


@pytest.mark.parametrize("script", ["classify_demo.py", "pencil_demo.py"])
def test_demo_script_runs(script):
    """Each demo script prints its golden text, byte for byte."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / script)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    golden = ROOT / "tests" / "golden" / script.replace(".py", ".txt")
    assert proc.stdout == golden.read_text()
