"""Parser, elaborator, and canonical printer."""

import ast
import pathlib
import random
import re
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superdelta import DensityElement, DiffOp, GradedPoly, diffop, substitute
from superdelta.diffop import compose
from superdelta.dsl import (
    DslError,
    load_module,
    parse_element,
    render,
)

from conftest import CHARTS, R12, R22, poly_strategy, rand_op, rand_poly, rand_smatrix

HDR = "chart C { even x; odd xi1, xi2; }\n"
FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


def _elem(text: str):
    v = load_module(HDR + "element e on C = " + text + ";").elements["e"]
    return v


def _as_de(v):
    return v if isinstance(v, DensityElement) else DensityElement.from_poly(v)


# ---------------------------------------------------------------------------
# parsing


def test_smoke_module():
    m = load_module(
        "chart C { even x; odd xi; } operator D on C = d(x)*d(xi);")
    assert m.operators["D"] == compose(
        DiffOp.deriv(m.chart, "x"), DiffOp.deriv(m.chart, "xi"))


def test_tensor_symmetrization():
    m = load_module(HDR + "tensor S on C parity odd { [x,xi1] = 1; }")
    kind, eps, S = m.tensors["S"]
    assert kind == "matrix" and eps == 1
    assert S[("x", "xi1")] == GradedPoly.one(m.chart)
    assert S[("xi1", "x")] == GradedPoly.one(m.chart)  # (-1)^{0*1} = +1


def test_precedence():
    x = GradedPoly.var(R12, "x")
    assert _elem("1 + 2*x") == GradedPoly.one(R12) + x + x
    assert _elem("-x^2") == -(x * x)
    assert _elem("2^3") == GradedPoly.const(R12, 8)
    assert _elem("1/2*x") == x * Fraction(1, 2)


def test_weight_literals():
    v = _elem("t^(1/2) + 2*t^(-1/3)")
    assert isinstance(v, DensityElement)
    assert v.weights() == [Fraction(-1, 3), Fraction(1, 2)]


def test_density_name_inside_an_expression():
    """A log-volume's name reads as its polynomial, and an element whose
    only t-component has weight 0 is that polynomial."""
    m = load_module("chart C { even x; odd xi; }\n"
                    "density s on C = x^2;\n"
                    "element e on C = s*x + xi*t^0;\n"
                    "operator P on C = W*d(x) + s*d(xi);")
    e = m.elements["e"]
    assert isinstance(e, GradedPoly) and render(e) == "xi + x^3"
    assert render(m.operators["P"]) == "x^2*d(xi) + W*d(x)"


def test_operator_expressions():
    m = load_module(HDR + "operator P on C = (2*W - 1)*d(x);")
    W = DiffOp.weight(m.chart)
    expect = compose(W + W - DiffOp.identity(m.chart),
                     DiffOp.deriv(m.chart, "x"))
    assert m.operators["P"] == expect


def test_map_declaration():
    m = load_module(HDR + """
map phi on C { x -> x + xi1*xi2; xi1 -> xi1; xi2 -> xi2;
  inverse { x -> x - xi1*xi2; xi1 -> xi1; xi2 -> xi2; } }
""")
    cm = m.maps["phi"]
    x = GradedPoly.var(m.chart, "x")
    assert cm.push(substitute(x, dict(cm.fwd))) == x


# ---------------------------------------------------------------------------
# diagnostics


@pytest.mark.parametrize("src,line,col,frag", [
    ("chart C { even x; odd xi; }\noperator D on C = d(y);", 2, 21,
     "undeclared variable"),
    ("chart C { even x; odd xi; }\ndensity s on C = x*xi;", 2, 1,
     "must be even"),
    ("chart C { even x; }\nelement e on C = W;", 2, 18, "weight symbol"),
    ("chart C { even x; }\nelement e on C = 1 +;", 2, 21, "found"),
    ("chart C { even x; }\nelement e on C = y;", 2, 18, "undeclared name"),
    ("chart C { even x; } chart B { even y; }", 1, 21, "one chart"),
])
def test_diagnostic_positions(src, line, col, frag):
    with pytest.raises(DslError) as ei:
        load_module(src)
    assert ei.value.line == line
    assert ei.value.col == col
    assert frag in ei.value.message


# One malformed module for each diagnostic the .sd front end can give,
# with the full text of the error: position, message and expected tokens.
_DIAGNOSTICS = [
    # lexer
    (HDR + "element e on C = x $ 1;", "line 2:20: unexpected character '$'"),
    # tokens are ASCII: any other character outside a comment is unexpected
    (HDR + "element f on C = x^\u00b2;", "line 2:20: unexpected character '\u00b2'"),
    (HDR + "element f on C = 3\u00b2*x;", "line 2:19: unexpected character '\u00b2'"),
    (HDR + "element f on C = \u0663*x;", "line 2:18: unexpected character '\u0663'"),
    ("chart C { even x; odd xi\u00b2; }", "line 1:25: unexpected character '\u00b2'"),
    ("chart C { even \u00e9; }", "line 1:16: unexpected character '\u00e9'"),
    # positions: a comment ends the line's tokens, "\r" and "\t" are one
    # column each, and only "\n" starts a line
    (HDR + "element e on C = x # trailing",
     "line 2:20: unexpected end of input (expected ';')"),
    (HDR.replace("\n", "\r\n") + "element e on C = x;\r\n\telement g on C =\t$;",
     "line 3:19: unexpected character '$'"),
    # the end of input: at the end of the text, or where a comment on the
    # last line starts; a line of only a comment holds no code
    ("# only", "line 1:1: module declares no chart"),
    (HDR.replace("\n", "\r\n") + "element e on C = x\r\n",
     "line 3:1: unexpected end of input (expected ';')"),
    (HDR + "element e on C = x   ", "line 2:22: unexpected end of input (expected ';')"),
    (HDR + "element e on C = x#c", "line 2:19: unexpected end of input (expected ';')"),
    ("chart C { even x; }\nelement e on C = x\t# c\n# d",
     "line 3:1: unexpected end of input (expected ';')"),
    (HDR + "element e on C = x\n#c\n   # d",
     "line 4:4: unexpected end of input (expected ';')"),
    # "->" is one token; a ">" outside it starts none
    ("chart C { even x; }\nelement e on C = x ->", "line 2:20: found '->' (expected ';')"),
    (HDR + "element e on C = x > 1;", "line 2:20: unexpected character '>'"),
    (HDR + "element e on C = x - > 1;", "line 2:22: unexpected character '>'"),
    (HDR + "map phi on C { x -> x; xi1 -> xi1; xi2 ->> xi2; }",
     "line 2:42: unexpected character '>'"),
    # an expression read by parse_element against the module HDR declares
    ((HDR, "x +  # c"),
     "line 1:6: unexpected end of input (expected '(', '-', identifier, number)"),
    ((HDR, "x )  # c"), "line 1:3: trailing input ')'"),
    # syntax, with expected-token sets
    ("chart C { even x }", "line 1:18: found '}' (expected ';')"),
    (HDR + "element e on C = x",
     "line 2:19: unexpected end of input (expected ';')"),
    ("chart 1 { even x; }",
     "line 1:7: found '1' where the chart name was required (expected identifier)"),
    (HDR + "element e on C = x^y;", "line 2:20: found 'y' (expected integer)"),
    (HDR + ";", "line 2:1: found ';' (expected 'chart', 'density', 'element', "
     "'map', 'operator', 'tensor')"),
    (HDR + "function f on C = x;", "line 2:1: unknown declaration 'function' "
     "(expected 'chart', 'density', 'element', 'map', 'operator', 'tensor')"),
    ("chart C { even x; big y; }",
     "line 1:19: found 'big' (expected 'even', 'odd', '}')"),
    (HDR + "tensor T on C parity big { }",
     "line 2:22: found 'big' (expected 'even', 'odd')"),
    (HDR + "element e on C = *x;",
     "line 2:18: found '*' (expected '(', '-', identifier, number)"),
    (HDR + "element e on C = 1 +",
     "line 2:21: unexpected end of input (expected '(', '-', identifier, number)"),
    (HDR + "map phi on C { x -> x; xi1 -> xi1; xi2 -> xi2; }",
     "line 2:48: found '}' (expected 'inverse')"),
    (HDR + "operator D on C = d x;", "line 2:21: found 'x' (expected '(')"),
    (HDR + "element e on C = t^(-x);", "line 2:22: found 'x' (expected integer)"),
    # scope and redeclaration
    ("", "line 1:1: module declares no chart"),
    ("# nothing but a comment\n", "line 2:1: module declares no chart"),
    ("element e on C = 1;", "line 1:1: a chart must be declared first"),
    (HDR + "chart B { even y; }", "line 2:1: only one chart per module"),
    ("chart C { even x, x; }", "line 1:1: chart variable names must be distinct"),
    ("chart C { }", "line 1:1: chart needs at least one variable"),
    (HDR + "element e on B = 1;", "line 2:14: unknown chart 'B'"),
    (HDR + "tensor T on C parity odd { [x,y] = 1; }",
     "line 2:31: undeclared variable 'y'"),
    (HDR + "operator D on C = d(y);", "line 2:21: undeclared variable 'y'"),
    (HDR + "map phi on C { y -> x; inverse { } }",
     "line 2:16: undeclared variable 'y'"),
    (HDR + "element e on C = y;", "line 2:18: undeclared name 'y'"),
    (HDR + "tensor T on C parity odd { [x,xi1] = 1; }\nelement e on C = T;",
     "line 3:18: undeclared name 'T'"),
    (HDR + "element e on C = e;", "line 2:18: undeclared name 'e'"),
    (HDR + "operator D on C = d(x);\nelement e on C = D;",
     "line 3:18: operator 'D' used in an element expression"),
    (HDR + "element e on C = W;", "line 2:18: the weight symbol W is only "
     "allowed in operator expressions"),
    (HDR + "element e on C = d(x);", "line 2:18: derivative tokens are only "
     "allowed in operator expressions"),
    (HDR + "operator D on C = t^1;",
     "line 2:19: t^w factors are only allowed in element expressions"),
    (HDR + "element e on C = 1/0;", "line 2:18: zero denominator"),
    (HDR + "element e on C = t^(1/0);", "line 2:20: zero denominator"),
    (HDR + "element e on C = 1;\nelement e on C = 2;",
     "line 3:9: name 'e' is already declared"),
    (HDR + "element e on C = 1;\noperator e on C = 2;",
     "line 3:10: name 'e' is already declared"),
    (HDR + "density x on C = 0;", "line 2:9: name 'x' is already declared"),
    (HDR + "map C on C { x -> x; xi1 -> xi1; xi2 -> xi2; "
     "inverse { x -> x; xi1 -> xi1; xi2 -> xi2; } }",
     "line 2:5: name 'C' is already declared"),
    # values that must be t-free: the position is the root of the expression
    (HDR + "density s on C = x + t^1;", "line 2:20: a log-volume must be t-free"),
    (HDR + "density s on C = (x*t^1);", "line 2:20: a log-volume must be t-free"),
    (HDR + "density s on C = -t^1;", "line 2:18: a log-volume must be t-free"),
    (HDR + "density s on C = t^1^2;", "line 2:21: a log-volume must be t-free"),
    (HDR + "density s on C = t^(1/2);", "line 2:18: a log-volume must be t-free"),
    (HDR + "tensor T on C parity odd { [x,xi1] = t^1*xi2; }",
     "line 2:41: a tensor entry must be t-free"),
    (HDR + "map phi on C { x -> -x*t^2; xi1 -> xi1; xi2 -> xi2; "
     "inverse { x -> x; xi1 -> xi1; xi2 -> xi2; } }",
     "line 2:23: a map image must be t-free"),
    # tensor entries
    (HDR + "tensor g on C parity odd { [x] = x; }",
     "line 2:28: entry [x] must have parity 1"),
    (HDR + "tensor T on C parity odd { [x,xi1] = xi2; }",
     "line 2:1: S[x,xi1] has wrong parity"),
    (HDR + "tensor T on C parity odd { [xi1,xi1] = xi2; }",
     "line 2:1: S[xi1,xi1] must vanish"),
    (HDR + "tensor g on C parity odd { [x] = xi1; [x] = xi2; }",
     "line 2:39: duplicate entry [x]"),
    (HDR + "tensor T on C parity odd { [x,xi1] = 1; [x,xi1] = 2; }",
     "line 2:41: duplicate entry [x,xi1]"),
    (HDR + "tensor g on C parity odd { [x] = 0; [x] = xi1; }",
     "line 2:37: duplicate entry [x]"),
    (HDR + "tensor T on C parity odd { [x,xi1] = 1; [xi2] = x; }",
     "line 2:28: tensor mixes one- and two-index entries"),
    (HDR + "tensor T on C parity odd { [x,xi1] = 1; [xi1,x] = 2; }",
     "line 2:1: S[x,xi1] breaks graded symmetry"),
    # an element with t-components as an operator coefficient
    (HDR + "element e on C = x*t^(1/2);\noperator D on C = (e + 1)*d(x);",
     "line 3:20: element 'e' has t-components and cannot be an operator "
     "coefficient"),
    # maps
    (HDR + "map phi on C { x -> x + xi1*xi2; xi1 -> xi1; xi2 -> xi2; "
     "inverse { x -> x; xi1 -> xi1; xi2 -> xi2; } }",
     "line 2:1: supplied inverse fails the round trip"),
    (HDR + "map phi on C { x -> x; xi1 -> xi1; "
     "inverse { x -> x; xi1 -> xi1; xi2 -> xi2; } }",
     "line 2:1: map must list every variable (xi2)"),
    (HDR + "map phi on C { x -> xi1; xi1 -> xi1; xi2 -> xi2; "
     "inverse { x -> x; xi1 -> xi1; xi2 -> xi2; } }",
     "line 2:1: image of x has wrong parity"),
    (HDR + "map phi on C { x -> x; xi1 -> xi1; x -> 2*x; xi2 -> xi2; "
     "inverse { x -> x; xi1 -> xi1; xi2 -> xi2; } }",
     "line 2:36: duplicate rule for 'x'"),
    (HDR + "map phi on C { x -> x; xi1 -> xi1; xi2 -> xi2; "
     "inverse { x -> x; xi1 -> xi1; xi2 -> xi2; xi1 -> -xi1; } }",
     "line 2:90: duplicate rule for 'xi1'"),
    # nesting: the 101st open parenthesis or unary minus
    (HDR + "element e on C = " + "(" * 101 + "x" + ")" * 101 + ";",
     "line 2:118: expression nested deeper than 100 levels"),
    (HDR + "element e on C = " + "-(" * 50 + "-x" + ")" * 50 + ";",
     "line 2:118: expression nested deeper than 100 levels"),
    # an odd log-volume
    (HDR + "density s on C = xi1;", "line 2:1: log-volume must be even"),
]


@pytest.mark.parametrize("src,message", _DIAGNOSTICS)
def test_diagnostic_table(src, message):
    with pytest.raises(DslError) as ei:
        if isinstance(src, tuple):  # (module, expression)
            parse_element(src[1], load_module(src[0]))
        else:
            load_module(src)
    assert str(ei.value) == message


def test_comment_may_hold_any_character():
    m = load_module(HDR + "# caf\u00e9, \u0663, x^\u00b2\nelement e on C = x; # na\u00efve\n")
    assert render(m.elements["e"]) == "x"


def test_expected_token_sets():
    with pytest.raises(DslError) as ei:
        load_module("chart C { even x; }\nelement e on C = (1;")
    assert "')'" in ei.value.expected


def test_mixed_tensor_ranks_rejected():
    with pytest.raises(DslError):
        load_module(HDR + "tensor T on C parity odd { [x,xi1] = 1; [x] = xi1; }")


def test_tensor_parity_rejected():
    with pytest.raises(DslError):
        load_module(HDR + "tensor T on C parity odd { [x,xi1] = xi2; }")


# ---------------------------------------------------------------------------
# rendering


def test_render_examples():
    x = GradedPoly.var(R12, "x")
    xi1 = GradedPoly.var(R12, "xi1")
    xi2 = GradedPoly.var(R12, "xi2")
    assert render(x * x + x * xi1 * xi2 * 2) == "x^2 + 2*x*xi1*xi2"
    assert render(x * Fraction(1, 2)) == "(1/2)*x"
    assert render(DiffOp.deriv(R12, "x") + DiffOp.identity(R12)) == "1 + d(x)"
    psi = DensityElement(R12, {Fraction(1, 2): x * Fraction(1, 2)})
    assert render(psi) == "(1/2)*x*t^(1/2)"
    W = DiffOp.weight(R12)
    P = compose(W + W - DiffOp.identity(R12), DiffOp.deriv(R12, "x"))
    assert render(P) == "(2*W - 1)*d(x)"
    assert render(GradedPoly.zero(R12)) == "0"


@given(poly_strategy(R12, 3))
@settings(max_examples=80, deadline=None)
def test_poly_round_trip(p):
    assert _elem(render(p)) == p


def test_render_canonical_distinct(rng):
    seen = {}
    for _ in range(60):
        p = rand_poly(rng, R12, 3)
        s = render(p)
        if s in seen:
            assert seen[s] == p
        seen[s] = p


def test_operator_round_trip(rng):
    for _ in range(40):
        D = rand_op(rng, R12, 3)
        if rng.random() < 0.5:
            D = D * DiffOp.weight(R12) + D
        src = HDR + "operator e on C = " + render(D) + ";"
        assert load_module(src).operators["e"] == D


def test_density_round_trip(rng):
    for _ in range(40):
        d = DensityElement(R12, {
            Fraction(1, 2): rand_poly(rng, R12, 2),
            Fraction(0): rand_poly(rng, R12, 2),
            Fraction(-2, 3): rand_poly(rng, R12, 2),
        })
        got = _as_de(_elem(render(d)))
        assert got == d


def test_parse_element_helper():
    m = load_module(HDR + "element f on C = x^2;")
    assert parse_element("f + 1", m) == \
        GradedPoly.var(m.chart, "x") ** 2 + GradedPoly.one(m.chart)
    with pytest.raises(DslError):
        parse_element("zz", m)


# ---------------------------------------------------------------------------
# elaboration against the operator algebra


def _chart_text(chart) -> str:
    kinds = (("even", chart.even), ("odd", chart.odd))
    return "chart C { " + " ".join(f"{k} {', '.join(names)};" for k, names in kinds
                                   if names) + " }\n"


def _rand_factor(rng, chart, operator, named, depth):
    """(text, value) of a random factor; the value is folded from
    GradedPoly.const/var and DiffOp.weight/deriv by *, +, - and **."""
    r, a = rng.random(), rng.choice(chart.names)
    if r < 0.15:
        n = rng.randint(0, 4)
        text, v = str(n), GradedPoly.const(chart, n)
    elif r < 0.25:
        p, q = rng.randint(-3, 3), rng.randint(1, 4)
        text, v = f"({p}/{q})", GradedPoly.const(chart, Fraction(p, q))
    elif r < 0.6 or (r < 0.85 and not operator):
        text, v = a, GradedPoly.var(chart, a)
    elif r < 0.7:
        text, v = "W", DiffOp.weight(chart)
    elif r < 0.85:
        text, v = f"d({a})", DiffOp.deriv(chart, a)
    elif r < 0.93 and depth < 2:
        text, v = _rand_sum(rng, chart, operator, named, depth + 1)
        text = f"({text})"
    elif named:
        text, v = rng.choice(named)
    else:
        text, v = a, GradedPoly.var(chart, a)
    if rng.random() < 0.3:
        k = rng.randint(0, 3)
        text, v = f"{text}^{k}", v ** k
    if rng.random() < 0.15:
        text, v = "-" + text, -v
    return text, v


def _rand_sum(rng, chart, operator, named, depth=0):
    text, v = None, None
    for _ in range(rng.randint(1, 3)):
        ptext, pv = _rand_factor(rng, chart, operator, named, depth)
        for _ in range(rng.randint(0, 3)):
            ftext, fv = _rand_factor(rng, chart, operator, named, depth)
            ptext, pv = f"{ptext}*{ftext}", pv * fv
        if text is None:
            text, v = ptext, pv
        elif rng.random() < 0.5:
            text, v = f"{text} + {ptext}", v + pv
        else:
            text, v = f"{text} - {ptext}", v - pv
    return text, v


def _as_op(v):
    return DiffOp.mult(v) if isinstance(v, GradedPoly) else v


def test_elaboration_matches_operator_algebra():
    """Seeded random sums of products of numbers, (p/q), variables, W, d(x),
    powers (^0 and squares of odd factors among them), unary minus,
    parentheses and named elements and operators elaborate to the value the
    operator algebra folds from the same factors."""
    rng = random.Random(412)
    for chart in CHARTS:
        a = chart.names[-1]
        for _ in range(25):
            ftext, f = _rand_sum(rng, chart, False, [])
            etext, E = _rand_sum(rng, chart, True, [("f", f)])
            named = [("f", f), ("E", _as_op(E))]
            decls = [f"element f on C = {ftext};", f"operator E on C = {etext};",
                     f"operator L on C = {a}*d({a});", f"operator R on C = d({a})*{a};"]
            want = {"f": f, "E": _as_op(E),
                    "L": GradedPoly.var(chart, a) * DiffOp.deriv(chart, a),
                    "R": DiffOp.deriv(chart, a) * GradedPoly.var(chart, a)}
            for k in range(4):
                operator = k % 2 == 1
                text, v = _rand_sum(rng, chart, operator, named if operator else named[:1])
                kind = "operator" if operator else "element"
                decls.append(f"{kind} v{k} on C = {text};")
                want[f"v{k}"] = _as_op(v) if operator else v
            m = load_module(_chart_text(chart) + "\n".join(decls))
            for name, v in want.items():
                got = m.operators.get(name, m.elements.get(name))
                assert got == v, (name, decls)


def _normal_ordered_module(rng) -> str:
    """A module in the printer's normal-ordered text, on (2|2)."""
    chart = R22
    ops = [rand_op(rng, chart, 3) for _ in range(4)]
    ops += [D * DiffOp.weight(chart) + D for D in ops[:2]]
    S = rand_smatrix(rng, chart, 1)
    names = chart.names
    return "\n".join([
        _chart_text(chart),
        "tensor S on C parity odd {" + "".join(
            f" [{a},{b}] = {render(p)};" for (a, b), p in sorted(S.items())
            if names.index(a) <= names.index(b)) + " }",
        *(f"element e{i} on C = {render(rand_poly(rng, chart, 3))};" for i in range(4)),
        "element psi on C = "
        + render(DensityElement(chart, {Fraction(1, 2): rand_poly(rng, chart, 2)})) + ";",
        f"density s on C = {render(rand_poly(rng, chart, 2, parity=0))};",
        *(f"operator D{i} on C = {render(D)};" for i, D in enumerate(ops)),
    ])


def test_normal_ordered_text_makes_no_composition(monkeypatch, rng):
    """Every product in printed text is normal-ordered, so reading it
    composes no operators; a variable after a derivative still does."""
    texts = [p.read_text() for p in sorted(FIXTURES.glob("*.sd"))]
    texts.append(_normal_ordered_module(rng))
    calls = []
    real = diffop.compose
    monkeypatch.setattr(diffop, "compose", lambda D, E: calls.append(1) or real(D, E))
    for text in texts:
        load_module(text)
    assert calls == []
    m = load_module("chart C { even x; }\noperator D on C = d(x)*x;")
    assert len(calls) == 1
    x = GradedPoly.var(m.chart, "x")
    assert m.operators["D"] == \
        DiffOp.mult(x) * DiffOp.deriv(m.chart, "x") + DiffOp.identity(m.chart)


def test_sums_are_added_in_one_term_map(monkeypatch, rng):
    """Reading a sum adds its summands into one term map: it adds no two
    operators and no two polynomials.  The t^w density arithmetic adds the
    components of one weight, and only where the weight holds two: the
    control sum of two t^(1/2) summands makes exactly one addition."""
    texts = [p.read_text() for p in sorted(FIXTURES.glob("*.sd"))]
    texts.append(_normal_ordered_module(rng))
    callers = {DiffOp: [], GradedPoly: []}
    for cls, log in callers.items():
        def counted(a, b, real=cls.__add__, log=log):
            log.append(sys._getframe(1).f_code)
            return real(a, b)
        monkeypatch.setattr(cls, "__add__", counted)
    for text in texts:
        load_module(text)
    assert callers == {DiffOp: [], GradedPoly: []}
    load_module("chart C { even x; odd xi; }\n"
                "element psi on C = x*t^(1/2) + xi*t^(1/2);")
    assert callers == {DiffOp: [], GradedPoly: [DensityElement.__add__.__code__]}


def test_load_product_count_is_pinned(count_calls):
    """The polynomial products of reading the four fixtures and one seeded
    module of the cli-session benchmark (on (2|2), with a map), pinned: a
    sum times a term without variables stays a sum, and the round trip of a
    map multiplies by no unit and scales no image by 1, so what is left is
    the graded symmetrization of S and the t^w products."""
    sys.path.insert(0, str(FIXTURES.parent / "bench"))
    import gen
    import workloads
    texts = [p.read_text() for p in sorted(FIXTURES.glob("*.sd"))]
    texts.append(workloads._module_text(gen.R22, workloads._module_values(
        random.Random("load products"), gen.R22)))
    products, counts = count_calls(GradedPoly, "__mul__"), []
    for text in texts:  # bv, lb, master, pencil, the generated module
        load_module(text)
        counts.append(len(products))
        products.clear()
    assert counts == [1, 1, 1, 3, 4]


# a diagnostic that quotes the token it is reported at
_QUOTED = re.compile(r"(?:found|unexpected character|undeclared name|undeclared "
                     r"variable|unknown chart|unknown declaration|name|duplicate "
                     r"rule for|operator|element|trailing input) ('[^']*'|\"[^\"]*\")")
_PIECES = ["x", "xi1", "y", "7", "(", ")", "*", "+", "-", ";", "=", "^", "/", "d(",
           "W", "t^", "{", "}", "[", "]", ",", "->", "$", "\u00e9", "\n", "\r\n",
           "\t", " # note\n", " # note", "chart", "element e on C = ", "on", "inverse"]


def test_error_positions_point_at_the_quoted_token(rng):
    """For seeded malformed inputs the line:col of each DslError, read off
    the text itself, is where the token its message quotes starts, and an
    error at the end of input points past the last line's code."""
    bases = [p.read_text() for p in sorted(FIXTURES.glob("*.sd"))]
    m = load_module(bases[0])
    checked = 0
    for n in range(1500):
        text = rng.choice(bases) if n % 3 else rng.choice(["x*xi + 1", "f - (x^2*xi)"])
        for _ in range(rng.randint(1, 3)):
            i = rng.randint(0, len(text))
            if rng.random() < 0.3:
                text = text[:i] + text[i + rng.randint(1, 4):]
            else:
                text = text[:i] + rng.choice(_PIECES) + text[i:]
        try:
            load_module(text) if n % 3 else parse_element(text, m)
            continue
        except DslError as ex:
            err = ex
        lines = text.split("\n")
        off = sum(len(line) + 1 for line in lines[:err.line - 1]) + err.col - 1
        quoted = _QUOTED.match(err.message)
        if quoted and ast.literal_eval(quoted[1]):
            assert text[off:].startswith(ast.literal_eval(quoted[1])), (text, str(err))
            checked += 1
        elif quoted or err.message == "unexpected end of input":
            # the end of the last line's code, where its comment starts
            code = lines[-1].partition("#")[0]
            assert (err.line, err.col) == (len(lines), len(code) + 1), (text, str(err))
            checked += 1
    assert checked > 700
