"""A small text language (".sd" files) for charts, tensors, log-volumes,
density elements, operators, and coordinate maps, plus the canonical
printer used everywhere in the package.

Grammar (EBNF):

    module      = { declaration } ;
    declaration = chart | tensor | density | element | operator | map ;
    chart       = "chart" NAME "{" { ("even"|"odd") namelist ";" } "}" ;
    namelist    = NAME { "," NAME } ;
    tensor      = "tensor" NAME "on" NAME "parity" ("even"|"odd")
                  "{" { "[" NAME [ "," NAME ] "]" "=" expr ";" } "}" ;
    density     = "density" NAME "on" NAME "=" expr ";" ;
    element     = "element" NAME "on" NAME "=" expr ";" ;
    operator    = "operator" NAME "on" NAME "=" expr ";" ;
    map         = "map" NAME "on" NAME "{" { NAME "->" expr ";" }
                  "inverse" "{" { NAME "->" expr ";" } "}" "}" ;
    expr        = term { ("+"|"-") term } ;
    term        = unary { "*" unary } ;
    unary       = "-" unary | power ;
    power       = atom { "^" INT } ;
    atom        = INT [ "/" INT ] | "t" "^" wexp | "W"
                | "d" "(" NAME ")" | NAME | "(" expr ")" ;
    wexp        = INT | "(" [ "-" ] INT [ "/" INT ] ")" ;

"#" starts a comment running to the end of the line.  "t", "W" and "d" are
reserved.  Derivative tokens d(x) and the weight symbol W are allowed only
in operator expressions; t^w only in element expressions.  Two-index
tensor entries are completed by the forced graded symmetry
S^{ba} = (-1)^{p(a)p(b)} S^{ab}; contradictory entries are rejected.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Optional

from .gralg import (
    Chart,
    DensityElement,
    GradedPoly,
    ParityError,
    _power,
)
from .diffop import DiffOp
from .geom import CoordMap, CoordMapError, LogVolume, VBracketData, BracketDataError

__all__ = [
    "DslError",
    "Declaration",
    "SourceModule",
    "Module",
    "parse_module",
    "elaborate",
    "load_module",
    "parse_element",
    "render",
]

_RESERVED = {
    "chart", "even", "odd", "tensor", "on", "parity", "density", "element",
    "operator", "map", "inverse", "t", "W", "d",
}


class DslError(ValueError):
    """A diagnostic with a 1-based source position and, for syntax errors,
    the set of expected tokens."""

    def __init__(self, message: str, line: int, col: int, expected=()):
        self.message = message
        self.line = line
        self.col = col
        self.expected = tuple(sorted(expected))
        loc = f"line {line}:{col}: {message}"
        if self.expected:
            loc += " (expected " + ", ".join(self.expected) + ")"
        super().__init__(loc)


# ---------------------------------------------------------------------------
# lexer


@dataclass(frozen=True)
class _Tok:
    kind: str  # "name", "int", "punct", "eof"
    text: str
    line: int
    col: int


_PUNCT2 = ("->",)
_PUNCT1 = "{}[]();,=+-*^/"


def _lex(text: str) -> list[_Tok]:
    toks = []
    line, col, i = 1, 1, 0
    n = len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        if c == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if text.startswith("->", i):
            toks.append(_Tok("punct", "->", line, col))
            i += 2
            col += 2
            continue
        if c.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            toks.append(_Tok("int", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(_Tok("name", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if c in _PUNCT1:
            toks.append(_Tok("punct", c, line, col))
            i += 1
            col += 1
            continue
        raise DslError(f"unexpected character {c!r}", line, col)
    toks.append(_Tok("eof", "", line, col))
    return toks


# ---------------------------------------------------------------------------
# AST


@dataclass(frozen=True)
class Expr:
    kind: str  # "rat","var","ref","t","W","d","add","sub","neg","mul","pow"
    line: int
    col: int
    value: Any = None
    args: tuple = ()


@dataclass(frozen=True)
class Declaration:
    kind: str  # "chart","tensor","density","element","operator","map"
    name: str
    line: int
    col: int
    payload: Any = None


@dataclass(frozen=True)
class SourceModule:
    """The parsed (syntactic) form of an .sd module: an ordered list of
    declarations over a single chart."""

    decls: tuple[Declaration, ...]
    chart: Chart
    chart_name: str


# ---------------------------------------------------------------------------
# parser


class _Parser:
    def __init__(self, text: str):
        self.toks = _lex(text)
        self.i = 0
        self.chart: Optional[Chart] = None
        self.chart_name: Optional[str] = None
        self.known: dict[str, str] = {}  # declared name -> kind

    def peek(self) -> _Tok:
        return self.toks[self.i]

    def next(self) -> _Tok:
        t = self.toks[self.i]
        self.i += 1
        return t

    def fail(self, message: str, tok: _Tok, expected=()):
        raise DslError(message, tok.line, tok.col, expected)

    def expect(self, text: str) -> _Tok:
        t = self.peek()
        if (t.kind in ("punct", "name") and t.text == text):
            return self.next()
        self.fail(f"found {t.text!r}" if t.kind != "eof" else "unexpected end of input",
                  t, expected=(f"'{text}'",))

    def expect_name(self, what="a name") -> _Tok:
        t = self.peek()
        if t.kind == "name" and t.text not in _RESERVED:
            return self.next()
        self.fail(f"found {t.text!r} where {what} was required", t,
                  expected=("identifier",))

    def expect_int(self) -> int:
        t = self.peek()
        if t.kind == "int":
            return int(self.next().text)
        self.fail(f"found {t.text!r}", t, expected=("integer",))

    # -- declarations

    def module(self) -> SourceModule:
        decls = []
        while self.peek().kind != "eof":
            decls.append(self.declaration())
        if self.chart is None:
            t = self.peek()
            raise DslError("module declares no chart", t.line, t.col)
        return SourceModule(tuple(decls), self.chart, self.chart_name)

    def declaration(self) -> Declaration:
        t = self.peek()
        if t.kind != "name":
            self.fail(f"found {t.text!r}", t, expected=(
                "'chart'", "'tensor'", "'density'", "'element'", "'operator'", "'map'"))
        if t.text == "chart":
            return self.chart_decl()
        if t.text in ("tensor", "density", "element", "operator", "map"):
            if self.chart is None:
                self.fail("a chart must be declared first", t)
            if t.text == "tensor":
                return self.tensor_decl()
            if t.text == "map":
                return self.map_decl()
            return self._value_decl(t.text)
        self.fail(f"unknown declaration {t.text!r}", t, expected=(
            "'chart'", "'tensor'", "'density'", "'element'", "'operator'", "'map'"))

    def chart_decl(self) -> Declaration:
        kw = self.expect("chart")
        if self.chart is not None:
            self.fail("only one chart per module", kw)
        name = self.expect_name("the chart name")
        self.expect("{")
        even, odd = [], []
        while self.peek().text != "}":
            t = self.peek()
            if t.text == "even":
                self.next()
                even.extend(self.namelist())
            elif t.text == "odd":
                self.next()
                odd.extend(self.namelist())
            else:
                self.fail(f"found {t.text!r}", t, expected=("'even'", "'odd'", "'}'"))
            self.expect(";")
        self.expect("}")
        try:
            self.chart = Chart(tuple(even), tuple(odd))
        except ValueError as ex:
            raise DslError(str(ex), kw.line, kw.col) from None
        self.chart_name = name.text
        self.known[name.text] = "chart"
        for v in even + odd:
            self.known[v] = "variable"
        return Declaration("chart", name.text, kw.line, kw.col, (tuple(even), tuple(odd)))

    def namelist(self) -> list[str]:
        names = [self._fresh_name()]
        while self.peek().text == ",":
            self.next()
            names.append(self._fresh_name())
        return names

    def _fresh_name(self) -> str:
        t = self.expect_name("a variable name")
        if t.text in self.known:
            self.fail(f"name {t.text!r} is already declared", t)
        return t.text

    def _on_chart(self):
        self.expect("on")
        t = self.expect_name("the chart name")
        if t.text != self.chart_name:
            self.fail(f"unknown chart {t.text!r}", t)

    def tensor_decl(self) -> Declaration:
        kw = self.expect("tensor")
        name = self.expect_name("the tensor name")
        if name.text in self.known:
            self.fail(f"name {name.text!r} is already declared", name)
        self._on_chart()
        self.expect("parity")
        t = self.peek()
        if t.text not in ("even", "odd"):
            self.fail(f"found {t.text!r}", t, expected=("'even'", "'odd'"))
        eps = 0 if self.next().text == "even" else 1
        self.expect("{")
        entries = []
        while self.peek().text != "}":
            lb = self.expect("[")
            a = self._chart_var()
            b = None
            if self.peek().text == ",":
                self.next()
                b = self._chart_var()
            self.expect("]")
            self.expect("=")
            e = self.expr()
            self.expect(";")
            entries.append(((a, b), e, (lb.line, lb.col)))
        self.expect("}")
        self.known[name.text] = "tensor"
        return Declaration("tensor", name.text, kw.line, kw.col, (eps, tuple(entries)))

    def _chart_var(self) -> str:
        t = self.expect_name("a chart variable")
        if self.chart is None or t.text not in self.chart.names:
            self.fail(f"undeclared variable {t.text!r}", t)
        return t.text

    def _value_decl(self, kind: str) -> Declaration:
        kw = self.expect(kind)
        name = self.expect_name(f"the {kind} name")
        if name.text in self.known:
            self.fail(f"name {name.text!r} is already declared", name)
        self._on_chart()
        self.expect("=")
        e = self.expr(operator=(kind == "operator"))
        self.expect(";")
        self.known[name.text] = kind
        return Declaration(kind, name.text, kw.line, kw.col, e)

    def map_decl(self) -> Declaration:
        kw = self.expect("map")
        name = self.expect_name("the map name")
        if name.text in self.known:
            self.fail(f"name {name.text!r} is already declared", name)
        self._on_chart()
        self.expect("{")
        fwd = self._map_rules(stop=("inverse",))
        self.expect("inverse")
        self.expect("{")
        inv = self._map_rules(stop=())
        self.expect("}")
        self.expect("}")
        self.known[name.text] = "map"
        return Declaration("map", name.text, kw.line, kw.col, (tuple(fwd), tuple(inv)))

    def _map_rules(self, stop):
        rules = []
        while self.peek().text not in ("}",) + tuple(stop):
            v = self._chart_var()
            self.expect("->")
            e = self.expr()
            self.expect(";")
            rules.append((v, e))
        return rules

    # -- expressions

    def expr(self, operator: bool = False) -> Expr:
        e = self.term(operator)
        while self.peek().text in ("+", "-"):
            op = self.next()
            r = self.term(operator)
            e = Expr("add" if op.text == "+" else "sub", op.line, op.col, args=(e, r))
        return e

    def term(self, operator: bool) -> Expr:
        e = self.unary(operator)
        while self.peek().text == "*":
            op = self.next()
            r = self.unary(operator)
            e = Expr("mul", op.line, op.col, args=(e, r))
        return e

    def unary(self, operator: bool) -> Expr:
        t = self.peek()
        if t.text == "-":
            self.next()
            return Expr("neg", t.line, t.col, args=(self.unary(operator),))
        return self.power(operator)

    def power(self, operator: bool) -> Expr:
        e = self.atom(operator)
        while self.peek().text == "^":
            op = self.next()
            n = self.expect_int()
            e = Expr("pow", op.line, op.col, value=n, args=(e,))
        return e

    def atom(self, operator: bool) -> Expr:
        t = self.peek()
        if t.kind == "int":
            self.next()
            num = int(t.text)
            if self.peek().text == "/":
                self.next()
                den = self.expect_int()
                if den == 0:
                    self.fail("zero denominator", t)
                return Expr("rat", t.line, t.col, value=Fraction(num, den))
            return Expr("rat", t.line, t.col, value=Fraction(num))
        if t.text == "(":
            self.next()
            e = self.expr(operator)
            self.expect(")")
            return e
        if t.text == "W":
            self.next()
            if not operator:
                self.fail("the weight symbol W is only allowed in operator expressions", t)
            return Expr("W", t.line, t.col)
        if t.text == "d":
            self.next()
            if not operator:
                self.fail("derivative tokens are only allowed in operator expressions", t)
            self.expect("(")
            v = self._chart_var()
            self.expect(")")
            return Expr("d", t.line, t.col, value=v)
        if t.text == "t":
            self.next()
            if operator:
                self.fail("t^w factors are only allowed in element expressions", t)
            self.expect("^")
            w = self._weight_exponent()
            return Expr("t", t.line, t.col, value=w)
        if t.kind == "name" and t.text not in _RESERVED:
            self.next()
            if self.chart is not None and t.text in self.chart.names:
                return Expr("var", t.line, t.col, value=t.text)
            kind = self.known.get(t.text)
            if kind in ("density", "element", "operator"):
                if kind == "operator" and not operator:
                    self.fail(f"operator {t.text!r} used in an element expression", t)
                return Expr("ref", t.line, t.col, value=t.text)
            self.fail(f"undeclared name {t.text!r}", t)
        self.fail(f"found {t.text!r}" if t.kind != "eof" else "unexpected end of input",
                  t, expected=("number", "identifier", "'('", "'-'"))

    def _weight_exponent(self) -> Fraction:
        t = self.peek()
        if t.kind == "int":
            return Fraction(self.expect_int())
        self.expect("(")
        sign = 1
        if self.peek().text == "-":
            self.next()
            sign = -1
        num = self.expect_int()
        den = 1
        if self.peek().text == "/":
            self.next()
            den = self.expect_int()
            if den == 0:
                self.fail("zero denominator", t)
        self.expect(")")
        return Fraction(sign * num, den)


def parse_module(text: str) -> SourceModule:
    """Parse an .sd module, performing scope checks; raises DslError with a
    1-based line:column position on any lexical, syntactic, or scope
    error."""
    return _Parser(text).module()


# ---------------------------------------------------------------------------
# elaboration


@dataclass
class Module:
    """The elaborated contents of an .sd module."""

    chart: Chart
    chart_name: str
    tensors: dict = field(default_factory=dict)   # name -> ("matrix"|"vector", eps, dict)
    densities: dict = field(default_factory=dict)  # name -> LogVolume
    elements: dict = field(default_factory=dict)   # name -> GradedPoly | DensityElement
    operators: dict = field(default_factory=dict)  # name -> DiffOp
    maps: dict = field(default_factory=dict)       # name -> CoordMap


def _eval(e: Expr, m: Module, operator: bool):
    """Evaluate an element expression to a DensityElement, or an operator
    expression to a DiffOp; a polynomial is lifted to the matching kind."""
    chart = m.chart
    lift = DiffOp.mult if operator else DensityElement.from_poly
    if e.kind == "rat":
        return lift(GradedPoly.const(chart, e.value))
    if e.kind == "var":
        return lift(GradedPoly.var(chart, e.value))
    if e.kind == "ref":
        if operator and e.value in m.operators:
            return m.operators[e.value]
        v = m.densities.get(e.value)
        v = m.elements[e.value] if v is None else v.sigma
        if isinstance(v, GradedPoly):
            return lift(v)
        if operator:
            raise DslError(
                f"element {e.value!r} has t-components and cannot be an "
                "operator coefficient", e.line, e.col)
        return v
    if e.kind == "t" and not operator:
        return DensityElement(chart, {e.value: GradedPoly.one(chart)})
    if e.kind == "W" and operator:
        return DiffOp.weight(chart)
    if e.kind == "d" and operator:
        return DiffOp.deriv(chart, e.value)
    args = [_eval(a, m, operator) for a in e.args]
    if e.kind == "add":
        return args[0] + args[1]
    if e.kind == "sub":
        return args[0] - args[1]
    if e.kind == "neg":
        return -args[0]
    if e.kind == "mul":
        return args[0] * args[1]
    if e.kind == "pow":
        return _power(args[0], e.value, lift(GradedPoly.one(chart)))
    what = "an operator" if operator else "an element"
    raise DslError(f"unexpected {e.kind} in {what} expression", e.line, e.col)


def _as_poly(e: Expr, m: Module, what: str) -> GradedPoly:
    v = _eval(e, m, operator=False)
    ws = v.weights()
    if ws and ws != [0]:
        raise DslError(f"{what} must be t-free", e.line, e.col)
    return v.component(0)


def _simplify_element(v: DensityElement):
    ws = v.weights()
    if not ws:
        return GradedPoly.zero(v.chart)
    if ws == [0]:
        return v.component(0)
    return v


def elaborate(src: SourceModule) -> Module:
    """Turn a parsed module into core values, in declaration order."""
    m = Module(chart=src.chart, chart_name=src.chart_name)
    for d in src.decls:
        try:
            _elaborate_decl(d, m)
        except (ParityError, BracketDataError, CoordMapError, ValueError) as ex:
            if isinstance(ex, DslError):
                raise
            raise DslError(str(ex), d.line, d.col) from None
    return m


def _elaborate_decl(d: Declaration, m: Module):
    if d.kind == "chart":
        return
    if d.kind == "density":
        p = _as_poly(d.payload, m, "a log-volume")
        m.densities[d.name] = LogVolume(p)
        return
    if d.kind == "element":
        m.elements[d.name] = _simplify_element(_eval(d.payload, m, operator=False))
        return
    if d.kind == "operator":
        m.operators[d.name] = _eval(d.payload, m, operator=True)
        return
    if d.kind == "tensor":
        eps, entries = d.payload
        ranks = {2 if b is not None else 1 for (a, b), _, _ in entries}
        if len(ranks) > 1:
            (_, _), _, (ln, col) = entries[0]
            raise DslError("tensor mixes one- and two-index entries", ln, col)
        if ranks == {1}:
            vec = {}
            for (a, _), e, (ln, col) in entries:
                p = _as_poly(e, m, "a tensor entry")
                want = (eps + m.chart.parity(a)) % 2
                if not p.is_zero() and p.parity() != want:
                    raise DslError(
                        f"entry [{a}] must have parity {want}", ln, col)
                if a in vec:
                    raise DslError(f"duplicate entry [{a}]", ln, col)
                if not p.is_zero():
                    vec[a] = p
            m.tensors[d.name] = ("vector", eps, vec)
        else:
            S = {}
            for (a, b), e, (ln, col) in entries:
                p = _as_poly(e, m, "a tensor entry")
                if (a, b) in S:
                    raise DslError(f"duplicate entry [{a},{b}]", ln, col)
                S[(a, b)] = p
            # validation + graded symmetrization via the bracket-data rules
            data = VBracketData(m.chart, eps, S, {}, GradedPoly.zero(m.chart))
            m.tensors[d.name] = ("matrix", eps, dict(data.S))
        return
    if d.kind == "map":
        fwd_rules, inv_rules = d.payload
        fwd = {v: _as_poly(e, m, "a map image") for v, e in fwd_rules}
        inv = {v: _as_poly(e, m, "a map image") for v, e in inv_rules}
        m.maps[d.name] = CoordMap(m.chart, fwd, inv)
        return
    raise AssertionError(d.kind)


def load_module(text: str) -> Module:
    """parse + elaborate."""
    return elaborate(parse_module(text))


def parse_element(text: str, m: Module):
    """Parse a single element expression (the CLI's --args grammar) against
    an elaborated module."""
    p = _Parser("element __arg on " + m.chart_name + " = " + text + ";")
    p.chart = m.chart
    p.chart_name = m.chart_name
    for v in m.chart.names:
        p.known[v] = "variable"
    for name in m.densities:
        p.known[name] = "density"
    for name in m.elements:
        p.known[name] = "element"
    for name in m.operators:
        p.known[name] = "operator"
    d = p._value_decl("element")
    if p.peek().kind != "eof":
        t = p.peek()
        raise DslError(f"trailing input {t.text!r}", t.line, t.col)
    return _simplify_element(_eval(d.payload, m, operator=False))


# ---------------------------------------------------------------------------
# canonical printer


def _coefstr(c: Fraction) -> str:
    if c.denominator == 1:
        return str(c.numerator)
    return "(" + str(c) + ")"


def _term(c: Fraction, factors: list[str]) -> tuple[bool, str]:
    neg = c < 0
    a = -c if neg else c
    if not factors:
        return neg, str(a)
    if a == 1:
        return neg, "*".join(factors)
    return neg, _coefstr(a) + "*" + "*".join(factors)


def _join(pairs: list[tuple[bool, str]]) -> str:
    if not pairs:
        return "0"
    neg0, s0 = pairs[0]
    out = ("-" + s0) if neg0 else s0
    for neg, s in pairs[1:]:
        out += (" - " if neg else " + ") + s
    return out


def _mono_factors(chart: Chart, key) -> list[str]:
    e, o = key
    factors = []
    for name, k in zip(chart.even, e):
        if k == 1:
            factors.append(name)
        elif k > 1:
            factors.append(f"{name}^{k}")
    for i in o:
        factors.append(chart.odd[i])
    return factors


def _poly_pairs(p: GradedPoly) -> list[tuple[bool, str]]:
    keys = sorted(p.terms, key=lambda k: (sum(k[0]) + len(k[1]), k[0], k[1]))
    return [_term(p.terms[k], _mono_factors(p.chart, k)) for k in keys]


def _render_poly(p: GradedPoly) -> str:
    return _join(_poly_pairs(p))


def _render_density(v: DensityElement) -> str:
    pairs = []
    for w in v.weights():
        comp = v.component(w)
        if w == 0:
            pairs.extend(_poly_pairs(comp))
            continue
        tfac = f"t^({w})"
        if len(comp.terms) == 1:
            ((key, c),) = comp.terms.items()
            neg, s = _term(c, _mono_factors(v.chart, key) + [tfac])
            pairs.append((neg, s))
        else:
            pairs.append((False, "(" + _render_poly(comp) + ")*" + tfac))
    return _join(pairs)


def _dfactors(chart: Chart, key) -> list[str]:
    e, o = key
    factors = []
    for name, k in zip(chart.even, e):
        if k == 1:
            factors.append(f"d({name})")
        elif k > 1:
            factors.append(f"d({name})^{k}")
    for i in o:
        factors.append(f"d({chart.odd[i]})")
    return factors


def _wpoly_pairs(chart: Chart, wp: dict) -> list[tuple[bool, str]]:
    pairs = []
    for k in sorted(wp, reverse=True):
        p = wp[k]
        keys = sorted(p.terms, key=lambda kk: (sum(kk[0]) + len(kk[1]), kk[0], kk[1]))
        wfac = [] if k == 0 else (["W"] if k == 1 else [f"W^{k}"])
        for key in keys:
            pairs.append(_term(p.terms[key], _mono_factors(chart, key) + wfac))
    return pairs


def _render_op(D: DiffOp) -> str:
    chart = D.chart
    pairs = []
    keys = sorted(D.terms, key=lambda k: (sum(k[0]) + len(k[1]), k[0], k[1]))
    for key in keys:
        wp = D.terms[key]
        dfac = _dfactors(chart, key)
        cpairs = _wpoly_pairs(chart, wp)
        if not dfac:
            pairs.extend(cpairs)
            continue
        dstr = "*".join(dfac)
        if len(cpairs) == 1:
            neg, s = cpairs[0]
            if s == "1":
                pairs.append((neg, dstr))
            else:
                pairs.append((neg, s + "*" + dstr))
        else:
            pairs.append((False, "(" + _join(cpairs) + ")*" + dstr))
    return _join(pairs)


def render(obj) -> str:
    """Deterministic canonical text for core values: sorted monomials,
    declaration-order odd factors, explicit rational coefficients.
    render(a) = render(b) iff a = b for values on the same chart, and
    elaborating the rendered text reproduces the value."""
    if isinstance(obj, GradedPoly):
        return _render_poly(obj)
    if isinstance(obj, DensityElement):
        return _render_density(obj)
    if isinstance(obj, DiffOp):
        return _render_op(obj)
    if isinstance(obj, LogVolume):
        return _render_poly(obj.sigma)
    if isinstance(obj, (Fraction, int)):
        return str(Fraction(obj))
    if isinstance(obj, VBracketData):
        lines = []
        for (a, b) in sorted(obj.S):
            lines.append(f"S[{a},{b}] = " + _render_poly(obj.S[(a, b)]))
        for a in sorted(obj.gamma):
            lines.append(f"gamma[{a}] = " + _render_poly(obj.gamma[a]))
        lines.append("theta = " + _render_poly(obj.theta))
        return "\n".join(lines)
    if isinstance(obj, dict):
        # tensor component dictionaries
        lines = []
        for k in sorted(obj, key=lambda x: (x,) if isinstance(x, str) else x):
            idx = k if isinstance(k, str) else ",".join(k)
            lines.append(f"[{idx}] = " + _render_poly(obj[k]))
        return "\n".join(lines)
    raise TypeError(f"no canonical rendering for {type(obj).__name__}")
