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

Tokens are ASCII: INT = [0-9]+, NAME = [A-Za-z_][A-Za-z0-9_]*, the
punctuation above, and blanks (space, tab, carriage return).  "#" starts a
comment running to the end of the line, and a comment may hold any
character; any other character is unexpected.  "t", "W" and "d" are
reserved.  Derivative tokens d(x) and the weight symbol W are allowed only
in operator expressions; t^w only in element expressions.  Two-index
tensor entries are completed by the forced graded symmetry
S^{ba} = (-1)^{p(a)p(b)} S^{ab}; contradictory entries are rejected, and
so is a repeated tensor entry or map rule.  An integer literal may not be
longer than sys.get_int_max_str_digits(), nor an expression nested (in
parentheses and unary minus signs) deeper than MAX_NESTING.

A module is read in one pass: the parser evaluates each expression as it
reads it and stores each declaration's value in the ``Module`` at once, so
a name is in scope from the end of its declaration on, and the first error
in source order is the one reported.  An expression's value has the
narrowest type that holds it: a ``GradedPoly`` for numbers, variables,
log-volumes and t-free elements; a ``DensityElement`` once a t^w factor or
an element with t-components enters; a ``DiffOp`` once W, d(x) or an
operator enters.  The arithmetic of those types promotes a polynomial
where it meets a richer operand.  Each declaration converts its value
once: an operator through ``DiffOp.mult``, an element to a polynomial
when it has no t-component, and a log-volume, tensor entry or map image
must be t-free.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from typing import NamedTuple

from .gralg import Chart, DensityElement, DomainError, GradedPoly
from .diffop import DiffOp
from .geom import CoordMap, LogVolume, VBracketData

__all__ = [
    "DslError",
    "Module",
    "load_module",
    "parse_element",
    "render",
]

_RESERVED = {
    "chart", "even", "odd", "tensor", "on", "parity", "density", "element",
    "operator", "map", "inverse", "t", "W", "d",
}
_DECLARATIONS = ("'chart'", "'tensor'", "'density'", "'element'", "'operator'",
                 "'map'")
# parentheses and unary minus signs open on one path of an expression; the
# parser recurses on both
MAX_NESTING = 100


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


class _Tok(NamedTuple):
    kind: str  # "name", "int", "punct", "eof"
    text: str
    line: int
    col: int


# tried in order at each position: blanks match no group, and a character
# that starts no token is unexpected
_TOKEN = re.compile(r"[ \t\r]+|(?P<punct>->|[-{}\[\]();,=+*^/])|(?P<int>[0-9]+)"
                    r"|(?P<name>[A-Za-z_][A-Za-z0-9_]*)|(?P<bad>.)")


def _lex(text: str) -> list[_Tok]:
    toks = []
    for line, s in enumerate(text.split("\n"), 1):
        s = s.partition("#")[0]  # a comment runs to the end of its line
        for m in _TOKEN.finditer(s):
            kind = m.lastgroup
            if kind == "bad":
                raise DslError(f"unexpected character {m[0]!r}", line, m.start() + 1)
            if kind:
                toks.append(_Tok(kind, m[0], line, m.start() + 1))
    toks.append(_Tok("eof", "", line, len(s) + 1))
    return toks


# ---------------------------------------------------------------------------
# module


class Module:
    """The elaborated contents of an .sd module."""

    __slots__ = ("chart", "chart_name", "tensors", "densities", "elements",
                 "operators", "maps")

    def __init__(self, chart: Chart, chart_name: str):
        self.chart = chart
        self.chart_name = chart_name
        self.tensors: dict = {}    # name -> ("matrix"|"vector", eps, dict)
        self.densities: dict = {}  # name -> LogVolume
        self.elements: dict = {}   # name -> GradedPoly | DensityElement
        self.operators: dict = {}  # name -> DiffOp
        self.maps: dict = {}       # name -> CoordMap


def _simplify_element(v):
    """A density element with no t-component of nonzero weight becomes its
    weight-0 polynomial."""
    if isinstance(v, DensityElement) and set(v.parts) <= {0}:
        return v.component(0)
    return v


# ---------------------------------------------------------------------------
# parser and evaluator


class _Parser:
    """Reads .sd text and evaluates it against the module ``m``, which the
    chart declaration creates.  Expression methods return the value and the
    token at the root of the expression, where a t-free check reports."""

    def __init__(self, text: str, m: Module | None = None):
        self.toks = _lex(text)
        self.i = 0
        self.m = m
        self.depth = 0

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

    def expect_name(self, what: str) -> _Tok:
        t = self.peek()
        if t.kind == "name" and t.text not in _RESERVED:
            return self.next()
        self.fail(f"found {t.text!r} where {what} was required", t,
                  expected=("identifier",))

    def expect_int(self) -> int:
        t = self.peek()
        if t.kind != "int":
            self.fail(f"found {t.text!r}", t, expected=("integer",))
        self.next()
        try:
            return int(t.text)
        except ValueError:  # a digit string fails only on the length limit
            self.fail("integer literal longer than the limit of "
                      f"{sys.get_int_max_str_digits()} digits", t)

    def nest(self, tok: _Tok):
        """Open one nesting level at ``tok``; the caller closes it."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            self.fail(f"expression nested deeper than {MAX_NESTING} levels", tok)

    # -- declarations

    def module(self) -> Module:
        while self.peek().kind != "eof":
            self.declaration()
        if self.m is None:
            t = self.peek()
            raise DslError("module declares no chart", t.line, t.col)
        return self.m

    def declaration(self):
        t = self.peek()
        if t.kind != "name":
            self.fail(f"found {t.text!r}", t, expected=_DECLARATIONS)
        if t.text == "chart":
            return self.chart_decl()
        if t.text in ("tensor", "density", "element", "operator", "map"):
            if self.m is None:
                self.fail("a chart must be declared first", t)
            if t.text == "tensor":
                return self.tensor_decl()
            if t.text == "map":
                return self.map_decl()
            return self._value_decl(t.text)
        self.fail(f"unknown declaration {t.text!r}", t, expected=_DECLARATIONS)

    def chart_decl(self):
        kw = self.expect("chart")
        if self.m is not None:
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
        chart = self._build(kw, Chart, tuple(even), tuple(odd))
        self.m = Module(chart, name.text)

    def namelist(self) -> list[str]:
        names = [self.expect_name("a variable name").text]
        while self.peek().text == ",":
            self.next()
            names.append(self.expect_name("a variable name").text)
        return names

    def _build(self, kw: _Tok, make, *args):
        """make(*args); a DomainError it raises is reported at the keyword of
        the declaration."""
        try:
            return make(*args)
        except DomainError as ex:
            raise DslError(str(ex), kw.line, kw.col) from None

    def _new_name(self, kind: str) -> str:
        """The declared name, which no earlier declaration may have taken,
        followed by "on" and the chart name."""
        t = self.expect_name(f"the {kind} name")
        m = self.m
        if t.text == m.chart_name or t.text in m.chart.names or any(
                t.text in names for names in
                (m.tensors, m.densities, m.elements, m.operators, m.maps)):
            self.fail(f"name {t.text!r} is already declared", t)
        self.expect("on")
        c = self.expect_name("the chart name")
        if c.text != m.chart_name:
            self.fail(f"unknown chart {c.text!r}", c)
        return t.text

    def _chart_var(self) -> str:
        t = self.expect_name("a chart variable")
        if t.text not in self.m.chart.names:
            self.fail(f"undeclared variable {t.text!r}", t)
        return t.text

    def _t_free(self, what: str) -> GradedPoly:
        """An element expression and its ";", as a polynomial."""
        v, at = self.expr(operator=False)
        self.expect(";")
        v = _simplify_element(v)
        if isinstance(v, DensityElement):
            self.fail(f"{what} must be t-free", at)
        return v

    def tensor_decl(self):
        kw = self.expect("tensor")
        name = self._new_name("tensor")
        self.expect("parity")
        t = self.peek()
        if t.text not in ("even", "odd"):
            self.fail(f"found {t.text!r}", t, expected=("'even'", "'odd'"))
        eps = 0 if self.next().text == "even" else 1
        chart = self.m.chart
        self.expect("{")
        entries, first = {}, None
        while self.peek().text != "}":
            lb = self.expect("[")
            idx = (self._chart_var(),)
            if self.peek().text == ",":
                self.next()
                idx += (self._chart_var(),)
            self.expect("]")
            first = first or (lb, len(idx))
            if len(idx) != first[1]:
                self.fail("tensor mixes one- and two-index entries", first[0])
            self.expect("=")
            p = self._t_free("a tensor entry")
            if len(idx) == 1:
                want = (eps + chart.parity(idx[0])) % 2
                if not p.is_zero() and p.parity() != want:
                    self.fail(f"entry [{idx[0]}] must have parity {want}", lb)
            key = idx if len(idx) == 2 else idx[0]
            if key in entries:
                self.fail(f"duplicate entry [{','.join(idx)}]", lb)
            entries[key] = p
        self.expect("}")
        if first and first[1] == 1:  # a vector keeps its nonzero entries
            self.m.tensors[name] = ("vector", eps,
                                    {a: p for a, p in entries.items() if not p.is_zero()})
        else:
            # validation + graded symmetrization via the bracket-data rules
            data = self._build(kw, VBracketData, chart, eps, entries, {},
                               GradedPoly.zero(chart))
            self.m.tensors[name] = ("matrix", eps, dict(data.S))

    def _value_decl(self, kind: str):
        kw = self.expect(kind)
        name = self._new_name(kind)
        self.expect("=")
        m = self.m
        if kind == "density":
            m.densities[name] = self._build(kw, LogVolume, self._t_free("a log-volume"))
            return
        v, _ = self.expr(operator=(kind == "operator"))
        self.expect(";")
        if kind == "element":
            m.elements[name] = _simplify_element(v)
        else:
            m.operators[name] = DiffOp.mult(v) if isinstance(v, GradedPoly) else v

    def map_decl(self):
        kw = self.expect("map")
        name = self._new_name("map")
        self.expect("{")
        fwd = self._map_rules(stop=("inverse",))
        self.expect("inverse")
        self.expect("{")
        inv = self._map_rules(stop=())
        self.expect("}")
        self.expect("}")
        self.m.maps[name] = self._build(kw, CoordMap, self.m.chart, fwd, inv)

    def _map_rules(self, stop) -> dict[str, GradedPoly]:
        rules = {}
        while self.peek().text not in ("}",) + tuple(stop):
            t = self.peek()
            v = self._chart_var()
            if v in rules:
                self.fail(f"duplicate rule for {v!r}", t)
            self.expect("->")
            rules[v] = self._t_free("a map image")
        return rules

    # -- expressions: (value, root token)

    def expr(self, operator: bool):
        v, at = self.term(operator)
        while self.peek().text in ("+", "-"):
            at = self.next()
            r, _ = self.term(operator)
            v = v + r if at.text == "+" else v - r
        return v, at

    def term(self, operator: bool):
        v, at = self.unary(operator)
        while self.peek().text == "*":
            at = self.next()
            r, _ = self.unary(operator)
            v = v * r
        return v, at

    def unary(self, operator: bool):
        t = self.peek()
        if t.text == "-":
            self.nest(self.next())
            v, _ = self.unary(operator)
            self.depth -= 1
            return -v, t
        return self.power(operator)

    def power(self, operator: bool):
        v, at = self.atom(operator)
        while self.peek().text == "^":
            at = self.next()
            v = v ** self.expect_int()
        return v, at

    def atom(self, operator: bool):
        t = self.peek()
        m = self.m
        if t.kind == "int":
            return GradedPoly.const(m.chart, self._rational(t, 1)), t
        if t.text == "(":
            self.nest(self.next())
            e = self.expr(operator)
            self.expect(")")
            self.depth -= 1
            return e
        if t.text == "W":
            self.next()
            if not operator:
                self.fail("the weight symbol W is only allowed in operator expressions", t)
            return DiffOp.weight(m.chart), t
        if t.text == "d":
            self.next()
            if not operator:
                self.fail("derivative tokens are only allowed in operator expressions", t)
            self.expect("(")
            v = self._chart_var()
            self.expect(")")
            return DiffOp.deriv(m.chart, v), t
        if t.text == "t":
            self.next()
            if operator:
                self.fail("t^w factors are only allowed in element expressions", t)
            self.expect("^")
            w = self._weight_exponent()
            return DensityElement(m.chart, {w: GradedPoly.one(m.chart)}), t
        if t.kind == "name" and t.text not in _RESERVED:
            self.next()
            name = t.text
            if name in m.chart.names:
                return GradedPoly.var(m.chart, name), t
            if name in m.densities:
                return m.densities[name].sigma, t
            if name in m.elements:
                v = m.elements[name]
                if operator and isinstance(v, DensityElement):
                    self.fail(f"element {name!r} has t-components and cannot be an "
                              "operator coefficient", t)
                return v, t
            if name in m.operators:
                if not operator:
                    self.fail(f"operator {name!r} used in an element expression", t)
                return m.operators[name], t
            self.fail(f"undeclared name {name!r}", t)
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
        w = self._rational(t, sign)
        self.expect(")")
        return w

    def _rational(self, at: _Tok, sign: int) -> Fraction:
        """sign * INT [ "/" INT ]; a zero denominator is reported at ``at``."""
        num, den = sign * self.expect_int(), 1
        if self.peek().text == "/":
            self.next()
            den = self.expect_int()
            if den == 0:
                self.fail("zero denominator", at)
        return Fraction(num, den)


def load_module(text: str) -> Module:
    """Read and elaborate an .sd module in one pass; raises DslError with a
    1-based line:column position on the first lexical, syntactic, scope or
    elaboration error."""
    return _Parser(text).module()


def parse_element(text: str, m: Module):
    """Parse and evaluate one element expression (the CLI's --args grammar)
    against a loaded module.  Diagnostic positions count from the start of
    ``text``."""
    p = _Parser(text, m)
    v, _ = p.expr(operator=False)
    t = p.peek()
    if t.kind != "eof":
        p.fail(f"trailing input {t.text!r}", t)
    return _simplify_element(v)


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


def _factors(chart: Chart, key, fmt=str) -> list[str]:
    """The factors of the monomial x^e xi^o at key (e, o), each variable
    name written as fmt(name): the name itself, or its derivative."""
    e, o = key
    factors = []
    for name, k in zip(chart.even, e):
        if k == 1:
            factors.append(fmt(name))
        elif k > 1:
            factors.append(f"{fmt(name)}^{k}")
    for i in o:
        factors.append(fmt(chart.odd[i]))
    return factors


def _order_key(key):
    """Monomials print by total degree, then even exponents, then odd
    indices."""
    e, o = key
    return sum(e) + len(o), e, o


def _poly_pairs(p: GradedPoly, extra: tuple[str, ...] = ()) -> list[tuple[bool, str]]:
    """The terms of p in print order, each followed by the factors extra."""
    return [_term(p.terms[k], [*_factors(p.chart, k), *extra])
            for k in sorted(p.terms, key=_order_key)]


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
            pairs.extend(_poly_pairs(comp, (tfac,)))
        else:
            pairs.append((False, "(" + _render_poly(comp) + ")*" + tfac))
    return _join(pairs)


def _wpoly_pairs(wp: dict) -> list[tuple[bool, str]]:
    """The terms of a W-polynomial coefficient, highest W-power first."""
    pairs = []
    for k in sorted(wp, reverse=True):
        pairs.extend(_poly_pairs(wp[k], () if k == 0 else ("W" if k == 1 else f"W^{k}",)))
    return pairs


def _render_op(D: DiffOp) -> str:
    pairs = []
    for key in sorted(D.terms, key=_order_key):
        dfac = _factors(D.chart, key, "d({})".format)
        cpairs = _wpoly_pairs(D.terms[key])
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
    elaborating the rendered text reproduces the value.  A coefficient
    longer than Python's int-to-str digit limit is a DomainError."""
    try:
        return _render(obj)
    except ValueError:  # only str(int) raises one here, past the limit
        raise DomainError("output coefficient longer than the limit of "
                          f"{sys.get_int_max_str_digits()} digits") from None


def _render(obj) -> str:
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
