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
in source order is the one reported.  A product of numbers, chart
variables, W and d(x), with ^INT powers and unary minus, is built as one
normal-ordered term c x^m W^w d^J, its sign from ``gralg._merge_odd`` for
the odd variables and for the odd derivatives; any value times a term
c W^w d^J without variables is taken one derivative key at a time.  A
variable after a derivative (d(x)*x), a power of a term with both
variables and derivatives, a named element, operator or density, and t^w
go through the arithmetic of the value types, which promotes a
``GradedPoly`` to a ``DensityElement`` where t^w enters and to a ``DiffOp``
where W, d(x) or an operator does.  Each declaration converts its value
once: an operator through ``DiffOp.mult``, an element to a polynomial
when it has no t-component, and a log-volume, tensor entry or map image
must be t-free.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from itertools import accumulate

from .gralg import Chart, DensityElement, DomainError, GradedPoly, _mul_keys, _power
from .diffop import DiffOp, _dkey
from .geom import CoordMap, VBracketData, _as_sigma

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

# One alternative per token class, tried in order at each position.  Every
# character starts a piece, so the pieces cover the text.
_PIECE = re.compile(r"[ \t\r\n]+|#[^\n]*|->|[0-9]+|[A-Za-z_][A-Za-z0-9_]*|.", re.S)
# a piece's kind by its first character: None for blanks and comments, and
# "bad" (the default) for a character that starts no token
_KIND = {**dict.fromkeys(" \t\r\n#"), **dict.fromkeys("0123456789", "int"),
         **dict.fromkeys("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_", "name"),
         **dict.fromkeys("-{}[]();,=+*^/", "punct")}


def _position(text: str, off: int) -> tuple[int, int]:
    """The 1-based line and column of the offset ``off`` in ``text``."""
    return text.count("\n", 0, off) + 1, off - text.rfind("\n", 0, off)


def _lex(text: str) -> list[tuple[str, str, int]]:
    """The (kind, text, offset) tokens of ``text``, kind "name", "int" or
    "punct", then an "eof" token at the end of the last line's code."""
    pieces = _PIECE.findall(text)
    offs = list(accumulate(map(len, pieces), initial=0))
    toks = [(kind, s, off) for s, off in zip(pieces, offs)
            if (kind := _KIND.get(s[0], "bad"))]
    for kind, s, off in toks:
        if kind == "bad":
            raise DslError(f"unexpected character {s!r}", *_position(text, off))
    # the last line's code ends where its comment starts
    return toks + [("eof", "", offs[-2] if pieces and pieces[-1][0] == "#" else offs[-1])]


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
        self.densities: dict = {}  # name -> even GradedPoly
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

# A term is one normal-ordered product  c x^m W^w d^J, held as the tuple
# (c, m, w, J): a Fraction c, the monomial key m, the W-power w and the
# derivative key J, in the key layout of GradedPoly and DiffOp.  c = 0 is
# the zero term: the number 0, or a product in which an odd factor repeats.
_ONE = Fraction(1)


class _Parser:
    """Reads .sd text and evaluates it against the module ``m``, which the
    chart declaration creates.  Expression methods return the value, a term
    or an algebra value, and the token at the root of the expression, where
    a t-free check reports."""

    def __init__(self, text: str, m: Module | None = None):
        self.text = text
        self.toks = _lex(text)
        self.i = 0
        self.depth = 0
        self.m = None
        if m is not None:
            self._enter(m)

    def _enter(self, m: Module):
        """Read against m, with the key of 1 and of each chart variable."""
        self.m, self.one = m, ((0,) * len(m.chart.even), ())
        self.keys = {v: _dkey(m.chart, v)[0] for v in m.chart.names}

    def fail(self, message: str, tok, expected=()):
        raise DslError(message, *_position(self.text, tok[2]), expected)

    def expect(self, text: str):
        t = self.toks[self.i]
        if t[1] == text:
            self.i += 1
            return t
        self.fail(f"found {t[1]!r}" if t[0] != "eof" else "unexpected end of input",
                  t, expected=(f"'{text}'",))

    def expect_name(self, what: str):
        t = self.toks[self.i]
        if t[0] == "name" and t[1] not in _RESERVED:
            self.i += 1
            return t
        self.fail(f"found {t[1]!r} where {what} was required", t,
                  expected=("identifier",))

    def expect_int(self) -> int:
        t = self.toks[self.i]
        if t[0] != "int":
            self.fail(f"found {t[1]!r}", t, expected=("integer",))
        self.i += 1
        try:
            return int(t[1])
        except ValueError:  # a digit string fails only on the length limit
            self.fail("integer literal longer than the limit of "
                      f"{sys.get_int_max_str_digits()} digits", t)

    def nest(self, tok):
        """Step past ``tok``, opening one nesting level there; the caller
        closes it."""
        self.i += 1
        self.depth += 1
        if self.depth > MAX_NESTING:
            self.fail(f"expression nested deeper than {MAX_NESTING} levels", tok)

    # -- declarations

    def module(self) -> Module:
        while self.toks[self.i][0] != "eof":
            self.declaration()
        if self.m is None:
            self.fail("module declares no chart", self.toks[self.i])
        return self.m

    def declaration(self):
        t = self.toks[self.i]
        if t[0] != "name":
            self.fail(f"found {t[1]!r}", t, expected=_DECLARATIONS)
        if t[1] == "chart":
            return self.chart_decl()
        if t[1] in ("tensor", "density", "element", "operator", "map"):
            if self.m is None:
                self.fail("a chart must be declared first", t)
            if t[1] == "tensor":
                return self.tensor_decl()
            if t[1] == "map":
                return self.map_decl()
            return self._value_decl(t[1])
        self.fail(f"unknown declaration {t[1]!r}", t, expected=_DECLARATIONS)

    def chart_decl(self):
        kw = self.expect("chart")
        if self.m is not None:
            self.fail("only one chart per module", kw)
        name = self.expect_name("the chart name")
        self.expect("{")
        names = {"even": [], "odd": []}
        while (t := self.toks[self.i])[1] != "}":
            if t[1] not in names:
                self.fail(f"found {t[1]!r}", t, expected=("'even'", "'odd'", "'}'"))
            self.i += 1
            names[t[1]].extend(self.namelist())
            self.expect(";")
        self.expect("}")
        chart = self._build(kw, Chart, tuple(names["even"]), tuple(names["odd"]))
        self._enter(Module(chart, name[1]))

    def namelist(self) -> list[str]:
        names = [self.expect_name("a variable name")[1]]
        while self.toks[self.i][1] == ",":
            self.i += 1
            names.append(self.expect_name("a variable name")[1])
        return names

    def _build(self, kw, make, *args):
        """make(*args); a DomainError it raises is reported at the keyword of
        the declaration."""
        try:
            return make(*args)
        except DomainError as ex:
            raise DslError(str(ex), *_position(self.text, kw[2])) from None

    def _new_name(self, kind: str) -> str:
        """The declared name, which no earlier declaration may have taken,
        followed by "on" and the chart name."""
        t = self.expect_name(f"the {kind} name")
        m = self.m
        if t[1] == m.chart_name or t[1] in m.chart.names or any(
                t[1] in names for names in
                (m.tensors, m.densities, m.elements, m.operators, m.maps)):
            self.fail(f"name {t[1]!r} is already declared", t)
        self.expect("on")
        c = self.expect_name("the chart name")
        if c[1] != m.chart_name:
            self.fail(f"unknown chart {c[1]!r}", c)
        return t[1]

    def _chart_var(self) -> str:
        t = self.expect_name("a chart variable")
        if t[1] not in self.keys:
            self.fail(f"undeclared variable {t[1]!r}", t)
        return t[1]

    def _t_free(self, what: str) -> GradedPoly:
        """An element expression and its ";", as a polynomial."""
        v, at = self.expr(operator=False)
        self.expect(";")
        v = _simplify_element(self._value(v))
        if isinstance(v, DensityElement):
            self.fail(f"{what} must be t-free", at)
        return v

    def tensor_decl(self):
        kw = self.expect("tensor")
        name = self._new_name("tensor")
        self.expect("parity")
        t = self.toks[self.i]
        if t[1] not in ("even", "odd"):
            self.fail(f"found {t[1]!r}", t, expected=("'even'", "'odd'"))
        self.i += 1
        eps = 0 if t[1] == "even" else 1
        chart = self.m.chart
        self.expect("{")
        entries, first = {}, None
        while self.toks[self.i][1] != "}":
            lb = self.expect("[")
            idx = (self._chart_var(),)
            if self.toks[self.i][1] == ",":
                self.i += 1
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
            m.densities[name] = self._build(kw, _as_sigma, self._t_free("a log-volume"))
            return
        v, _ = self.expr(operator=(kind == "operator"))
        self.expect(";")
        v = self._value(v)
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
        while (t := self.toks[self.i])[1] not in ("}",) + tuple(stop):
            v = self._chart_var()
            if v in rules:
                self.fail(f"duplicate rule for {v!r}", t)
            self.expect("->")
            rules[v] = self._t_free("a map image")
        return rules

    # -- expressions: (term or value, root token)

    def _value(self, v):
        """The algebra value of a term, a polynomial when it has neither W
        nor derivatives; any other value is its own."""
        if type(v) is not tuple:
            return v
        c, mono, w, J = v
        p = GradedPoly._of(self.m.chart, {mono: c} if c else {})
        return DiffOp(self.m.chart, {J: {w: p}}) if w or J != self.one else p

    def expr(self, operator: bool):
        v, at = self.term(operator)
        while (t := self.toks[self.i])[1] in ("+", "-"):
            self.i += 1
            at = t
            r, _ = self.term(operator)
            v, r = self._value(v), self._value(r)
            v = v + r if t[1] == "+" else v - r
        return v, at

    def term(self, operator: bool):
        v, at = self.unary(operator)
        while (t := self.toks[self.i])[1] == "*":
            self.i += 1
            at = t
            r, _ = self.unary(operator)
            v = self._mul(v, r)
        return v, at

    def _mul(self, a, b):
        """a * b.  Two terms multiply as one term unless a variable follows a
        derivative.  A value times a term c W^w d^J without variables is
        taken one derivative key I at a time, d^I d^J being one key.  Any
        other product goes through the operator algebra."""
        one = self.one
        if type(b) is tuple:
            c, mono, w, J = b
            if type(a) is tuple and (a[3] == one or mono == one):
                km, kd = _mul_keys(a[1], mono), _mul_keys(a[3], J)
                if not (km and kd):
                    return (Fraction(0), one, 0, one)
                c = c if a[0] is _ONE else a[0] if c is _ONE else a[0] * c
                return (c if km[1] == kd[1] else -c, km[0], a[2] + w, kd[0])
            if type(a) is not tuple and mono == one and (w or J != one):
                terms = {}  # a is a polynomial or an operator
                for I, wp in (a.terms if isinstance(a, DiffOp) else {one: {0: a}}).items():
                    if k := _mul_keys(I, J):
                        terms[k[0]] = {u + w: p * (c if k[1] > 0 else -c) for u, p in wp.items()}
                return DiffOp(self.m.chart, terms)
        return self._value(a) * self._value(b)

    def unary(self, operator: bool):
        t = self.toks[self.i]
        if t[1] == "-":
            self.nest(t)
            v, _ = self.unary(operator)
            self.depth -= 1
            return ((-v[0], *v[1:]) if type(v) is tuple else -v), t
        return self.power(operator)

    def power(self, operator: bool):
        v, at = self.atom(operator)
        while (t := self.toks[self.i])[1] == "^":
            self.i += 1
            at = t
            n = self.expect_int()
            # a term squares through _mul, so its power is one term unless a
            # variable follows a derivative
            one = (_ONE, self.one, 0, self.one)
            v = _power(v, n, one, self._mul) if type(v) is tuple else v ** n
        return v, at

    def atom(self, operator: bool):
        t = self.toks[self.i]
        kind, s = t[0], t[1]
        m = self.m
        if kind == "int":
            return (self._rational(t, 1), self.one, 0, self.one), t
        if s == "(":
            self.nest(t)
            e = self.expr(operator)
            self.expect(")")
            self.depth -= 1
            return e
        if s == "W":
            self.i += 1
            if not operator:
                self.fail("the weight symbol W is only allowed in operator expressions", t)
            return (_ONE, self.one, 1, self.one), t
        if s == "d":
            self.i += 1
            if not operator:
                self.fail("derivative tokens are only allowed in operator expressions", t)
            self.expect("(")
            v = self._chart_var()
            self.expect(")")
            return (_ONE, self.one, 0, self.keys[v]), t
        if s == "t":
            self.i += 1
            if operator:
                self.fail("t^w factors are only allowed in element expressions", t)
            self.expect("^")
            w = self._weight_exponent()
            return DensityElement(m.chart, {w: GradedPoly.one(m.chart)}), t
        if kind == "name" and s not in _RESERVED:
            self.i += 1
            if s in self.keys:
                return (_ONE, self.keys[s], 0, self.one), t
            if s in m.densities:
                return m.densities[s], t
            if s in m.elements:
                v = m.elements[s]
                if operator and isinstance(v, DensityElement):
                    self.fail(f"element {s!r} has t-components and cannot be an "
                              "operator coefficient", t)
                return v, t
            if s in m.operators:
                if not operator:
                    self.fail(f"operator {s!r} used in an element expression", t)
                return m.operators[s], t
            self.fail(f"undeclared name {s!r}", t)
        self.fail(f"found {s!r}" if kind != "eof" else "unexpected end of input",
                  t, expected=("number", "identifier", "'('", "'-'"))

    def _weight_exponent(self) -> Fraction:
        t = self.toks[self.i]
        if t[0] == "int":
            return Fraction(self.expect_int())
        self.expect("(")
        sign = 1
        if self.toks[self.i][1] == "-":
            self.i += 1
            sign = -1
        w = self._rational(t, sign)
        self.expect(")")
        return w

    def _rational(self, at, sign: int) -> Fraction:
        """sign * INT [ "/" INT ]; a zero denominator is reported at ``at``."""
        num, den = sign * self.expect_int(), 1
        if self.toks[self.i][1] == "/":
            self.i += 1
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
    t = p.toks[p.i]
    if t[0] != "eof":
        p.fail(f"trailing input {t[1]!r}", t)
    return _simplify_element(p._value(v))


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
    if isinstance(obj, VBracketData):
        lines = []
        for (a, b) in sorted(obj.S):
            lines.append(f"S[{a},{b}] = " + _render_poly(obj.S[(a, b)]))
        for a in sorted(obj.gamma):
            lines.append(f"gamma[{a}] = " + _render_poly(obj.gamma[a]))
        lines.append("theta = " + _render_poly(obj.theta))
        return "\n".join(lines)
    raise TypeError(f"no canonical rendering for {type(obj).__name__}")
