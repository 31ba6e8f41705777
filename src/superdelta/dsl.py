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
    term        = factor { "*" factor } ;
    factor      = { "-" } atom { "^" INT } ;
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

A module is read in one pass.  The lexer makes the token strings with one
``findall``, and the parser reads them by index; a token's position is
found again only for a diagnostic.  The parser evaluates each expression
as it reads it and stores each declaration's value in the ``Module`` at
once, so a name is in scope from the end of its declaration on (one table
holds every name taken), and the first error in source order is reported.
A product of numbers, chart variables, W and d(x), with ^INT powers and
unary minus, is one normal-ordered term c x^m W^w d^J, its signs from
``gralg._merge_odd``.  A sum is added up in one term map, stays one when
multiplied by a term c W^w d^J, and is built once, when its value is
needed.  The rest (a variable after a derivative, a named value, t^w) goes
through the value types' arithmetic.  Each declaration converts its value
once: an operator through ``DiffOp.mult``, an element to a polynomial when
it has no t-component; a log-volume, tensor entry or map image is t-free.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from itertools import islice

from .gralg import (_ONE, Chart, DensityElement, DomainError, GradedPoly, _deg, _key,
                    _key_powers, _mul_keys, _nonzero, _operand, _power, _unit)
from .diffop import DiffOp, _from_sums
from .geom import CoordMap, VBracketData, _as_sigma

__all__ = ["DslError", "Module", "load_module", "parse_element", "render"]

_RESERVED = {"chart", "even", "odd", "tensor", "on", "parity", "density", "element",
             "operator", "map", "inverse", "t", "W", "d"}
_DECLARATIONS = ("'chart'", "'tensor'", "'density'", "'element'", "'operator'",
                 "'map'")
# parentheses and unary minus signs open on one path of an expression
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

# A comment runs to the end of its line.  The lexer reads the code of a
# text, the text with each comment blanked out: offsets and lines stay.
_COMMENT = re.compile(r"#[^\n]*")
# Runs of blanks and token characters other than "-", and "-" or "->": a
# greedy match that cannot fail, so it never backtracks, and stops at the
# first character that starts no token.
_SCAN = re.compile(r"(?:[ \t\r\n0-9A-Za-z_{}\[\]();,=+*^/]+|->?)*")
# Blanks, then one token or the end of the code, which always matches.
_TOKEN = re.compile(r"[ \t\r\n]*([{}\[\]();,=+*^/]|->?|[A-Za-z_][A-Za-z0-9_]*|[0-9]+|\Z)")


def _position(text: str, off: int) -> tuple[int, int]:
    """The 1-based line and column of the offset ``off`` in ``text``."""
    return text.count("\n", 0, off) + 1, off - text.rfind("\n", 0, off)


def _lex(code: str) -> list[str]:
    """The token strings of ``code`` from one ``findall``, the last one ""
    for the end of input.  Offsets are not kept: ``_Parser.fail`` finds the
    one a diagnostic needs."""
    end = _SCAN.match(code).end()
    if end < len(code):
        raise DslError(f"unexpected character {code[end]!r}", *_position(code, end))
    toks = _TOKEN.findall(code)
    if len(toks) > 1 and not toks[-2]:  # the end matched after blanks, then again
        del toks[-1]
    return toks


# ---------------------------------------------------------------------------
# module


class Module:
    """The elaborated contents of an .sd module."""

    __slots__ = ("chart", "chart_name", "tensors", "densities", "elements",
                 "operators", "maps")

    def __init__(self, chart: Chart, chart_name: str):
        self.chart, self.chart_name = chart, chart_name
        self.tensors: dict = {}    # name -> ("matrix"|"vector", eps, dict)
        self.densities: dict = {}  # name -> even GradedPoly
        self.elements: dict = {}   # name -> GradedPoly | DensityElement
        self.operators: dict = {}  # name -> DiffOp
        self.maps: dict = {}       # name -> CoordMap


def _simplify_element(v):
    """A density element with no t-component of nonzero weight becomes its
    weight-0 polynomial."""
    if isinstance(v, DensityElement) and set(v.terms) <= {0}:
        return v.component(0)
    return v


# ---------------------------------------------------------------------------
# parser and evaluator

# A term is one normal-ordered product  c x^m W^w d^J, held as the tuple
# (c, m, w, J): a Fraction c, the monomial key m, the W-power w and the
# derivative key J, in the key layout of GradedPoly and DiffOp.  c = 0 is
# the zero term: the number 0, or a product in which an odd factor repeats.
# A sum is a dict J -> w -> {m: c}, the layout of ``diffop``'s sums, kept
# until ``_value`` builds it once: a DiffOp if it has W or a derivative.


class _Parser:
    """Reads .sd text and evaluates it against the module ``m``, which the
    chart declaration creates.  The tokens are the strings of ``_lex``, read
    by index; a diagnostic names its token by index, and ``fail`` finds the
    token's position only then.  Expression methods return the value, a
    term, a sum or an algebra value, and the index of the token at the root
    of the expression, where a t-free check reports."""

    def __init__(self, text: str, m: Module | None = None):
        self.text, self.code = text, _COMMENT.sub(lambda c: " " * len(c[0]), text)
        self.toks, self.i, self.depth, self.m = _lex(self.code), 0, 0, None
        if m is not None:
            self._enter(m)

    def _enter(self, m: Module):
        """Read against m, with the key of 1 and of each chart variable, and
        the one scope table: every name taken, with the value of a density,
        element or operator, None for any other."""
        self.m, self.one = m, _unit(m.chart)
        self.keys = {v: _key(m.chart, v)[0] for v in m.chart.names}
        self.scope = {**dict.fromkeys((m.chart_name, *m.chart.names)), **m.densities,
                      **m.elements, **m.operators}

    def fail(self, message: str, i: int, expected=()):
        """Raise a DslError at token i, found again by the token pattern; the
        end of input is the end of the last line's code."""
        text = self.text
        if self.toks[i]:
            off = next(islice(_TOKEN.finditer(self.code), i, None)).start(1)
        elif (off := text.find("#", text.rfind("\n") + 1)) < 0:
            off = len(text)
        raise DslError(message, *_position(text, off), expected)

    def expect(self, s: str) -> int:
        if (t := self.toks[i := self.i]) == s:
            self.i = i + 1
            return i
        self.fail(f"found {t!r}" if t else "unexpected end of input", i,
                  expected=(f"'{s}'",))

    def expect_name(self, what: str) -> str:
        t = self.toks[self.i]
        if t.isidentifier() and t not in _RESERVED:
            self.i += 1
            return t
        self.fail(f"found {t!r} where {what} was required", self.i,
                  expected=("identifier",))

    def expect_int(self) -> int:
        if not (t := self.toks[i := self.i]).isdigit():
            self.fail(f"found {t!r}", i, expected=("integer",))
        self.i = i + 1
        try:
            return int(t)
        except ValueError:  # a digit string fails only on the length limit
            self.fail("integer literal longer than the limit of "
                      f"{sys.get_int_max_str_digits()} digits", i)

    def nest(self, i: int):
        """Open one nesting level at token i; the caller closes it."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            self.fail(f"expression nested deeper than {MAX_NESTING} levels", i)

    # -- declarations

    def module(self) -> Module:
        while self.toks[self.i]:
            self.declaration()
        if self.m is None:
            self.fail("module declares no chart", self.i)
        return self.m

    def declaration(self):
        if not (t := self.toks[i := self.i]).isidentifier():
            self.fail(f"found {t!r}", i, expected=_DECLARATIONS)
        if t == "chart":
            return self.chart_decl()
        if t in ("tensor", "density", "element", "operator", "map"):
            if self.m is None:
                self.fail("a chart must be declared first", i)
            return (self.tensor_decl() if t == "tensor" else self.map_decl() if t == "map"
                    else self._value_decl(t))
        self.fail(f"unknown declaration {t!r}", i, expected=_DECLARATIONS)

    def chart_decl(self):
        kw = self.expect("chart")
        if self.m is not None:
            self.fail("only one chart per module", kw)
        name = self.expect_name("the chart name")
        self.expect("{")
        names = {"even": [], "odd": []}
        while (t := self.toks[self.i]) != "}":
            if t not in names:
                self.fail(f"found {t!r}", self.i, expected=("'even'", "'odd'", "'}'"))
            self.i += 1
            names[t].append(self.expect_name("a variable name"))
            while self.toks[self.i] == ",":
                self.i += 1
                names[t].append(self.expect_name("a variable name"))
            self.expect(";")
        self.expect("}")
        chart = self._build(kw, Chart, tuple(names["even"]), tuple(names["odd"]))
        self._enter(Module(chart, name))

    def _build(self, kw: int, make, *args):
        """make(*args), a DomainError it raises reported at the keyword kw."""
        try:
            return make(*args)
        except DomainError as ex:
            message = str(ex)
        self.fail(message, kw)

    def _new_name(self, kind: str) -> str:
        """The declared name, which no earlier declaration may have taken,
        followed by "on" and the chart name."""
        i = self.i
        name = self.expect_name(f"the {kind} name")
        if name in self.scope:
            self.fail(f"name {name!r} is already declared", i)
        self.scope[name] = None
        self.expect("on")
        i = self.i
        if (chart := self.expect_name("the chart name")) != self.m.chart_name:
            self.fail(f"unknown chart {chart!r}", i)
        return name

    def _chart_var(self) -> str:
        i = self.i
        name = self.expect_name("a chart variable")
        if name not in self.keys:
            self.fail(f"undeclared variable {name!r}", i)
        return name

    def _t_free(self, what: str) -> GradedPoly:
        """An element expression and its ";", as a polynomial."""
        v, at = self.expr(operator=False)
        self.expect(";")
        if isinstance(v := _simplify_element(self._value(v)), DensityElement):
            self.fail(f"{what} must be t-free", at)
        return v

    def tensor_decl(self):
        kw = self.expect("tensor")
        name = self._new_name("tensor")
        self.expect("parity")
        t = self.toks[self.i]
        if t not in ("even", "odd"):
            self.fail(f"found {t!r}", self.i, expected=("'even'", "'odd'"))
        self.i += 1
        eps = 0 if t == "even" else 1
        chart = self.m.chart
        self.expect("{")
        entries, first = {}, None
        while self.toks[self.i] != "}":
            lb = self.expect("[")
            idx = (self._chart_var(),)
            if self.toks[self.i] == ",":
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
        if kind == "density":
            self.m.densities[name] = self.scope[name] = self._build(
                kw, _as_sigma, self._t_free("a log-volume"), self.m.chart)
            return
        v = self._value(self.expr(operator=(kind == "operator"))[0])
        self.expect(";")
        if kind == "element":
            self.m.elements[name] = self.scope[name] = _simplify_element(v)
        else:
            self.m.operators[name] = self.scope[name] = \
                DiffOp.mult(v) if isinstance(v, GradedPoly) else v

    def map_decl(self):
        kw = self.expect("map")
        name = self._new_name("map")
        self.expect("{")
        fwd = self._map_rules(stop="inverse")
        self.expect("inverse")
        self.expect("{")
        inv = self._map_rules(stop="}")
        self.expect("}")
        self.expect("}")
        self.m.maps[name] = self._build(kw, CoordMap, self.m.chart, fwd, inv)

    def _map_rules(self, stop: str) -> dict[str, GradedPoly]:
        rules = {}
        while self.toks[i := self.i] != "}" and self.toks[i] != stop:
            v = self._chart_var()
            if v in rules:
                self.fail(f"duplicate rule for {v!r}", i)
            self.expect("->")
            rules[v] = self._t_free("a map image")
        return rules

    # -- expressions: (term, sum or value, index of the root token)

    def _sums(self, v) -> dict:
        """A sum; a polynomial or an operator as a sum sharing its term maps."""
        return v if type(v) is dict else {J: {w: p.terms for w, p in wp.items()} for J, wp in (
            v.terms if isinstance(v, DiffOp) else {self.one: {0: v}}).items()}

    def _value(self, v):
        """The algebra value of a term or a sum, a polynomial when it has
        neither W nor a derivative; any other value is its own."""
        chart, one = self.m.chart, self.one
        if type(v) is tuple:
            c, mono, w, J = v
            p = GradedPoly._of(chart, {mono: c} if c else {})
            return DiffOp._of(chart, {J: {w: p}} if c else {}) if w or J != one else p
        if type(v) is not dict:
            return v
        if v.keys() - {one} or v.get(one, {}).keys() - {0}:
            return _from_sums(chart, v)
        return GradedPoly._of(chart, _nonzero(v.get(one, {}).get(0, {})))

    def expr(self, operator: bool):
        """term { ("+"|"-") term }, term = factor { "*" factor } read in
        place.  The summands are added up in one sum; only its t^w summands
        are added by the algebra."""
        toks, sums, sign = self.toks, None, 1
        while True:
            v, at = self.factor(operator)
            while toks[self.i] == "*":
                at = self.i
                self.i += 1
                v = self._mul(v, self.factor(operator)[0])
            t = toks[self.i]
            if sums is None:
                if t != "+" and t != "-":
                    return v, at
                sums, densities = {}, []
            if type(v) is tuple:
                acc = sums.setdefault(v[3], {}).setdefault(v[2], {})
                c = v[0] if sign > 0 else -v[0]
                acc[v[1]] = acc[v[1]] + c if v[1] in acc else c
            elif isinstance(v, DensityElement):
                densities.append(v if sign > 0 else -v)
            else:
                for J, wp in self._sums(v).items():
                    for w, p in wp.items():
                        acc = sums.setdefault(J, {}).setdefault(w, {})
                        for m, c in p.items():
                            c = c if sign > 0 else -c
                            acc[m] = acc[m] + c if m in acc else c
            if t != "+" and t != "-":
                break
            root, sign = self.i, 1 if t == "+" else -1
            self.i += 1
        v = sums
        for d in densities:
            v = d + self._value(v)
        return v, root

    def _mul(self, a, b):
        """a * b.  Two terms multiply as one term unless a variable follows a
        derivative.  A sum, polynomial or operator times a term c W^w d^J is
        a sum, taken one derivative key I at a time, d^I d^J being one key.
        Any other product goes through the operator algebra."""
        one = self.one
        if type(b) is tuple:
            c, mono, w, J = b
            if type(a) is tuple and (a[3] == one or mono == one):
                am, aJ = a[1], a[3]
                km = (mono, 1) if am == one else (am, 1) if mono == one else _mul_keys(am, mono)
                kd = (J, 1) if aJ == one else (aJ, 1) if J == one else _mul_keys(aJ, J)
                if not (km and kd):
                    return (Fraction(0), one, 0, one)
                c = c if a[0] is _ONE else a[0] if c is _ONE else a[0] * c
                return (c if km[1] == kd[1] else -c, km[0], a[2] + w, kd[0])
            if type(a) is not tuple and mono == one and not isinstance(a, DensityElement):
                out = {}
                for I, wp in self._sums(a).items():
                    if k := _mul_keys(I, J):
                        s = c if k[1] > 0 else -c
                        out[k[0]] = {u + w: t if s is _ONE else {m: x * s for m, x in t.items()}
                                     for u, t in wp.items()}
                return out
        return self._value(a) * self._value(b)

    def factor(self, operator: bool):
        """{ "-" } atom { "^" INT }, read in one method: the minus signs, each
        opening a nesting level, the atom, and its powers."""
        toks, one = self.toks, self.one
        i = start = self.i
        while toks[i] == "-":
            self.nest(i)
            i += 1
        t, at = toks[i], i
        self.i = i + 1
        if t in self.keys:
            v = (_ONE, self.keys[t], 0, one)
        elif t.isdigit():
            self.i = i
            v = (self._rational(i, 1), one, 0, one)
        elif t == "(":
            self.nest(i)
            v, at = self.expr(operator)
            self.expect(")")
            self.depth -= 1
        elif t == "W":
            if not operator:
                self.fail("the weight symbol W is only allowed in operator expressions", i)
            v = (_ONE, one, 1, one)
        elif t == "d":
            if not operator:
                self.fail("derivative tokens are only allowed in operator expressions", i)
            self.expect("(")
            v = (_ONE, one, 0, self.keys[self._chart_var()])
            self.expect(")")
        elif t == "t":
            if operator:
                self.fail("t^w factors are only allowed in element expressions", i)
            self.expect("^")
            chart = self.m.chart
            v = DensityElement._of(chart, {self._weight_exponent(): GradedPoly.one(chart)})
        elif (v := self.scope.get(t)) is not None:  # a density, element or operator
            if operator and isinstance(v, DensityElement):
                self.fail(f"element {t!r} has t-components and cannot be an "
                          "operator coefficient", i)
            if not operator and isinstance(v, DiffOp):
                self.fail(f"operator {t!r} used in an element expression", i)
        elif t.isidentifier() and t not in _RESERVED:
            self.fail(f"undeclared name {t!r}", i)
        else:
            self.fail(f"found {t!r}" if t else "unexpected end of input",
                      i, expected=("number", "identifier", "'('", "'-'"))
        while toks[self.i] == "^":
            at = self.i
            self.i += 1
            n = self.expect_int()
            # a term squares through _mul, so its power is one term unless a
            # variable follows a derivative
            v = _power(v, n, (_ONE, one, 0, one), self._mul) if type(v) is tuple \
                else self._value(v) ** n
        if i > start:
            self.depth -= i - start
            if (i - start) % 2:
                v = (-v[0], *v[1:]) if type(v) is tuple else -self._value(v)
            at = start
        return v, at

    def _weight_exponent(self) -> Fraction:
        i = self.i
        if self.toks[i].isdigit():
            return Fraction(self.expect_int())
        self.expect("(")
        sign = -1 if self.toks[self.i] == "-" else 1
        self.i += sign < 0
        w = self._rational(i, sign)
        self.expect(")")
        return w

    def _rational(self, at: int, sign: int) -> Fraction:
        """sign * INT [ "/" INT ], a zero denominator reported at token at."""
        num = sign * self.expect_int()
        if self.toks[self.i] != "/":
            return Fraction(num)
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
    p = _Parser(_operand(text, str, "the text"), _operand(m, Module, "the module m"))
    v = p.expr(operator=False)[0]
    if p.toks[p.i]:
        p.fail(f"trailing input {p.toks[p.i]!r}", p.i)
    return _simplify_element(p._value(v))


# ---------------------------------------------------------------------------
# canonical printer


def _coefstr(c: Fraction) -> str:
    if c.denominator == 1:
        return str(c.numerator)
    return "(" + str(c) + ")"


def _term(c: Fraction, factors: list[str]) -> tuple[bool, str]:
    neg = c.numerator < 0  # c < 0 dispatches through ABCMeta
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
    """The factors of the monomial at key, each variable name written as
    fmt(name): the name itself, or its derivative."""
    return [fmt(n) if k == 1 else f"{fmt(n)}^{k}" for n, k in _key_powers(chart, key)]


def _order_key(key):
    """Monomials print by total degree, then even exponents, then odd
    indices."""
    return _deg(key), key


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
            pairs.append((neg, dstr if s == "1" else s + "*" + dstr))
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
        S, gamma = sorted(obj.S.items()), sorted(obj.gamma.items())
        return "\n".join([*(f"S[{a},{b}] = " + _render_poly(p) for (a, b), p in S),
                          *(f"gamma[{a}] = " + _render_poly(p) for a, p in gamma),
                          "theta = " + _render_poly(obj.theta)])
    raise TypeError(f"no canonical rendering for {type(obj).__name__}")
