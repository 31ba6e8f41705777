"""Exact supercommutative polynomial algebra on charts with even and odd
variables, plus the weight-graded density extension.

Everything is exact: coefficients are ``fractions.Fraction``, weights are
rational, and all equalities used by the theorem suites are literal equality
of canonical forms.  Odd monomials are stored as ascending index tuples in
declaration order with the reordering sign folded into the coefficient.

The kernel contract, one rule for the three value types: a polynomial
coefficient is a nonzero ``Fraction``, and a density component or operator
coefficient a nonzero ``GradedPoly`` on the value's chart.  The public
constructors check what they are given (keys by ``_check_key``, numbers by
``_rational``, operands by ``_operand``) and drop zeros; each type's
private ``_of`` is trusted: it builds every value the engine computes,
unchecked; ``_nonzero``, the one rule that keeps the contract, drops the
zeros a sum leaves.  The ``.terms`` layouts (here and in ``DiffOp``) are
read by the benchmark under ``bench/``, and every polynomial-by-polynomial
product goes through ``GradedPoly.__mul__``, the boundary its tracer wraps,
except that ``dsl`` builds each product of numbers, variables, W and
derivatives in ``.sd`` text as one term and multiplies a sum by such a term
key by key, and ``brackets`` multiplies by ``_mul_keys`` and by its own
Grassmann tables.  ``substitute`` validates its images for the kernel
``_substitute``, which coordinate maps, validated when built, call
directly.  Products of variables and products of derivatives share the key
layout, and only this module, ``diffop`` and the matrix oracle's
``matrix_of`` read it inside the package; other modules go through the key
helpers: ``_key`` and ``_mul_keys`` (the key of a product), ``_unit`` (the
key of 1), ``_deg`` (its degree), ``_keys_upto`` (every key up to a
degree), ``_key_powers`` and ``_key_names`` (its factors), ``_envelope`` (a
support bound), ``_odd_degree_part`` and ``_embed`` (a polynomial on a
chart whose blocks begin with its own).  ``_derive`` takes d^key of each
monomial in one step; ``partial``, its one-variable case, checks its
polynomial for the API over the kernel ``_partial``, which ``geom`` calls,
and ``diffop`` and ``brackets`` call ``_derive``, never either.  Caches hold
keys, never values; ``diffop``'s Leibniz table is bounded, its tuples shared.

Polynomials, densities and operators share one value protocol, the base
``_Value``: each value is a chart and a term map ``.terms`` (monomial key
to coefficient, weight to component, derivative key to W-powers of
coefficients).  The base owns ``zero``, ``is_zero``, the lift, equality
and hashing; each type defines only what reads its layout.  A function is
a density of weight 0 and a multiplication operator, and numbers are
central; ``_as_poly`` is the one lift rule, and each type's ``_from_poly``
carries a polynomial up to it.  A number scales from either side, a lower
type multiplies from the left, and any other operand is a ``TypeError``.
"""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction
from math import perm, prod
from operator import add as _add, le, mul as _mul, sub
from typing import Mapping, NamedTuple

EVEN = 0
ODD = 1
_ONE = Fraction(1)


class DomainError(ValueError):
    """A violated mathematical precondition of the engine; the message
    names it.  The command line reports exactly these as domain errors."""


class ChartMismatch(DomainError):
    pass


class ParityError(DomainError):
    pass


class KeyLayoutError(DomainError):
    """A monomial or derivative key that does not fit its chart's layout."""


class _ChartFields(NamedTuple):
    even: tuple[str, ...]
    odd: tuple[str, ...]


class Chart(_ChartFields):
    """A coordinate chart with named even (commuting) and odd (anticommuting)
    variables.  Variable order is the declaration order and fixes the
    canonical form of odd monomials.  An immutable, hashable record."""

    __slots__ = ()

    def __new__(cls, even: tuple[str, ...], odd: tuple[str, ...]):
        names = even + odd
        if len(set(names)) != len(names):
            raise DomainError("chart variable names must be distinct")
        if not names:
            raise DomainError("chart needs at least one variable")
        return super().__new__(cls, even, odd)

    @property
    def names(self) -> tuple[str, ...]:
        return self.even + self.odd

    def parity(self, name: str) -> int:
        if name in self.even:
            return EVEN
        if name in self.odd:
            return ODD
        raise DomainError(f"unknown variable {name!r}")


# A monomial key: exponents of the even variables, ascending tuple of odd
# variable indices.
Key = tuple[tuple[int, ...], tuple[int, ...]]


def _merge_odd(o1: tuple[int, ...], o2: tuple[int, ...]):
    """Concatenate two canonical odd index tuples; return (sorted tuple, sign)
    or None if a square of an odd generator appears."""
    if not o1 or not o2:
        return o1 or o2, 1
    inversions = 0
    for i in o1:
        for j in o2:  # ascending: count the j < i, stop at the first j >= i
            if j >= i:
                if j == i:
                    return None
                break
            inversions += 1
    return tuple(sorted(o1 + o2)), -1 if inversions & 1 else 1


def _check_key(chart: Chart, key) -> None:
    """Refuse a key that is not in chart's layout: a pair of tuples, one
    non-negative int exponent per even variable and strictly ascending int
    indices of odd variables, each tested by type, so a bool is refused."""
    if type(key) is not tuple or len(key) != 2 or type(key[0]) is not tuple \
            or type(key[1]) is not tuple:
        raise KeyLayoutError(
            f"a key must be a pair of tuples (even exponents, odd indices), not {key!r}")
    if len(key[0]) != len(chart.even):
        raise KeyLayoutError(
            f"a key on a chart of {len(chart.even)} even variables needs as many "
            f"exponents, not {key[0]!r}")
    for n in key[0]:
        if type(n) is not int or n < 0:
            raise KeyLayoutError(f"an even exponent must be a non-negative int, not {n!r}")
    last, q = -1, len(chart.odd)
    for i in key[1]:
        if type(i) is not int or not last < i < q:
            raise KeyLayoutError(
                f"odd indices must ascend strictly within range({q}), not {key[1]!r}")
        last = i


def _mul_keys(k1: Key, k2: Key):
    """(key, sign) with x^k1 x^k2 = sign x^key, or with d^k1 d^k2 = sign
    d^key for derivative keys; None when an odd factor repeats."""
    merged = _merge_odd(k1[1], k2[1])
    return merged and ((tuple(map(_add, k1[0], k2[0])), merged[0]), merged[1])


@functools.cache
def _key(chart: Chart, *names: str) -> tuple[Key, int] | None:
    """The key K and sign s with x_{n1} x_{n2} ... = s x^K, and with
    d_{n1} o d_{n2} o ... = s d^K, or None when an odd factor repeats; only
    the odd factors reorder.  Cached: callers pass one or two of the
    chart's names, so the cache is bounded by the chart's size."""
    e, o, sign = [0] * len(chart.even), (), 1
    for name in names:
        if chart.parity(name) == EVEN:
            e[chart.even.index(name)] += 1
            continue
        merged = _merge_odd(o, (chart.odd.index(name),))
        if merged is None:
            return None
        o, sign = merged[0], sign * merged[1]
    return (tuple(e), o), sign


def _unit(chart: Chart) -> Key:
    """The key of 1, and of the empty product of derivatives."""
    return (0,) * len(chart.even), ()


def _deg(key: Key) -> int:
    """The total degree of the product at key."""
    return sum(key[0]) + len(key[1])


def _keys_upto(chart: Chart, n: int) -> list[Key]:
    """Every key of degree <= n, ordered by degree, then even exponents,
    then odd indices."""
    q = len(chart.odd)
    keys = [(e, o) for e in itertools.product(range(n + 1), repeat=len(chart.even))
            for k in range(q + 1) for o in itertools.combinations(range(q), k)]
    return sorted((k for k in keys if _deg(k) <= n), key=lambda k: (_deg(k), k))


def _key_powers(chart: Chart, key: Key) -> list[tuple[str, int]]:
    """The factors of the product at key as (variable, exponent) pairs, even
    variables first, each odd one to the power 1."""
    return [(n, k) for n, k in zip(chart.even, key[0]) if k] + \
        [(chart.odd[i], 1) for i in key[1]]


def _key_names(chart: Chart, key: Key) -> list[str]:
    """The variables of the product at key, each as often as its exponent,
    even ones first: _key of them gives back (key, 1)."""
    return [n for n, k in _key_powers(chart, key) for _ in range(k)]


def _rational(x, what: str) -> Fraction:
    """A coefficient or a weight, an int or a Fraction, as a Fraction, tested by
    type (isinstance dispatches through ABCMeta); a float or a str is refused."""
    if type(x) is not Fraction and type(x) is not int:
        raise TypeError(f"a {what} must be an int or a Fraction, not {type(x).__name__}")
    return x if type(x) is Fraction else Fraction(x)


def _operand(x, kind, what: str, chart: Chart | None = None):
    """The one check of an operand at a public entry: x if it is a ``kind``
    (a class, or a tuple of classes) and, when ``chart`` is given, lies on
    it.  Otherwise a TypeError "{what} must be a {kind}, not {type}" or a
    ChartMismatch "{what} on another chart", ``what`` naming the operand."""
    if not isinstance(x, kind):
        kinds = " or ".join(k.__name__ for k in (kind if type(kind) is tuple else (kind,)))
        raise TypeError(f"{what} must be a {kinds}, not {type(x).__name__}")
    if chart is not None and x.chart != chart:
        raise ChartMismatch(f"{what} on another chart")
    return x


def _envelope(chart: Chart, polys) -> Key:
    """The key of the derivatives polys can absorb: per even variable the
    sum over polys of its largest exponent in each, and the union of their
    odd indices.  It bounds the brackets of polys (brackets' support bound)."""
    even = tuple(sum(max((e[j] for e, _ in p.terms), default=0) for p in polys)
                 for j in range(len(chart.even)))
    return even, tuple(sorted({i for p in polys for _, o in p.terms for i in o}))


def _within(key: Key, bound: Key) -> bool:
    """key <= bound: no even exponent above bound's, no odd index outside it."""
    return all(map(le, key[0], bound[0])) and set(key[1]).issubset(bound[1])


def _parity(parities: set) -> int | None:
    """The parity every part shares, from the set of their parities: EVEN
    when there are no parts, None when two differ."""
    return parities.pop() if len(parities) == 1 else None if parities else EVEN


def _nonzero(acc: dict) -> dict:
    """A summed term map without its zeros (acc itself if none cancelled)."""
    return acc if all(acc.values()) else {k: c for k, c in acc.items() if c}


def _power(x, n: int, one, mul=_mul):
    """x^n by repeated squaring, for any associative product ``mul``: about
    2 log2(n) products, and none for x^1, which is x; ``one``, the unit, is
    the value of x^0 and read for no other n."""
    if n < 0:
        raise ValueError("negative power")
    out = None
    while n:
        if n & 1:
            out = x if out is None else mul(out, x)
        n >>= 1
        if n:
            x = mul(x, x)
    return one if out is None else out


class _Value:
    """The protocol shared by GradedPoly, DensityElement and DiffOp, each a
    ``chart`` and a term map ``terms`` with no zero entries.  The base owns
    ``zero``, ``is_zero``, ``_lift`` (a number or a lower type as a value of
    the type, or None), ``__eq__`` and ``__hash__`` (the chart and the sorted
    terms), the reflected and derived operators and ``homogeneous_parts``.
    Each type defines its term layout: ``_of`` (the trusted constructor),
    ``_from_poly`` (a polynomial as a value of the type), ``parity``,
    ``parity_part``, ``__add__``, ``__neg__`` and ``__mul__``; those return
    NotImplemented for an operand ``_lift`` does not take, so Python raises
    TypeError."""

    __slots__ = ()

    @classmethod
    def zero(cls, chart: Chart):
        return cls._of(chart, {})

    def is_zero(self) -> bool:
        return not self.terms

    def _lift(self, x):
        p = _as_poly(self.chart, x)
        return None if p is None else self._from_poly(p)

    def __eq__(self, other):
        if not isinstance(other, type(self)) and (other := self._lift(other)) is None:
            return NotImplemented
        return self.chart == other.chart and self.terms == other.terms

    def __hash__(self):
        return hash((self.chart, tuple(sorted(self.terms.items()))))

    def _check(self, other: "_Value"):
        if self.chart != other.chart:
            raise ChartMismatch("operands live on different charts")

    def __radd__(self, other):
        return self.__add__(other)  # not other + self, which recurses

    def __sub__(self, other):
        return self.__add__(-other)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * other  # a number scales
        return NotImplemented if (other := self._lift(other)) is None else other * self

    def __pow__(self, n: int):
        return _power(self, n, None) if n else self._lift(1)  # the unit only for x^0

    def __repr__(self):
        from .dsl import render  # local import: dsl depends on gralg
        return f"{type(self).__name__}({render(self)})"

    def homogeneous_parts(self) -> list[tuple[int, "_Value"]]:
        """Split into (parity, nonzero part) pairs."""
        return [(par, part) for par in (EVEN, ODD)
                if not (part := self.parity_part(par)).is_zero()]


def _as_poly(chart: Chart, x) -> "GradedPoly | None":
    """x as a polynomial on chart: a GradedPoly as itself, a number as a
    constant, anything else None.  It tests for GradedPoly before (int,
    Fraction): the isinstance test against Fraction dispatches through
    ABCMeta when it fails."""
    if isinstance(x, GradedPoly):
        return x
    return GradedPoly.const(chart, x) if isinstance(x, (int, Fraction)) else None


class GradedPoly(_Value):
    """A supercommutative polynomial with rational coefficients.

    ``terms`` maps a monomial ``Key`` to a nonzero ``Fraction``.  Instances
    are immutable by convention; all operations return new objects.
    """

    __slots__ = ("chart", "terms")

    def __init__(self, chart: Chart, terms: Mapping[Key, Fraction] | None = None):
        """Validates each key (_check_key) and coefficient, and drops zeros."""
        clean = {}
        for key, c in (terms or {}).items():
            _check_key(chart, key)
            if c := _rational(c, "coefficient"):
                clean[key] = c
        self.chart, self.terms = chart, clean

    @staticmethod
    def _of(chart: Chart, terms: dict[Key, Fraction]) -> "GradedPoly":
        """Trusted constructor: adopts a term map the engine built itself,
        whose coefficients are already nonzero Fractions, unchecked."""
        p = object.__new__(GradedPoly)
        p.chart, p.terms = chart, terms
        return p

    @staticmethod
    def _sum(chart: Chart, parts) -> "GradedPoly":
        """The sum of an iterable of polynomials on ``chart``, in one term map."""
        acc: dict[Key, Fraction] = {}
        for p in parts:
            for k, c in p.terms.items():
                acc[k] = acc[k] + c if k in acc else c
        return GradedPoly._of(chart, _nonzero(acc))

    @staticmethod
    def _from_poly(p: "GradedPoly") -> "GradedPoly":
        return p

    # -- constructors ------------------------------------------------------

    @staticmethod
    def const(chart: Chart, c) -> "GradedPoly":
        c = _rational(c, "coefficient")
        return GradedPoly._of(chart, {_unit(chart): c} if c else {})

    @staticmethod
    def one(chart: Chart) -> "GradedPoly":
        return GradedPoly._of(chart, {_unit(chart): _ONE})

    @staticmethod
    def var(chart: Chart, name: str) -> "GradedPoly":
        return GradedPoly._of(chart, {_key(chart, name)[0]: _ONE})

    # -- structure ---------------------------------------------------------

    def parity(self) -> int | None:
        """0 (even), 1 (odd) or None for inhomogeneous.  The zero polynomial
        is reported even by convention."""
        return _parity({len(o) % 2 for (_, o) in self.terms})

    def parity_part(self, p: int) -> "GradedPoly":
        return GradedPoly._of(
            self.chart, {k: c for k, c in self.terms.items() if len(k[1]) % 2 == p}
        )

    def constant_term(self) -> Fraction:
        return self.terms.get(_unit(self.chart), Fraction(0))

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, GradedPoly) and (other := self._lift(other)) is None:
            return NotImplemented  # a DensityElement or DiffOp adds itself
        self._check(other)
        return GradedPoly._sum(self.chart, (self, other))

    def __neg__(self):
        return GradedPoly._of(self.chart, {k: -c for k, c in self.terms.items()})

    def __mul__(self, other):
        if not isinstance(other, GradedPoly):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented  # a DensityElement or DiffOp multiplies itself
            if other == 1:
                return self
            if not other:
                return GradedPoly.zero(self.chart)
            return GradedPoly._of(self.chart, {k: c * other for k, c in self.terms.items()})
        self._check(other)
        terms: dict[Key, Fraction] = {}
        for (e1, o1), c1 in self.terms.items():
            for (e2, o2), c2 in other.terms.items():
                merged = _merge_odd(o1, o2)
                if merged is None:
                    continue
                o, sign = merged
                c = c1 * c2
                if sign < 0:
                    c = -c
                k = (tuple(map(_add, e1, e2)), o)
                terms[k] = terms[k] + c if k in terms else c
        return GradedPoly._of(self.chart, _nonzero(terms))


def _odd_degree_part(p: GradedPoly, j: int) -> GradedPoly:
    """The terms of p with exactly j odd coordinates."""
    return GradedPoly._of(p.chart, {k: c for k, c in p.terms.items() if len(k[1]) == j})


def _embed(p: GradedPoly, chart: Chart) -> GradedPoly:
    """p on a chart whose even and odd blocks begin with those of p's chart:
    the even exponents are padded with zeros, the odd indices stay."""
    pad = (0,) * (len(chart.even) - len(p.chart.even))
    return GradedPoly._of(chart, {(e + pad, o): c for (e, o), c in p.terms.items()})


def _derive(key: Key, p: GradedPoly) -> GradedPoly:
    """d^key p, each monomial in one step: d^key x^m is 0 unless m holds
    key, and otherwise x^{m-key} times the falling factorials a!/(a-n)! of
    its even exponents and (-1)^pos for each odd index i of key, pos the
    number of odd indices of m below i, as the innermost derivative (of the
    largest index) acts first.  The key map is injective on the terms it
    keeps, so no two terms merge and no coefficient becomes 0."""
    e, o = key
    de, terms = any(e), {}
    for (me, m), c in p.terms.items():
        n = prod(map(perm, me, e)) if de else 1
        for i in reversed(o):
            if i not in m:
                n = 0
                break
            pos = m.index(i)
            m, n = m[:pos] + m[pos + 1:], -n if pos & 1 else n
        if n:
            terms[(tuple(map(sub, me, e)) if de else me, m)] = \
                c if n == 1 else -c if n == -1 else c * n
    return GradedPoly._of(p.chart, terms)


def partial(name: str, p: GradedPoly) -> GradedPoly:
    """Left partial derivative by the named variable: a graded derivation
    with partial(a, x^b) = delta_a^b.  Checks p, then calls _partial."""
    return _partial(name, _operand(p, GradedPoly, "the polynomial p"))


def _partial(name: str, p: GradedPoly) -> GradedPoly:
    """partial of a polynomial the engine built, unchecked."""
    return _derive(_key(p.chart, name)[0], p)


def substitute(p: GradedPoly, images: Mapping[str, GradedPoly],
               target: Chart | None = None) -> GradedPoly:
    """Algebra morphism sending each variable to its image.  Variables not
    listed map to themselves, so a substitution onto another chart needs
    an image for every variable.  Images must be polynomials of their
    variable's parity, all on target, which is the first image's chart when
    not given."""
    chart = _operand(p, GradedPoly, "the polynomial p").chart
    for name, im in images.items():
        if name not in chart.names:
            raise DomainError(f"unknown variable {name!r} in the images")
        target = _operand(im, GradedPoly, f"the image of {name}", target).chart
        if im.terms and im.parity() != chart.parity(name):
            raise ParityError(f"image of {name!r} must have parity {chart.parity(name)}")
    target = chart if target is None else target
    if target != chart and (missing := [n for n in chart.names if n not in images]):
        raise DomainError(f"no image of {missing[0]!r} for a substitution onto another chart")
    return _substitute(p, {name: images[name] if name in images else GradedPoly.var(target, name)
                           for name in chart.names}, target)


def _substitute(p: GradedPoly, images: Mapping[str, GradedPoly],
                target: Chart) -> GradedPoly:
    """substitute for trusted images, one on ``target`` for every variable of
    p's chart, each of its parity.  A monomial c x^m starts at its first
    image factor (a constant at 1) and multiplies in the others, each power
    of an image formed once, the first power being the image itself; c
    scales its terms as they are added into the one sum, unless c is the
    shared 1 (``_ONE``), so no product by 1 or by a unit polynomial runs."""
    chart, acc, powers = p.chart, {}, {}
    for (e, o), c in p.terms.items():
        m = None
        for name, n in zip(chart.even, e):
            if n:
                if (f := powers.get((name, n))) is None:
                    f = powers[name, n] = images[name] ** n
                m = f if m is None else m * f
        for i in o:
            f = images[chart.odd[i]]
            m = f if m is None else m * f
        for k, v in (m.terms.items() if m is not None else ((_unit(target), _ONE),)):
            v = v if c is _ONE else v * c
            acc[k] = acc[k] + v if k in acc else v
    return GradedPoly._of(target, _nonzero(acc))


class DensityElement(_Value):
    """A finite sum of weighted densities  psi = sum_w psi_w * t^w  with
    rational weights w and GradedPoly components psi_w; ``terms`` maps each
    weight to its nonzero component."""

    __slots__ = ("chart", "terms")

    def __init__(self, chart: Chart, parts: Mapping[Fraction, GradedPoly] | None = None):
        """Validates each weight and component, and drops zero components."""
        clean: dict[Fraction, GradedPoly] = {}
        for w, p in (parts or {}).items():
            w = _rational(w, "weight")
            if _operand(p, GradedPoly, "a density component", chart).terms:
                clean[w] = p
        self.chart, self.terms = chart, clean

    @staticmethod
    def _of(chart: Chart, terms: dict[Fraction, GradedPoly]) -> "DensityElement":
        """Trusted constructor, as GradedPoly._of: Fraction weights, nonzero parts on chart."""
        psi = object.__new__(DensityElement)
        psi.chart, psi.terms = chart, terms
        return psi

    @staticmethod
    def from_poly(p: GradedPoly, w=0) -> "DensityElement":
        w, p = _rational(w, "weight"), _operand(p, GradedPoly, "a density component")
        return DensityElement._of(p.chart, {w: p} if p.terms else {})

    _from_poly = from_poly

    def component(self, w) -> GradedPoly:
        w = w if type(w) is int else _rational(w, "weight")
        return self.terms.get(w, GradedPoly.zero(self.chart))

    def weights(self) -> list[Fraction]:
        return sorted(self.terms)

    def parity(self) -> int | None:
        return _parity({len(o) % 2 for p in self.terms.values() for (_, o) in p.terms})

    def parity_part(self, p: int) -> "DensityElement":
        return DensityElement._of(self.chart, {
            w: q for w, c in self.terms.items() if (q := c.parity_part(p)).terms})

    def __add__(self, other):
        if not isinstance(other, DensityElement) and (other := self._lift(other)) is None:
            return NotImplemented
        self._check(other)
        terms = dict(self.terms)
        for w, p in other.terms.items():
            terms[w] = terms[w] + p if w in terms else p
        return DensityElement._of(self.chart, {w: p for w, p in terms.items() if p.terms})

    def __neg__(self):
        return DensityElement._of(self.chart, {w: -p for w, p in self.terms.items()})

    def __mul__(self, other):
        if not isinstance(other, (DensityElement, GradedPoly)) and \
                isinstance(other, (int, Fraction)):
            return DensityElement._of(
                self.chart, {w: p * other for w, p in self.terms.items()} if other else {})
        if not isinstance(other, DensityElement) and (other := self._lift(other)) is None:
            return NotImplemented
        terms: dict[Fraction, GradedPoly] = {}
        for u, p in self.terms.items():
            for v, q in other.terms.items():
                w, pq = u + v, p * q
                terms[w] = terms[w] + pq if w in terms else pq
        return DensityElement._of(self.chart, {w: p for w, p in terms.items() if p.terms})
