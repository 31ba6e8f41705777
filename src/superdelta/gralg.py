"""Exact supercommutative polynomial algebra on charts with even and odd
variables, plus the weight-graded density extension.

Everything is exact: coefficients are ``fractions.Fraction``, weights are
rational, and all equalities used by the theorem suites are literal equality
of canonical forms.  Odd monomials are stored as ascending index tuples in
declaration order with the reordering sign folded into the coefficient.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

EVEN = 0
ODD = 1


class DomainError(ValueError):
    """A violated mathematical precondition of the engine; the message
    names it.  The command line reports exactly these as domain errors."""


class ChartMismatch(DomainError):
    pass


class ParityError(DomainError):
    pass


@dataclass(frozen=True)
class Chart:
    """A coordinate chart with named even (commuting) and odd (anticommuting)
    variables.  Variable order is the declaration order and fixes the
    canonical form of odd monomials."""

    even: tuple[str, ...]
    odd: tuple[str, ...]

    def __post_init__(self):
        names = self.even + self.odd
        if len(set(names)) != len(names):
            raise DomainError("chart variable names must be distinct")
        if not names:
            raise DomainError("chart needs at least one variable")

    @property
    def names(self) -> tuple[str, ...]:
        return self.even + self.odd

    def parity(self, name: str) -> int:
        if name in self.even:
            return EVEN
        if name in self.odd:
            return ODD
        raise KeyError(f"unknown variable {name!r}")

    def even_index(self, name: str) -> int:
        return self.even.index(name)

    def odd_index(self, name: str) -> int:
        return self.odd.index(name)


# A monomial key: exponents of the even variables, ascending tuple of odd
# variable indices.
Key = tuple[tuple[int, ...], tuple[int, ...]]


def _merge_odd(o1: tuple[int, ...], o2: tuple[int, ...]):
    """Concatenate two canonical odd index tuples; return (sorted tuple, sign)
    or None if a square of an odd generator appears."""
    if set(o1) & set(o2):
        return None
    inversions = 0
    for i in o1:
        for j in o2:
            if j < i:
                inversions += 1
    merged = tuple(sorted(o1 + o2))
    return merged, (-1) ** inversions


def _power(x, n: int, one):
    """x^n by repeated squaring, for any associative product ``*`` with
    unit ``one``; about 2 log2(n) products instead of n."""
    if n < 0:
        raise ValueError("negative power")
    out = one
    while n:
        if n & 1:
            out = out * x
        n >>= 1
        if n:
            x = x * x
    return out


class GradedPoly:
    """A supercommutative polynomial with rational coefficients.

    ``terms`` maps a monomial ``Key`` to a nonzero ``Fraction``.  Instances
    are immutable by convention; all operations return new objects.
    """

    __slots__ = ("chart", "terms", "_hash")

    def __init__(self, chart: Chart, terms: Mapping[Key, Fraction] | None = None):
        object.__setattr__(self, "chart", chart)
        clean = {}
        for key, c in (terms or {}).items():
            c = Fraction(c)
            if c != 0:
                clean[key] = c
        object.__setattr__(self, "terms", clean)
        object.__setattr__(self, "_hash", None)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(chart: Chart) -> "GradedPoly":
        return GradedPoly(chart, {})

    @staticmethod
    def const(chart: Chart, c) -> "GradedPoly":
        e = (0,) * len(chart.even)
        return GradedPoly(chart, {(e, ()): Fraction(c)})

    @staticmethod
    def one(chart: Chart) -> "GradedPoly":
        return GradedPoly.const(chart, 1)

    @staticmethod
    def var(chart: Chart, name: str) -> "GradedPoly":
        e = [0] * len(chart.even)
        if chart.parity(name) == EVEN:
            e[chart.even_index(name)] = 1
            return GradedPoly(chart, {(tuple(e), ()): Fraction(1)})
        return GradedPoly(chart, {(tuple(e), (chart.odd_index(name),)): Fraction(1)})

    # -- structure ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def parity(self) -> int | None:
        """0 (even), 1 (odd) or None for inhomogeneous.  The zero polynomial
        is reported even by convention."""
        ps = {len(o) % 2 for (_, o) in self.terms}
        if not ps:
            return EVEN
        if len(ps) == 1:
            return ps.pop()
        return None

    def parity_part(self, p: int) -> "GradedPoly":
        return GradedPoly(
            self.chart, {k: c for k, c in self.terms.items() if len(k[1]) % 2 == p}
        )

    def homogeneous_parts(self) -> list[tuple[int, "GradedPoly"]]:
        """Split into (parity, nonzero part) pairs."""
        out = []
        for p in (EVEN, ODD):
            part = self.parity_part(p)
            if not part.is_zero():
                out.append((p, part))
        return out

    def constant_term(self) -> Fraction:
        e = (0,) * len(self.chart.even)
        return self.terms.get((e, ()), Fraction(0))

    # -- arithmetic --------------------------------------------------------

    def _check(self, other: "GradedPoly"):
        if self.chart != other.chart:
            raise ChartMismatch("operands live on different charts")

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = GradedPoly.const(self.chart, other)
        if not isinstance(other, GradedPoly):
            return NotImplemented  # a DensityElement or DiffOp adds itself
        self._check(other)
        terms = dict(self.terms)
        for k, c in other.terms.items():
            terms[k] = terms.get(k, Fraction(0)) + c
        return GradedPoly(self.chart, terms)

    __radd__ = __add__

    def __neg__(self):
        return GradedPoly(self.chart, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return GradedPoly(
                self.chart, {k: c * Fraction(other) for k, c in self.terms.items()}
            )
        if not isinstance(other, GradedPoly):
            return NotImplemented  # a DensityElement or DiffOp multiplies itself
        self._check(other)
        terms: dict[Key, Fraction] = {}
        for (e1, o1), c1 in self.terms.items():
            for (e2, o2), c2 in other.terms.items():
                merged = _merge_odd(o1, o2)
                if merged is None:
                    continue
                o, sign = merged
                e = tuple(a + b for a, b in zip(e1, e2))
                k = (e, o)
                terms[k] = terms.get(k, Fraction(0)) + sign * c1 * c2
        return GradedPoly(self.chart, terms)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * other
        return NotImplemented

    def __pow__(self, n: int):
        return _power(self, n, GradedPoly.one(self.chart))

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = GradedPoly.const(self.chart, other)
        if not isinstance(other, GradedPoly):
            return NotImplemented
        return self.chart == other.chart and self.terms == other.terms

    def __hash__(self):
        if self._hash is None:
            h = hash((self.chart, tuple(sorted(self.terms.items()))))
            object.__setattr__(self, "_hash", h)
        return self._hash

    def __repr__(self):
        from .dsl import render  # local import: dsl depends on gralg
        return f"GradedPoly({render(self)})"


def partial(name: str, p: GradedPoly) -> GradedPoly:
    """Left partial derivative by the named variable: a graded derivation
    with partial(a, x^b) = delta_a^b."""
    chart = p.chart
    pa = chart.parity(name)
    terms: dict[Key, Fraction] = {}
    if pa == EVEN:
        i = chart.even_index(name)
        for (e, o), c in p.terms.items():
            if e[i] == 0:
                continue
            e2 = list(e)
            e2[i] -= 1
            k = (tuple(e2), o)
            terms[k] = terms.get(k, Fraction(0)) + c * e[i]
    else:
        i = chart.odd_index(name)
        for (e, o), c in p.terms.items():
            if i not in o:
                continue
            pos = o.index(i)
            o2 = o[:pos] + o[pos + 1 :]
            k = (e, o2)
            terms[k] = terms.get(k, Fraction(0)) + c * (-1) ** pos
    return GradedPoly(chart, terms)


def substitute(p: GradedPoly, images: Mapping[str, GradedPoly],
               target: Chart | None = None) -> GradedPoly:
    """Algebra morphism sending each variable to its image.  Variables not
    listed map to themselves (same-chart substitutions only in that case).
    Images must preserve parity."""
    charts = {im.chart for im in images.values()}
    if target is None:
        target = charts.pop() if charts else p.chart
    full: dict[str, GradedPoly] = {}
    for name in p.chart.names:
        if name in images:
            im = images[name]
            if im.chart != target:
                raise ChartMismatch("substitution images on mixed charts")
            imp = im.parity()
            if imp is not None and im.is_zero():
                imp = p.chart.parity(name)
            if imp != p.chart.parity(name):
                raise ParityError(
                    f"image of {name!r} must have parity {p.chart.parity(name)}"
                )
            full[name] = im
        else:
            full[name] = GradedPoly.var(target, name)
    out = GradedPoly.zero(target)
    for (e, o), c in p.terms.items():
        m = GradedPoly.const(target, c)
        for i, exp in enumerate(e):
            if exp:
                m = m * full[p.chart.even[i]] ** exp
        for i in o:
            m = m * full[p.chart.odd[i]]
        out = out + m
    return out


class DensityElement:
    """A finite sum of weighted densities  psi = sum_w psi_w * t^w  with
    rational weights w and GradedPoly components psi_w."""

    __slots__ = ("chart", "parts")

    def __init__(self, chart: Chart, parts: Mapping[Fraction, GradedPoly] | None = None):
        self.chart = chart
        clean: dict[Fraction, GradedPoly] = {}
        for w, p in (parts or {}).items():
            if p.chart != chart:
                raise ChartMismatch("component on wrong chart")
            if not p.is_zero():
                clean[Fraction(w)] = p
        self.parts = clean

    @staticmethod
    def zero(chart: Chart) -> "DensityElement":
        return DensityElement(chart, {})

    @staticmethod
    def from_poly(p: GradedPoly, w=0) -> "DensityElement":
        return DensityElement(p.chart, {Fraction(w): p})

    def component(self, w) -> GradedPoly:
        return self.parts.get(Fraction(w), GradedPoly.zero(self.chart))

    def weights(self) -> list[Fraction]:
        return sorted(self.parts)

    def is_zero(self) -> bool:
        return not self.parts

    def parity(self) -> int | None:
        ps = {p.parity() for p in self.parts.values()}
        if not ps:
            return EVEN
        if len(ps) == 1:
            return ps.pop()
        return None

    def parity_part(self, p: int) -> "DensityElement":
        return DensityElement(
            self.chart, {w: c.parity_part(p) for w, c in self.parts.items()}
        )

    def _coerce(self, other):
        if isinstance(other, (int, Fraction)):
            other = GradedPoly.const(self.chart, other)
        if isinstance(other, GradedPoly):
            other = DensityElement.from_poly(other)
        return other

    def __add__(self, other):
        other = self._coerce(other)
        parts = dict(self.parts)
        for w, p in other.parts.items():
            parts[w] = parts.get(w, GradedPoly.zero(self.chart)) + p
        return DensityElement(self.chart, parts)

    __radd__ = __add__

    def __neg__(self):
        return DensityElement(self.chart, {w: -p for w, p in self.parts.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return DensityElement(
                self.chart, {w: p * other for w, p in self.parts.items()}
            )
        other = self._coerce(other)
        parts: dict[Fraction, GradedPoly] = {}
        for u, p in self.parts.items():
            for v, q in other.parts.items():
                w = u + v
                parts[w] = parts.get(w, GradedPoly.zero(self.chart)) + p * q
        return DensityElement(self.chart, parts)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, GradedPoly)):
            return self._coerce(other) * self
        return NotImplemented

    def __pow__(self, n: int):
        return _power(self, n, DensityElement.from_poly(GradedPoly.one(self.chart)))

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, GradedPoly)):
            other = self._coerce(other)
        if not isinstance(other, DensityElement):
            return NotImplemented
        return self.chart == other.chart and self.parts == other.parts

    def __hash__(self):
        return hash((self.chart, tuple(sorted(self.parts.items()))))

    def __repr__(self):
        from .dsl import render
        return f"DensityElement({render(self)})"


def residue_pair(psi: DensityElement, chi: DensityElement) -> GradedPoly:
    """The weight-1 component of psi*chi: the integrand of the invariant
    scalar product on the algebra of densities."""
    if psi.chart != chi.chart:
        raise ChartMismatch("pairing across charts")
    return (psi * chi).component(1)


def berezin_integral(p: GradedPoly) -> Fraction:
    """Integral over a purely odd chart: the coefficient of the top odd
    monomial in canonical order."""
    chart = p.chart
    if chart.even:
        raise DomainError("Berezin integral requires a purely odd chart")
    top = tuple(range(len(chart.odd)))
    return p.terms.get(((), top), Fraction(0))
