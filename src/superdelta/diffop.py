"""Normal-ordered graded differential operators with polynomial coefficients.

An operator is a finite sum  c(x, W) * d^I  where I is a derivative
multi-index (even powers, ascending odd index tuple), c is a polynomial in
the chart variables and a central formal weight symbol W.  W acts on a
weight-w density component as multiplication by w; a DiffOp whose
coefficients genuinely involve W is a weight pencil.

The derivative monomial d^I denotes the composition
    d_even^e  o  d_odd(i1) o ... o d_odd(ik)      (i1 < ... < ik),
applied innermost-first, all derivatives being LEFT derivatives.

Products are normal-ordered in one pass by the graded multi-index Leibniz
rule
    d^I o c = sum_{K <= I} +-binom(I, K) (d^K c) d^{I-K},
taken one monomial x^m of c at a time (_leibniz): d^K x^m is an integer,
falling factorials of the even exponents times a sign, times x^{m-K}.  An
odd derivative that passes x^m instead of hitting it contributes the
Koszul sign (-1)^{|m|}; even derivatives contribute no sign.  The terms
are summed per output key before a left coefficient multiplies them.  The
commutator [D, a.] with a multiplication operator is the same sum without
its K = 0 term (ad_mult).
The K = 0 terms of D o D sum to sigma(D)^2 for the total symbol
sigma(c d^I) = c p^I in the supercommutative symbol algebra; for odd D it
is the square of an odd element, 0, and compose leaves them out of D o D.

_leibniz keeps one table per process, functools.lru_cache bounded at 1,024
expansions (about 0.7 MB full).  It holds keys and ints, never a value, so
none outlives its op, and its results are tuples, as every caller shares them.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from math import comb, perm
from typing import Callable, Mapping

from .gralg import (
    EVEN,
    Chart,
    DensityElement,
    GradedPoly,
    Key,
    ParityError,
    _ONE,
    _Value,
    _check_key,
    _deg,
    _derive,
    _key,
    _keys_upto,
    _mul_keys,
    _nonzero,
    _operand,
    _parity,
    _power,
    _rational,
    _unit,
    _within,
)

# coefficient of one derivative key: map  W-power -> GradedPoly
WPoly = dict[int, GradedPoly]

_UNWALKED = object()  # a DiffOp's parity before its first walk


def _at_weight(chart: Chart, wp: Mapping[int, GradedPoly], w: Fraction) -> GradedPoly:
    """The coefficient sum_k c_k w^k of one derivative key at W = w; w^k is a
    plain product, as Fraction.__pow__ dispatches through ABCMeta."""
    return GradedPoly._sum(chart, (c * _power(w, k, Fraction(1)) if k else c
                                   for k, c in wp.items()))


def _pruned(terms: Mapping[Key, Mapping[int, GradedPoly]]) -> dict[Key, WPoly]:
    """terms without its zero coefficients and the keys they leave empty."""
    return {key: kept for key, wp in terms.items()
            if (kept := {k: p for k, p in wp.items() if p.terms})}


class DiffOp(_Value):
    """Normal-ordered graded differential operator.  Immutable by
    convention; keeps its parity after the first walk."""

    __slots__ = ("chart", "terms", "_par")

    def __init__(self, chart: Chart, terms: Mapping[Key, Mapping[int, GradedPoly]] | None = None):
        """Validates each key (_check_key), W-power (a non-negative int,
        tested by type, so a bool is refused) and coefficient (a GradedPoly
        on chart), then drops zeros as the arithmetic does (_pruned)."""
        for key, wp in (terms or {}).items():
            _check_key(chart, key)
            for k, p in wp.items():
                if type(k) is not int:
                    raise TypeError(f"a W-power must be an int, not {type(k).__name__}")
                if k < 0:
                    raise ValueError(f"a W-power must be non-negative, not {k}")
                _operand(p, GradedPoly, "an operator coefficient", chart)
        self.chart, self.terms, self._par = chart, _pruned(terms or {}), _UNWALKED

    @staticmethod
    def _of(chart: Chart, terms: dict[Key, WPoly]) -> "DiffOp":
        """Trusted constructor, as GradedPoly._of: no zero or empty entries (_pruned)."""
        D = object.__new__(DiffOp)
        D.chart, D.terms, D._par = chart, terms, _UNWALKED
        return D

    # -- constructors ------------------------------------------------------

    @staticmethod
    def mult(p: GradedPoly) -> "DiffOp":
        """Left multiplication operator by p."""
        p = _operand(p, GradedPoly, "an operator coefficient")
        return DiffOp._of(p.chart, _pruned({_unit(p.chart): {0: p}}))

    _from_poly = mult

    @staticmethod
    def const(chart: Chart, c) -> "DiffOp":
        return DiffOp.mult(GradedPoly.const(chart, c))

    @staticmethod
    def identity(chart: Chart) -> "DiffOp":
        return DiffOp.const(chart, 1)

    @staticmethod
    def deriv(chart: Chart, name: str) -> "DiffOp":
        return DiffOp._of(chart, {_key(chart, name)[0]: {0: GradedPoly.one(chart)}})

    @staticmethod
    def weight(chart: Chart) -> "DiffOp":
        """The central weight symbol W (the Euler operator t d/dt)."""
        return DiffOp._of(chart, {_unit(chart): {1: GradedPoly.one(chart)}})

    # -- structure ---------------------------------------------------------

    def uses_weight(self) -> bool:
        return any(k != 0 for wp in self.terms.values() for k in wp)

    def order(self) -> int | None:
        """Max total derivative degree; None marks the zero operator (order
        minus infinity), so "order <= r" is order_leq."""
        if not self.terms:
            return None
        return max(map(_deg, self.terms))

    def order_leq(self, r: int) -> bool:
        return all(_deg(k) <= r for k in self.terms)

    def parity(self) -> int | None:
        """The parity c d^I shares for every monomial c of every coefficient
        (_parity); the zero operator is even.  Walked once, then kept."""
        if self._par is _UNWALKED:
            self._par = _parity({(len(m) + len(o)) % 2 for (_, o), wp in self.terms.items()
                                 for p in wp.values() for (_, m) in p.terms})
        return self._par

    def parity_part(self, par: int) -> "DiffOp":
        return DiffOp._of(self.chart, _pruned({
            (e, o): {k: p.parity_part((par + len(o)) % 2) for k, p in wp.items()}
            for (e, o), wp in self.terms.items()}))

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, DiffOp) and (other := self._lift(other)) is None:
            return NotImplemented
        self._check(other)
        terms = {k: dict(wp) for k, wp in self.terms.items()}
        for k, wp in other.terms.items():
            acc = terms.setdefault(k, {})
            for j, p in wp.items():
                acc[j] = acc[j] + p if j in acc else p
        return DiffOp._of(self.chart, _pruned(terms))

    def __neg__(self):
        return DiffOp._of(
            self.chart, {k: {j: -p for j, p in wp.items()} for k, wp in self.terms.items()})

    def __mul__(self, other):
        """Operator composition (scalars act as constants)."""
        if not isinstance(other, (DiffOp, GradedPoly)) and \
                isinstance(other, (int, Fraction)):
            return DiffOp._of(self.chart, _pruned(
                {k: {j: p * other for j, p in wp.items()} for k, wp in self.terms.items()}))
        if not isinstance(other, DiffOp) and (other := self._lift(other)) is None:
            return NotImplemented
        return compose(self, other)

    def __hash__(self):
        """As _Value's, with each coefficient's W-powers sorted too."""
        items = tuple(
            (k, tuple(sorted(wp.items()))) for k, wp in sorted(self.terms.items())
        )
        return hash((self.chart, items))

    # -- action ------------------------------------------------------------

    def apply(self, psi):
        """Apply to a DensityElement, or to a GradedPoly at weight 0."""
        _operand(psi, (GradedPoly, DensityElement), "the operand psi", self.chart)
        poly, out = isinstance(psi, GradedPoly), {}
        for w, comp in ({0: psi} if poly else psi.terms).items():
            # sum c d^key(comp); at w = 0 c is wp[0], nonzero if present
            out[w] = GradedPoly._sum(self.chart, [
                c * d for key, wp in self.terms.items() if (d := _derive(key, comp)).terms
                and (c := _at_weight(self.chart, wp, w) if w else wp.get(0)) and c.terms])
        return out[0] if poly else \
            DensityElement._of(self.chart, {w: p for w, p in out.items() if p.terms})

    def apply_poly(self, p: GradedPoly) -> GradedPoly:
        """An alias of apply for a weight-0 polynomial.  The engine and the
        tests call apply; the alias stays only for the benchmark workloads,
        and goes with the next revision of the benchmark."""
        return self.apply(p)


def _on_one(D: DiffOp) -> GradedPoly:
    """D 1 at weight 0, read off the terms: the W^0 coefficient at the zero key."""
    return D.terms.get(_unit(D.chart), {}).get(0, GradedPoly.zero(D.chart))


@functools.lru_cache(maxsize=1024)
def _leibniz(key: Key, mono: Key, hits=None, free=True, cap=None) -> tuple:
    """d^key o (x^mono .) = sum n x^m d^rest, normal-ordered by the graded
    Leibniz rule, as (rest, m, n) triples with integer n.  Innermost first,
    each odd derivative d_i either hits the monomial, at (-1)^pos for the
    position pos of i among its odd indices, or passes it at the Koszul
    sign (-1)^{|m|}, |m| the number of odd indices it has left.  Every index
    already passed is larger than i, so prepending i keeps the odd index
    tuple ascending.  The even derivatives then expand without signs: k of
    the n derivatives d_x hit x^a at binom(n, k) a!/(a-k)!.  The triple
    (key, mono, n) is the term where no derivative hits; free=False leaves
    it out.  With ``hits`` given, a branch that has hit that often only
    passes on.  With a ``cap`` key, only rests within it are formed: an odd
    d_i passes only if i is in it, and n - cap_x of the n d_x hit at least."""
    e, o = key
    me, mo = mono
    h0 = _deg(key) if hits is None else hits
    # (odd indices passed, the monomial's odd indices left, factor, hits left)
    terms = [((), mo, 1, h0)]
    for i in reversed(o):
        nxt = []
        for rest, m, n, h in terms:
            if h and i in m:
                pos = m.index(i)
                nxt.append((rest, m[:pos] + m[pos + 1:], -n if pos & 1 else n, h - 1))
            if cap is None or i in cap[1]:
                nxt.append(((i,) + rest, m, -n if len(m) & 1 else n, h))
        terms = nxt
    if not any(e) or cap is None and not any(me):  # no even derivative hits
        return tuple((key, mono, n) if h == h0 else ((e, rest), (me, m), n)
                     for rest, m, n, h in terms if free or h != h0)
    # and the even exponents left, the monomial's
    terms = [(e, me, rest, m, n, h) for rest, m, n, h in terms]
    for j, n in enumerate(e):
        lo, a = 0 if cap is None else max(n - cap[0][j], 0), me[j]
        if lo or n and a:
            terms = [(er[:j] + (n - k,) + er[j + 1:] if k else er,
                      em[:j] + (a - k,) + em[j + 1:] if k else em, rest, m,
                      c * comb(n, k) * perm(a, k), h - k)
                     for er, em, rest, m, c, h in terms for k in range(lo, min(n, a, h) + 1)]
    return tuple((key, mono, c) if h == h0 else ((er, rest), (em, m), c)
                 for er, em, rest, m, c, h in terms if free or h != h0)


# accumulated coefficient sums: key -> W-power -> monomial -> rational
_Sums = dict[Key, dict[int, dict[Key, Fraction]]]


def _add_into(sums: _Sums, key: Key, w: int, p: GradedPoly, factor: int = 1):
    acc = sums.setdefault(key, {}).setdefault(w, {})
    for m, c in p.terms.items():
        if factor != 1:
            c = c * factor
        acc[m] = acc[m] + c if m in acc else c


def _from_sums(chart: Chart, sums: _Sums) -> DiffOp:
    terms = {}
    for key, wp in sums.items():
        if wp := {w: GradedPoly._of(chart, nz) for w, t in wp.items() if (nz := _nonzero(t))}:
            terms[key] = wp
    return DiffOp._of(chart, terms)


def _add_leibniz(sums: _Sums, chart: Chart, I: Key, right, left: WPoly | None = None,
                 free=True, caps: dict[Key, Key] | None = None):
    """Add  left d^I o R  to sums (left None stands for 1), R the sum of
    W^w f d^J over the (J, {w: f}, hits) of ``right``.  Each monomial of f
    gives (rest, m, n) triples (_leibniz, at most ``hits`` hits, one at least
    unless ``free``, rest within caps[J] if given); d^rest d^J is one key by
    _mul_keys, or 0 if their odd indices overlap.  The terms are summed per
    key and W-power before one product with each coefficient of left."""
    acc_sums = sums if left is None else {}
    for J, wp, hits in right:
        cap = None if caps is None else caps[J]
        for w, f in wp.items():
            accs: dict = {}  # rest -> (term map of d^rest d^J at W^w, sign), or None
            for m0, c0 in f.terms.items():
                for rest, m, n in _leibniz(I, m0, hits, free, cap):
                    if (a := accs.get(rest, False)) is False:
                        k = _mul_keys(rest, J)
                        a = accs[rest] = k and (acc_sums.setdefault(k[0], {}).setdefault(w, {}),
                                                k[1])
                    if not a:
                        continue
                    acc, n = a[0], n * a[1]
                    c = c0 if n == 1 else -c0 if n == -1 else c0 * n
                    acc[m] = acc[m] + c if m in acc else c
    if left is None:
        return
    for key, wt in _from_sums(chart, acc_sums).terms.items():
        for w, g in wt.items():
            for wc, c in left.items():
                _add_into(sums, key, wc + w, c * g)


def compose(D: DiffOp, E: DiffOp, *, floor: int = 0, bound: Key | None = None) -> DiffOp:
    """Normal-ordered composition: apply(compose(D, E), psi) =
    apply(D, apply(E, psi)), summing  c d^I o (f d^J)  by _add_leibniz, all
    of E at once for each term of D.  Only the terms of order >= floor are
    formed: a term where h derivatives hit f has order |I| + |J| - h, so
    each pair is expanded with at most |I| + |J| - floor hits.  With a
    ``bound`` key, only the terms with key _within it are formed: a term of
    c d^I o f d^J has key rest + J, rest <= I, so E's terms with J outside
    the bound are dropped and rest is capped at bound - J.
    When E is D and D is odd, the terms no derivative hits sum to
    sigma(D)^2 = 0 (module docstring) key by key and are left out, also
    under a bound, within which a free term d^{I+J} has both I and J.  The
    test is identity, not equality: the result is the same either way."""
    chart = _operand(D, DiffOp, "the operator D").chart
    _operand(E, DiffOp, "the operator E", chart)
    odd = E is D and D.parity() == 1
    sums: _Sums = {}
    caps = None if bound is None else {J: (tuple(b - j for b, j in zip(bound[0], J[0])), tuple(
        i for i in bound[1] if i not in J[1])) for J in E.terms if _within(J, bound)}
    right = [(J, wpE, _deg(J) - floor) for J, wpE in E.terms.items()
             if caps is None or J in caps]
    for I, wpD in D.terms.items():
        d = _deg(I)
        _add_leibniz(sums, chart, I, [(J, wpE, h + d) for J, wpE, h in right
                                      if h + d >= odd], wpD, not odd, caps)
    return _from_sums(chart, sums)


def commutator(D: DiffOp, E: DiffOp) -> DiffOp:
    """Graded commutator [D,E] = DE - (-1)^{parity D * parity E} ED,
    extended bilinearly to inhomogeneous operators."""
    _operand(E, DiffOp, "the operator E", _operand(D, DiffOp, "the operator D").chart)
    out = DiffOp.zero(D.chart)
    for pd, Dp in D.homogeneous_parts():
        for pe, Ep in E.homogeneous_parts():
            out = out + compose(Dp, Ep) - (-1) ** (pd * pe) * compose(Ep, Dp)
    return out


def ad_mult(D: DiffOp, a: GradedPoly) -> DiffOp:
    """The graded commutator [D, a.] with a multiplication operator, without
    composing: commutator(D, DiffOp.mult(a)).

    By the Leibniz rule, c d^I o a = sum c g d^rest, and its term where no
    derivative hits a is (-1)^{|a| |I_odd|} c a d^I.  For homogeneous c and
    a this equals (-1)^{|D| |a|} a c d^I, the matching term of a o D, since
    |D| = |c| + |I_odd| for that term.  So that term cancels exactly and
    [D, a.] is the sum of the others.  Linear in a, so an inhomogeneous a
    is split by linearity, as in commutator."""
    _operand(a, GradedPoly, "the polynomial a", _operand(D, DiffOp, "the operator D").chart)
    chart, sums, right = D.chart, {}, [(_unit(D.chart), {0: a}, None)]
    for I, wp in D.terms.items():
        _add_leibniz(sums, chart, I, right, wp, free=False)
    return _from_sums(chart, sums)


def conjugate_by_exp(D: DiffOp, u: GradedPoly) -> DiffOp:
    """Exact conjugation  e^{-u} o D o e^{u}  by an even polynomial u, as the
    terminating series  sum_k (1/k!) [...[D, u.], ..., u.]  (k commutators).

    Bound: ad_mult drops every term whose derivatives all pass u, so each
    commutator lowers the order by at least one, and the k-th term has
    order <= ord D - k.  The term k = ord D + 1 is therefore 0, and at
    most ord D commutators are taken."""
    chart = _operand(D, DiffOp, "the operator D").chart
    if _operand(u, GradedPoly, "the polynomial u", chart).parity() != EVEN:
        raise ParityError("conjugation exponent must be even")
    out = term = D
    for k in range(1, (D.order() or 0) + 1):
        term = ad_mult(term, u) * Fraction(1, k)
        if term.is_zero():
            break
        out = out + term
    return out


def specialize(P: DiffOp, w0) -> DiffOp:
    """Substitute W := w0 in all coefficients."""
    chart, w0 = _operand(P, DiffOp, "the pencil P").chart, _rational(w0, "weight")
    return DiffOp._of(chart, _pruned(
        {key: {0: _at_weight(chart, wp, w0)} for key, wp in P.terms.items()}))


def formal_adjoint(D: DiffOp) -> DiffOp:
    """Formal adjoint, defined by structural recursion with the frozen sign
    table:

        (f.)* = f.          (d_a)* = -d_a          W* = 1 - W
        (DE)* = (-1)^{parity D * parity E} E* D*

    certified by the Berezin-integral pairing oracle on purely odd charts
    and by the canonical-pencil self-adjointness suite."""
    chart = _operand(D, DiffOp, "the operator D").chart
    sums: _Sums = {}
    for key, wp in D.terms.items():
        ko, nder = len(key[1]), _deg(key)
        for w, c in wp.items():
            # (1-W)^w = sum_j (-1)^j binom(w, j) W^j
            ws = [(j, (-1) ** (nder + j) * comb(w, j)) for j in range(w + 1)]
            for m0, c0 in c.terms.items():
                # (c W^w d^I)* = (1-W)^w d(o_k) o ... o d(o_1) o d_even^e
                # o c, signed by (-1)^nder and, for a monomial c of parity cp,
                # by the reversal of [c, d, ..., d], whose odd-odd swaps give
                # (-1)^{cp ko + ko(ko-1)/2}; reversing the odd derivatives back
                # to d^I gives (-1)^{ko(ko-1)/2} again, which cancels.
                s = -1 if len(m0[1]) * ko & 1 else 1
                for rest, m, n in _leibniz(key, m0):
                    for j, b in ws:
                        acc, v = sums.setdefault(rest, {}).setdefault(j, {}), c0 * (s * n * b)
                        acc[m] = acc[m] + v if m in acc else v
    return _from_sums(chart, sums)


def op_from_action(chart: Chart, action: Callable[[GradedPoly], GradedPoly],
                   order: int) -> DiffOp:
    """Reconstruct the unique normal-ordered operator of order <= order whose
    action on polynomials is the given (linear) map.  Works degree by degree:
    the coefficient at multi-index I is fixed by the action on the monomial
    x^I once all lower coefficients are known."""
    result = DiffOp.zero(_operand(chart, Chart, "the chart"))
    for key in _keys_upto(chart, order):
        m = GradedPoly._of(chart, {key: _ONE})
        val = action(m) - result.apply(m)
        if val.is_zero():
            continue
        # d^key applied to its own monomial is +-prod e_i!, never 0
        c = _operand(val, GradedPoly, "an operator coefficient") \
            * (_ONE / _derive(key, m).constant_term())
        result = result + DiffOp._of(chart, {key: {0: c}})
    return result
