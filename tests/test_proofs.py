"""Proofs by polarization: identities the engine applies without checking
them, proved on a finite-dimensional space of inputs, not sampled.

A quadratic map q: V -> W vanishes on all of V as soon as q(e_i) = 0 and
q(e_i + e_j) = 0 for every pair of basis elements: with B the symmetric
bilinear form of q, q(e_i + e_j) = q(e_i) + q(e_j) + 2 B(e_i, e_j), so B
vanishes on every pair of basis elements, hence everywhere, and
q(v) = B(v, v).  The check on the basis is exact, so it proves q = 0 on V.

Jacobi obstruction symbols.  V_d is the space of odd bracket data
(S, gamma, theta) on a chart whose coefficients have degree <= d, and
q(data) = jacobi_report(data) - tstar_slots(data), the slots the engine
reads off the square of the pencil's principal part T less the brackets
of the symbols by their definition (oracle.tstar_bracket).  Both terms are
quadratic in the data: T is linear in it and compose is bilinear, with the
free terms of an odd square, sigma(T)^2 = 0, left out; each bracket takes
two symbols linear in the data.  The basis of V_d puts one monomial of the
right parity at one entry: S^{ab} for a before b or a = b even (S^{ba}
then follows by the forced symmetry, and S^{aa} vanishes for odd a),
gamma^a, or theta.
"""

import itertools

from superdelta import GradedPoly
from superdelta.geom import VBracketData, jacobi_report

from conftest import R02, R03, R11, R12, R22, tstar_slots

# each chart with the largest coefficient degree d proved on it
DEGREES = ((R11, 2), (R12, 1), (R22, 1), (R02, 2), (R03, 1))


def _monomials(chart, d):
    """(parity, x^m) for every monomial of degree <= d, as products of
    variables, kept apart from the engine's key helpers."""
    var = {v: GradedPoly.var(chart, v) for v in chart.names}
    out = []
    for e in itertools.product(range(d + 1), repeat=len(chart.even)):
        for k in range(len(chart.odd) + 1):
            for odd in itertools.combinations(chart.odd, k):
                if sum(e) + k <= d:
                    m = GradedPoly.one(chart)
                    for v in [v for v, n in zip(chart.even, e) for _ in range(n)] + list(odd):
                        m = m * var[v]
                    out.append((k % 2, m))
    return out


def _basis(chart, d):
    """A basis of V_d, each element as (S, gamma, theta) entries."""
    monos, names, out = _monomials(chart, d), chart.names, []
    for i, a in enumerate(names):
        for b in names[i:]:
            if a == b and chart.parity(a):
                continue
            want = (1 + chart.parity(a) + chart.parity(b)) % 2
            out += [({(a, b): m}, {}, None) for p, m in monos if p == want]
    for a in names:
        out += [({}, {a: m}, None) for p, m in monos if p == (1 + chart.parity(a)) % 2]
    return out + [({}, {}, m) for p, m in monos if p == 1]


def _data(chart, *elements):
    """The odd bracket data that is the sum of the given basis elements."""
    S, gamma, theta = {}, {}, GradedPoly.zero(chart)
    for s, g, t in elements:
        for k, m in s.items():
            S[k] = S[k] + m if k in S else m
        for k, m in g.items():
            gamma[k] = gamma[k] + m if k in gamma else m
        theta = theta if t is None else theta + t
    return VBracketData(chart, 1, S, gamma, theta)


def test_jacobi_report_is_the_bracket_of_the_symbols():
    """q vanishes on V_d for each chart and degree of DEGREES, so
    jacobi_report equals the definition on all odd data of coefficient
    degree <= d there.  Pairs whose report is nonzero show that the check
    is not vacuous."""
    for chart, d in DEGREES:
        basis = _basis(chart, d)
        assert len(basis) >= 8
        nonzero = 0
        for elements in [(e,) for e in basis] + list(itertools.combinations(basis, 2)):
            data = _data(chart, *elements)
            report = list(jacobi_report(data))
            assert report == tstar_slots(data), (chart, elements)  # q(data) = 0
            nonzero += any(not s.is_zero() for s in report)
        assert nonzero
