"""Seeded input generators for the benchmark.

They mirror ``rand_poly``, ``rand_op``, ``rand_vdata`` and
``std_odd_smatrix`` from ``tests/conftest.py`` and ``_nilpotent_map`` from
``tests/test_geom.py``, so the benchmark needs neither pytest, hypothesis
nor the test modules.  Every generator draws from the ``random.Random``
it is given, so one seed gives one set of inputs.
"""

from __future__ import annotations

import random
from fractions import Fraction

from superdelta import Chart, CoordMap, CoordMapError, DiffOp, GradedPoly
from superdelta.diffop import compose
from superdelta.geom import VBracketData
from superdelta.gralg import substitute

R11 = Chart(("x",), ("xi",))
R12 = Chart(("x",), ("xi1", "xi2"))
R22 = Chart(("x", "y"), ("xi1", "xi2"))
R02 = Chart((), ("xi1", "xi2"))
R03 = Chart((), ("xi1", "xi2", "xi3"))


def rand_poly(rng: random.Random, chart: Chart, deg: int = 3,
              parity: int | None = None, nterms: int = 5) -> GradedPoly:
    terms = {}
    for _ in range(nterms):
        e = tuple(rng.randint(0, deg) for _ in chart.even)
        k = rng.randint(0, len(chart.odd))
        o = tuple(sorted(rng.sample(range(len(chart.odd)), k)))
        if sum(e) + len(o) > deg:
            continue
        terms[(e, o)] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    p = GradedPoly(chart, terms)
    if parity is not None:
        p = p.parity_part(parity)
    return p


def rand_op(rng: random.Random, chart: Chart, order: int = 3,
            parity: int | None = None, nterms: int = 5,
            coeff_deg: int = 2) -> DiffOp:
    """A random normal-ordered operator built from coefficient-times-
    derivative words."""
    D = DiffOp.zero(chart)
    for _ in range(nterms):
        M = DiffOp.mult(rand_poly(rng, chart, coeff_deg, nterms=3))
        for _ in range(rng.randint(0, order)):
            M = compose(M, DiffOp.deriv(chart, rng.choice(chart.names)))
        D = D + M
    if parity is not None:
        D = D.parity_part(parity)
    return D


def rand_smatrix(rng: random.Random, chart: Chart, eps: int,
                 deg: int = 2) -> dict:
    S = {}
    names = chart.names
    for i, a in enumerate(names):
        for b in names[i:]:
            if a == b and chart.parity(a) == 1:
                continue  # odd-odd diagonal is forced to vanish
            want = (eps + chart.parity(a) + chart.parity(b)) % 2
            p = rand_poly(rng, chart, deg, want, nterms=3)
            if not p.is_zero():
                S[(a, b)] = p
    return dict(VBracketData(chart, eps, S, {}, GradedPoly.zero(chart)).S)


def rand_vdata(rng: random.Random, chart: Chart, eps: int = 1,
               deg: int = 2) -> VBracketData:
    S = rand_smatrix(rng, chart, eps, deg)
    gamma = {}
    for a in chart.names:
        want = (eps + chart.parity(a)) % 2
        p = rand_poly(rng, chart, deg, want, nterms=3)
        if not p.is_zero():
            gamma[a] = p
    theta = rand_poly(rng, chart, deg, eps, nterms=3)
    return VBracketData(chart, eps, S, gamma, theta)


def std_odd_smatrix(chart: Chart) -> dict:
    """S pairing even coordinate i with odd coordinate i."""
    one = GradedPoly.one(chart)
    S = {}
    for e, o in zip(chart.even, chart.odd):
        S[(e, o)] = one
        S[(o, e)] = one
    return S


def nilpotent_map(rng: random.Random, chart: Chart) -> CoordMap | None:
    """x' = x + (nilpotent), identity body, with the exact inverse found by
    fixed-point iteration; None when the draw is not invertible."""
    fwd = {}
    for a in chart.names:
        corr = rand_poly(rng, chart, 2, parity=chart.parity(a), nterms=2)
        corr = GradedPoly(chart, {k: c for k, c in corr.terms.items() if k[1]})
        fwd[a] = GradedPoly.var(chart, a) + corr
    inv = {a: GradedPoly.var(chart, a) for a in chart.names}
    for _ in range(6):
        inv = {a: GradedPoly.var(chart, a) -
               substitute(fwd[a] - GradedPoly.var(chart, a), inv)
               for a in chart.names}
    try:
        return CoordMap(chart, fwd, inv)
    except CoordMapError:
        return None
