"""Shared charts, random generators, and hypothesis strategies."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import strategies as st

from superdelta import Chart, DiffOp, GradedPoly
from superdelta.diffop import compose
from superdelta.geom import VBracketData

R11 = Chart(("x",), ("xi",))
R12 = Chart(("x",), ("xi1", "xi2"))
R22 = Chart(("x", "y"), ("xi1", "xi2"))
R02 = Chart((), ("xi1", "xi2"))
R03 = Chart((), ("xi1", "xi2", "xi3"))

CHARTS = (R11, R12, R22, R02, R03)


# ---------------------------------------------------------------------------
# seeded random generators (plain random module, reproducible per test)


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
    """S pairing even coordinate i with odd coordinate i (the standard odd
    symplectic-type matrix; requires at least as many odd as even
    coordinates)."""
    one = GradedPoly.one(chart)
    S = {}
    for e, o in zip(chart.even, chart.odd):
        S[(e, o)] = one
        S[(o, e)] = one
    return S


def full_square(D: DiffOp) -> DiffOp:
    """D o D with every term formed, the reference for each square an engine
    path forms: D + 0 equals D but is not D, so compose leaves out no symbol
    square, and a property of the square is not met by leaving terms out."""
    return compose(D, D + 0)


def key_within(key, bound) -> bool:
    """key <= bound, from the definition: every even exponent at most
    bound's and every odd index one of bound's.  Kept apart from gralg."""
    return all(a <= b for a, b in zip(key[0], bound[0])) and set(key[1]) <= set(bound[1])


# ---------------------------------------------------------------------------
# hypothesis strategies


def poly_strategy(chart: Chart, deg: int = 3, parity: int | None = None):
    key = st.tuples(
        st.tuples(*[st.integers(0, 2) for _ in chart.even]),
        st.lists(st.integers(0, len(chart.odd) - 1), unique=True,
                 max_size=len(chart.odd)).map(lambda o: tuple(sorted(o)))
        if chart.odd else st.just(()),
    ).filter(lambda k: sum(k[0]) + len(k[1]) <= deg)
    coef = st.fractions(min_value=-5, max_value=5).filter(lambda c: c != 0)
    s = st.dictionaries(key, coef, max_size=5).map(
        lambda t: GradedPoly(chart, t))
    if parity is not None:
        s = s.map(lambda p: p.parity_part(parity))
    return s


@pytest.fixture
def rng():
    return random.Random(20260823)


@pytest.fixture
def count_calls(monkeypatch):
    """count_calls(owner, name) wraps the function ``owner.name`` (owner a
    module or a class) with a recorder and returns the list of the argument
    tuples of its calls.  Engine modules bind each other's functions by
    name, so the wrapper replaces the function on every attribute of a
    loaded ``superdelta`` module bound to it as well, as the benchmark's
    tracer does; on a class it replaces the method."""
    import sys

    def install(owner, name):
        real = owner.__dict__[name]
        calls = []

        def recording(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        places = [owner] if isinstance(owner, type) else \
            [m for k, m in sys.modules.items() if k.split(".")[0] == "superdelta"]
        for place in places:
            for attr, val in list(vars(place).items()):
                if val is real:
                    monkeypatch.setattr(place, attr, recording)
        return calls

    return install
