"""Shared charts, random generators, and hypothesis strategies.

The five charts and the seeded generators (``rand_poly``, ``rand_op``,
``rand_smatrix``, ``rand_vdata``, ``std_odd_smatrix``) are the benchmark's
own, imported from ``bench/gen.py``: one copy of each draw.
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

import pytest
from hypothesis import strategies as st

from superdelta import Chart, DiffOp, GradedPoly
from superdelta.diffop import compose

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

from gen import (  # noqa: E402
    R02, R03, R11, R12, R22, rand_op, rand_poly, rand_smatrix, rand_vdata, std_odd_smatrix,
)

CHARTS = (R11, R12, R22, R02, R03)


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
