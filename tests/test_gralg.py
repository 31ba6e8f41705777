"""The supercommutative polynomial ring, derivatives, densities."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superdelta import (
    Chart,
    ChartMismatch,
    DensityElement,
    DiffOp,
    GradedPoly,
    ParityError,
    ad_mult,
    compose,
    conjugate_by_exp,
    formal_adjoint,
    partial,
    specialize,
    substitute,
)
from superdelta.dsl import load_module
from superdelta.geom import lie_derivative, lie_derivative_pencil
from superdelta.gralg import _Value, _key, _key_names
from superdelta.oracle import berezin_integral, residue_pair

from conftest import R11, R12, R22, R02, R03, poly_strategy, rand_op, rand_poly


def test_chart_basics():
    assert R12.parity("x") == 0
    assert R12.parity("xi2") == 1
    assert R12.names == ("x", "xi1", "xi2")
    with pytest.raises(ValueError):
        Chart(("x",), ("x",))


def test_odd_variables_square_to_zero():
    for chart in (R11, R12, R03):
        for name in chart.odd:
            xi = GradedPoly.var(chart, name)
            assert (xi * xi).is_zero()


def test_odd_variables_anticommute():
    xi1 = GradedPoly.var(R12, "xi1")
    xi2 = GradedPoly.var(R12, "xi2")
    assert xi1 * xi2 == -(xi2 * xi1)
    x = GradedPoly.var(R12, "x")
    assert x * xi1 == xi1 * x


@given(poly_strategy(R12), poly_strategy(R12), poly_strategy(R12))
@settings(max_examples=60, deadline=None)
def test_ring_axioms(p, q, r):
    assert (p + q) + r == p + (q + r)
    assert p + q == q + p
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert p - p == GradedPoly.zero(R12)
    assert p * GradedPoly.one(R12) == p


@given(poly_strategy(R22), poly_strategy(R22))
@settings(max_examples=60, deadline=None)
def test_supercommutativity(p, q):
    total = GradedPoly.zero(R22)
    for pp, ph in p.homogeneous_parts():
        for pq, qh in q.homogeneous_parts():
            assert ph * qh == qh * ph * ((-1) ** (pp * pq))
            total = total + ph * qh
    assert total == p * q


def test_parity_and_parts():
    x = GradedPoly.var(R12, "x")
    xi1 = GradedPoly.var(R12, "xi1")
    p = x * x + xi1
    assert p.parity() is None
    assert p.parity_part(0) == x * x
    assert p.parity_part(1) == xi1
    assert (x * xi1).parity() == 1


@given(poly_strategy(R12), poly_strategy(R12))
@settings(max_examples=60, deadline=None)
def test_partial_is_graded_derivation(p, q):
    for name in R12.names:
        s = R12.parity(name)
        lhs = partial(name, p * q)
        rhs = GradedPoly.zero(R12)
        for pp, ph in p.homogeneous_parts():
            rhs = rhs + partial(name, ph) * q + ph * partial(name, q) * Fraction(
                (-1) ** (s * pp))
        assert lhs == rhs


def test_partial_left_convention():
    # left derivative: d_xi2 (xi1 xi2) = -xi1
    xi1 = GradedPoly.var(R12, "xi1")
    xi2 = GradedPoly.var(R12, "xi2")
    assert partial("xi2", xi1 * xi2) == -xi1
    assert partial("xi1", xi1 * xi2) == xi2


def test_partials_anticommute():
    p = rand_poly(__import__("random").Random(7), R12, 4)
    a = partial("xi1", partial("xi2", p))
    b = partial("xi2", partial("xi1", p))
    assert a == -b


def test_substitute_morphism(rng):
    p = rand_poly(rng, R12, 3)
    q = rand_poly(rng, R12, 3)
    x = GradedPoly.var(R12, "x")
    xi1 = GradedPoly.var(R12, "xi1")
    xi2 = GradedPoly.var(R12, "xi2")
    images = {"x": x + xi1 * xi2, "xi1": xi2, "xi2": xi1 - xi2}
    assert substitute(p * q, images) == substitute(p, images) * substitute(q, images)
    assert substitute(p + q, images) == substitute(p, images) + substitute(q, images)
    fewer = {"xi1": xi2}  # x and xi2 map to themselves
    assert substitute(p * q, fewer) == substitute(p, fewer) * substitute(q, fewer)
    assert substitute(x * xi1 + xi2, fewer) == x * xi2 + xi2


def test_substitute_parity_check():
    x = GradedPoly.var(R11, "x")
    with pytest.raises(ParityError):
        substitute(x, {"x": GradedPoly.var(R11, "xi")})


def test_chart_mismatch():
    with pytest.raises(ChartMismatch):
        GradedPoly.var(R11, "x") + GradedPoly.var(R12, "x")


def test_berezin_integral():
    xi1 = GradedPoly.var(R02, "xi1")
    xi2 = GradedPoly.var(R02, "xi2")
    p = xi1 * xi2 * Fraction(3) + xi1 + GradedPoly.one(R02)
    assert berezin_integral(p) == 3
    assert berezin_integral(xi1) == 0


def test_density_element_arithmetic(rng):
    f = rand_poly(rng, R12, 2)
    g = rand_poly(rng, R12, 2)
    a = DensityElement(R12, {Fraction(1, 2): f})
    b = DensityElement(R12, {Fraction(1, 2): g})
    assert (a * b).weights() == [1] or (a * b).is_zero()
    assert (a + b).component(Fraction(1, 2)) == f + g
    c = DensityElement.from_poly(f)
    assert c.weights() in ([0], [])


def test_residue_pairing_picks_weight_one(rng):
    f = rand_poly(rng, R12, 2)
    g = rand_poly(rng, R12, 2)
    a = DensityElement(R12, {Fraction(1, 3): f, Fraction(0): g})
    b = DensityElement(R12, {Fraction(2, 3): g, Fraction(1): f})
    expect = f * g + g * f  # the weight-1 component of the product
    assert residue_pair(a, b) == expect


# ---------------------------------------------------------------------------
# the kernel contract: engine-built results are built unchecked (through
# each type's _of), so their entries must already be canonical


def _assert_canonical(p):
    """Every coefficient is a nonzero Fraction, and p equals its validated
    copy through the public constructor."""
    assert all(type(c) is Fraction and c != 0 for c in p.terms.values()), p.terms
    assert p == GradedPoly(p.chart, dict(p.terms))


def _assert_canonical_op(D):
    for wp in D.terms.values():
        assert wp
        for c in wp.values():
            assert not c.is_zero()
            _assert_canonical(c)


def _assert_canonical_density(psi):
    """Every weight is a Fraction and every component a nonzero canonical
    polynomial on psi's chart."""
    for w, c in psi.terms.items():
        assert type(w) is Fraction and not c.is_zero() and c.chart == psi.chart
        _assert_canonical(c)


def _sd_header(chart):
    """The chart declaration of a .sd module on chart."""
    return "chart C { " + "".join(f"{kind} {', '.join(names)}; " for kind, names in
                                  (("even", chart.even), ("odd", chart.odd)) if names) + "}\n"


@pytest.mark.parametrize("chart", [R11, R12, R22, R03],
                         ids=["1|1", "1|2", "2|2", "0|3"])
def test_engine_results_keep_the_kernel_contract(chart):
    rng = random.Random(f"kernel:{chart}")
    W = DiffOp.weight(chart)
    for _ in range(12):
        p, q = rand_poly(rng, chart), rand_poly(rng, chart)
        odd = rand_poly(rng, chart, parity=1)
        images = {n: GradedPoly.var(chart, n)
                  + rand_poly(rng, chart, 2, parity=chart.parity(n), nterms=2)
                  for n in chart.names}
        polys = [p + q, p + (-p), p - q, p - p, -p, p * 3, p * Fraction(-2, 3),
                 p * 0, 2 * p, p * 1, p * q, odd * odd, p ** 3,
                 substitute(p, images), p.parity_part(0), p.parity_part(1),
                 GradedPoly.const(chart, 0), GradedPoly.const(chart, Fraction(-1, 2))]
        polys += [part for _, part in p.homogeneous_parts()]
        polys += [partial(n, p) for n in chart.names]
        for r in polys:
            _assert_canonical(r)

        D = rand_op(rng, chart, 2)
        E = rand_op(rng, chart, 2) + compose(W, rand_op(rng, chart, 1))
        psi = DensityElement(chart, {Fraction(1, 2): p, 0: q})
        chi = DensityElement(chart, {Fraction(1, 2): -p, 1: q})
        # a vector field, and one of divergence 0
        X = DiffOp.zero(chart)
        for n in chart.names:
            X = X + DiffOp.mult(rand_poly(rng, chart, 2)) * DiffOp.deriv(chart, n)
        d0 = DiffOp.deriv(chart, chart.names[0])
        ops = [compose(D, E), compose(E, E), ad_mult(D, p), ad_mult(E, odd),
               formal_adjoint(E), conjugate_by_exp(D, p.parity_part(0)),
               specialize(E, Fraction(1, 3)), specialize(E, 0), D - D,
               D + E, D + (-D), -D, D * 0, E * Fraction(-1, 2), 3 * E,
               D.parity_part(0), D.parity_part(1), E.parity_part(0), E.parity_part(1),
               lie_derivative(X, Fraction(1, 2)), lie_derivative(X, 0),
               lie_derivative_pencil(X), lie_derivative_pencil(d0), lie_derivative(d0, 1),
               DiffOp.mult(p - p), DiffOp.const(chart, 0)]
        for op in ops:
            _assert_canonical_op(op)
        for r in [E.apply(p), *E.apply(psi).terms.values()]:
            _assert_canonical(r)
        densities = [psi + chi, psi + (-psi), psi - psi, psi - chi, -psi, psi + p, p + psi,
                     psi * 3, 0 * psi, psi * Fraction(-2, 3), psi * chi, chi * chi, psi * p,
                     psi.parity_part(0), psi.parity_part(1), chi.parity_part(1),
                     E.apply(psi), D.apply(chi), (D - D).apply(psi),
                     DensityElement.from_poly(p - p, Fraction(1, 2)), DensityElement.zero(chart)]
        for r in densities:
            _assert_canonical_density(r)

    # the .sd reader builds a product with a zero coefficient, or a zero
    # term, in one term map
    v = chart.names[0]
    m = load_module(_sd_header(chart) + "".join(
        f"operator P{i} on C = {text};\n" for i, text in enumerate((
            f"({v} - {v})*d({v})", f"0*W*d({v})", f"({v} - {v})*d({v}) + d({v})",
            f"d({v})*({v} - {v})", f"({v} - {v})*W"))))
    for op in m.operators.values():
        _assert_canonical_op(op)
    assert m.operators["P0"].is_zero() and m.operators["P1"].is_zero()
    assert m.operators["P2"] == DiffOp.deriv(chart, v)


# ---------------------------------------------------------------------------
# one parity rule: the parity every part shares, EVEN when there are no
# parts, None when two parts differ


def test_zero_of_each_type_is_even():
    for chart in (R11, R12, R22, R02, R03):
        assert GradedPoly.zero(chart).parity() == 0
        assert DensityElement.zero(chart).parity() == 0
        assert DiffOp.zero(chart).parity() == 0


def test_density_parity_is_shared_by_its_components():
    x, xi1 = GradedPoly.var(R12, "x"), GradedPoly.var(R12, "xi1")
    assert DensityElement(R12, {0: x, Fraction(1, 2): x * x}).parity() == 0
    assert DensityElement(R12, {0: xi1, 1: x * xi1}).parity() == 1
    assert DensityElement(R12, {0: x, Fraction(1, 2): xi1}).parity() is None
    assert DensityElement(R12, {0: x + xi1}).parity() is None


def test_operator_parity_counts_coefficient_and_derivatives():
    x, xi1 = GradedPoly.var(R12, "x"), GradedPoly.var(R12, "xi1")
    dx, dxi1 = DiffOp.deriv(R12, "x"), DiffOp.deriv(R12, "xi1")
    assert (xi1 * dx).parity() == 1
    assert (xi1 * dxi1).parity() == 0
    assert (x * dxi1 + DiffOp.mult(xi1)).parity() == 1
    # one inhomogeneous coefficient
    assert DiffOp.mult(x + xi1).parity() is None
    assert (dx + (x + xi1) * dxi1).parity() is None
    # two homogeneous terms of different parity
    assert (dx + dxi1).parity() is None
    assert (x * dx + xi1 * dx).parity() is None


def test_variable_key_is_the_derivative_key():
    """x^a and d_a sit at one key: GradedPoly.var and DiffOp.deriv build it
    alike, for every variable of every test chart."""
    for chart in (R11, R12, R22, R02, R03):
        for v in chart.names:
            [key] = GradedPoly.var(chart, v).terms
            assert [key] == list(DiffOp.deriv(chart, v).terms)
            assert GradedPoly.var(chart, v).terms[key] == 1


def test_key_names_list_the_factors_of_a_key():
    """_key of the variables _key_names lists gives the key back, sign +1,
    for every key of degree <= 3 of every test chart."""
    for chart in (R11, R12, R22, R02, R03):
        for names in itertools.chain.from_iterable(
                itertools.combinations_with_replacement(chart.names, n) for n in range(4)):
            k = _key(chart, *names)
            if k is not None:
                assert _key(chart, *_key_names(chart, k[0])) == (k[0], 1)
                assert sorted(_key_names(chart, k[0])) == sorted(names)


# ---------------------------------------------------------------------------
# the hash contract: equal values hash equal


def test_equal_polynomials_hash_equal(rng):
    for chart in (R11, R12, R22, R03):
        p, q = rand_poly(rng, chart), rand_poly(rng, chart)
        built = [p + q, q + p, GradedPoly(chart, dict(reversed(list((p + q).terms.items())))),
                 GradedPoly._of(chart, dict((p + q).terms)), (p + q) * 1, p - (-q)]
        for r in built:
            assert r == p + q
            assert hash(r) == hash(p + q)
        assert hash(p * q) == hash(GradedPoly(chart, dict(sorted((p * q).terms.items()))))


def test_equal_operators_and_densities_hash_equal(rng):
    for chart in (R11, R12, R22):
        D, E = rand_op(rng, chart, 2), rand_op(rng, chart, 2)
        assert D + E == E + D
        assert hash(D + E) == hash(E + D)
        assert hash(compose(D, E) - compose(D, E)) == hash(DiffOp.zero(chart))
        f, g = rand_poly(rng, chart), rand_poly(rng, chart)
        a = DensityElement(chart, {Fraction(1, 2): f, 0: g})
        b = DensityElement(chart, {0: g, Fraction(1, 2): f})
        assert a == b and hash(a) == hash(b)
        assert hash(a + b) == hash(b * 2)


def test_first_power_is_the_base_with_no_product(count_calls):
    """x^1 starts at its one factor: no GradedPoly.__mul__ call, and the
    value is x, for polynomials, operators and densities; x^3 takes two.
    Only x^0 forms the unit, by the one _Value._lift."""
    p = rand_poly(random.Random("first power"), R12, 2) + GradedPoly.var(R12, "x")
    D = DiffOp.mult(p) + DiffOp.deriv(R12, "xi1")
    psi = DensityElement(R12, {Fraction(1, 2): p})
    products = count_calls(GradedPoly, "__mul__")
    units = count_calls(_Value, "_lift")
    assert p ** 1 == p and D ** 1 == D and psi ** 1 == psi
    assert products == []
    assert p ** 3 == p * p * p and len(products) == 2 + 2
    assert D ** 2 == D * D and psi ** 2 == psi * psi
    assert units == []
    one = GradedPoly.one(R12)
    assert (p ** 0, D ** 0, psi ** 0) == (one, DiffOp.identity(R12), DensityElement.from_poly(one))
    assert [type(v) for v, _ in units] == [GradedPoly, DiffOp, DensityElement]


# ---------------------------------------------------------------------------
# one arithmetic protocol: numbers and lower types lift, anything else is a
# TypeError

# The result type of  left op right  for every ordered pair of operands, one
# row per left operand in the order of _OPERANDS, one letter per right
# operand: i int, q Fraction, P GradedPoly, R DensityElement, O DiffOp,
# f float, s str, and - for a TypeError.
_TYPES = {"i": int, "q": Fraction, "P": GradedPoly, "R": DensityElement,
          "O": DiffOp, "f": float, "s": str}
_TABLES = {
    "+": ("iqPROf-", "qqPROf-", "PPPRO--", "RRRR---", "OOO-O--", "ff---f-", "------s"),
    "-": ("iqPROf-", "qqPROf-", "PPPRO--", "RRRR---", "OOO-O--", "ff---f-", "-------"),
    "*": ("iqPROfs", "qqPROf-", "PPPRO--", "RRRR---", "OOO-O--", "ff---f-", "s------"),
}


def _operands():
    x, xi = GradedPoly.var(R11, "x"), GradedPoly.var(R11, "xi")
    psi = DensityElement(R11, {Fraction(1, 2): x * xi, 0: x + 1})
    D = DiffOp.deriv(R11, "xi") + DiffOp.mult(x * xi) * DiffOp.deriv(R11, "x")
    return [2, Fraction(1, 3), x * x + xi, psi, D, 1.5, "a"]


def test_mixed_type_arithmetic_table():
    ops = {"+": lambda a, b: a + b, "-": lambda a, b: a - b, "*": lambda a, b: a * b}
    operands = _operands()
    for op, rows in _TABLES.items():
        for a, row in zip(operands, rows):
            for b, want in zip(operands, row):
                case = f"{type(a).__name__} {op} {type(b).__name__}"
                if want == "-":
                    with pytest.raises(TypeError):
                        ops[op](a, b)
                else:
                    assert type(ops[op](a, b)) is _TYPES[want], case
                assert type(a == b) is bool, case
    values = operands[:5]  # the numbers and the three engine types
    for a, row in zip(values, _TABLES["+"]):
        for b, want in zip(values, row):
            if want != "-":
                assert a + b == b + a and a - b == -(b - a)
    for n in values[:2]:
        for v in values[2:]:
            assert n * v == v * n


def test_lifted_values_equal_their_source():
    x = GradedPoly.var(R11, "x")
    psi, D = DensityElement.from_poly(x), DiffOp.mult(x)
    assert x == psi and psi == x and x == D and D == x
    assert 2 == DiffOp.const(R11, 2) and DensityElement.from_poly(GradedPoly.const(R11, 2)) == 2
    assert psi != D and D != psi and x != 1.5 and D != "x"
    one = DensityElement.from_poly(GradedPoly.one(R11))
    assert 1 - psi == -(psi - 1) == one - psi
    assert x * psi == psi * x and (x * D).apply(x) == x * D.apply(x)


def test_repr_names_the_type_and_renders_the_value():
    x, xi = GradedPoly.var(R11, "x"), GradedPoly.var(R11, "xi")
    assert repr(x + 1) == "GradedPoly(1 + x)"
    assert repr(DensityElement(R11, {Fraction(1, 2): x * xi, 0: x})) == \
        "DensityElement(x + x*xi*t^(1/2))"
    assert repr(DiffOp.deriv(R11, "xi") + DiffOp.mult(x)) == "DiffOp(x + d(xi))"
