"""Normal-ordered operators: composition, commutators, adjoints, weights."""

import itertools
import math
import random
from fractions import Fraction

import pytest

from superdelta import (
    Chart,
    DensityElement,
    DiffOp,
    GradedPoly,
    ad_mult,
    berezin_integral,
    commutator,
    compose,
    conjugate_by_exp,
    formal_adjoint,
    op_from_action,
    specialize,
)

from conftest import CHARTS, R11, R12, R22, R02, R03, rand_op, rand_poly


def test_constructors_and_order():
    D = DiffOp.deriv(R11, "x")
    assert D.order() == 1
    assert DiffOp.zero(R11).order() is None
    assert DiffOp.mult(GradedPoly.var(R11, "x")).order() == 0
    assert compose(D, D).order() == 2
    assert DiffOp.identity(R11).apply_poly(GradedPoly.var(R11, "x")) == \
        GradedPoly.var(R11, "x")


def test_apply_oracle_composition(rng):
    """Normal ordering is certified by the action: (DE)f = D(Ef)."""
    for chart in (R11, R12, R22, R03):
        for _ in range(8):
            D = rand_op(rng, chart, 2)
            E = rand_op(rng, chart, 2)
            f = rand_poly(rng, chart, 3)
            assert compose(D, E).apply_poly(f) == D.apply_poly(E.apply_poly(f))


def test_compose_associative(rng):
    for _ in range(6):
        D = rand_op(rng, R12, 2)
        E = rand_op(rng, R12, 2)
        F = rand_op(rng, R12, 2)
        assert compose(compose(D, E), F) == compose(D, compose(E, F))


def test_commutator_grading(rng):
    for _ in range(8):
        D = rand_op(rng, R12, 2, parity=rng.randint(0, 1))
        E = rand_op(rng, R12, 2, parity=rng.randint(0, 1))
        pD, pE = D.parity(), E.parity()
        if pD is None or pE is None:
            continue
        lhs = commutator(D, E)
        rhs = compose(D, E) - compose(E, D) * Fraction((-1) ** (pD * pE))
        assert lhs == rhs
        # graded antisymmetry
        assert commutator(E, D) == -(lhs * Fraction((-1) ** (pD * pE)))


def test_commutator_jacobi(rng):
    for _ in range(4):
        ops = [rand_op(rng, R11, 2, parity=rng.randint(0, 1)) for _ in range(3)]
        pars = [D.parity() for D in ops]
        if None in pars:
            continue
        A, B, C = ops
        pa, pb, pc = pars
        lhs = commutator(A, commutator(B, C))
        rhs = commutator(commutator(A, B), C) + \
            commutator(B, commutator(A, C)) * Fraction((-1) ** (pa * pb))
        assert lhs == rhs


def test_weight_symbol_central_and_specialization():
    W = DiffOp.weight(R11)
    D = DiffOp.deriv(R11, "x")
    assert compose(W, D) == compose(D, W)
    P = compose(W + W - DiffOp.identity(R11), D)  # (2W - 1) d_x
    assert specialize(P, Fraction(1, 2)).is_zero()
    assert specialize(P, 1) == D
    psi = DensityElement(R11, {Fraction(1, 2): GradedPoly.var(R11, "x")})
    assert compose(W, DiffOp.identity(R11)).apply(psi) == psi * Fraction(1, 2)


def test_conjugation_by_exponential(rng):
    """e^{-u} D e^{u} agrees with the action on e^{u}-multiplied arguments
    for nilpotent u (so the exponential is itself polynomial)."""
    chart = R12
    xi1 = GradedPoly.var(chart, "xi1")
    xi2 = GradedPoly.var(chart, "xi2")
    u = rand_poly(rng, chart, 1, parity=0, nterms=2) * xi1 * xi2
    eu = GradedPoly.one(chart) + u  # u^2 = 0
    emu = GradedPoly.one(chart) - u
    for _ in range(5):
        D = rand_op(rng, chart, 2)
        f = rand_poly(rng, chart, 3)
        lhs = conjugate_by_exp(D, u).apply_poly(f)
        rhs = emu * D.apply_poly(eu * f)
        assert lhs == rhs


def _pair(p: GradedPoly, q: GradedPoly):
    return berezin_integral(p * q)


def test_adjoint_berezin_oracle(rng):
    """<D psi, chi> = (-1)^{pD p psi} <psi, D* chi> on purely odd charts."""
    for chart in (R02, R03):
        monos = [GradedPoly(chart, {((), o): Fraction(1)})
                 for r in range(len(chart.odd) + 1)
                 for o in __import__("itertools").combinations(
                     range(len(chart.odd)), r)]
        for _ in range(20):
            D = rand_op(rng, chart, 3, parity=rng.randint(0, 1))
            pD = D.parity()
            if pD is None:
                continue
            Ds = formal_adjoint(D)
            for psi in monos:
                for chi in monos:
                    lhs = _pair(D.apply_poly(psi), chi)
                    rhs = _pair(psi, Ds.apply_poly(chi)) * \
                        (-1) ** (pD * psi.parity())
                    assert lhs == rhs


def test_adjoint_involution_and_antimultiplicativity(rng):
    for chart in (R11, R12, R02):
        for _ in range(8):
            D = rand_op(rng, chart, 2, parity=rng.randint(0, 1))
            E = rand_op(rng, chart, 2, parity=rng.randint(0, 1))
            pD, pE = D.parity(), E.parity()
            if pD is None or pE is None:
                continue
            assert formal_adjoint(formal_adjoint(D)) == D
            assert formal_adjoint(compose(D, E)) == \
                compose(formal_adjoint(E), formal_adjoint(D)) * \
                Fraction((-1) ** (pD * pE))


def test_pencil_adjoint_weight_rule():
    W = DiffOp.weight(R11)
    one = DiffOp.identity(R11)
    assert formal_adjoint(W) == one - W
    P = compose(W + W - one, DiffOp.deriv(R11, "x"))  # (2W-1) d_x
    assert formal_adjoint(P) == P  # self-adjoint pencil


def test_reconstruction_probe_is_a_nonzero_unit():
    """op_from_action divides by d^I x^I, which is +-prod e_i! for every
    derivative key I = (e, o): the even factorials times the sign of
    passing the odd derivatives through the odd monomial."""
    for chart in (R11, R12, R22, R02, R03):
        ne, no = len(chart.even), len(chart.odd)
        for e in itertools.product(range(4), repeat=ne):
            for k in range(no + 1):
                for o in itertools.combinations(range(no), k):
                    m = GradedPoly.one(chart)
                    for i, n in enumerate(e):
                        m = m * GradedPoly.var(chart, chart.even[i]) ** n
                    for i in o:
                        m = m * GradedPoly.var(chart, chart.odd[i])
                    probe = DiffOp(chart, {(e, o): {0: GradedPoly.one(chart)}})
                    unit = probe.apply_poly(m)
                    assert unit.terms.keys() <= {((0,) * ne, ())}
                    assert abs(unit.constant_term()) == math.prod(
                        math.factorial(n) for n in e)


def test_op_from_action_round_trip(rng):
    for chart in (R11, R12):
        for _ in range(5):
            D = rand_op(rng, chart, 2)
            E = op_from_action(chart, D.apply_poly, 2)
            assert E == D


def test_ad_mult_matches_commutator(rng):
    """[D, a.] taken directly equals the compose-based commutator, for even,
    odd, inhomogeneous and W-carrying D and for a of either parity."""
    for chart in (R11, R12, R22, R03):
        W = DiffOp.weight(chart)
        for _ in range(6):
            for par in (0, 1, None):
                D = rand_op(rng, chart, 3, parity=par)
                for E in (D, compose(W, D) + D):
                    for pa in (0, 1, None):
                        a = rand_poly(rng, chart, 3, parity=pa)
                        assert ad_mult(E, a) == commutator(E, DiffOp.mult(a))


def test_compose_weight_pencils_action(rng):
    """Composition of W-carrying operators agrees with the action on
    densities of several weights: (DE)psi = D(E psi)."""
    for chart in (R11, R12, R22, R03):
        W = DiffOp.weight(chart)
        for _ in range(4):
            D = compose(W, rand_op(rng, chart, 2)) + rand_op(rng, chart, 2)
            E = rand_op(rng, chart, 2) - compose(compose(W, W), rand_op(rng, chart, 1))
            psi = DensityElement(chart, {
                w: rand_poly(rng, chart, 3)
                for w in (Fraction(0), Fraction(1, 2), Fraction(2))
            })
            assert compose(D, E).apply(psi) == D.apply(E.apply(psi))


def test_compose_floor_keeps_the_top_orders():
    """compose(D, E, floor=k) is the part of order >= k of compose(D, E),
    for operators with and without W, on every chart; floors past the
    order give 0."""
    rng = random.Random(4242)
    for chart in (R11, R12, R22, R02, R03):
        W = DiffOp.weight(chart)
        for i in range(8):
            D = rand_op(rng, chart, 3)
            E = rand_op(rng, chart, 2)
            if i % 2:
                D = D + compose(W, rand_op(rng, chart, 2))
            full = compose(D, E)
            for k in range(7):
                top = DiffOp(chart, {key: wp for key, wp in full.terms.items()
                                     if sum(key[0]) + len(key[1]) >= k})
                assert compose(D, E, floor=k) == top
    with pytest.raises(TypeError):
        compose(D, E, 1)  # the floor is keyword-only


def test_odd_square_leaves_out_only_the_symbol_square():
    """For odd D the terms of D o D where no derivative hits a coefficient
    sum to sigma(D)^2 = 0, so compose(D, D, odd_square=True) equals
    compose(D, D) at every floor: 1,000 seeded odd operators of order 1-4
    on five charts, half of them W pencils.  A pair of two operators is
    refused."""
    rng = random.Random("odd square")
    ops = 0
    for i, chart in enumerate(CHARTS):
        W = DiffOp.weight(chart)
        while ops < 200 * (i + 1):
            D = rand_op(rng, chart, rng.randint(1, 4), parity=1, nterms=4)
            if ops % 2:
                D = D + compose(W, rand_op(rng, chart, 2, parity=1, nterms=2))
            if D.is_zero():
                continue
            assert D.parity() == 1
            for k in range(6):
                assert compose(D, D, floor=k, odd_square=True) == compose(D, D, floor=k)
            ops += 1
    with pytest.raises(ValueError):
        compose(D, D + 0, odd_square=True)


def test_odd_square_of_xi_dx_forms_no_product(count_calls):
    """(xi d_x)^2 = xi xi d_x^2 = 0 is all symbol square: d_x does not hit
    xi, so composing xi d_x with itself as an odd square multiplies no two
    polynomials, where the full product forms xi * xi."""
    D = DiffOp.mult(GradedPoly.var(R11, "xi")) * DiffOp.deriv(R11, "x")
    products = count_calls(GradedPoly, "__mul__")
    assert compose(D, D, odd_square=True).is_zero()
    assert products == []
    assert compose(D, D).is_zero() and len(products) == 1


def test_apply_to_a_polynomial_is_the_weight_zero_action(rng):
    """A GradedPoly operand is taken as the density of weight 0 and gives a
    GradedPoly: W acts as 0."""
    for chart in (R11, R12, R22, R03):
        W = DiffOp.weight(chart)
        for _ in range(6):
            A = rand_op(rng, chart, 2)
            D = A + compose(W, rand_op(rng, chart, 2))
            f = rand_poly(rng, chart, 3)
            got = D.apply(f)
            assert type(got) is GradedPoly
            assert got == A.apply(f) == D.apply_poly(f)
            assert got == D.apply(DensityElement(chart, {0: f})).component(0)


def test_powers_equal_repeated_products(rng):
    """Powers by repeated squaring equal the repeated product."""
    for chart in (R11, R22):
        p = rand_poly(rng, chart, 2)
        P = compose(DiffOp.weight(chart), rand_op(rng, chart, 1)) + \
            DiffOp.mult(rand_poly(rng, chart, 1))
        prod_p = GradedPoly.one(chart)
        prod_P = DiffOp.identity(chart)
        for n in range(10):
            assert p ** n == prod_p
            assert P ** n == prod_P
            prod_p = prod_p * p
            prod_P = compose(prod_P, P)
    with pytest.raises(ValueError):
        DiffOp.identity(R11) ** -1


def test_polynomial_defers_to_richer_operands(rng):
    """A polynomial on the left of +, - or * with a density element or an
    operator acts as the density at weight 0 or the multiplication operator;
    density elements have powers."""
    for chart in (R11, R12, R22):
        p = rand_poly(rng, chart, 2)
        D = rand_op(rng, chart, 2) + compose(DiffOp.weight(chart), rand_op(rng, chart, 1))
        psi = DensityElement(chart, {Fraction(1, 2): rand_poly(rng, chart, 2),
                                     Fraction(0): rand_poly(rng, chart, 1)})
        P, Psi = DiffOp.mult(p), DensityElement.from_poly(p)
        assert p + D == P + D and p - D == P - D and p * D == P * D
        assert p + psi == Psi + psi and p - psi == Psi - psi and p * psi == Psi * psi
        prod = DensityElement.from_poly(GradedPoly.one(chart))
        for n in range(5):
            assert psi ** n == prod
            prod = prod * psi
