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
    commutator,
    compose,
    conjugate_by_exp,
    formal_adjoint,
    op_from_action,
    specialize,
)
from superdelta import gralg
from superdelta.brackets import monomials_upto
from superdelta.diffop import _leibniz
from superdelta.gralg import _deg, _keys_upto, _mul_keys
from superdelta.oracle import berezin_integral

from conftest import (CHARTS, R11, R12, R22, R02, R03, full_square, key_within, rand_op,
                      rand_poly)


def test_constructors_and_order():
    D = DiffOp.deriv(R11, "x")
    assert D.order() == 1
    assert DiffOp.zero(R11).order() is None
    assert DiffOp.mult(GradedPoly.var(R11, "x")).order() == 0
    assert compose(D, D).order() == 2
    assert DiffOp.identity(R11).apply(GradedPoly.var(R11, "x")) == \
        GradedPoly.var(R11, "x")


def test_apply_oracle_composition(rng):
    """Normal ordering is certified by the action: (DE)f = D(Ef)."""
    for chart in (R11, R12, R22, R03):
        for _ in range(8):
            D = rand_op(rng, chart, 2)
            E = rand_op(rng, chart, 2)
            f = rand_poly(rng, chart, 3)
            assert compose(D, E).apply(f) == D.apply(E.apply(f))


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
        lhs = conjugate_by_exp(D, u).apply(f)
        rhs = emu * D.apply(eu * f)
        assert lhs == rhs


def test_adjoint_berezin_oracle(rng):
    """<D psi, chi> = (-1)^{pD p psi} <psi, D* chi> on purely odd charts."""
    for chart in (R02, R03):
        monos = [GradedPoly.one(chart), *monomials_upto(chart, len(chart.odd))]
        for _ in range(20):
            D = rand_op(rng, chart, 3, parity=rng.randint(0, 1))
            pD = D.parity()
            if pD is None:
                continue
            Ds = formal_adjoint(D)
            for psi in monos:
                for chi in monos:
                    assert berezin_integral(D.apply(psi) * chi) == \
                        berezin_integral(psi * Ds.apply(chi)) * (-1) ** (pD * psi.parity())


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
                    unit = probe.apply(m)
                    assert unit.terms.keys() <= {((0,) * ne, ())}
                    assert abs(unit.constant_term()) == math.prod(
                        math.factorial(n) for n in e)


def test_op_from_action_round_trip(rng):
    for chart in (R11, R12):
        for _ in range(5):
            D = rand_op(rng, chart, 2)
            E = op_from_action(chart, D.apply, 2)
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
    sum to sigma(D)^2 = 0, so compose(D, D), which leaves them out, is the
    part of full_square(D) of order >= k at every floor k: 1,000 seeded odd
    operators of order 1-4 on five charts, half of them W pencils.  The
    square of an even operator with itself keeps them: d_x o d_x = d_x^2.
    compose takes no word on parity: odd_square= is a TypeError."""
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
            full = full_square(D)
            for k in range(6):
                assert compose(D, D, floor=k) == DiffOp(chart, {
                    key: wp for key, wp in full.terms.items() if _deg(key) >= k})
            ops += 1
    dx = DiffOp.deriv(R11, "x")
    assert compose(dx, dx) == DiffOp(R11, {((2,), ()): {0: GradedPoly.one(R11)}})
    with pytest.raises(TypeError):
        compose(D, D, odd_square=True)


def test_compose_bound_keeps_the_keys_within_it():
    """compose(D, E, floor=k, bound=B) is the part of compose(D, E) of order
    >= k with key within B: seeded D, E and B on all five charts, half of
    D and E W pencils, and for odd D also compose(D, D), which leaves out
    sigma(D)^2, against full_square(D).  The bound drops terms and keeps
    others."""
    rng = random.Random("compose bound")
    dropped = kept = 0
    for chart in CHARTS:
        W = DiffOp.weight(chart)
        bounds = _keys_upto(chart, 4)
        for i in range(12):
            D = rand_op(rng, chart, 3, parity=i % 2)
            E = rand_op(rng, chart, 2)
            if i % 4 >= 2:
                D = D + compose(W, rand_op(rng, chart, 2, parity=i % 2))
                E = E - compose(W, rand_op(rng, chart, 1))
            for A, B_op in [(D, E)] + [(D, D)] * (i % 2):
                full = compose(A, B_op + 0)
                for _ in range(3):
                    B, k = rng.choice(bounds), rng.randint(0, 3)
                    want = DiffOp(chart, {key: wp for key, wp in full.terms.items()
                                          if _deg(key) >= k and key_within(key, B)})
                    assert compose(A, B_op, floor=k, bound=B) == want
                    dropped += any(not key_within(key, B) for key in full.terms)
                    kept += not want.is_zero()
    assert dropped >= 150 and kept >= 100


def test_odd_square_of_xi_dx_forms_no_product(count_calls):
    """(xi d_x)^2 = xi xi d_x^2 = 0 is all symbol square: d_x does not hit
    xi, so composing the odd xi d_x with itself, by compose, * or **,
    multiplies no two polynomials, where the full product forms xi * xi."""
    D = DiffOp.mult(GradedPoly.var(R11, "xi")) * DiffOp.deriv(R11, "x")
    products = count_calls(GradedPoly, "__mul__")
    assert compose(D, D).is_zero() and (D * D).is_zero() and (D ** 2).is_zero()
    assert products == []
    assert full_square(D).is_zero() and len(products) == 1


def test_parity_is_walked_once(monkeypatch):
    """An operator walks its terms for its parity on the first ask and keeps
    the answer, None included, for operators from the validating and the
    trusted constructor alike; an equal operator the arithmetic builds is a
    new one and walks once itself.  Walks are diffop's _parity calls."""
    from superdelta import diffop
    walks = []
    real = diffop._parity
    monkeypatch.setattr(diffop, "_parity", lambda pars: walks.append(pars) or real(pars))
    x, xi = GradedPoly.var(R11, "x"), GradedPoly.var(R11, "xi")
    for D, want in ((DiffOp.deriv(R11, "xi"), 1), (DiffOp.mult(x + xi), None),
                    (DiffOp.zero(R11), 0), (DiffOp(R11, {((1,), (0,)): {1: xi}}), 0)):
        walks.clear()
        assert [D.parity() for _ in range(3)] == [want] * 3 and len(walks) == 1
        assert (D + 0).parity() == want and len(walks) == 2


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
            assert got == A.apply(f) == D.apply(f)
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


# ---------------------------------------------------------------------------
# the Leibniz kernel, one monomial at a time


def _partial_reference(name, p):
    """The left partial derivative by one variable, term by term: x_i^n
    gives n x_i^{n-1}, and an odd xi_i at position pos among the odd
    factors of a term gives (-1)^pos.  Kept apart from gralg, which takes
    it as a case of d^key of a monomial."""
    chart, terms = p.chart, {}
    for (e, o), c in p.terms.items():
        if name in chart.even:
            i = chart.even.index(name)
            if e[i]:
                terms[(e[:i] + (e[i] - 1,) + e[i + 1:], o)] = c * e[i]
        elif (i := chart.odd.index(name)) in o:
            pos = o.index(i)
            terms[(e, o[:pos] + o[pos + 1:])] = -c if pos % 2 else c
    return GradedPoly(chart, terms)


def _leibniz_reference(chart, key, f, hits=None, free=True):
    """d^key o (f.) = sum g d^rest as (rest, g) pairs, one derivative at a
    time on whole polynomials by _partial_reference: innermost first, each
    odd derivative hits a homogeneous part of f or passes it at the Koszul
    sign (-1)^{|g|}, then the even ones expand with binomials.  The
    engine's former kernel, an independent reference for the one-step one."""
    e, o = key
    h0 = h = _deg(key) if hits is None else hits
    odd_terms = [((), g, par, 1, h) for par, g in f.homogeneous_parts()]
    for i in reversed(o):
        nxt = []
        for rest, g, par, c, h in odd_terms:
            if h and not (dg := _partial_reference(chart.odd[i], g)).is_zero():
                nxt.append((rest, dg, 1 - par, c, h - 1))
            nxt.append(((i,) + rest, g, par, -c if par else c, h))
        odd_terms = nxt
    terms = [(e, rest, g, c, h) for rest, g, _, c, h in odd_terms]
    for j, n in enumerate(e):
        nxt = []
        for er, rest, g, c, h in terms:
            for k in range(min(n, h) + 1):
                if k and (g := _partial_reference(chart.even[j], g)).is_zero():
                    break
                nxt.append((er[:j] + (n - k,) + er[j + 1:], rest, g, c * math.comb(n, k), h - k))
        terms = nxt
    return [((er, rest), g * c) for er, rest, g, c, h in terms if free or h != h0]


def _per_rest(pairs):
    """rest -> the nonzero sum of the polynomials paired with it."""
    out = {}
    for rest, g in pairs:
        out[rest] = out[rest] + g if rest in out else g
    return {rest: g for rest, g in out.items() if not g.is_zero()}


def test_monomial_leibniz_matches_the_partial_reference():
    """The (rest, m, n) triples of every monomial of f, summed per rest
    key, equal the partial-based expansion of f: seeded keys of degree <= 4
    and polynomials on all five charts, with at most None (all), 0 or 1
    hits, the free branch kept and left out."""
    rng = random.Random("leibniz kernel")
    for chart in CHARTS:
        keys = _keys_upto(chart, 4)
        for _ in range(25):
            key, f = rng.choice(keys), rand_poly(rng, chart, 4, nterms=6)
            for hits, free in itertools.product((None, 0, 1), (True, False)):
                got = [(rest, GradedPoly(chart, {m: c * n}))
                       for m0, c in f.terms.items()
                       for rest, m, n in _leibniz(key, m0, hits, free)]
                want = _leibniz_reference(chart, key, f, hits, free)
                assert _per_rest(got) == _per_rest(want)


def test_leibniz_cap_keeps_the_rests_within_it():
    """_leibniz with a cap gives the triples of the partial-based expansion
    whose rest key is within the cap: seeded keys of degree <= 4, caps of
    degree <= 3 and polynomials on all five charts, with at most None
    (all), 0 or 1 hits, the free branch kept and left out.  Both the odd
    cap (an odd derivative that may not pass) and the even cap (even
    derivatives that must hit) bite."""
    rng = random.Random("leibniz cap")
    odd_bites = even_bites = 0
    for chart in CHARTS:
        keys, caps = _keys_upto(chart, 4), _keys_upto(chart, 3)
        for _ in range(40):
            key, cap, f = rng.choice(keys), rng.choice(caps), rand_poly(rng, chart, 4, nterms=6)
            odd_bites += not set(key[1]) <= set(cap[1])
            even_bites += any(n > c for n, c in zip(key[0], cap[0]))
            for hits, free in itertools.product((None, 0, 1), (True, False)):
                got = [(rest, GradedPoly(chart, {m: c * n}))
                       for m0, c in f.terms.items()
                       for rest, m, n in _leibniz(key, m0, hits, free, cap)]
                want = [(rest, g) for rest, g in _leibniz_reference(chart, key, f, hits, free)
                        if key_within(rest, cap)]
                assert _per_rest(got) == _per_rest(want)
    assert odd_bites >= 60 and even_bites >= 40


def test_one_step_apply_matches_repeated_partials():
    """d^key of a monomial in one step equals |key| partial derivatives
    (_partial_reference), innermost (the last odd index) first: seeded keys
    and monomials of degree <= 4 on all five charts, half of the monomials
    multiples of the key."""
    rng = random.Random("apply kernel")
    hit = 0
    for chart in CHARTS:
        keys = _keys_upto(chart, 4)
        for i in range(60):
            key, mono = rng.choice(keys), rng.choice(keys)
            if i % 2 and (k := _mul_keys(key, mono)):
                mono = k[0]
            m = GradedPoly(chart, {mono: Fraction(rng.randint(1, 9), rng.randint(1, 4))})
            want = m
            for j in reversed(key[1]):
                want = _partial_reference(chart.odd[j], want)
            for name, n in zip(chart.even, key[0]):
                for _ in range(n):
                    want = _partial_reference(name, want)
            assert DiffOp(chart, {key: {0: GradedPoly.one(chart)}}).apply(m) == want
            hit += not want.is_zero()
    assert hit >= 100


def test_operator_algebra_takes_no_partial(count_calls):
    """compose, ad_mult, formal_adjoint and apply differentiate monomials
    in one step and never call gralg.partial."""
    calls = count_calls(gralg, "partial")
    rng = random.Random("no partial")
    for chart in CHARTS:
        D = rand_op(rng, chart, 3) + compose(DiffOp.weight(chart), rand_op(rng, chart, 2))
        f = rand_poly(rng, chart, 3)
        compose(D, D), compose(D, D, floor=2), ad_mult(D, f), formal_adjoint(D)
        D.apply(f), D.apply(DensityElement(chart, {Fraction(1, 2): f}))
    assert calls == []


def test_odd_square_product_count_is_pinned(count_calls):
    """The square of one fixed odd (1|1) operator sums the Leibniz terms per
    output key before each product with a left coefficient, and leaves out
    sigma(D)^2: 15 products by compose(D, D), D * D and D ** 2 alike, where
    full_square(D) makes 25 (the expansion per term pair made 17)."""
    x, xi = GradedPoly.var(R11, "x"), GradedPoly.var(R11, "xi")
    dx, dxi = DiffOp.deriv(R11, "x"), DiffOp.deriv(R11, "xi")
    D = DiffOp.mult(x * xi) * dx ** 2 + DiffOp.mult(x ** 2) * dxi + DiffOp.mult(xi) * dx \
        + dxi * dx + DiffOp.mult(x + 3) * dxi * dx ** 2
    assert D.parity() == 1
    products = count_calls(GradedPoly, "__mul__")
    squares, counts = [], []
    for form in (lambda: compose(D, D), lambda: D * D, lambda: D ** 2, lambda: full_square(D)):
        products.clear()
        squares.append(form())
        counts.append(len(products))
    assert counts == [15, 15, 15, 25]
    assert squares[0] == squares[1] == squares[2] == squares[3]
