"""Higher derived brackets, Jacobiators, abstract instances, matrix oracle."""

import functools
import itertools
import math
import random
from fractions import Fraction

import pytest

from superdelta import Chart, DiffOp, GradedPoly, ParityError
from superdelta.diffop import commutator, compose
from superdelta.gralg import _deg, _keys_upto
from superdelta.brackets import (
    LieSuperAlgebraInstance,
    _grassmann_basis,
    higher_bracket,
    jacobiator,
    jacobiator_abstract,
    koszul_sign,
    linfty_check,
    matrix_of,
    matrix_oracle_instance,
    monomials_upto,
    shuffles,
    square_bracket,
)
from superdelta.oracle import (
    chain_bracket, derived_bracket_abstract, leibniz_obstruction, operator_algebra_instance,
    shuffle_jacobiator,
)

from conftest import (CHARTS, R11, R12, R22, R02, R03, full_square, key_within, rand_op,
                      rand_poly)

R01 = Chart((), ("xi1",))


def _x(chart, name):
    return GradedPoly.var(chart, name)


# ---------------------------------------------------------------------------
# signs and shuffles


def test_koszul_sign_basics():
    assert koszul_sign((1, 0), [1, 1]) == -1
    assert koszul_sign((1, 0), [0, 1]) == 1
    assert koszul_sign((1, 2, 0), [1, 1, 1]) == 1  # 3-cycle = 2 transpositions
    with pytest.raises(ValueError):
        koszul_sign((0, 1), [1])
    with pytest.raises(ValueError):
        koszul_sign((0, 0), [1, 1])


def test_koszul_sign_multiplicative(rng):
    pars = [rng.randint(0, 1) for _ in range(4)]
    perms = list(itertools.permutations(range(4)))
    for _ in range(20):
        s = list(rng.choice(perms))
        t = list(rng.choice(perms))
        # composite: apply t, then s to the result
        comp = [t[s[i]] for i in range(4)]
        tpars = [pars[t[i]] for i in range(4)]
        assert koszul_sign(comp, pars) == \
            koszul_sign(t, pars) * koszul_sign(s, tpars)


def test_shuffles_counts_and_order():
    assert len(shuffles(1, 1)) == 2
    assert shuffles(0, 3) == [(0, 1, 2)]
    assert shuffles(3, 0) == [(0, 1, 2)]
    s22 = shuffles(2, 2)
    assert len(s22) == 6
    assert s22[0] == (0, 1, 2, 3)
    for s in s22:
        assert list(s[:2]) == sorted(s[:2]) and list(s[2:]) == sorted(s[2:])
    with pytest.raises(ValueError):
        shuffles(-1, 2)


# ---------------------------------------------------------------------------
# higher brackets


def test_higher_bracket_examples():
    dx = DiffOp.deriv(R11, "x")
    dxi = DiffOp.deriv(R11, "xi")
    D = compose(dx, dxi)
    one = GradedPoly.one(R11)
    assert higher_bracket(D, [_x(R11, "x"), _x(R11, "xi")]) == one
    D2 = compose(compose(dx, dx), dxi)
    assert higher_bracket(D2, [_x(R11, "x"), _x(R11, "x"), _x(R11, "xi")]) == \
        one + one
    # 0-ary bracket is the background
    E = D + DiffOp.mult(_x(R11, "xi"))
    assert higher_bracket(E, []) == _x(R11, "xi")


def test_graded_symmetry(rng):
    chart = R12
    monos = monomials_upto(chart, 2)
    for _ in range(10):
        D = rand_op(rng, chart, 3, parity=rng.randint(0, 1))
        if D.parity() is None:
            continue
        n = rng.randint(2, 4)
        args = [rng.choice(monos) for _ in range(n)]
        pars = [a.parity() for a in args]
        base = higher_bracket(D, args)
        for perm in itertools.permutations(range(n)):
            sgn = koszul_sign(perm, pars)
            assert higher_bracket(D, [args[i] for i in perm]) == \
                base * Fraction(sgn)


def test_vanishing_threshold_and_top_derivation(rng):
    chart = R11
    monos = monomials_upto(chart, 2)
    # higher_bracket returns 0 past the order without computing, so the
    # vanishing is also computed by commutators alone, on every 8th tuple
    inst = operator_algebra_instance(chart)
    for _ in range(8):
        N = rng.randint(1, 3)
        D = rand_op(rng, chart, N, parity=rng.randint(0, 1))
        if D.parity() is None or D.order() is None:
            continue
        N = D.order()
        # (N+1)-ary bracket vanishes
        for i, args in enumerate(itertools.islice(
                itertools.combinations_with_replacement(monos, N + 1), 40)):
            assert higher_bracket(D, list(args)).is_zero()
            if i % 8 == 0:
                assert derived_bracket_abstract(
                    inst, D, [DiffOp.mult(a) for a in args]).is_zero()
        # N-ary bracket is a derivation in the last slot
        for _ in range(5):
            head = [rng.choice(monos) for _ in range(N - 1)]
            b, c = rng.choice(monos), rng.choice(monos)
            obstruction = leibniz_obstruction(D, head, b, c)
            assert obstruction.is_zero() and obstruction == higher_bracket(D, head + [b, c])


def test_leibniz_obstruction_equals_next_bracket(rng):
    for chart in (R11, R12):
        monos = monomials_upto(chart, 2)
        for _ in range(15):
            D = rand_op(rng, chart, 3, parity=rng.randint(0, 1))
            if D.parity() is None:
                continue
            k = rng.randint(1, 3)
            head = [rng.choice(monos) for _ in range(k - 1)]
            b, c = rng.choice(monos), rng.choice(monos)
            assert leibniz_obstruction(D, head, b, c) == \
                higher_bracket(D, head + [b, c])


def test_leibniz_obstruction_examples():
    D = compose(DiffOp.deriv(R11, "x"), DiffOp.deriv(R11, "xi"))
    x, xi = _x(R11, "x"), _x(R11, "xi")
    X = compose(DiffOp.mult(xi), DiffOp.deriv(R11, "x"))  # a vector field
    assert leibniz_obstruction(X, [], x, x).is_zero()
    assert higher_bracket(X, [x, x]).is_zero()
    assert leibniz_obstruction(D, [], x, xi) == higher_bracket(D, [x, xi])


def test_leibniz_obstruction_splits_by_linearity(rng):
    """A zero argument or a zero b gives 0; inhomogeneous arguments give
    the sum over their homogeneous parts, and the next bracket."""
    for chart in (R11, R12):
        zero = GradedPoly.zero(chart)
        for _ in range(6):
            D = rand_op(rng, chart, 3, parity=rng.randint(0, 1))
            head = [rand_poly(rng, chart, 2, nterms=3)]
            b, c = rand_poly(rng, chart, 2, nterms=3), rand_poly(rng, chart, 2, nterms=3)
            assert leibniz_obstruction(D, [zero], b, c).is_zero()
            assert leibniz_obstruction(D, head, zero, c).is_zero()
            split = GradedPoly._sum(chart, (
                leibniz_obstruction(D, [h], bh, c)
                for _, h in head[0].homogeneous_parts() for _, bh in b.homogeneous_parts()))
            assert leibniz_obstruction(D, head, b, c) == split == \
                higher_bracket(D, head + [b, c])


def _reference_monomials(chart, deg):
    """The enumeration monomials_upto has always had, as a literal loop:
    by total degree, then even exponents, then odd indices."""
    out = []
    n_odd = len(chart.odd)
    for total in range(1, deg + 1):
        for e in itertools.product(range(total + 1), repeat=len(chart.even)):
            for r in range(n_odd + 1):
                for o in itertools.combinations(range(n_odd), r):
                    if sum(e) + r == total:
                        out.append(GradedPoly(chart, {(e, o): 1}))
    return out


@pytest.mark.parametrize("chart", CHARTS, ids=str)
def test_monomials_upto_order_is_pinned(chart):
    """The benchmark digests depend on this order; they reach degree 2 on
    the bench charts only."""
    for d in range(5):
        got = monomials_upto(chart, d)
        assert [m.terms for m in got] == [m.terms for m in _reference_monomials(chart, d)]


# ---------------------------------------------------------------------------
# Jacobiators and the derived-bracket identity


def test_jacobiator_examples():
    x, xi = _x(R11, "x"), _x(R11, "xi")
    D = compose(DiffOp.deriv(R11, "x"), DiffOp.deriv(R11, "xi"))
    assert jacobiator(D, [x, xi]).is_zero()
    assert jacobiator(D, []).is_zero()
    Dlt = DiffOp.deriv(R11, "xi") + compose(
        DiffOp.mult(xi), compose(DiffOp.deriv(R11, "x"), DiffOp.deriv(R11, "x")))
    two = GradedPoly.one(R11) + GradedPoly.one(R11)
    assert jacobiator(Dlt, [x, x]) == two
    assert square_bracket(Dlt, [x, x]) == two


def test_jacobiator_equals_square_bracket(rng):
    for chart in (R11, R12, R02, R03):
        monos = monomials_upto(chart, 2)
        for _ in range(6):
            D = rand_op(rng, chart, 3, parity=1)
            for n in range(0, 5):
                for _ in range(2):
                    args = [rng.choice(monos) for _ in range(n)]
                    assert jacobiator(D, args) == square_bracket(D, args)


def _product_sum(D, args):
    """sum_k sum_{(k, n-k)-shuffles s} sign(s) (-1)^{|D| |a_S|} {a_S} {a_R}
    of D, S = s[:k] and R = s[k:], each bracket a commutator chain; the
    polarization of {a}^2, so 0 for odd D."""
    pars, n = [a.parity() for a in args], len(args)
    total = GradedPoly.zero(D.chart)
    for k in range(n + 1):
        for s in shuffles(k, n - k):
            sign = koszul_sign(s, pars) * (-1) ** (D.parity() * sum(pars[i] for i in s[:k]))
            total = total + chain_bracket(D, [args[i] for i in s[:k]]) \
                * chain_bracket(D, [args[i] for i in s[k:]]) * sign
    return total


def test_jacobiator_identity_for_both_parities():
    """J^n of Delta is the n-th bracket of Delta^2 less the product sum
    (_product_sum), both from the oracle's commutator chains and shuffle
    sum: the product sum is 0 for odd Delta, so J^n = {...}_{Delta^2}
    there, and not in general for even Delta.  Generators of both parities
    and order <= 3 on the five charts, a third carrying W; homogeneous
    multi-term arguments, n <= 4."""
    rng = random.Random("jacobiator identity")
    cases, nonzero = [0, 0], [0, 0]
    for chart in CHARTS:
        for i in range(12):
            par = i % 2
            D = rand_op(rng, chart, rng.randint(1, 3), parity=par, nterms=3)
            if i % 3 == 0:
                D = D + compose(DiffOp.weight(chart), rand_op(rng, chart, 1, parity=par, nterms=2))
            for n in range(5):
                args = [rand_poly(rng, chart, 2, parity=rng.randint(0, 1), nterms=3)
                        for _ in range(n)]
                ref = shuffle_jacobiator(lambda xs: chain_bracket(D, xs), args)
                products = _product_sum(D, args)
                assert ref == chain_bracket(full_square(D), args) - products
                assert jacobiator(D, args) == ref
                cases[par] += 1
                nonzero[par] += not products.is_zero()
    assert cases == [150, 150] and nonzero[1] == 0 and nonzero[0] >= 10


@pytest.mark.parametrize("chart", [R11, R12, R22, R03],
                         ids=["1|1", "1|2", "2|2", "0|3"])
def test_brackets_match_commutator_chain(chart):
    """higher_bracket (the kernel's order bound) and jacobiator (also the
    k-range of the order bound) against the oracle's commutator chains and
    shuffle sum, which assume no bound: odd and even generators of order
    <= 3, some carrying W, and Delta = 0; arities 0-5, so n > ord Delta and
    n >= 2 ord Delta occur; zero and, for brackets, inhomogeneous
    arguments."""
    rng = random.Random(808)
    monos = monomials_upto(chart, 1) * 3 + monomials_upto(chart, 2)
    W = DiffOp.weight(chart)
    zero = GradedPoly.zero(chart)
    gens = [DiffOp.zero(chart)]
    while len(gens) < 11:
        par = len(gens) % 2
        D = rand_op(rng, chart, 3, parity=par)
        if len(gens) % 3 == 0:
            D = D + compose(W, rand_op(rng, chart, 2, parity=par))
        if not D.is_zero():
            gens.append(D)
    nonzero = [0, 0]
    for D in gens:
        for n in list(range(6)) * 3:
            args = [rng.choice(monos) for _ in range(n)]
            if n and rng.random() < 0.2:
                args[rng.randrange(n)] = zero
            J = jacobiator(D, args)
            assert J == shuffle_jacobiator(lambda xs: chain_bracket(D, xs), args)
            nonzero[0] += not J.is_zero()
            mixed = [a + rng.choice(monos) for a in args]
            for bargs in (args, mixed):
                B = higher_bracket(D, bargs)
                assert B == chain_bracket(D, bargs)
                nonzero[1] += not B.is_zero()
    # the draw is not all zeros
    assert nonzero[0] >= 5 and nonzero[1] >= 40


def _envelope_reference(chart, args):
    """The derivatives args can absorb, from the definition: per even
    variable the sum of its largest exponent in each argument, and the
    union of the odd indices."""
    even, odd = [0] * len(chart.even), set()
    for a in args:
        top = [0] * len(chart.even)
        for e, o in a.terms:
            top = [max(t, x) for t, x in zip(top, e)]
            odd |= set(o)
        even = [s + t for s, t in zip(even, top)]
    return tuple(even), tuple(sorted(odd))


def _narrow_poly(rng, chart):
    """A polynomial whose support the bound can use: a constant, one
    variable, or a few monomials in a random part of the odd coordinates
    with small even exponents."""
    pick = rng.random()
    if pick < 0.15:
        return GradedPoly.const(chart, rng.randint(1, 3))
    if pick < 0.45:
        return GradedPoly.var(chart, rng.choice(chart.names))
    odd = set(rng.sample(range(len(chart.odd)), rng.randint(0, len(chart.odd) - 1)))
    top = rng.randint(0, 2)
    p = rand_poly(rng, chart, 3, nterms=5)
    return GradedPoly(chart, {(e, o): c for (e, o), c in p.terms.items()
                              if set(o) <= odd and max(e, default=0) <= top})


def test_support_bound_matches_commutator_chain():
    """higher_bracket and square_bracket, which form no term whose key is
    not within the envelope of the arguments, against commutator chains of
    Delta and of the whole Delta^2 that assume no bound: odd and even
    Delta of order <= 3 on all five charts, every third carrying W, and
    arguments that are single variables (so often of disjoint odd
    supports), constants, or several monomials in part of the odd
    coordinates, n = 0-4.  In most cases Delta^2 has terms outside the
    envelope."""
    rng = random.Random("support bound")
    cases = bites = nonzero = 0
    for chart in CHARTS:
        for D in _seeded_generators(rng, chart, 10):
            sq = full_square(D)
            for n in range(5):
                for _ in range(3):
                    args = []
                    while len(args) < n:
                        if not (a := _narrow_poly(rng, chart)).is_zero():
                            args.append(a)
                    B = higher_bracket(D, args)
                    assert B == chain_bracket(D, args)
                    F = square_bracket(D, args)
                    assert F == chain_bracket(sq, args)
                    env = _envelope_reference(chart, args)
                    cases += 1
                    bites += any(not key_within(k, env) for k in sq.terms)
                    nonzero += not F.is_zero() and not B.is_zero()
    assert cases == 750 and bites >= 450 and nonzero >= 80


def test_square_bracket_product_count_is_pinned(count_calls):
    """square_bracket forms only the terms of Delta^2 its arguments can
    absorb, for one fixed odd (0|3) operator: {}_{Delta^2} = Delta^2 1 takes
    1 product and {xi1}_{Delta^2} 2, where the whole square from order n
    up took 7 for each."""
    xi1, xi2, xi3 = (_x(R03, name) for name in R03.odd)
    d1, d2, d3 = (DiffOp.deriv(R03, name) for name in R03.odd)
    D = d1 * d2 * d3 + DiffOp.mult(xi1) * d2 * d3 + DiffOp.mult(xi2 * xi3) * d1 \
        + DiffOp.mult(xi3) * d1 * d2 + DiffOp.mult(xi1)
    assert D.parity() == 1
    sq = full_square(D)
    want = [chain_bracket(sq, []), chain_bracket(sq, [xi1])]
    assert want == [xi2 * xi3, -xi1]
    products = count_calls(GradedPoly, "__mul__")
    assert square_bracket(D, []) == want[0]
    assert len(products) == 1
    products.clear()
    assert square_bracket(D, [xi1]) == want[1]
    assert len(products) == 2


def _seeded_generators(rng, chart, count):
    """Odd and even operators of order <= 3, every third with a W part."""
    W = DiffOp.weight(chart)
    gens = []
    while len(gens) < count:
        par = len(gens) % 2
        D = rand_op(rng, chart, 3, parity=par)
        if len(gens) % 3 == 2:
            D = D + compose(W, rand_op(rng, chart, 2, parity=par))
        if not D.is_zero():
            gens.append(D)
    return gens


def _homogeneous_args(rng, chart, monos, n):
    out = []
    while len(out) < n:
        if rng.random() < 0.7:
            out.append(rng.choice(monos))
        elif not (p := rand_poly(rng, chart, 2, rng.randint(0, 1), nterms=3)).is_zero():
            out.append(p)
    return out


def _mixed_args(rng, chart, monos, n):
    """n inhomogeneous arguments, so of two terms at least: an even and an
    odd monomial plus a few random terms, drawn again if these cancel one."""
    even = [m for m in monos if m.parity() == 0]
    odd = [m for m in monos if m.parity() == 1]
    out = []
    while len(out) < n:
        a = rng.choice(even) + rng.choice(odd) * rng.randint(1, 3) \
            + rand_poly(rng, chart, 2, nterms=2)
        if a.parity() is None:
            out.append(a)
    return out


def _kernel_draws(upto):
    """The seeded draws of the kernel test on CHARTS[upto]: (Delta, [(args,
    mixed args) for n = 0-5]) for 36 generators.  The draws of the charts
    before it are replayed and not evaluated, so each chart gets the cases
    one run over all five would give it."""
    rng = random.Random(1414)
    mixed_rng = random.Random("mixed arguments")
    for chart in CHARTS[:upto + 1]:
        monos = monomials_upto(chart, 2)
        for D in _seeded_generators(rng, chart, 36):
            draws = [(_homogeneous_args(rng, chart, monos, n),
                      _mixed_args(mixed_rng, chart, monos, n)) for n in range(6)]
            if chart is CHARTS[upto]:
                yield D, draws


# per chart of CHARTS, the floors of nonzero J and of nonzero mixed brackets
_KERNEL_FLOORS = ((30, 150), (25, 130), (10, 70), (20, 80), (15, 80))


@pytest.mark.parametrize("upto", range(len(CHARTS)), ids=("R11", "R12", "R22", "R02", "R03"))
def test_bracket_kernel_matches_the_ad_mult_chain(upto):
    """The bracket kernel against the oracle's commutator chains, which take
    no bound: jacobiator against the shuffle sum over every block that takes
    every bracket from scratch, square_bracket against the chain of the whole
    square, and higher_bracket and square_bracket again on inhomogeneous
    multi-term arguments: 216 seeded cases per chart, 1,080 on the five,
    odd and even Delta, some with W, n = 0-5, compared by value and by
    rendered text.  The floors sum to 100 nonzero J and 500 nonzero mixed
    brackets."""
    from superdelta.dsl import render

    cases = nonzero = mixed_nonzero = 0
    for D, draws in _kernel_draws(upto):
        sq = full_square(D)
        for args, mixed in draws:
            J = jacobiator(D, args)
            ref = shuffle_jacobiator(lambda xs: chain_bracket(D, xs), args)
            assert J == ref and render(J) == render(ref)
            F, ref = square_bracket(D, args), chain_bracket(sq, args)
            assert F == ref and render(F) == render(ref)
            for op, bracket in ((D, higher_bracket(D, mixed)),
                                (sq, square_bracket(D, mixed))):
                ref = chain_bracket(op, mixed)
                assert bracket == ref and render(bracket) == render(ref)
                mixed_nonzero += not ref.is_zero()
            cases += 1
            nonzero += not J.is_zero()
    floor_j, floor_mixed = _KERNEL_FLOORS[upto]
    assert cases == 216 and nonzero >= floor_j and mixed_nonzero >= floor_mixed


def test_square_bracket_of_an_inhomogeneous_generator():
    """Delta^2 is formed whole when Delta is inhomogeneous: an
    inhomogeneous square raises at every arity, even where its terms of
    order >= n alone are homogeneous, and a square that is 0 gives 0."""
    x, xi = _x(R11, "x"), _x(R11, "xi")
    D = DiffOp.deriv(R11, "x") + DiffOp.mult(xi)  # D^2 = d_x^2 + 2 xi d_x
    for n in range(3):
        with pytest.raises(ParityError):
            square_bracket(D, [x] * n)
    xi1, xi2 = _x(R02, "xi1"), _x(R02, "xi2")
    D = DiffOp.mult(xi1 * xi2 + xi1)
    assert D.parity() is None and compose(D, D).is_zero()
    for n in range(3):
        assert square_bracket(D, [xi1, xi2][:n]).is_zero()


def test_parity_is_taken_once_per_jacobiator(monkeypatch):
    """Delta walks its terms for its parity once, however often it is asked:
    over four jacobiator and four square_bracket calls on one fresh Delta it
    is walked once, by the first jacobiator, whose k = 0 block reads Delta 1
    off the terms.  Each square_bracket walks exactly one new operator, its
    Delta^2, which higher_bracket asks for.  A walk is a call of diffop's
    _parity, laid to the operator asked just before it.  Counted, not
    timed."""
    from superdelta import diffop
    events = []
    ask, walk = DiffOp.parity, diffop._parity
    monkeypatch.setattr(DiffOp, "parity", lambda D: events.append(D) or ask(D))
    monkeypatch.setattr(diffop, "_parity", lambda pars: events.append(None) or walk(pars))

    def walked():
        out = [events[i - 1] for i, e in enumerate(events) if e is None]
        events.clear()
        return out

    rng = random.Random("parity once")
    background = 0
    for chart in (R11, R12, R22, R02, R03):
        monos = monomials_upto(chart, 2)
        for D in _seeded_generators(rng, chart, 12):
            D = D + 0  # a fresh operator, not walked yet
            for n in range(4):
                args = _homogeneous_args(rng, chart, monos, n)
                walked()
                jacobiator(D, args)
                assert [W is D for W in walked()] == [True] * (n == 0)
                background += n < (D.order() or 0)
                square_bracket(D, args)
                assert [W is D for W in walked()] == [False]
    assert background >= 100


def test_jacobiator_computes_no_table_twice(monkeypatch):
    """From a cleared table, one call builds each entry P_I(x^m, x^m_T) it
    needs once, however many shuffles read it, and only within the order
    bound: |I| > |m_T|, with at most r = 3 monomials.  The table is a fresh
    copy of the kernel's, as bounded, that records each entry it builds."""
    from superdelta import brackets

    seen = []
    build = brackets._products.__wrapped__

    def counted(I, monos):
        seen.append((I, monos))
        return build(I, monos)

    table = functools.lru_cache(maxsize=brackets._products.cache_info().maxsize)(counted)
    monkeypatch.setattr(brackets, "_products", table)
    rng = random.Random(99)
    chart = R11
    args = [_x(chart, "x"), _x(chart, "xi"), _x(chart, "x") * _x(chart, "x"),
            _x(chart, "x") * _x(chart, "xi"), GradedPoly.one(chart)]
    ops = [D for D in _seeded_generators(rng, chart, 12) if D.order() == 3]
    assert ops
    built = 0
    for D in ops:
        for n in range(6):
            table.cache_clear()
            seen.clear()
            J = jacobiator(D, args[:n])
            assert len(set(seen)) == len(seen)
            assert all(len(monos) <= min(_deg(I), 3) for I, monos in seen)
            assert shuffle_jacobiator(lambda xs: chain_bracket(D, xs), args[:n]) == J
            built += len(seen)
    assert built


def test_last_argument_is_the_leibniz_term_where_every_derivative_hits():
    """The table's entry P_I(x^m) of one monomial is the term of
    _leibniz(I, m) where every derivative hits (the cap at the unit key
    lets none pass), so it must share _derive's sign rule: for every key I
    and monomial x^m of degree <= 3 on all five charts, d^I x^m is the sum
    of the _leibniz(I, m, free=False) terms n x^m' d^rest whose rest is the
    unit key, and so is the entry.  For I = unit both are 0: free=False
    leaves out the term where no derivative hits, and P_unit(x^m) = 0 as an
    operator of order 0 has no unary bracket."""
    from superdelta.brackets import _products
    from superdelta.diffop import _leibniz
    from superdelta.gralg import _derive

    for chart in CHARTS:
        keys = _keys_upto(chart, 3)
        unit = keys[0]
        for m in keys:
            x_m = GradedPoly(chart, {m: 1})
            for I in keys:
                sums = {}
                for rest, m1, n in _leibniz(I, m, free=False):
                    if rest == unit:
                        sums[m1] = sums.get(m1, 0) + n
                want = GradedPoly(chart, sums)
                assert GradedPoly(chart, dict(_products(I, (m,)))) == want
                assert want.is_zero() if I == unit else _derive(I, x_m) == want


def test_every_table_entry_is_the_bracket_of_its_word():
    """Each entry P_I(x^m_0, ..., x^m_k) of the bracket table is the
    bracket of the word d^I on those monomials by its definition
    (oracle.chain_bracket, no order floor or support bound): every key I of
    order 1..3 and every tuple of at most |I| monomials of degree <= 2, the
    unit included, on all five charts, the table cleared before each key
    and arity."""
    from superdelta.brackets import _products

    for chart in CHARTS:
        keys = _keys_upto(chart, 3)
        monos = [k for k in keys if _deg(k) <= 2]
        one = GradedPoly.one(chart)
        for I in keys[1:]:
            word = DiffOp(chart, {I: {0: one}})
            for k in range(1, _deg(I) + 1):
                _products.cache_clear()
                for ms in itertools.product(monos, repeat=k):
                    entry = _products(I, ms)
                    assert all(type(n) is int and n for _, n in entry)
                    want = chain_bracket(word, [GradedPoly(chart, {m: 1}) for m in ms])
                    assert GradedPoly(chart, dict(entry)) == want


def test_bracket_table_is_bounded_and_cold_equals_warm(count_calls):
    """The table is bounded, and it changes how an entry is found, never a
    result or a product: seeded brackets, square brackets and Jacobiators
    with multi-term arguments on all five charts give the same outputs and
    the same GradedPoly.__mul__ calls with the table cleared before every
    call as when it is warm."""
    from superdelta.brackets import _products

    assert _products.cache_info().maxsize is not None
    rng = random.Random("bracket table")
    cases = []
    for chart in CHARTS:
        monos = monomials_upto(chart, 2)
        for D in _seeded_generators(rng, chart, 6):
            for n in range(1, 4):
                cases.append((D, _homogeneous_args(rng, chart, monos, n)))
    products, runs = count_calls(GradedPoly, "__mul__"), []
    for cold in (True, False):
        outputs = []
        for D, args in cases:
            for f in (higher_bracket, square_bracket, jacobiator):
                if cold:
                    _products.cache_clear()
                outputs.append(f(D, args))
        runs.append((outputs, products[:]))
        products.clear()
    assert any(len(a.terms) > 1 for _, args in cases for a in args)
    assert runs[0] == runs[1]


def test_oracle_sign_table_matches_the_product():
    """The matrix oracle's multiplication table of the Grassmann basis,
    from its own inversion count, against GradedPoly products."""
    from superdelta.brackets import _grassmann_basis, _sign_table
    from superdelta import Chart

    for q in range(1, 5):
        chart = Chart((), tuple(f"xi{i}" for i in range(1, q + 1)))
        basis = _grassmann_basis(chart)
        table = _sign_table(basis)

        def mono(o):
            return GradedPoly(chart, {((), o): 1})

        for m, om in enumerate(basis):
            for j, oj in enumerate(basis):
                hit = table[m][j]
                want = mono(om) * mono(oj)
                got = (GradedPoly.zero(chart) if hit is None
                       else mono(basis[hit[0]]) * hit[1])
                assert got == want


# ---------------------------------------------------------------------------
# abstract instances


def test_instance_laws_checked_on_construction():
    inst = operator_algebra_instance(R12)
    for x in inst.span:
        assert inst.in_image(inst.project(x))
    # a projector violating the laws is rejected
    with pytest.raises(ValueError):
        LieSuperAlgebraInstance(
            bracket=inst.bracket,
            project=lambda D: D,  # identity: im P = everything, not abelian
            sub=inst.sub,
            is_zero=inst.is_zero,
            span=inst.span,
        )


def test_derived_bracket_abstract_matches_symbolic(rng):
    chart = R11
    inst = operator_algebra_instance(chart)
    D = compose(DiffOp.deriv(chart, "x"), DiffOp.deriv(chart, "xi"))
    res = derived_bracket_abstract(
        inst, D, [DiffOp.mult(_x(chart, "x")), DiffOp.mult(_x(chart, "xi"))])
    assert res == DiffOp.mult(GradedPoly.one(chart))
    # n = 0 gives P(Delta)
    assert derived_bracket_abstract(inst, D, []) == inst.project(D)
    with pytest.raises(ValueError):
        derived_bracket_abstract(inst, D, [DiffOp.deriv(chart, "x")])


def test_matrix_oracle_agrees_with_symbolic(rng):
    for chart in (R02, R03):
        iop = operator_algebra_instance(chart)
        imx = matrix_oracle_instance(chart)
        monos = monomials_upto(chart, 3)
        for _ in range(6):
            D = rand_op(rng, chart, 3, parity=1)
            sq = full_square(D)
            for n in range(0, 4):
                args = [rng.choice(monos) for _ in range(n)]
                pars = [a.parity() for a in args]
                sym = jacobiator(D, args)
                jop = jacobiator_abstract(
                    iop, D, [DiffOp.mult(a) for a in args], pars)
                jmx = jacobiator_abstract(
                    imx, matrix_of(D),
                    [matrix_of(DiffOp.mult(a)) for a in args], pars)
                rhs = derived_bracket_abstract(
                    imx, matrix_of(sq),
                    [matrix_of(DiffOp.mult(a)) for a in args])
                assert jop == DiffOp.mult(sym)
                assert jmx == matrix_of(DiffOp.mult(sym))
                assert rhs == jmx


def _mat_add(A, B):
    """A + B from the oracle's own difference: A - ((B - B) - B)."""
    from superdelta.brackets import _mat_sub
    return _mat_sub(A, _mat_sub(_mat_sub(B, B), B))


def test_matrix_parity_is_read_off_entries(monkeypatch, rng):
    """The oracle reads a matrix's parity off its nonzero entries and makes
    no DiffOp.parity call: it is the parity of the operator represented,
    None for an inhomogeneous or zero one, also through products,
    differences and the projector."""
    from superdelta.brackets import _mat_mul, _mat_sub

    def want(D):
        return None if D.is_zero() else D.parity()

    calls = []
    real = DiffOp.parity
    monkeypatch.setattr(DiffOp, "parity", lambda D: calls.append(1) or real(D))
    seen = set()
    for q in (1, 2, 3):
        chart = Chart((), tuple(f"xi{i}" for i in range(1, q + 1)))
        imx = matrix_oracle_instance(chart)
        one = GradedPoly.one(chart)
        for _ in range(12):
            D, E = (rand_op(rng, chart, q, parity=rng.choice((0, 1, None)), nterms=3)
                    for _ in range(2))
            calls.clear()
            A, B = matrix_of(D), matrix_of(E)
            assert calls == []
            seen.add(want(D))
            assert A.parity == want(D) and B.parity == want(E)
            assert _mat_mul(A, B).parity == want(compose(D, E))
            assert _mat_sub(A, B).parity == want(D - E)
            assert _mat_add(A, B).parity == want(D + E)
            assert imx.project(A).parity == want(DiffOp.mult(D.apply(one)))
    assert seen == {0, 1, None}


def test_matrix_of_compose_is_product(rng):
    from superdelta.brackets import _mat_mul
    for _ in range(10):
        A = rand_op(rng, R02, 2)
        B = rand_op(rng, R02, 2)
        assert matrix_of(compose(A, B)) == _mat_mul(matrix_of(A), matrix_of(B))


def test_odd_square_matrix_is_the_matrix_square():
    """On (0|2) and (0|3) the odd square compose(D, D), formed without
    sigma(Delta)^2, has the square of Delta's matrix as its matrix: the
    oracle's product is a path independent of the Leibniz rule."""
    from superdelta.brackets import _mat_mul
    rng = random.Random("odd square matrix")
    nonzero = 0
    for chart in (R02, R03):
        for _ in range(60):
            D = rand_op(rng, chart, 3, parity=1)
            sq = compose(D, D)
            assert matrix_of(sq) == _mat_mul(matrix_of(D), matrix_of(D))
            nonzero += not sq.is_zero()
    assert nonzero >= 60


def test_matrix_bracket_is_one_product_pass(count_calls):
    """_mat_bracket(A, B) = AB - (-1)^{|A| |B|} BA, built as one matrix from
    one pass over the rows, on seeded homogeneous matrices of both
    parities; the two products and their sum or difference are the reference."""
    from superdelta.brackets import GrassmannMatrix, _mat_bracket, _mat_mul, _mat_sub
    rng = random.Random("matrix bracket")
    built = count_calls(GrassmannMatrix, "__init__")
    pars = set()
    for q in (1, 2, 3):
        chart = Chart((), tuple(f"xi{i}" for i in range(1, q + 1)))
        for _ in range(20):
            D, E = (rand_op(rng, chart, q, parity=rng.randint(0, 1), nterms=3)
                    for _ in range(2))
            A, B = matrix_of(D), matrix_of(E)
            pars.add((A.parity, B.parity))
            combine = _mat_add if A.parity == B.parity == 1 else _mat_sub
            built.clear()
            C = _mat_bracket(A, B)
            assert len(built) == 1
            assert C == combine(_mat_mul(A, B), _mat_mul(B, A)) \
                == matrix_of(commutator(D, E))
    assert {(0, 0), (0, 1), (1, 0), (1, 1)} <= pars


def _seeded_oracle_ops(rng, chart):
    """Seeded operators of every kind the oracle reads: even, odd,
    inhomogeneous, zero, and W pencils, whose matrix is read at weight 0."""
    q = len(chart.odd)
    ops = [DiffOp.zero(chart), DiffOp.weight(chart)]
    for parity in (0, 1, None):
        for _ in range(6):
            D = rand_op(rng, chart, q, parity=parity, nterms=3)
            ops += [D, D + DiffOp.weight(chart) * rand_op(rng, chart, q, nterms=2)]
    return ops


def _column(M, j):
    """Column j of a matrix as a polynomial, from the oracle's basis."""
    basis = _grassmann_basis(M.chart)
    return GradedPoly(M.chart, {((), basis[i]): row[j] for i, row in enumerate(M.rows)
                                if j in row})


def test_matrix_of_columns_are_the_action(count_calls):
    """Column j of matrix_of(D) is D applied to the j-th basis monomial, on
    (0|1), (0|2) and (0|3); matrix_of itself calls no engine kernel: no
    DiffOp.apply, _derive or GradedPoly product."""
    from superdelta import gralg
    rng = random.Random("matrix_of columns")
    kernel = [count_calls(DiffOp, "apply"), count_calls(gralg, "_derive"),
              count_calls(GradedPoly, "__mul__")]
    for chart in (R01, R02, R03):
        basis = _grassmann_basis(chart)
        for D in _seeded_oracle_ops(rng, chart):
            for calls in kernel:
                calls.clear()
            M = matrix_of(D)
            assert [len(calls) for calls in kernel] == [0, 0, 0]
            for j, o in enumerate(basis):
                assert _column(M, j) == D.apply(GradedPoly(chart, {((), o): 1}))


def test_jacobiator_abstract_takes_each_inner_chain_once():
    """For n arguments jacobiator_abstract takes (2^n - 1) inner chain
    brackets and sum_k C(n, k) (n - k + 1) outer ones, 27 at n = 3 against
    the 32 of a literal evaluation, and agrees with that evaluation on the
    matrix oracle on (0|2) and (0|3) for n <= 4."""
    rng = random.Random("jacobiator_abstract work")
    for chart in (R02, R03):
        imx = matrix_oracle_instance(chart)
        calls = []
        counting = LieSuperAlgebraInstance(
            bracket=lambda x, y: calls.append(1) or imx.bracket(x, y), project=imx.project,
            sub=imx.sub, is_zero=imx.is_zero)
        monos = monomials_upto(chart, 3)
        for _ in range(3):
            D = rand_op(rng, chart, 3, parity=1)
            for n in range(5):
                args = [rng.choice(monos) for _ in range(n)]
                pars = [a.parity() for a in args]
                mats = [matrix_of(DiffOp.mult(a)) for a in args]
                calls.clear()
                J = jacobiator_abstract(counting, matrix_of(D), mats, pars)
                assert len(calls) == 2 ** n - 1 + sum(
                    math.comb(n, k) * (n - k + 1) for k in range(n + 1))
                assert n != 3 or len(calls) == 27
                calls.clear()
                M = matrix_of(D)
                assert shuffle_jacobiator(lambda xs: derived_bracket_abstract(counting, M, xs),
                                          mats, pars, counting.sub) == J
                assert n != 3 or len(calls) == 32


def test_oracle_matrices_hold_no_zero():
    """No matrix that matrix_of, _mat_mul, _mat_bracket, _mat_sub or the
    projector builds holds a zero entry, on seeded cases where entries
    cancel: E - k (E the Euler operator sum xi_i d_i, which scales a
    monomial by its degree), (1 + n)(1 - n) for nilpotent n, brackets of
    multiplication operators (which supercommute) and A - A."""
    from superdelta.brackets import _mat_bracket, _mat_mul, _mat_sub
    rng = random.Random("oracle rows")

    def clean(M):
        assert all(all(row.values()) for row in M.rows)
        return M

    for chart in (R01, R02, R03):
        imx = matrix_oracle_instance(chart)
        xis = [GradedPoly.var(chart, v) for v in chart.odd]
        euler = sum((DiffOp.mult(x) * DiffOp.deriv(chart, v) for x, v in zip(xis, chart.odd)),
                    DiffOp.zero(chart))
        for k in range(len(xis) + 1):
            M = clean(matrix_of(euler - k))
            assert all(_column(M, j).is_zero()
                       for j, o in enumerate(_grassmann_basis(chart)) if len(o) == k)
        for _ in range(8):
            n = rand_poly(rng, chart, len(xis), nterms=3)
            n = n - n.constant_term()
            P, Q = matrix_of(DiffOp.mult(1 + n)), matrix_of(DiffOp.mult(1 - n))
            assert clean(_mat_mul(P, Q)) == matrix_of(DiffOp.mult(1 - n * n))
            a, b = (rand_poly(rng, chart, 2, parity=rng.randint(0, 1), nterms=3)
                    for _ in range(2))
            A, B = matrix_of(DiffOp.mult(a)), matrix_of(DiffOp.mult(b))
            assert clean(_mat_bracket(A, B)).is_zero()
            D = rand_op(rng, chart, len(xis), nterms=3)
            C = matrix_of(D)
            assert clean(_mat_sub(C, C)).is_zero()
            assert clean(_mat_add(_mat_mul(C, A), C)) \
                == matrix_of(compose(D, DiffOp.mult(a)) + D)
            clean(imx.project(clean(_mat_mul(C, C))))


# ---------------------------------------------------------------------------
# L-infinity certification


def test_linfty_flat_bv():
    D = compose(DiffOp.deriv(R11, "x"), DiffOp.deriv(R11, "xi"))
    rep = linfty_check(D, 4)
    assert rep.square_order is None
    assert all(rep.checked.values())
    assert rep.certified


def test_linfty_nonzero_square():
    xi = _x(R11, "xi")
    D = DiffOp.deriv(R11, "xi") + compose(
        DiffOp.mult(xi), compose(DiffOp.deriv(R11, "x"), DiffOp.deriv(R11, "x")))
    rep = linfty_check(D, 4)
    assert rep.square_order == 2
    assert rep.checked == {3: True, 4: True}
    assert rep.witness is not None and rep.witness[0] == 2
    assert rep.certified


def test_linfty_requires_odd():
    with pytest.raises(ParityError):
        linfty_check(DiffOp.deriv(R11, "x"), 3)


def test_linfty_first_order_square_zero(rng):
    # an odd vector field with zero square: xi d_x on R^{1|1}
    X = compose(DiffOp.mult(_x(R11, "xi")), DiffOp.deriv(R11, "x"))
    rep = linfty_check(X, 4)
    assert rep.square_order is None
    assert rep.certified
