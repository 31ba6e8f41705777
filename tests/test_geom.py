"""Brackets from operators, odd Laplacians, the density calculus, the
canonical pencil, Jacobi classification, and coordinate covariance."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings

from superdelta import Chart, DensityElement, DiffOp, GradedPoly, partial, substitute
from superdelta.diffop import (
    commutator, compose, conjugate_by_exp, formal_adjoint, op_from_action,
    specialize,
)
from superdelta.gralg import ChartMismatch, DomainError, ParityError, _substitute
from superdelta.cli import _LEVEL_NAMES
from superdelta.geom import (
    BracketDataError,
    CoordMap,
    CoordMapError,
    VBracketData,
    _berezinian,
    _exact_quotient,
    _tstar_matrix,
    _unit_series,
    act_on_w_densities,
    bracket_from_operator,
    canonical_pencil,
    classify_square,
    cotangent_chart,
    divergence,
    extract_vbracket,
    first_order_coeffs,
    hamiltonian_vf,
    jacobi_report,
    lb_data,
    lie_derivative,
    lie_derivative_pencil,
    log_berezinian,
    master_discrepancy,
    odd_laplacian,
    pencil_bracket,
    principal_matrix,
    recover_action,
    second_order_part,
    transform_data,
    transform_logvol,
    transform_op,
)

from superdelta import diffop, geom, gralg, oracle
from superdelta.oracle import (
    div_form, matrix_bracket, modular_vf, poisson_bracket, smatrix_of, subprincipal,
    transform_gamma, transform_smatrix, tstar_bracket,
)
from superdelta.dsl import load_module, render

from conftest import (
    CHARTS, R02, R03, R11, R12, R22,
    full_square, poly_strategy, rand_op, rand_poly, rand_smatrix, rand_vdata, std_odd_smatrix,
)

WEIGHTS = (Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(1), Fraction(2))


# ---------------------------------------------------------------------------
# coordinate brackets


def test_bracket_symmetry(rng):
    for chart in (R12, R22):
        for eps in (0, 1):
            S = rand_smatrix(rng, chart, eps)
            for a in chart.names:
                for b in chart.names:
                    fa = GradedPoly.var(chart, a)
                    fb = GradedPoly.var(chart, b)
                    lhs = matrix_bracket(S, chart, fa, fb)
                    rhs = matrix_bracket(S, chart, fb, fa) * Fraction(
                        (-1) ** (chart.parity(a) * chart.parity(b)))
                    assert lhs == rhs


def test_bracket_on_coordinates_recovers_s(rng):
    for eps in (0, 1):
        S = rand_smatrix(rng, R22, eps)
        assert smatrix_of(R22, lambda b, a: matrix_bracket(
            S, R22, GradedPoly.var(R22, b), GradedPoly.var(R22, a))) == S


def test_bracket_from_operator_matches_matrix_bracket(rng):
    for chart in (R11, R12):
        S = std_odd_smatrix(chart)
        sigma = rand_poly(rng, chart, 3, parity=0)
        D = odd_laplacian(S, chart, sigma)
        for _ in range(6):
            f = rand_poly(rng, chart, 3)
            g = rand_poly(rng, chart, 3)
            assert bracket_from_operator(D, f, g) == \
                matrix_bracket(S, chart, f, g)
    # random even, odd and W-carrying operators of order 0-3 against the
    # four-term formula, which reads the operator at weight 0
    for chart in (R11, R12, R22, R02, R03):
        one = GradedPoly.one(chart)
        for order in range(4):
            for eps in (0, 1):
                D = rand_op(rng, chart, order, parity=eps)
                DW = D + compose(DiffOp.weight(chart),
                                 rand_op(rng, chart, order, parity=eps))
                for op in (D, DW):
                    f = rand_poly(rng, chart, 3)
                    g = rand_poly(rng, chart, 3)
                    expected = GradedPoly.zero(chart)
                    for pf, fh in f.homogeneous_parts():
                        expected = (expected + op.apply(fh * g)
                                    - op.apply(fh) * g
                                    - (-1) ** (eps * pf) * fh * op.apply(g)
                                    + op.apply(one) * fh * g)
                    assert bracket_from_operator(op, f, g) == expected


# ---------------------------------------------------------------------------
# odd Laplacian calculus


def test_odd_laplacian_flat_case():
    S = std_odd_smatrix(R11)
    D = odd_laplacian(S, R11, GradedPoly.zero(R11))
    assert D == compose(DiffOp.deriv(R11, "x"), DiffOp.deriv(R11, "xi"))
    assert D.apply(GradedPoly.one(R11)).is_zero()


def test_leibniz_discrepancy_antibracket_sign(rng):
    """Delta(fg) = (Delta f)g + (-1)^pf f(Delta g) + (-1)^{pf+1}{f,g}_P."""
    for chart in (R11, R12):
        S = std_odd_smatrix(chart)
        sigma = rand_poly(rng, chart, 3, parity=0)
        D = odd_laplacian(S, chart, sigma)
        for _ in range(5):
            f = rand_poly(rng, chart, 3)
            g = rand_poly(rng, chart, 3)
            for pf, fh in f.homogeneous_parts():
                lhs = D.apply(fh * g)
                rhs = D.apply(fh) * g \
                    + fh * D.apply(g) * Fraction((-1) ** pf) \
                    + poisson_bracket(S, chart, fh, g) * Fraction((-1) ** (pf + 1))
                assert lhs == rhs


def test_volume_transformation_law(rng):
    """Delta_{e^sigma rho} = Delta_rho + 1/2 X_sigma."""
    for chart in (R11, R12):
        S = std_odd_smatrix(chart)
        for _ in range(5):
            s0 = rand_poly(rng, chart, 3, parity=0)
            s = rand_poly(rng, chart, 3, parity=0)
            lhs = odd_laplacian(S, chart, s0 + s)
            rhs = odd_laplacian(S, chart, s0) + \
                hamiltonian_vf(S, chart, s) * Fraction(1, 2)
            assert lhs == rhs


def test_derivation_property_under_jacobi(rng):
    """When (S,S) = 0, Delta_rho is a derivation of the antibracket."""
    chart = R12
    S = std_odd_smatrix(chart)
    sigma = rand_poly(rng, chart, 3, parity=0)
    D = odd_laplacian(S, chart, sigma)
    for _ in range(5):
        f = rand_poly(rng, chart, 2)
        g = rand_poly(rng, chart, 2)
        for pf, fh in f.homogeneous_parts():
            lhs = D.apply(poisson_bracket(S, chart, fh, g))
            rhs = poisson_bracket(S, chart, D.apply(fh), g) + \
                poisson_bracket(S, chart, fh, D.apply(g)) * \
                Fraction((-1) ** (pf + 1))
            assert lhs == rhs


def test_square_law_and_modular_field(rng):
    """Delta_{rho'}^2 = Delta_rho^2 - X_H, and ord Delta^2 <= 1."""
    chart = R12
    S = std_odd_smatrix(chart)
    for _ in range(5):
        s0 = rand_poly(rng, chart, 3, parity=0)
        s = rand_poly(rng, chart, 3, parity=0)
        D0 = odd_laplacian(S, chart, s0)
        D1 = odd_laplacian(S, chart, s0 + s)
        H = master_discrepancy(S, chart, s0, s)
        assert compose(D1, D1) == compose(D0, D0) - hamiltonian_vf(S, chart, H)
        assert compose(D0, D0).order_leq(1)


def test_modular_vector_field_even_case(rng):
    """The divergence construction without the 1/2 is first order for an
    antisymmetric even Poisson tensor."""
    chart = R22
    one = GradedPoly.one(chart)
    P = {("x", "y"): one, ("y", "x"): -one}  # antisymmetric even tensor
    sigma = rand_poly(rng, chart, 2, parity=0)
    X = modular_vf(P, chart, sigma)
    assert X.order_leq(1)
    assert X.apply(GradedPoly.one(chart)).is_zero()


def test_w_density_commutator_law(rng):
    """[Delta, f.] = L_{X_f} + (1-2w)(Delta_rho f). on w-densities."""
    chart = R12
    S = std_odd_smatrix(chart)
    sigma = rand_poly(rng, chart, 3, parity=0)
    D0 = odd_laplacian(S, chart, sigma)
    for w in WEIGHTS:
        Dw = act_on_w_densities(S, chart, sigma, w)
        for _ in range(3):
            f = rand_poly(rng, chart, 2, parity=rng.randint(0, 1))
            if f.parity() is None:
                continue
            lhs = commutator(Dw, DiffOp.mult(f))
            X = hamiltonian_vf(S, chart, f)
            rhs = lie_derivative(X, w) + \
                DiffOp.mult(D0.apply(f)) * (1 - 2 * w)
            assert lhs == rhs


def test_w_density_transformation_law(rng):
    """Delta_{rho'} = Delta_rho + 1/2(1-2w) L_{X_sigma} - 4w(1-w) H."""
    chart = R12
    S = std_odd_smatrix(chart)
    for _ in range(3):
        s0 = rand_poly(rng, chart, 3, parity=0)
        s = rand_poly(rng, chart, 3, parity=0)
        H = master_discrepancy(S, chart, s0, s)
        X = hamiltonian_vf(S, chart, s)
        for w in WEIGHTS:
            D1 = act_on_w_densities(S, chart, s0, w)
            D2 = act_on_w_densities(S, chart, s0 + s, w)
            rhs = D1 + lie_derivative(X, w) * (Fraction(1, 2) * (1 - 2 * w)) \
                - DiffOp.mult(H) * (4 * w * (1 - w))
            assert D2 == rhs
        # half densities: Delta' = Delta - H
        Dh1 = act_on_w_densities(S, chart, s0, Fraction(1, 2))
        Dh2 = act_on_w_densities(S, chart, s0 + s, Fraction(1, 2))
        assert Dh2 == Dh1 - DiffOp.mult(H)


def test_master_groupoid(rng):
    chart = R12
    S = std_odd_smatrix(chart)
    x = GradedPoly.var(chart, "x")
    s0 = x * x
    # sigma depending on x only solves the master equation here
    found = 0
    for _ in range(8):
        s = rand_poly(rng, chart, 3, parity=0)
        s = GradedPoly(chart, {k: c for k, c in s.terms.items() if not k[1]})
        if master_discrepancy(S, chart, s0, s).is_zero():
            found += 1
            s2 = x * x * x
            if master_discrepancy(S, chart, s0 + s, s2).is_zero():
                assert master_discrepancy(S, chart, s0, s + s2).is_zero()
            # rho-independence on half densities along the orbit
            assert act_on_w_densities(S, chart, s0, Fraction(1, 2)) == \
                act_on_w_densities(S, chart, s0 + s, Fraction(1, 2))
    assert found > 0


def _arbitrary_smatrix(rng, chart):
    """S with entries drawn independently, so not symmetric.  In half the
    draws each entry has the parity of odd bracket data; in the others each
    is even, odd or of mixed parity, so that some odd Laplacians are
    inhomogeneous."""
    S, odd_data = {}, rng.random() < 0.5
    for a in chart.names:
        for b in chart.names:
            par = (1 + chart.parity(a) + chart.parity(b)) % 2 if odd_data \
                else rng.choice((0, 1, None))
            p = rand_poly(rng, chart, 2, par, nterms=3)
            if rng.random() < 0.6 and not p.is_zero():
                S[(a, b)] = p
    return S


def _outcome(compute):
    """The value of compute(), or the type and message of its ParityError."""
    try:
        return compute()
    except ParityError as ex:
        return type(ex), str(ex)


def test_w_density_closed_form_is_the_conjugation():
    """act_on_w_densities, a closed form, against the conjugation it
    replaces, rho^w Delta_rho rho^{-w} = conjugate_by_exp(Delta_rho,
    -w sigma): 1,200 seeded cases on five charts and six weights,
    with arbitrary S.  Where Delta_rho is inhomogeneous both sides raise the
    same ParityError."""
    rng = random.Random("w-density closed form")
    weights = (0, Fraction(1, 3), Fraction(1, 2), 1, 2, Fraction(-3, 2))
    cases = refused = 0
    for chart in CHARTS:
        for _ in range(40):
            S = _arbitrary_smatrix(rng, chart)
            sigma = rand_poly(rng, chart, 3, parity=0)
            for w in weights:
                got = _outcome(lambda: act_on_w_densities(S, chart, sigma, w))
                want = _outcome(lambda: conjugate_by_exp(
                    odd_laplacian(S, chart, sigma), sigma * -w))
                assert got == want
                cases += 1
                refused += isinstance(want, tuple)
    assert cases == 1200 and 200 < refused < 1000


def test_master_discrepancy_closed_form_is_the_conjugation():
    """master_discrepancy, read off a closed form, against its definition
    e^{-sigma/2} Delta_rho(e^{sigma/2}) = conjugate_by_exp(Delta_rho,
    sigma/2) applied to 1: 200 seeded cases on five charts with arbitrary
    S, refusals included."""
    rng = random.Random("master closed form")
    cases = refused = 0
    for chart in CHARTS:
        one = GradedPoly.one(chart)
        for _ in range(40):
            S = _arbitrary_smatrix(rng, chart)
            s0, s = (rand_poly(rng, chart, 3, parity=0) for _ in range(2))
            got = _outcome(lambda: master_discrepancy(S, chart, s0, s))
            want = _outcome(lambda: conjugate_by_exp(
                odd_laplacian(S, chart, s0), s * Fraction(1, 2)).apply(one))
            assert got == want
            cases += 1
            refused += isinstance(want, tuple)
    assert cases == 200 and 20 < refused < 180


def test_density_calculus_takes_no_commutator(count_calls):
    """act_on_w_densities and master_discrepancy take no ad_mult, so no
    conjugation series; nor does transform_op, whose fields carry the
    density correction, on maps with a non-constant Berezinian, and it takes
    the Jacobi matrix once, for its fields and for the Berezinian.  Counted,
    not timed."""
    ad = count_calls(diffop, "ad_mult")
    jac = count_calls(CoordMap, "jacobian")
    rng = random.Random("closed-form counts")
    for chart in CHARTS:
        S = rand_smatrix(rng, chart, 1)
        s0, s = (rand_poly(rng, chart, 3, parity=0) for _ in range(2))
        for w in WEIGHTS:
            act_on_w_densities(S, chart, s0 + s, w)
        master_discrepancy(S, chart, s0, s)
    assert ad == []
    nonconstant = 0
    for chart in CHARTS * 3:
        cmap = _triangular_map(rng, chart)
        nonconstant += not log_berezinian(cmap).is_zero()
        jac.clear()
        assert not transform_op(canonical_pencil(rand_vdata(rng, chart)), cmap).is_zero()
        assert len(jac) == 1
    assert ad == [] and nonconstant
    # the counters see the calls they count
    conjugate_by_exp(odd_laplacian(S, chart, s0), s)
    log_berezinian(cmap)
    assert ad and len(jac) == 2


# ---------------------------------------------------------------------------
# the canonical pencil


def test_pencil_suite(rng):
    for chart in (R11, R12, R22):
        for eps in (0, 1):
            for _ in range(6):
                data = rand_vdata(rng, chart, eps)
                P = canonical_pencil(data)
                assert specialize(P, 0).apply(
                    GradedPoly.one(chart)).is_zero()
                assert formal_adjoint(P) == P
                assert extract_vbracket(P) == data


def test_pencil_bracket_reproduces_data(rng):
    chart = R12
    data = rand_vdata(rng, chart, 1)
    P = canonical_pencil(data)
    t = DensityElement(chart, {Fraction(1): GradedPoly.one(chart)})
    # {t,t} = theta t^2
    tt = pencil_bracket(P, t, t)
    assert tt == DensityElement(chart, {Fraction(2): data.theta}) or \
        (tt.is_zero() and data.theta.is_zero())
    assert smatrix_of(chart, lambda b, a: pencil_bracket(
        P, DensityElement.from_poly(GradedPoly.var(chart, b)),
        DensityElement.from_poly(GradedPoly.var(chart, a))).component(0)) == data.S


def test_constant_pencil_example():
    one = GradedPoly.one(R11)
    S = std_odd_smatrix(R11)
    data = VBracketData(R11, 1, S, {}, GradedPoly.zero(R11))
    P = canonical_pencil(data)
    assert P == compose(DiffOp.deriv(R11, "x"), DiffOp.deriv(R11, "xi"))


def test_symbols_of_pencil_at_weight_zero(rng):
    """At w = 0 the canonical pencil is (1/2)(S^{ab} d_b d_a + (d_b S^{ba}
    (-1)^{p(b)(eps+1)} - gamma^a) d_a): its principal matrix is S and its
    subprincipal symbol is gamma."""
    for chart in (R11, R12, R22):
        for eps in (0, 1):
            data = rand_vdata(rng, chart, eps)
            P0 = specialize(canonical_pencil(data), 0)
            assert principal_matrix(P0) == data.S
            assert subprincipal(P0) == data.gamma


def test_extract_rejects_non_normalized():
    # (2W-1) d_x is pencil-self-adjoint but kills no constants at w = 0... it
    # is normalized; instead use a first-order field with nonzero action on 1
    D = DiffOp.mult(GradedPoly.var(R11, "xi")) + DiffOp.deriv(R11, "xi")
    with pytest.raises(ValueError):
        extract_vbracket(D)


def test_lb_pencil_is_conjugated_laplacian(rng):
    for chart in (R11, R12):
        S = std_odd_smatrix(chart)
        for _ in range(4):
            sigma = rand_poly(rng, chart, 3, parity=0)
            data = lb_data(S, chart, sigma)
            P = canonical_pencil(data)
            D = odd_laplacian(S, chart, sigma)
            assert specialize(P, 0) == D
            for w in WEIGHTS:
                assert specialize(P, w) == act_on_w_densities(S, chart, sigma, w)
            assert extract_vbracket(P) == data


def test_lb_example_r11():
    S = std_odd_smatrix(R11)
    x = GradedPoly.var(R11, "x")
    data = lb_data(S, R11, x * x)
    assert data.gamma == {"xi": -(x + x)}
    assert data.theta.is_zero()


# ---------------------------------------------------------------------------
# Jacobi classification


def test_jacobi_report_flat_and_curved():
    S = std_odd_smatrix(R11)
    data = VBracketData(R11, 1, S, {}, GradedPoly.zero(R11))
    assert all(s.is_zero() for s in jacobi_report(data))
    x = GradedPoly.var(R11, "x")
    data2 = lb_data(S, R11, x * x)
    assert all(s.is_zero() for s in jacobi_report(data2))
    # curvature-bearing gamma
    S12 = std_odd_smatrix(R12)
    data3 = VBracketData(R12, 1, S12,
                         {"x": GradedPoly.var(R12, "xi1")},
                         GradedPoly.zero(R12))
    slots = jacobi_report(data3)
    assert not slots[1].is_zero()


def test_jacobi_report_is_the_top_symbol_of_the_square():
    """The four obstruction symbols are the parts of total order 3 of
    Q = P o P for the canonical pencil P.  With Q[k, w] the part of Q of
    order k at W^w, and each c d^I in it written as c p^I on the cotangent
    chart (the coefficient moved by _embed, then the momenta of I in key
    order), the slots are 2 Q[3,0], Q[2,1], 2 Q[1,2] and 2 Q[0,3]: seeded
    odd data of degree 1 to 3 on all five charts."""
    rng, nonzero = random.Random("jacobi symbols"), 0
    for chart in CHARTS:
        ct = cotangent_chart(chart)
        momentum = {x: GradedPoly.var(ct, m) for x, m in geom._momenta(ct).items()}
        for i in range(40):
            data = rand_vdata(rng, chart, 1, deg=1 + i % 3)
            Q, part = compose(*[canonical_pencil(data)] * 2), {}
            for I, wp in Q.terms.items():
                for w, c in wp.items():
                    symbol = gralg._embed(c, ct)
                    for x in gralg._key_names(chart, I):
                        symbol = symbol * momentum[x]
                    kw = gralg._deg(I), w
                    part[kw] = part.get(kw, GradedPoly.zero(ct)) + symbol
            top = [part.get(kw, GradedPoly.zero(ct)) for kw in ((3, 0), (2, 1), (1, 2), (0, 3))]
            assert list(jacobi_report(data)) == [top[0] * 2, top[1], top[2] * 2, top[3] * 2]
            nonzero += not all(t.is_zero() for t in top)
    assert nonzero > 100


def _positional(ct, ct2):
    """Rename the variables of chart ct to those of ct2 by position."""
    images = {v: GradedPoly.var(ct2, w) for v, w in zip(ct.names, ct2.names)}
    return lambda p: substitute(p, images, target=ct2)


def test_report_with_momentum_like_chart_names():
    """Chart variables named like momenta (p_y, or x next to p_x) get
    momenta of other names, and the report is the one of the plainly named
    chart, renamed."""
    plain = Chart(("y",), ("eta",))
    renamed = Chart(("p_y",), ("eta",))
    assert cotangent_chart(renamed) == Chart(("p_y", "p_p_y"), ("eta", "p_eta"))
    slots = {}
    for chart in (plain, renamed):
        y, eta = (GradedPoly.var(chart, v) for v in chart.names)
        data = VBracketData(chart, 1, {(chart.even[0], "eta"): 1 + y * y},
                            {chart.even[0]: eta}, GradedPoly.zero(chart))
        slots[chart] = jacobi_report(data)
    move = _positional(cotangent_chart(plain), cotangent_chart(renamed))
    assert not slots[plain][1].is_zero()
    assert [move(s) for s in slots[plain]] == list(slots[renamed])

    plain = Chart(("x", "z"), ("xi", "eta"))
    clash = Chart(("x", "p_x"), ("xi", "eta"))
    assert cotangent_chart(clash).even == ("x", "p_x", "p_x_", "p_p_x")
    rng = random.Random(7)
    data = rand_vdata(rng, plain, 1, deg=2)
    name = dict(zip(plain.names, clash.names))
    to_clash = _positional(plain, clash)
    data2 = VBracketData(
        clash, 1,
        {(name[a], name[b]): to_clash(s) for (a, b), s in data.S.items()},
        {name[a]: to_clash(g) for a, g in data.gamma.items()},
        to_clash(data.theta))
    move = _positional(cotangent_chart(plain), cotangent_chart(clash))
    assert [move(s) for s in jacobi_report(data)] == list(jacobi_report(data2))


def _rand_symbol(rng, ct):
    """A sum of four seeded monomials of degree <= 3 on ct, often of mixed
    parity."""
    F = GradedPoly.zero(ct)
    for _ in range(4):
        m = GradedPoly.const(ct, Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
        for v in rng.choices(ct.names, k=rng.randint(0, 3)):
            m = m * GradedPoly.var(ct, v)
        F = F + m
    return F


def test_tstar_bracket_against_explicit_sum(rng):
    """The canonical bracket jacobi_report takes, X_F(G) for the canonical
    matrix, is the explicit sum (oracle.tstar_bracket) on seeded symbols,
    inhomogeneous ones included, on the cotangent chart of every chart; and
    (p_a, x^b) = delta_a^b."""
    for chart in CHARTS:
        ct = cotangent_chart(chart)
        canonical = _tstar_matrix(ct)
        ev, od = len(chart.even), len(chart.odd)
        momenta = ct.even[ev:] + ct.odd[od:]
        for pm, a in zip(momenta, chart.names):
            for b in chart.names:
                pab = hamiltonian_vf(canonical, ct, GradedPoly.var(ct, pm)).apply(
                    GradedPoly.var(ct, b))
                assert pab == (1 if a == b else 0)
        for _ in range(20):
            F, G = (_rand_symbol(rng, ct) for _ in range(2))
            assert hamiltonian_vf(canonical, ct, F).apply(G) == tstar_bracket(F, G)


def test_report_characterizes_square_order(rng):
    chart = R12
    for _ in range(10):
        data = rand_vdata(rng, chart, 1, deg=1)
        P = canonical_pencil(data)
        sq = compose(P, P)
        slots = jacobi_report(data)
        # order on densities counts W = t d/dt as one derivative
        dens_leq1 = all(sum(e) + len(o) + k <= 1
                        for (e, o), wp in sq.terms.items() for k in wp)
        assert all(s.is_zero() for s in slots) == dens_leq1


def test_function_level_equivalences(rng):
    """ord(D^2) <= 2 iff (S,S) = 0; <= 1 iff additionally (S,gamma) = 0."""
    chart = R12
    for _ in range(12):
        S = rand_smatrix(rng, chart, 1, deg=1)
        gamma = {}
        for a in chart.names:
            p = rand_poly(rng, chart, 1, parity=(1 + chart.parity(a)) % 2,
                          nterms=2)
            if not p.is_zero():
                gamma[a] = p
        data = VBracketData(chart, 1, S, gamma, GradedPoly.zero(chart))
        D = specialize(canonical_pencil(data), 0)
        sq = full_square(D)
        ss, sg = jacobi_report(data)[0], jacobi_report(data)[1]
        assert ss.is_zero() == sq.order_leq(2)
        if ss.is_zero():
            assert sg.is_zero() == sq.order_leq(1)


def test_classify_square_examples():
    Dxxi = compose(DiffOp.deriv(R11, "x"), DiffOp.deriv(R11, "xi"))
    assert classify_square(Dxxi) == "<=0"
    Dxi = DiffOp.deriv(R11, "xi")
    xi_dx = compose(DiffOp.mult(GradedPoly.var(R11, "xi")),
                    DiffOp.deriv(R11, "x"))
    assert classify_square(xi_dx) == "<=0"
    D = Dxi + compose(DiffOp.mult(GradedPoly.var(R11, "xi")),
                      compose(DiffOp.deriv(R11, "x"), DiffOp.deriv(R11, "x")))
    assert classify_square(D) in ("<=2", "<=3")
    sq = full_square(D)
    assert sq.order() == 2


def test_recover_action_round_trip(rng):
    chart = R11
    S = std_odd_smatrix(chart)
    x = GradedPoly.var(chart, "x")
    # gamma from the action A = x^2 through the lb construction
    data = lb_data(S, chart, x * x)
    A = recover_action(S, chart, data.gamma)
    assert A == x * x
    # gamma = 0 -> A = 0
    assert recover_action(S, chart, {}).is_zero()


def test_recover_action_obstruction():
    chart = R22
    S = std_odd_smatrix(chart)
    x, _, xi1, xi2 = (GradedPoly.var(chart, n) for n in chart.names)
    # S(0) invertible, lowered form not closed: gamma^xi1 = x*xi1*xi2
    # lowers to a form with d_x A depending on xi1 but no matching d_xi1
    # component
    gamma = {"xi1": x * xi1 * xi2}
    with pytest.raises(DomainError) as ei:
        recover_action(S, chart, gamma)
    assert str(ei.value) == "lowered form is not closed; no action exists"
    # on (1|2) the pairing leaves xi2 unpaired: S(0) is singular
    gamma = {"xi1": GradedPoly.var(R12, "x") * GradedPoly.var(R12, "xi1")}
    with pytest.raises(DomainError) as ei:
        recover_action(std_odd_smatrix(R12), R12, gamma)
    assert str(ei.value) == "constant part of S is singular"


def test_recover_action_series_past_the_constant_part():
    """S - S(0) in the odd ideal: the lowered form needs the series beyond
    its first round (the constant part alone gives a form that is not
    closed), and stops within its bound; checked through lb_data."""
    chart = R22
    x, y, xi1, xi2 = (GradedPoly.var(chart, n) for n in chart.names)
    S = std_odd_smatrix(chart)
    S[("x", "xi1")] = S[("xi1", "x")] = 1 + xi1 * xi2
    S[("x", "x")] = y * xi1
    S[("y", "y")] = x * xi2
    for sigma in (x * x, x * y + y * xi1 * xi2, y ** 3 + x * xi1 * xi2):
        gamma = lb_data(S, chart, sigma).gamma
        assert recover_action(S, chart, gamma) == sigma
        with pytest.raises(DomainError, match="lowered form is not closed"):
            recover_action(std_odd_smatrix(chart), chart, gamma)


def test_recover_action_non_nilpotent_body():
    """S - S(0) = x on the pairing: no power of it vanishes, and the
    layered solve divides by det B = -(1 + x)^2 exactly.  gamma^xi = 1
    asks for l_x = 1/(1 + x), which is not a polynomial."""
    chart = R11
    x = GradedPoly.var(chart, "x")
    S = {("x", "xi"): 1 + x, ("xi", "x"): 1 + x}
    gamma = lb_data(S, chart, x * x).gamma
    assert recover_action(S, chart, gamma) == x * x
    with pytest.raises(DomainError) as ei:
        recover_action(S, chart, {"xi": GradedPoly.one(chart)})
    assert str(ei.value) == "S l = gamma has no polynomial solution"


def _invertible_body(rng, chart, eps):
    """A random constant S(0) that is invertible: for odd eps the pairing
    of even coordinate i with odd coordinate i, for even eps a diagonal on
    the even coordinates and the pairing of odd coordinates 2i and 2i+1."""
    def c():
        return Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 3))

    S = {}
    if eps:
        for e, o in zip(chart.even, chart.odd):
            S[(e, o)] = GradedPoly.const(chart, c())
    else:
        for e in chart.even:
            S[(e, e)] = GradedPoly.const(chart, c())
        for o1, o2 in zip(chart.odd[::2], chart.odd[1::2]):
            S[(o1, o2)] = GradedPoly.const(chart, c())
    return dict(VBracketData(chart, eps, S, {}, GradedPoly.zero(chart)).S)


def test_recover_action_seeded_round_trip(rng):
    """S(0) invertible, perturbed by terms in the even coordinates (so
    S - S(0) need not be nilpotent) and by terms in the odd ideal, on every
    chart and parity where S(0) can be invertible: the action is the one
    gamma came from, up to its constant, and lb_data gives gamma back."""
    non_nilpotent = 0
    for chart, eps in ((R11, 1), (R22, 1), (R12, 0), (R22, 0), (R02, 0)):
        for _ in range(12):
            S = _invertible_body(rng, chart, eps)
            for k, p in rand_smatrix(rng, chart, eps, deg=2).items():
                p = p - p.constant_term()
                S[k] = S.get(k, GradedPoly.zero(chart)) + p
            S = {k: p for k, p in S.items() if not p.is_zero()}
            if any(not o and any(e) for s in S.values() for e, o in s.terms):
                non_nilpotent += 1
            A = rand_poly(rng, chart, 3, parity=0)
            gamma = lb_data(S, chart, A, eps).gamma
            got = recover_action(S, chart, gamma)
            assert got == A - A.constant_term()
            assert lb_data(S, chart, got, eps).gamma == gamma
    assert non_nilpotent >= 10


@given(poly_strategy(R22), poly_strategy(R22))
@settings(derandomize=True, max_examples=80, deadline=None)
def test_exact_quotient(p, q):
    """(p d)/d = p for d in the even coordinates with d(0) != 0; when d is
    not constant it does not divide p d + 1, and the remainder is refused."""
    body = GradedPoly(R22, {k: c for k, c in q.terms.items() if not k[1] and any(k[0])})
    d = body + (q.constant_term() or 1)
    assert _exact_quotient(p * d, d) == p
    if not body.is_zero():
        assert _exact_quotient(p * d + 1, d) is None


# ---------------------------------------------------------------------------
# coordinate changes


def _nilpotent_map(rng, chart):
    """x' = x + (nilpotent), identity body, with exact inverse by
    fixed-point iteration."""
    fwd = {}
    for a in chart.names:
        corr = rand_poly(rng, chart, 2, parity=chart.parity(a), nterms=2)
        corr = GradedPoly(chart, {k: c for k, c in corr.terms.items() if k[1]})
        fwd[a] = GradedPoly.var(chart, a) + corr
    # invert by iteration: x = x' - corr(x), nilpotent corrections terminate
    from superdelta import substitute
    inv = {a: GradedPoly.var(chart, a) for a in chart.names}
    for _ in range(6):
        inv = {a: GradedPoly.var(chart, a) -
               substitute(fwd[a] - GradedPoly.var(chart, a), inv)
               for a in chart.names}
    try:
        return CoordMap(chart, fwd, inv)
    except CoordMapError:
        return None


def test_coordinate_maps_substitute_as_public_substitute():
    """push, which calls the trusted substitution kernel, against
    the validating public substitute on seeded nilpotent and triangular
    maps."""
    rng = random.Random("coordinate map kernel")
    maps = 0
    for chart in CHARTS:
        for i in range(12):
            cmap = _nilpotent_map(rng, chart) if i % 3 else _triangular_map(rng, chart)
            if cmap is None:
                continue
            maps += 1
            for _ in range(4):
                p = rand_poly(rng, chart, 4, nterms=6)
                assert cmap.push(p) == substitute(p, dict(cmap.inv))
    assert maps >= 40


def test_substitution_matches_the_oracle():
    """The kernel gralg._substitute, push and the round trip against
    oracle.substitute, which multiplies each monomial out factor by factor
    with no power table and no scaling at the end, on seeded nilpotent and
    triangular maps of every test chart, through both directions."""
    rng = random.Random("substitution oracle")
    maps = 0
    for chart in CHARTS:
        for i in range(12):
            cmap = _nilpotent_map(rng, chart) if i % 3 else _triangular_map(rng, chart)
            if cmap is None:
                continue
            maps += 1
            for a in chart.names:  # the round trip, generator by generator
                back = _substitute(cmap.fwd[a], cmap.inv, chart)
                assert back == oracle.substitute(cmap.fwd[a], cmap.inv, chart) \
                    == GradedPoly.var(chart, a)
            for _ in range(4):
                p = rand_poly(rng, chart, 4, nterms=6)
                want = oracle.substitute(p, cmap.inv, chart)
                assert cmap.push(p) == _substitute(p, cmap.inv, chart) == want
                assert _substitute(p, cmap.fwd, chart) == oracle.substitute(p, cmap.fwd, chart)
    assert maps >= 40


def test_coordinate_map_refuses_foreign_images(count_calls):
    """An image that is not a polynomial is refused by its type, and one on
    another chart (here (1|2) for a map on (1|1)) as a ChartMismatch, each
    naming the variable, before the round trip substitutes anything."""
    ident = {a: GradedPoly.var(R11, a) for a in R11.names}
    kernel = count_calls(gralg, "_substitute")
    with pytest.raises(TypeError) as info:
        CoordMap(R11, dict(ident, x=3), ident)
    assert info.value.args == ("the image of x must be a GradedPoly, not int",)
    with pytest.raises(ChartMismatch) as info:
        CoordMap(R11, ident, {"x": GradedPoly.var(R12, "x"), "xi": GradedPoly.var(R12, "xi1")})
    assert info.value.args == ("the image of x on another chart",)
    assert kernel == []


def _triangular_map(rng, chart):
    """x'^a = c_a x^a + (a multiple of a later variable of the same parity)
    + (terms whose odd factors come after x^a, or, for even x^a, number at
    least two), inverted by fixed-point iteration."""
    names = chart.names
    scale = {a: Fraction(rng.choice([1, 2, -1, 3]), rng.choice([1, 2])) for a in names}
    corr = {}
    for i, a in enumerate(names):
        p = rand_poly(rng, chart, 3, parity=chart.parity(a), nterms=4)
        if chart.parity(a) == 0:
            keep = [k for k in p.terms if len(k[1]) >= 2]
        else:
            keep = [k for k in p.terms if k[1] and k[1][0] > chart.odd.index(a)]
        p = GradedPoly(chart, {k: p.terms[k] for k in keep})
        later = [b for b in names[i + 1:] if chart.parity(b) == chart.parity(a)]
        if later:
            p = p + GradedPoly.var(chart, rng.choice(later)) * rng.randint(-2, 2)
        corr[a] = p
    fwd = {a: GradedPoly.var(chart, a) * scale[a] + corr[a] for a in names}
    inv = {a: GradedPoly.var(chart, a) for a in names}
    for _ in range(12):
        inv = {a: (GradedPoly.var(chart, a) - substitute(corr[a], inv))
               * (1 / scale[a]) for a in names}
    return CoordMap(chart, fwd, inv)


def test_transform_op_matches_action_oracle(rng):
    """The chain-rule transform against the operator reconstructed from its
    action f -> push(D(f o fwd)).  The Berezinian conjugation only adds
    W-carrying terms, so the two agree at weight 0, and everywhere when the
    Berezinian is constant."""
    for chart in (R11, R12, R22, R02, R03):
        for order in (0, 1, 2, 3, 2, 3):
            cmap = _triangular_map(rng, chart)
            for par in (0, 1, None):
                D = rand_op(rng, chart, order, parity=par)
                want = op_from_action(
                    chart, lambda f: cmap.push(D.apply(substitute(f, dict(cmap.fwd)))), order)
                got = transform_op(D, cmap)
                assert specialize(got, 0) == want
                if log_berezinian(cmap).is_zero():
                    assert got == want


def test_berezinian_example():
    chart = R12
    x = GradedPoly.var(chart, "x")
    xi1 = GradedPoly.var(chart, "xi1")
    xi2 = GradedPoly.var(chart, "xi2")
    fwd = {"x": x + xi1 * xi2, "xi1": xi1, "xi2": xi2}
    inv = {"x": x - xi1 * xi2, "xi1": xi1, "xi2": xi2}
    cmap = CoordMap(chart, fwd, inv)
    ber = _berezinian(chart, cmap.jacobian())
    assert ber == GradedPoly.one(chart)  # dx'/dx = 1, odd block unchanged
    assert log_berezinian(cmap).is_zero()


def test_berezinian_purely_even_chart():
    """x' = x + y^2, y' = 3y: the Jacobian is triangular with diagonal
    (1, 3), so Ber = det = 3 and its normalized log is 0."""
    chart = Chart(("x", "y"), ())
    x, y = GradedPoly.var(chart, "x"), GradedPoly.var(chart, "y")
    cmap = CoordMap(chart, {"x": x + y * y, "y": y * 3},
                    {"x": x - y * y * Fraction(1, 9), "y": y * Fraction(1, 3)})
    assert _berezinian(chart, cmap.jacobian()) == GradedPoly.const(chart, 3)
    assert log_berezinian(cmap).is_zero()


def test_berezinian_purely_odd_chart():
    """xi1' = 2 xi1, xi2' = xi2 + xi1 xi2 xi3 = xi2 (1 - xi1 xi3),
    xi3' = xi3: the odd block is triangular up to nilpotents, with
    det = 2 (1 - xi1 xi3), so Ber = 1/det = (1/2)(1 + xi1 xi3) and
    log Ber = xi1 xi3 after dropping log(1/2)."""
    chart = R03
    a, b, c = (GradedPoly.var(chart, n) for n in chart.names)
    cmap = CoordMap(chart, {"xi1": a * 2, "xi2": b + a * b * c, "xi3": c},
                    {"xi1": a * Fraction(1, 2), "xi2": b - a * b * c * Fraction(1, 2),
                     "xi3": c})
    assert _berezinian(chart, cmap.jacobian()) == (1 + a * c) * Fraction(1, 2)
    assert log_berezinian(cmap) == a * c


def test_unit_series_bound_and_refusal():
    """The series stops within q + 1 terms on c + (odd ideal), and refuses
    an argument with a bodily nonconstant part by name."""
    chart = R22
    xi1, xi2 = GradedPoly.var(chart, "xi1"), GradedPoly.var(chart, "xi2")
    c, inv = _unit_series(2 + xi1 * xi2, "element", lambda k: (-1) ** k)
    assert (2 + xi1 * xi2) * inv * (1 / c) == GradedPoly.one(chart)
    with pytest.raises(DomainError) as ei:
        _unit_series(1 + GradedPoly.var(chart, "x"), "element", lambda k: (-1) ** k)
    assert isinstance(ei.value, CoordMapError)
    assert str(ei.value) == "element minus its constant term is not nilpotent"


def test_transform_covariance(rng):
    for chart in (R12, R22):
        S = std_odd_smatrix(chart)
        for _ in range(4):
            cmap = _nilpotent_map(rng, chart)
            if cmap is None:
                continue
            sigma = rand_poly(rng, chart, 2, parity=0)
            # odd Laplacian transforms to the odd Laplacian of the
            # transformed data
            D = odd_laplacian(S, chart, sigma)
            S2 = transform_smatrix(S, chart, cmap)
            sigma2 = transform_logvol(sigma, cmap)
            assert transform_op(D, cmap) == odd_laplacian(S2, chart, sigma2)
            # subprincipal commutes with transform through the gamma law
            data = lb_data(S, chart, sigma)
            data2 = transform_data(data, cmap)
            assert data2.S == S2
            assert data2.gamma == transform_gamma(
                S, data.gamma, chart, cmap)
            # pencil covariance
            assert transform_op(canonical_pencil(data), cmap) == \
                canonical_pencil(data2)


def test_transform_data_covariance_on_arbitrary_data():
    """transform_data reads the transformed canonical pencil.  The S and
    gamma it reads agree with the independent tensor laws, and its
    canonical pencil is the transformed pencil, on arbitrary data of both
    parities under nilpotent and triangular maps.  The all-zero datum keeps
    its parity, though its pencil is the zero operator."""
    rng = random.Random("data covariance")
    for chart in CHARTS:
        for eps in (0, 1):
            zero = VBracketData(chart, eps, {}, {}, GradedPoly.zero(chart))
            for data in (zero, rand_vdata(rng, chart, eps),
                         rand_vdata(rng, chart, eps)):
                for cmap in (_nilpotent_map(rng, chart),
                             _triangular_map(rng, chart)):
                    if cmap is None:
                        continue
                    data2 = transform_data(data, cmap)
                    assert data2.eps == eps
                    assert data2.S == transform_smatrix(data.S, chart, cmap)
                    assert data2.gamma == transform_gamma(
                        data.S, data.gamma, chart, cmap)
                    assert canonical_pencil(data2) == \
                        transform_op(canonical_pencil(data), cmap)


def test_transform_example_gamma_correction():
    chart = R12
    x = GradedPoly.var(chart, "x")
    xi1 = GradedPoly.var(chart, "xi1")
    xi2 = GradedPoly.var(chart, "xi2")
    cmap = CoordMap(chart,
                    {"x": x + xi1 * xi2, "xi1": xi1, "xi2": xi2},
                    {"x": x - xi1 * xi2, "xi1": xi1, "xi2": xi2})
    S = std_odd_smatrix(chart)
    sigma = x * x
    data = lb_data(S, chart, sigma)
    data2 = transform_data(data, cmap)
    # gamma law holds entrywise
    assert data2.gamma == transform_gamma(S, data.gamma, chart, cmap)


# ---------------------------------------------------------------------------
# properties that let the engine drop its "cannot happen" checks


def test_square_of_odd_order_two_has_order_at_most_three():
    """ord Delta^2 <= 3 for odd Delta of order <= 2: the order-4 symbol is
    sigma_2(Delta)^2, the square of an odd symbol, which is 0.  So
    classify_square always returns one of the four levels the command line
    names."""
    rng = random.Random("ord-square")
    for i in range(200):
        chart = (R11, R12, R22, R02, R03)[i % 5]
        D = rand_op(rng, chart, 2, parity=1, nterms=8)
        assert full_square(D).order_leq(3)
        D = D - DiffOp.mult(D.apply(GradedPoly.one(chart)))
        if D.parity() == 1:
            assert classify_square(D) in _LEVEL_NAMES


def test_principal_matrix_takes_the_whole_second_order_part():
    """For a W-free operator of order <= 2, D - (1/2) S^{ab} d_b d_a with
    S = principal_matrix(D) has order <= 1; a W-carrying second-order part
    is refused by subprincipal."""
    rng = random.Random("second-order")
    for i in range(200):
        chart = (R11, R12, R22, R02, R03)[i % 5]
        D = rand_op(rng, chart, 2, parity=i % 2)
        assert (D - second_order_part(chart, principal_matrix(D))).order_leq(1)
    P = compose(DiffOp.weight(R11), compose(DiffOp.deriv(R11, "x"),
                                            DiffOp.deriv(R11, "xi")))
    with pytest.raises(DomainError, match="W-free operator of order <= 2"):
        subprincipal(P)


def test_modular_vf_is_first_order_iff_mixed_entries_are_even():
    """The divergence form of a graded-antisymmetric P is first order
    exactly when no entry between an even and an odd coordinate has an odd
    part; otherwise modular_vf refuses P by name."""
    rng = random.Random("modular")
    refused = 0
    for i in range(60):
        chart = (R11, R12, R22)[i % 3]
        P = {}
        for j, a in enumerate(chart.names):
            for b in chart.names[j + 1:]:
                p = rand_poly(rng, chart, 2, nterms=2)
                if rng.random() < 0.5:
                    p = p.parity_part(rng.randint(0, 1))
                sign = (-1) ** (chart.parity(a) * chart.parity(b))
                P[(a, b)], P[(b, a)] = p, -(p * sign)
        mixed_odd = any(not p.parity_part(1).is_zero() for (a, b), p in P.items()
                        if chart.parity(a) != chart.parity(b))
        sigma = rand_poly(rng, chart, 2, parity=0)
        if mixed_odd:
            refused += 1
            with pytest.raises(BracketDataError, match="even entries between"):
                modular_vf(P, chart, sigma)
        else:
            assert modular_vf(P, chart, sigma).order_leq(1)
    assert 0 < refused < 60


# ---------------------------------------------------------------------------
# the term-map builders and coefficient readers against independent
# references: the same formulas by compose, and the brackets that define
# the data


def _ref_second_order_part(chart, S):
    out = DiffOp.zero(chart)
    for (a, b), s in S.items():
        out = out + DiffOp.mult(s) * DiffOp.deriv(chart, b) * DiffOp.deriv(chart, a)
    return out * Fraction(1, 2)


def _ref_canonical_pencil(data):
    chart, eps = data.chart, data.eps
    W, one = DiffOp.weight(chart), DiffOp.identity(chart)
    zero = GradedPoly.zero(chart)
    out = DiffOp.zero(chart)
    for a in chart.names:
        div = zero
        for b in chart.names:
            if (b, a) in data.S:
                div = div + partial(b, data.S[(b, a)]) * (-1) ** (chart.parity(b) * (eps + 1))
        ga = data.gamma.get(a, zero)
        out = out + (DiffOp.mult(div) + (2 * W - one) * DiffOp.mult(ga)) \
            * DiffOp.deriv(chart, a)
        out = out + W * DiffOp.mult(partial(a, ga) * (-1) ** (chart.parity(a) * (eps + 1)))
    out = out + (W * W - W) * DiffOp.mult(data.theta)
    return _ref_second_order_part(chart, data.S) + out * Fraction(1, 2)


def _ref_transform_op(D, cmap):
    chart = D.chart
    J = cmap.jacobian()
    fields = {a: sum((DiffOp.mult(cmap.push(J[(b, a)])) * DiffOp.deriv(chart, b)
                      for b in chart.names), DiffOp.zero(chart)) for a in chart.names}
    zero_key = ((0,) * len(chart.even), ())
    out = DiffOp.zero(chart)
    for (e, o), wp in D.terms.items():
        term = DiffOp(chart, {zero_key: {k: cmap.push(c) for k, c in wp.items()}})
        for name, n in zip(chart.even, e):
            for _ in range(n):
                term = compose(term, fields[name])
        for i in o:
            term = compose(term, fields[chart.odd[i]])
        out = out + term
    # the density correction: sum_k (1/k!) [...[out, W v], ..., W v]
    M = DiffOp.weight(chart) * DiffOp.mult(cmap.push(log_berezinian(cmap)))
    term, k = out, 0
    while not term.is_zero():
        k += 1
        term = commutator(term, M) * Fraction(1, k)
        out = out + term
    return out


@pytest.mark.parametrize("chart", CHARTS, ids=lambda c: f"{len(c.even)}|{len(c.odd)}")
def test_term_map_builders_match_compose_references(chart):
    rng = random.Random(f"builders {chart}")
    W = DiffOp.weight(chart)
    for i in range(8):
        eps = i % 2
        data = rand_vdata(rng, chart, eps)
        assert canonical_pencil(data) == _ref_canonical_pencil(data)
        assert second_order_part(chart, data.S) == _ref_second_order_part(chart, data.S)
        f = rand_poly(rng, chart, 3)
        X = hamiltonian_vf(data.S, chart, f)
        assert X == op_from_action(chart, lambda g: matrix_bracket(data.S, chart, f, g), 1)
        assert lie_derivative_pencil(X) == X + W * DiffOp.mult(divergence(X))
        sigma = rand_poly(rng, chart, 2, parity=0)
        D = odd_laplacian(data.S, chart, sigma)
        assert D == div_form(chart, data.S, sigma) * Fraction(1, 2)
        cmap = _triangular_map(rng, chart)
        for order in (0, 1, 2, 3):
            E = rand_op(rng, chart, order, parity=rng.choice((0, 1, None)))
            EW = E + compose(W, rand_op(rng, chart, order)) + W * W * DiffOp.mult(f)
            for op in (E, EW, canonical_pencil(data)):
                assert transform_op(op, cmap) == _ref_transform_op(op, cmap)


@pytest.mark.parametrize("chart", CHARTS, ids=lambda c: f"{len(c.even)}|{len(c.odd)}")
def test_coefficient_readers_match_bracket_probes(chart):
    """extract_vbracket against pencil_bracket on the coordinates and the
    unit density t of weight 1, and principal_matrix against the derived
    bracket on coordinates."""
    rng = random.Random(f"readers {chart}")
    W = DiffOp.weight(chart)
    t = DensityElement.from_poly(GradedPoly.one(chart), 1)

    def coord(name):
        return GradedPoly.var(chart, name)

    seen_nonzero = 0
    for i in range(8):
        data = rand_vdata(rng, chart, i % 2)
        P = canonical_pencil(data)
        got = extract_vbracket(P)
        S = smatrix_of(chart, lambda b, a: pencil_bracket(
            P, DensityElement.from_poly(coord(b)),
            DensityElement.from_poly(coord(a))).component(0))
        gamma = {a: pencil_bracket(P, DensityElement.from_poly(coord(a)), t).component(1)
                 for a in chart.names}
        gamma = {a: v for a, v in gamma.items() if not v.is_zero()}
        theta = pencil_bracket(P, t, t).component(2)
        assert (got.S, got.gamma, got.theta) == (S, gamma, theta)
        for order in (0, 1, 2):
            D = rand_op(rng, chart, order, parity=i % 2)
            for op in (D, D + W * rand_op(rng, chart, order, parity=i % 2)):
                S = principal_matrix(op)
                assert S == smatrix_of(
                    chart, lambda b, a: bracket_from_operator(op, coord(b), coord(a)))
                seen_nonzero += bool(S)
    assert seen_nonzero


_REFUSALS = [  # on chart C { even x; odd xi; }; None: in the image
    ("x + d(xi)", ParityError, "pencil must be homogeneous"),
    ("d(x) + d(xi)", ParityError, "pencil must be homogeneous"),
    ("d(x)^3", DomainError, "pencil must have order <= 2"),
    ("d(x)^2*d(xi)", DomainError, "pencil must have order <= 2"),
    ("xi + d(xi)", DomainError, "pencil is not normalized (P1 != 0 at w = 0)"),
    ("x", DomainError, "pencil is not normalized (P1 != 0 at w = 0)"),
    ("d(x)", DomainError, "pencil is not self-adjoint"),
    ("W*x", DomainError, "pencil is not self-adjoint"),
    ("W*d(x)*d(xi)", DomainError, "pencil is not self-adjoint"),
    ("W^2*d(x)^2", DomainError, "pencil is not self-adjoint"),
    ("(W^2-W)*d(x)", DomainError, "pencil is not self-adjoint"),
    ("(W^2-W)*(x*d(x)*d(xi) + d(xi))", DomainError, "pencil is not self-adjoint"),
    ("(W^2-W)*d(x)^2", DomainError, "pencil is outside the canonical bijection's domain"),
    ("(W^2-W)*d(x)*d(xi)", DomainError, "pencil is outside the canonical bijection's domain"),
    ("(W^2-W)^2*x", DomainError, "pencil is outside the canonical bijection's domain"),
    ("(W^2-W)^2*d(x)^2", DomainError, "pencil is outside the canonical bijection's domain"),
    ("(W^2-W)*(x*d(x)^2 + d(x))", DomainError,
     "pencil is outside the canonical bijection's domain"),
    ("(W^2-W)*(d(x)*d(xi) + xi)", DomainError,
     "pencil is outside the canonical bijection's domain"),
    ("(W^2-W)*x", None, "theta = 2*x"),
    ("(W^2-W)*xi", None, "theta = 2*xi"),
    ("(2*W-1)*d(x)", None, "gamma[x] = 2\ntheta = 0"),
]


@pytest.mark.parametrize("text,exc,message", _REFUSALS, ids=[r[0] for r in _REFUSALS])
def test_extract_refusal_table(text, exc, message):
    """The exact exception type and message for pencils outside the
    canonical bijection's domain, and the data of those in it."""
    P = load_module(f"chart C {{ even x; odd xi; }} operator P on C = {text};").operators["P"]
    if exc is None:
        assert render(extract_vbracket(P)) == message
        return
    with pytest.raises(DomainError) as ei:
        extract_vbracket(P)
    assert type(ei.value) is exc
    assert str(ei.value) == message


def test_pencil_io_makes_no_probe_and_no_composition(count_calls):
    """canonical_pencil, extract_vbracket and transform_data write and read
    coefficients: no pencil_bracket probe and no compose.  transform_data
    reads the transformed pencil, so it builds no Hamiltonian field;
    extract_vbracket proves a canonical pencil self-adjoint by its round
    trip, so it takes no formal_adjoint; jacobi_report builds two
    Hamiltonian fields, X_S and X_gamma.  Counted by wrappers on every engine
    module that names the function (count_calls); no wall-clock
    assertion."""
    calls = {name: count_calls(diffop if name == "compose" else geom, name) for name in
             ("compose", "pencil_bracket", "hamiltonian_vf", "formal_adjoint")}
    rng = random.Random("pencil io")
    for chart in CHARTS:
        for eps in (0, 1):
            data = rand_vdata(rng, chart, eps)
            assert geom.extract_vbracket(geom.canonical_pencil(data)) == data
            geom.transform_data(data, _triangular_map(rng, chart))
    assert calls["compose"] == calls["pencil_bracket"] == []
    assert calls["hamiltonian_vf"] == []
    assert calls["formal_adjoint"] == []
    for chart in CHARTS:
        before = len(calls["hamiltonian_vf"])
        geom.jacobi_report(rand_vdata(rng, chart, 1))
        assert len(calls["hamiltonian_vf"]) - before == 2
    # the counters see the calls they count
    diffop.compose(DiffOp.deriv(R11, "x"), DiffOp.deriv(R11, "xi"))
    one = DensityElement.from_poly(GradedPoly.one(R11))
    geom.pencil_bracket(DiffOp.deriv(R11, "x"), one, one)
    with pytest.raises(DomainError, match="not self-adjoint"):
        geom.extract_vbracket(DiffOp.deriv(R11, "x"))
    assert len(calls["compose"]) == len(calls["pencil_bracket"]) == 1
    assert len(calls["formal_adjoint"]) == 1


def test_data_read_off_a_pencil_is_valid_as_read():
    """extract_vbracket and transform_data build their data unchecked
    (VBracketData._of); the validating constructor takes it back unchanged,
    on seeded data of both parities on every chart, the zero data included."""
    rng = random.Random("data as read")
    for chart in CHARTS:
        for eps in (0, 1):
            zero = VBracketData(chart, eps, {}, {}, GradedPoly.zero(chart))
            for data in (zero, rand_vdata(rng, chart, eps), rand_vdata(rng, chart, eps)):
                for read in (extract_vbracket(canonical_pencil(data)),
                             transform_data(data, _triangular_map(rng, chart))):
                    assert VBracketData(*read) == read


# ---------------------------------------------------------------------------
# the graded divergence, its refusals, and the hash of bracket data


@pytest.mark.parametrize("chart", CHARTS, ids=lambda c: f"{len(c.even)}|{len(c.odd)}")
def test_divergence_is_additive_over_parity_parts(chart):
    """div of a mixed-parity field is the sum of the divergences of its
    parity parts, each by (-1)^{pa(a)(pX+1)} d_a X^a."""
    rng = random.Random(f"divergence {chart}")
    mixed = 0
    for _ in range(6):
        X = DiffOp.zero(chart)
        for a in chart.names:
            X = X + DiffOp.mult(rand_poly(rng, chart, 2, nterms=3)) * DiffOp.deriv(chart, a)
        parts = X.homogeneous_parts()
        mixed += len(parts) == 2
        ref = GradedPoly.zero(chart)
        for pX, part in parts:
            for a, c in first_order_coeffs(part).items():
                ref = ref + partial(a, c) * (-1) ** (chart.parity(a) * (pX + 1))
        assert divergence(X) == ref
        assert divergence(X) == sum((divergence(part) for _, part in parts),
                                    GradedPoly.zero(chart))
    assert mixed


def test_divergence_and_first_order_coeffs_refusals():
    x = GradedPoly.var(R12, "x")
    dx = DiffOp.deriv(R12, "x")
    for not_a_field in (dx * dx, DiffOp.mult(x) + dx, DiffOp.identity(R12)):
        with pytest.raises(DomainError, match="divergence requires a vector field"):
            divergence(not_a_field)
    with pytest.raises(DomainError, match="weight-dependent coefficient in plain operator"):
        first_order_coeffs(DiffOp.weight(R12) * dx)
    with pytest.raises(DomainError, match="weight-dependent coefficient in plain operator"):
        divergence(DiffOp.weight(R12) * dx)


def test_equal_bracket_data_hash_equal():
    rng = random.Random("vdata hash")
    for chart in (R11, R12, R22):
        data = rand_vdata(rng, chart, 1)
        again = VBracketData(chart, 1, dict(reversed(list(data.S.items()))),
                             dict(reversed(list(data.gamma.items()))), data.theta + 0)
        assert again == data
        assert hash(again) == hash(data)
        # explicit zero entries of S and gamma are dropped, and have no parity to check
        zero = GradedPoly.zero(chart)
        padded = {(a, b): zero for a in chart.names for b in chart.names}
        assert VBracketData(chart, 1, {**padded, **data.S}, data.gamma, data.theta) == data
        bare = VBracketData(chart, 1, data.S, {}, data.theta)
        again = VBracketData(chart, 1, data.S, {a: zero for a in chart.names}, data.theta)
        assert again.gamma == {}
        assert again == bare
        assert hash(again) == hash(bare)
