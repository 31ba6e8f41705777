"""Library refusals: one row per precondition of a public call that no
command-line path reaches.  Each row is (call, exception type, message).
Density weights are refused by one rule, tabled over every entry point."""

from fractions import Fraction

import pytest

from superdelta import (
    ChartMismatch,
    DensityElement,
    DiffOp,
    DomainError,
    GradedPoly,
    KeyLayoutError,
    ParityError,
)
from superdelta.brackets import (
    LieSuperAlgebraInstance,
    higher_bracket,
    jacobiator,
    koszul_sign,
    linfty_check,
    matrix_of,
    matrix_oracle_instance,
    monomials_upto,
    square_bracket,
)
from superdelta.diffop import (
    ad_mult,
    commutator,
    compose,
    conjugate_by_exp,
    formal_adjoint,
    op_from_action,
    specialize,
)
from superdelta.dsl import load_module, parse_element, render
from superdelta.geom import (
    BracketDataError,
    CoordMap,
    CoordMapError,
    VBracketData,
    act_on_w_densities,
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
from superdelta.gralg import partial, substitute
from superdelta.oracle import (
    berezin_integral, modular_vf, residue_pair, subprincipal, tstar_bracket,
)

from conftest import R02, R11, R12, R22, std_odd_smatrix


def _v(chart, name):
    return GradedPoly.var(chart, name)


def _d(chart, name):
    return DiffOp.deriv(chart, name)


ONE11, ONE12 = GradedPoly.one(R11), GradedPoly.one(R12)
ZERO11 = GradedPoly.zero(R11)
ID11, ID12 = DiffOp.identity(R11), DiffOp.identity(R12)
UNIT11 = ((0,), ())  # the key of 1 on (1|1)
_IDENTITY11 = {v: _v(R11, v) for v in R11.names}
MAP11 = CoordMap(R11, _IDENTITY11, _IDENTITY11)  # the identity map on (1|1)
_IDENTITY12 = {v: _v(R12, v) for v in R12.names}
MAP12 = CoordMap(R12, _IDENTITY12, _IDENTITY12)
D11 = _d(R11, "xi")  # an odd generator on (1|1)
# S on (1|2) that checks as even at any even eps, read as odd by an eps of 2
S12 = {("xi1", "xi2"): _v(R12, "x") * _v(R12, "xi1") * _v(R12, "xi2") + _v(R12, "x")}
S11 = std_odd_smatrix(R11)  # odd bracket data on (1|1)
# an argument on (0|2) for a generator on (1|1)
XI = _v(R02, "xi1")
MODULE11 = load_module("chart C { even x; odd xi; }\n")  # the chart (1|1) alone


_REFUSALS = [
    # brackets: the abstract instances and the matrix oracle
    (lambda: LieSuperAlgebraInstance(
        bracket=lambda x, y: 0, project=lambda x: 2 * x, sub=lambda x, y: x - y,
        is_zero=lambda x: x == 0, span=(1,)),
     ValueError, "instance: projector is not idempotent"),
    # P(a, b) = (a, 0) and [(a, b), (c, d)] = (bd, 0): im P is abelian, and
    # [ker P, ker P] is not in ker P
    (lambda: LieSuperAlgebraInstance(
        bracket=lambda x, y: (x[1] * y[1], 0), project=lambda x: (x[0], 0),
        sub=lambda x, y: (x[0] - y[0], x[1] - y[1]), is_zero=lambda x: x == (0, 0),
        span=((0, 1),)),
     ValueError, "instance: kernel of P is not a subalgebra"),
    (lambda: matrix_oracle_instance(R02).bracket(
        matrix_of(DiffOp.identity(R02) + _d(R02, "xi1")), matrix_of(DiffOp.identity(R02))),
     ParityError, "graded matrix commutator needs homogeneous factors"),
    (lambda: matrix_of(ID11), ValueError, "matrix oracle requires a purely odd chart"),
    (lambda: matrix_oracle_instance(R11), ValueError,
     "matrix oracle requires a purely odd chart"),
    (lambda: monomials_upto(R11, None), TypeError, "the degree deg must be a int, not NoneType"),
    # brackets: an argument on another chart is refused before any shortcut
    # to 0 (a zero generator, more arguments than its order, a zero
    # argument); rows sharing a message take their own ids
    *(pytest.param(call, ChartMismatch, "a bracket argument on another chart",
                   id=f"{name}: a bracket argument on another chart")
      for name, call in (
          ("higher_bracket of 0", lambda: higher_bracket(DiffOp.zero(R11), [XI])),
          ("higher_bracket past the order", lambda: higher_bracket(_d(R11, "x"), [XI, XI])),
          ("higher_bracket with a zero argument",
           lambda: higher_bracket(_d(R11, "x"), [XI, GradedPoly.zero(R11)])),
          ("jacobiator of 0", lambda: jacobiator(DiffOp.zero(R11), [XI])),
          ("square_bracket before its envelope",
           lambda: square_bracket(_d(R11, "xi"), [XI])))),
    # brackets and geom: a generator or operator that is not a DiffOp is
    # refused by its type, before its parity or order is read
    *(pytest.param(call, TypeError, message, id=f"{name}: {message}")
      for name, call, message in (
          ("higher_bracket", lambda: higher_bracket(None, [ONE11]),
           "the generator Delta must be a DiffOp, not NoneType"),
          ("jacobiator", lambda: jacobiator(_v(R11, "x"), [_v(R11, "x")]),
           "the generator Delta must be a DiffOp, not GradedPoly"),
          ("square_bracket", lambda: square_bracket(3, [ONE11]),
           "the generator Delta must be a DiffOp, not int"),
          ("linfty_check", lambda: linfty_check(None),
           "the generator Delta must be a DiffOp, not NoneType"),
          ("classify_square", lambda: classify_square(None),
           "the operator D must be a DiffOp, not NoneType"),
          ("transform_op", lambda: transform_op(None, MAP11),
           "the operator D must be a DiffOp, not NoneType"))),
    # brackets: an argument that is not a polynomial is refused by its type
    pytest.param(lambda: higher_bracket(_d(R11, "xi"), [1]), TypeError,
                 "a bracket argument must be a GradedPoly, not int",
                 id="higher_bracket: a bracket argument must be a GradedPoly, not int"),
    pytest.param(lambda: jacobiator(_d(R11, "xi"), [_v(R11, "x"), 2]), TypeError,
                 "a bracket argument must be a GradedPoly, not int",
                 id="jacobiator: a bracket argument must be a GradedPoly, not int"),
    (lambda: square_bracket(_d(R11, "xi"), [None]), TypeError,
     "a bracket argument must be a GradedPoly, not NoneType"),
    # diffop: operands on different charts, conjugation preconditions
    pytest.param(lambda: ID11 + ID12, ChartMismatch, "operands live on different charts",
                 id="DiffOp + DiffOp: operands live on different charts"),
    (lambda: ID11.apply(ONE12), ChartMismatch, "the operand psi on another chart"),
    *(pytest.param(call, ChartMismatch, "the operator E on another chart",
                   id=f"{name}: the operator E on another chart")
      for name, call in (("compose", lambda: compose(ID11, ID12)),
                         ("commutator", lambda: commutator(ID11, ID12)))),
    (lambda: ad_mult(ID11, ONE12), ChartMismatch, "the polynomial a on another chart"),
    (lambda: conjugate_by_exp(_d(R11, "x"), _v(R11, "xi")), ParityError,
     "conjugation exponent must be even"),
    # diffop: the public constructor takes W-powers that are non-negative
    # ints, tested by type, and coefficients that are polynomials on its chart
    *((lambda k=k: DiffOp(R11, {UNIT11: {k: ONE11}}), TypeError,
       f"a W-power must be an int, not {kind}")
      for k, kind in ((Fraction(1, 2), "Fraction"), ("1", "str"), (True, "bool"),
                      (0.5, "float"))),
    (lambda: DiffOp(R11, {UNIT11: {-1: ONE11}}), ValueError,
     "a W-power must be non-negative, not -1"),
    (lambda: DiffOp(R11, {UNIT11: {0: 1}}), TypeError,
     "an operator coefficient must be a GradedPoly, not int"),
    (lambda: DiffOp(R11, {UNIT11: {0: _v(R12, "xi2")}}), ChartMismatch,
     "an operator coefficient on another chart"),
    # gralg and diffop: the public constructors take keys in the chart's
    # layout only; rows sharing a message take their own ids
    *(pytest.param(lambda make=make, key=key: make(key), KeyLayoutError, message,
                   id=f"{name} key {key!r}: {message}")
      for name, make in (("GradedPoly", lambda key: GradedPoly(R11, {key: 1})),
                         ("DiffOp", lambda key: DiffOp(R11, {key: {0: ONE11}})))
      for key, message in (
          (((0, 0), ()), "a key on a chart of 1 even variables needs as many exponents, "
                         "not (0, 0)"),
          (((), ()), "a key on a chart of 1 even variables needs as many exponents, not ()"),
          (((-1,), ()), "an even exponent must be a non-negative int, not -1"),
          (((True,), ()), "an even exponent must be a non-negative int, not True"),
          (((1.0,), ()), "an even exponent must be a non-negative int, not 1.0"),
          (((0,), (0, 0)), "odd indices must ascend strictly within range(1), not (0, 0)"),
          (((0,), (1,)), "odd indices must ascend strictly within range(1), not (1,)"),
          (((0,), (-1,)), "odd indices must ascend strictly within range(1), not (-1,)"),
          (((0,), (False,)), "odd indices must ascend strictly within range(1), not (False,)"),
          ((0,), "a key must be a pair of tuples (even exponents, odd indices), not (0,)"),
          (("x", ()), "a key must be a pair of tuples (even exponents, odd indices), "
                      "not ('x', ())"))),
    # geom: bracket data, symbols, divergence constructions
    (lambda: VBracketData(R11, 1, {("x", "xi"): ONE12}, {}, GradedPoly.zero(R11)),
     ChartMismatch, "S[x,xi] on another chart"),
    # geom: S or gamma that is not a dict, an S key that is not a pair, a
    # gamma entry or theta that is not a polynomial on the chart, and a name
    # in S or gamma that is not a chart variable
    *(pytest.param(lambda S=S, gamma=gamma, theta=theta: VBracketData(R11, 1, S, gamma, theta),
                   exc, message, id=f"VBracketData: {message}")
      for S, gamma, theta, exc, message in (
          ({}, {"x": _v(R12, "xi1")}, ZERO11, ChartMismatch, "gamma[x] on another chart"),
          ({}, {}, _v(R12, "xi1"), ChartMismatch, "theta on another chart"),
          ({}, {"x": 3}, ZERO11, TypeError, "gamma[x] must be a GradedPoly, not int"),
          ({}, {}, None, TypeError, "theta must be a GradedPoly, not NoneType"),
          ({}, {"y": _v(R11, "xi")}, ZERO11, BracketDataError,
           "unknown variable 'y' in gamma"),
          ({("x", "y"): ONE11}, {}, ZERO11, BracketDataError, "unknown variable 'y' in S"),
          (None, {}, ZERO11, TypeError, "S must be a dict, not NoneType"),
          ({}, None, ZERO11, TypeError, "gamma must be a dict, not NoneType"),
          ({"x": ONE11}, {}, ZERO11, BracketDataError,
           "a key of S must be a pair of names, not 'x'"),
          ({("x", "xi", "x"): ONE11}, {}, ZERO11, BracketDataError,
           "a key of S must be a pair of names, not ('x', 'xi', 'x')"))),
    # geom: the S of the Laplacian functions is checked entry by entry as
    # VBracketData checks it; rows sharing a message take their own ids
    *(pytest.param(lambda S=S: odd_laplacian(S, R11, ZERO11), exc, message,
                   id=f"odd_laplacian: {message}")
      for S, exc, message in (
          ({"x": _v(R11, "x")}, BracketDataError,
           "a key of S must be a pair of names, not 'x'"),
          ({("x", "y"): ONE11}, BracketDataError, "unknown variable 'y' in S"),
          ({("x", "xi"): ONE12}, ChartMismatch, "S[x,xi] on another chart"))),
    *((lambda eps=eps: VBracketData(R12, eps, S12, {}, GradedPoly.zero(R12)),
       BracketDataError, f"a bracket parity must be the int 0 or 1, not {eps!r}")
      for eps in (2, -1, True, 1.0)),
    # geom: a coordinate change on another chart, refused at transform_op's
    # entry, which transform_data goes through
    *(pytest.param(call, ChartMismatch, "the coordinate map on another chart",
                   id=f"{name}: the coordinate map on another chart")
      for name, call in (
          ("transform_op", lambda: transform_op(_d(R22, "y"), MAP11)),
          ("transform_data", lambda: transform_data(
              VBracketData(R22, 1, {}, {}, GradedPoly.zero(R22)), MAP11)))),
    (lambda: principal_matrix(_d(R11, "x") ** 3), DomainError,
     "principal symbol defined for order <= 2 only"),
    (lambda: principal_matrix(_d(R11, "x") + _d(R11, "xi")), ParityError,
     "bracket generator must be homogeneous"),
    (lambda: subprincipal(DiffOp.mult(_v(R11, "x"))), DomainError,
     "operator must be normalized: D1 = 0"),
    (lambda: subprincipal(_d(R11, "x") + _d(R11, "xi")), ParityError,
     "operator must be homogeneous"),
    (lambda: modular_vf({("x", "y"): GradedPoly.one(R22)}, R22, GradedPoly.zero(R22)),
     BracketDataError, "P must be graded antisymmetric"),
    (lambda: tstar_bracket(GradedPoly.one(cotangent_chart(R11)),
                           GradedPoly.one(cotangent_chart(R12))),
     ChartMismatch, "symbols on different cotangent charts"),
    # gralg: coefficients are an int or a Fraction; rows sharing a message
    # take their own ids
    *(pytest.param(lambda make=make, c=c: make(c), TypeError,
                   f"a coefficient must be an int or a Fraction, not {kind}",
                   id=f"{name} of a {kind}: a coefficient must be an int or a Fraction")
      for name, make in (("GradedPoly", lambda c: GradedPoly(R11, {((0,), ()): c})),
                         ("GradedPoly.const", lambda c: GradedPoly.const(R11, c)),
                         ("DiffOp.const", lambda c: DiffOp.const(R11, c)))
      for c, kind in ((0.1, "float"), ("1/10", "str"))),
    # gralg: charts, substitution, densities, the Berezin integral
    (lambda: R11.parity("nope"), DomainError, "unknown variable 'nope'"),
    # gralg and diffop: a name that is not a chart variable, read through
    # the chart; rows sharing a message take their own ids
    *(pytest.param(call, DomainError, "unknown variable 'nope'",
                   id=f"{name}: unknown variable 'nope'")
      for name, call in (("GradedPoly.var", lambda: GradedPoly.var(R11, "nope")),
                         ("DiffOp.deriv", lambda: DiffOp.deriv(R11, "nope")),
                         ("partial", lambda: partial("nope", _v(R11, "x"))))),
    (lambda: substitute(_v(R11, "x"), {"x": _v(R11, "x"), "xi": _v(R12, "xi1")}),
     ChartMismatch, "the image of xi on another chart"),
    (lambda: substitute(_v(R11, "x"), {"x": 3}), TypeError,
     "the image of x must be a GradedPoly, not int"),
    (lambda: substitute(_v(R11, "x"), {"y": _v(R11, "x")}), DomainError,
     "unknown variable 'y' in the images"),
    (lambda: substitute(_v(R11, "x"), {"x": _v(R22, "x")}), DomainError,
     "no image of 'xi' for a substitution onto another chart"),
    (lambda: CoordMap(R11, {**_IDENTITY11, "y": 3}, _IDENTITY11), CoordMapError,
     "unknown variable 'y' in the map"),
    (lambda: DensityElement(R11, {0: ONE12}), ChartMismatch,
     "a density component on another chart"),
    (lambda: DensityElement.from_poly(ONE11) + DensityElement.from_poly(ONE12, 1),
     ChartMismatch, "operands live on different charts"),
    # gralg and diffop: a density component or an operator coefficient that
    # is not a polynomial is refused by type; rows sharing a message take
    # their own ids
    *(pytest.param(call, TypeError, f"{what} must be a GradedPoly, not {kind}",
                   id=f"{name}: {what} must be a GradedPoly, not {kind}")
      for name, call, what, kind in (
          ("DiffOp.mult(3)", lambda: DiffOp.mult(3), "an operator coefficient", "int"),
          ("DiffOp.mult(None)", lambda: DiffOp.mult(None), "an operator coefficient",
           "NoneType"),
          ("DiffOp.mult of a density", lambda: DiffOp.mult(DensityElement.from_poly(ONE11)),
           "an operator coefficient", "DensityElement"),
          ("op_from_action of a density", lambda: op_from_action(
              R11, DensityElement.from_poly, 1), "an operator coefficient", "DensityElement"),
          ("DensityElement.from_poly(3)", lambda: DensityElement.from_poly(3),
           "a density component", "int"),
          ("DensityElement(R11, {0: 3})", lambda: DensityElement(R11, {0: 3}),
           "a density component", "int"))),
    (lambda: residue_pair(DensityElement.from_poly(ONE11), DensityElement.from_poly(ONE12)),
     ChartMismatch, "pairing across charts"),
    (lambda: berezin_integral(ONE11), DomainError,
     "Berezin integral requires a purely odd chart"),
    # dsl: a value with no canonical text
    (lambda: render(object()), TypeError, "no canonical rendering for object"),
]


@pytest.mark.parametrize("call, exc, message", _REFUSALS,
                         ids=[message for *_, message in _REFUSALS])
def test_library_refusal_table(call, exc, message):
    with pytest.raises(exc) as info:
        call()
    assert (type(info.value), info.value.args) == (exc, (message,))


_WEIGHT_CALLS = {
    "specialize": lambda w: specialize(DiffOp.weight(R11) * _d(R11, "x"), w),
    "DensityElement": lambda w: DensityElement(R11, {w: ONE11}),
    "from_poly": lambda w: DensityElement.from_poly(ONE11, w),
    "component": lambda w: DensityElement.from_poly(ONE11, 2).component(w),
    "act_on_w_densities": lambda w: act_on_w_densities(
        std_odd_smatrix(R11), R11, _v(R11, "x") * _v(R11, "x"), w),
}


@pytest.mark.parametrize("name", _WEIGHT_CALLS)
def test_weight_is_an_int_or_a_fraction(name):
    """An int weight means its Fraction; a float or a string is refused, not
    read through Fraction (0.1 would be 3602879701896397/36028797018963968)."""
    call = _WEIGHT_CALLS[name]
    assert call(2) == call(Fraction(2))
    call(Fraction(1, 10))
    for w in (0.1, "1/10"):
        with pytest.raises(TypeError) as info:
            call(w)
        assert info.value.args == (
            f"a weight must be an int or a Fraction, not {type(w).__name__}",)


# One row per operand slot of a public call: (name, fill, foreign), where
# name is "call: what", what the operand as the message names it, fill(v)
# makes the call with v in that slot and valid values elsewhere, and
# foreign is a value of the slot's type on another chart, or None when the
# slot sets the chart the others must match.
_SLOTS = [
    ("compose: the operator D", lambda v: compose(v, ID11), None),
    ("compose: the operator E", lambda v: compose(ID11, v), ID12),
    ("commutator: the operator D", lambda v: commutator(v, ID11), None),
    ("commutator: the operator E", lambda v: commutator(ID11, v), ID12),
    ("ad_mult: the operator D", lambda v: ad_mult(v, ONE11), None),
    ("ad_mult: the polynomial a", lambda v: ad_mult(ID11, v), ONE12),
    ("DiffOp.apply: the operand psi", lambda v: ID11.apply(v),
     DensityElement.from_poly(ONE12, 1)),
    ("DiffOp: an operator coefficient", lambda v: DiffOp(R11, {UNIT11: {0: v}}), ONE12),
    ("DiffOp.mult: an operator coefficient", DiffOp.mult, None),
    ("DensityElement: a density component", lambda v: DensityElement(R11, {0: v}), ONE12),
    ("DensityElement.from_poly: a density component", DensityElement.from_poly, None),
    *((f"{f.__name__}: the generator Delta", lambda v, f=f: f(v, [ONE11]), None)
      for f in (higher_bracket, square_bracket, jacobiator)),
    *((f"{f.__name__}: a bracket argument", lambda v, f=f: f(D11, [_v(R11, "x"), v]), ONE12)
      for f in (higher_bracket, square_bracket, jacobiator)),
    ("linfty_check: the generator Delta", linfty_check, None),
    ("classify_square: the operator D", classify_square, None),
    ("transform_op: the operator D", lambda v: transform_op(v, MAP11), None),
    ("transform_op: the coordinate map", lambda v: transform_op(ID11, v), MAP12),
    ("substitute: the image of x",
     lambda v: substitute(_v(R11, "x"), {"xi": _v(R11, "xi"), "x": v}), ONE12),
    ("CoordMap forward: the image of x",
     lambda v: CoordMap(R11, {**_IDENTITY11, "x": v}, _IDENTITY11), ONE12),
    ("CoordMap inverse: the image of xi",
     lambda v: CoordMap(R11, _IDENTITY11, {**_IDENTITY11, "xi": v}), _v(R12, "xi1")),
    ("VBracketData: S[x,xi]", lambda v: VBracketData(R11, 1, {("x", "xi"): v}, {}, ZERO11),
     ONE12),
    ("VBracketData: gamma[x]", lambda v: VBracketData(R11, 1, {}, {"x": v}, ZERO11),
     _v(R12, "xi1")),
    ("VBracketData: theta", lambda v: VBracketData(R11, 1, {}, {}, v), _v(R12, "xi1")),
    ("odd_laplacian: a log-volume", lambda v: odd_laplacian(S11, R11, v), ONE12),
    ("act_on_w_densities: a log-volume", lambda v: act_on_w_densities(S11, R11, v, 1), ONE12),
    ("master_discrepancy: a log-volume",
     lambda v: master_discrepancy(S11, R11, ZERO11, v), ONE12),
    ("lb_data: a log-volume", lambda v: lb_data(S11, R11, v), ONE12),
    ("transform_logvol: a log-volume", lambda v: transform_logvol(v, MAP11), ONE12),
    ("transform_logvol: the coordinate map", lambda v: transform_logvol(ZERO11, v), None),
    ("VBracketData: the chart", lambda v: VBracketData(v, 1, {}, {}, ZERO11), None),
    *((f"{f.__name__}: S", fill, None) for f, fill in (
        (odd_laplacian, lambda v: odd_laplacian(v, R11, ZERO11)),
        (act_on_w_densities, lambda v: act_on_w_densities(v, R11, ZERO11, 1)),
        (master_discrepancy, lambda v: master_discrepancy(v, R11, ZERO11, ZERO11)),
        (lb_data, lambda v: lb_data(v, R11, ZERO11)),
        (hamiltonian_vf, lambda v: hamiltonian_vf(v, R11, ONE11)))),
    ("lb_data: the chart", lambda v: lb_data(S11, v, ZERO11), None),
    # the chart of the Laplacian functions is checked before the log-volume
    # is compared with it
    ("odd_laplacian: the chart", lambda v: odd_laplacian(S11, v, ZERO11), None),
    ("act_on_w_densities: the chart", lambda v: act_on_w_densities(S11, v, ZERO11, 1), None),
    ("master_discrepancy: the chart",
     lambda v: master_discrepancy(S11, v, ZERO11, ZERO11), None),
    ("recover_action: S", lambda v: recover_action(v, R11, {}), None),
    ("recover_action: the chart", lambda v: recover_action(S11, v, {}), None),
    ("recover_action: gamma", lambda v: recover_action(S11, R11, v), None),
    ("recover_action: gamma[x]", lambda v: recover_action(S11, R11, {"x": v}),
     _v(R12, "xi1")),
    ("hamiltonian_vf: the chart", lambda v: hamiltonian_vf(S11, v, ONE11), None),
    ("hamiltonian_vf: the polynomial f", lambda v: hamiltonian_vf(S11, R11, v), ONE12),
    ("conjugate_by_exp: the operator D", lambda v: conjugate_by_exp(v, ZERO11), None),
    ("conjugate_by_exp: the polynomial u", lambda v: conjugate_by_exp(ID11, v), ONE12),
    ("specialize: the pencil P", lambda v: specialize(v, 0), None),
    ("formal_adjoint: the operator D", formal_adjoint, None),
    ("op_from_action: the chart", lambda v: op_from_action(v, lambda p: p, 1), None),
    ("partial: the polynomial p", lambda v: partial("x", v), None),
    ("koszul_sign: the permutation perm", lambda v: koszul_sign(v, [1, 1]), None),
    ("koszul_sign: the parities", lambda v: koszul_sign((1, 0), v), None),
    ("parse_element: the text", lambda v: parse_element(v, MODULE11), None),
    ("parse_element: the module m", lambda v: parse_element("x", v), None),
    ("divergence: the vector field X", divergence, None),
    ("lie_derivative: the vector field X", lambda v: lie_derivative(v, 0), None),
    ("canonical_pencil: the bracket data", canonical_pencil, None),
    ("jacobi_report: the bracket data", jacobi_report, None),
    ("extract_vbracket: the pencil P", extract_vbracket, None),
    ("pencil_bracket: the pencil P", lambda v: pencil_bracket(v, ONE11, ONE11), None),
    ("pencil_bracket: the density psi", lambda v: pencil_bracket(D11, v, ONE11),
     DensityElement.from_poly(ONE12, 1)),
    ("pencil_bracket: the density chi", lambda v: pencil_bracket(D11, ONE11, v), ONE12),
    # public names outside the exports check their operands too
    ("principal_matrix: the operator D", principal_matrix, None),
    ("second_order_part: the chart", lambda v: second_order_part(v, S11), None),
    ("second_order_part: S", lambda v: second_order_part(R11, v), None),
    ("first_order_coeffs: the operator D", first_order_coeffs, None),
    ("cotangent_chart: the chart", cotangent_chart, None),
    ("log_berezinian: the coordinate map", log_berezinian, None),
    ("matrix_of: the operator D", matrix_of, None),
    ("matrix_oracle_instance: the chart", matrix_oracle_instance, None),
    ("monomials_upto: the chart", lambda v: monomials_upto(v, 2), None),
]


@pytest.mark.parametrize("name, fill, foreign", _SLOTS, ids=[name for name, *_ in _SLOTS])
def test_a_foreign_operand_is_refused_by_name(name, fill, foreign):
    """None and 3 in any slot are a TypeError naming the slot and the type,
    and a value on another chart a ChartMismatch naming the slot, never an
    AttributeError, KeyError or IndexError from inside the call."""
    what = name.split(": ", 1)[1]
    for v in (None, 3):
        with pytest.raises(TypeError) as info:
            fill(v)
        message, = info.value.args
        assert message.startswith(f"{what} must be a ") \
            and message.endswith(f", not {type(v).__name__}"), message
    if foreign is not None:
        with pytest.raises(ChartMismatch) as info:
            fill(foreign)
        assert info.value.args == (f"{what} on another chart",)
