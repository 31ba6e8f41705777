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
    matrix_of,
    matrix_oracle_instance,
    square_bracket,
)
from superdelta.diffop import (
    ad_mult,
    commutator,
    compose,
    conjugate_by_exp,
    op_from_action,
    specialize,
)
from superdelta.dsl import render
from superdelta.geom import (
    BracketDataError,
    CoordMap,
    VBracketData,
    act_on_w_densities,
    cotangent_chart,
    principal_matrix,
    transform_data,
    transform_op,
)
from superdelta.gralg import substitute
from superdelta.oracle import (
    berezin_integral, modular_vf, residue_pair, subprincipal, tstar_bracket,
)

from conftest import R02, R11, R12, R22, std_odd_smatrix


def _v(chart, name):
    return GradedPoly.var(chart, name)


def _d(chart, name):
    return DiffOp.deriv(chart, name)


ONE11, ONE12 = GradedPoly.one(R11), GradedPoly.one(R12)
ID11, ID12 = DiffOp.identity(R11), DiffOp.identity(R12)
UNIT11 = ((0,), ())  # the key of 1 on (1|1)
_IDENTITY11 = {v: _v(R11, v) for v in R11.names}
MAP11 = CoordMap(R11, _IDENTITY11, _IDENTITY11)  # the identity map on (1|1)
# S on (1|2) that checks as even at any even eps, read as odd by an eps of 2
S12 = {("xi1", "xi2"): _v(R12, "x") * _v(R12, "xi1") * _v(R12, "xi2") + _v(R12, "x")}
# an argument on (0|2) for a generator on (1|1)
XI = _v(R02, "xi1")


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
    # brackets: an argument on another chart is refused before any shortcut
    # to 0 (a zero generator, more arguments than its order, a zero
    # argument); rows sharing a message take their own ids
    pytest.param(lambda: higher_bracket(DiffOp.zero(R11), [XI]),
                 ChartMismatch, "bracket argument on a different chart",
                 id="higher_bracket of 0: bracket argument on a different chart"),
    pytest.param(lambda: higher_bracket(_d(R11, "x"), [XI, XI]),
                 ChartMismatch, "bracket argument on a different chart",
                 id="higher_bracket past the order: bracket argument on a different chart"),
    pytest.param(lambda: higher_bracket(_d(R11, "x"), [XI, GradedPoly.zero(R11)]),
                 ChartMismatch, "bracket argument on a different chart",
                 id="higher_bracket with a zero argument: bracket argument on a different chart"),
    pytest.param(lambda: jacobiator(DiffOp.zero(R11), [XI]),
                 ChartMismatch, "bracket argument on a different chart",
                 id="jacobiator of 0: bracket argument on a different chart"),
    pytest.param(lambda: square_bracket(_d(R11, "xi"), [XI]),
                 ChartMismatch, "bracket argument on a different chart",
                 id="square_bracket before its envelope: bracket argument on a different chart"),
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
    (lambda: ID11 + ID12, ChartMismatch, "operators on different charts"),
    (lambda: ID11.apply(ONE12), ChartMismatch, "operand on wrong chart"),
    (lambda: compose(ID11, ID12), ChartMismatch, "operators on different charts"),
    (lambda: commutator(ID11, ID12), ChartMismatch, "operators on different charts"),
    (lambda: ad_mult(ID11, ONE12), ChartMismatch,
     "operator and polynomial on different charts"),
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
     "operator coefficient on wrong chart"),
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
     ChartMismatch, "S entry on wrong chart"),
    *((lambda eps=eps: VBracketData(R12, eps, S12, {}, GradedPoly.zero(R12)),
       BracketDataError, f"a bracket parity must be the int 0 or 1, not {eps!r}")
      for eps in (2, -1, True, 1.0)),
    # geom: a coordinate change on another chart, refused at transform_op's
    # entry, which transform_data goes through
    *(pytest.param(call, ChartMismatch, "operator and coordinate map on different charts",
                   id=f"{name}: operator and coordinate map on different charts")
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
    (lambda: R11.parity("nope"), KeyError, "unknown variable 'nope'"),
    (lambda: substitute(_v(R11, "x"), {"x": _v(R11, "x"), "xi": _v(R12, "xi1")}),
     ChartMismatch, "substitution images on mixed charts"),
    (lambda: DensityElement(R11, {0: ONE12}), ChartMismatch, "component on wrong chart"),
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
