"""The reference definitions the test suite checks the engine against, each
once and written from its statement, without the engine's shortcuts (order
floors, support bounds, shared tables, term maps written in place): the
nested commutator and the literal shuffle sum of Voronov's higher derived
brackets (arXiv:math/0304038), coordinate brackets as explicit sums,
substitution monomial by monomial, the reference laws of the geometry, and
the Berezin pairing.

Only tests import it; no engine module and not ``superdelta/__init__`` does
(tests/test_dead_code.py), so an engine path checked against it is checked
by a path independent of its own code.  Some oracles stay in the engine
until the benchmark's next revision, because ``bench/`` binds them: in
``brackets`` the matrix oracle (``matrix_of``, ``matrix_oracle_instance``,
``jacobiator_abstract``, ``LieSuperAlgebraInstance``, ``GrassmannMatrix``,
the ``_mat_*`` helpers) and ``monomials_upto``; in ``diffop``
``commutator``, ``conjugate_by_exp`` (and its ``ad_mult``),
``op_from_action`` and the polynomial alias of ``DiffOp.apply``; in
``geom`` ``lie_derivative``.  The benchmark's tracer installs its spans
through ``owner.__dict__[attr]`` of the defining module, so a moved one
would escape it, and a re-export here would be an alias.
"""

from __future__ import annotations

import itertools
import operator
from fractions import Fraction
from typing import Callable, Mapping, Sequence

from .brackets import (LieSuperAlgebraInstance, _check_image, _nested, _op_span,
                       higher_bracket, koszul_sign, shuffles)
from .diffop import DiffOp, _on_one, ad_mult, commutator, compose
from .geom import (BracketDataError, CoordMap, GVector, SMatrix, _as_sigma, _column, _contract,
                   _divergence, _sym_sign, first_order_coeffs, log_berezinian, principal_matrix)
from .gralg import (Chart, ChartMismatch, DensityElement, DomainError, GradedPoly, ParityError,
                    _key_names, partial)


# ---------------------------------------------------------------------------
# higher brackets and Jacobiators


def chain_bracket(D: DiffOp, args: Sequence[GradedPoly]) -> GradedPoly:
    """{a_1, ..., a_n} of D by its definition, [...[D, a_1], ..., a_n] 1 at
    weight 0, with no order floor or support bound.  Each step is ad_mult,
    which the suite checks against commutator(D, DiffOp.mult(a))."""
    for a in args:
        D = ad_mult(D, a)
    return D.apply(GradedPoly.one(D.chart))


def shuffle_jacobiator(nest: Callable, args: Sequence, parities: Sequence[int] | None = None,
                       sub: Callable = operator.sub):
    """The n-th Jacobiator as the literal shuffle sum over every block
    k = 0..n, with no order bound:

        J^n = sum_k sum_{(k, n-k)-shuffles s} sign(s) nest([nest(a_S)] + a_R),

    S = s[:k], R = s[k:] and sign(s) the Koszul sign of ``parities``, by
    default the parity() of each argument.  ``nest(xs)`` is the nested
    bracket of one generator on xs, taken from scratch for every term.
    Summed with ``sub`` alone, so an abstract instance serves too:
    x + y = x - (0 - y), with 0 = t - t for the first term t, which belongs
    to the identity shuffle and has sign +1."""
    n, total = len(args), None
    parities = [a.parity() for a in args] if parities is None else parities
    for k in range(n + 1):
        for s in shuffles(k, n - k):
            t = nest([nest([args[i] for i in s[:k]])] + [args[i] for i in s[k:]])
            if total is None:
                total, zero = t, sub(t, t)
            else:
                total = sub(total, sub(zero, t) if koszul_sign(s, parities) == 1 else t)
    return total


def leibniz_obstruction(Delta: DiffOp, args: Sequence[GradedPoly], b: GradedPoly,
                        c: GradedPoly) -> GradedPoly:
    """The failure of the k-ary bracket (k = len(args) + 1) to be a
    derivation in its last slot, {args, bc} - {args, b} c - (-1)^{pb (pD +
    sum pa)} b {args, c} for homogeneous Delta, each argument and b split
    into homogeneous parts: three k-ary brackets, independent of the
    (k + 1)-ary bracket the conventions say it equals."""
    pD = Delta.parity()
    out = GradedPoly.zero(Delta.chart)
    for *split, (pb, bh) in itertools.product(*(a.homogeneous_parts() for a in (*args, b))):
        head = [p for _, p in split]
        sgn = (-1) ** (pb * (pD + sum(par for par, _ in split)))
        out = (out + higher_bracket(Delta, head + [bh * c])
               - higher_bracket(Delta, head + [bh]) * c
               - bh * higher_bracket(Delta, head + [c]) * sgn)
    return out


def derived_bracket_abstract(inst: LieSuperAlgebraInstance, Delta, args: Sequence):
    """{a_1,...,a_n}_Delta = P [...[[Delta,a_1],a_2],...,a_n] for arguments
    in the image of P."""
    _check_image(inst, args)
    return _nested(inst, Delta, args)


def operator_algebra_instance(chart: Chart) -> LieSuperAlgebraInstance:
    """Normal-ordered differential operators on a chart with the graded
    commutator; P sends an operator D to multiplication by D(1)."""
    one = GradedPoly.one(chart)
    return LieSuperAlgebraInstance(
        bracket=commutator,
        project=lambda D: DiffOp.mult(D.apply(one)),
        sub=lambda D, E: D - E,
        is_zero=lambda D: D.is_zero(),
        span=_op_span(chart),
        name=f"operator algebra on {chart.names}",
    )


# ---------------------------------------------------------------------------
# coordinate brackets


def matrix_bracket(S: SMatrix, chart: Chart, f: GradedPoly, g: GradedPoly) -> GradedPoly:
    """The coordinate bracket {f,g} = S^{ab} d_b f d_a g (-1)^{pa(a) pf}
    (the conventions), summed over the entries of S and the homogeneous
    parts of f."""
    return sum((s * partial(b, fh) * partial(a, g) * (-1) ** (chart.parity(a) * pf)
                for pf, fh in f.homogeneous_parts() for (a, b), s in S.items()),
               GradedPoly.zero(chart))


def poisson_bracket(S: SMatrix, chart: Chart, f: GradedPoly, g: GradedPoly) -> GradedPoly:
    """The antibracket-normalized coordinate bracket
    {f,g}_P = (-1)^{pf+1} {f,g} for homogeneous f (extended additively).
    In this normalization the odd Laplacian is a derivation of the bracket
    and satisfies the Leibniz discrepancy identity with the (-1)^{pf+1}
    sign."""
    return sum((matrix_bracket(S, chart, fh, g) * (-1) ** (pf + 1)
                for pf, fh in f.homogeneous_parts()), GradedPoly.zero(chart))


def tstar_bracket(F: GradedPoly, G: GradedPoly) -> GradedPoly:
    """The canonical (even) Poisson bracket on T*M, normalized by
    (p_a, x^b) = delta_a^b, as an explicit sum over the base coordinates a,
    p_a found by position in the cotangent chart (each parity block is the
    base's block, then its momenta):

    (F,G) = sum_a [ (-1)^{pa(a)(pF+1)} dF/dp_a dG/dx^a
                    - (-1)^{pa(a) pF}  dF/dx^a dG/dp_a ]."""
    if G.chart != F.chart:
        raise ChartMismatch("symbols on different cotangent charts")
    ct = F.chart
    ev, od = len(ct.even) // 2, len(ct.odd) // 2
    pairs = list(zip(ct.even[:ev], ct.even[ev:])) + list(zip(ct.odd[:od], ct.odd[od:]))
    out = GradedPoly.zero(ct)
    for pF, Fh in F.homogeneous_parts():
        for a, pm in pairs:
            pa = ct.parity(a)
            out = out + partial(pm, Fh) * partial(a, G) * (-1) ** (pa * (pF + 1))
            out = out - partial(a, Fh) * partial(pm, G) * (-1) ** (pa * pF)
    return out


def smatrix_of(chart: Chart, bracket: Callable[[str, str], GradedPoly]) -> SMatrix:
    """The nonzero entries S^{ab} = (-1)^{pa(a) pa(b)} {x^b, x^a}, from
    bracket(b, a) on the coordinate names."""
    S = {}
    for a in chart.names:
        for b in chart.names:
            if not (v := bracket(b, a) * (-1) ** (chart.parity(a) * chart.parity(b))).is_zero():
                S[(a, b)] = v
    return S


# ---------------------------------------------------------------------------
# substitution


def substitute(p: GradedPoly, images: Mapping[str, GradedPoly], target: Chart) -> GradedPoly:
    """The algebra morphism sending each variable of p's chart to its image
    on ``target``, by its definition: each term c x^m is c times the images
    of the factors of x^m, multiplied left to right one factor at a time in
    canonical order (a power is repeated products), and the terms are added
    up one by one, with no power table and no scaling at the end."""
    out = GradedPoly.zero(target)
    for key, c in p.terms.items():
        m = GradedPoly.const(target, c)
        for name in _key_names(p.chart, key):
            m = m * images[name]
        out = out + m
    return out


# ---------------------------------------------------------------------------
# reference laws


def subprincipal(D: DiffOp) -> GVector:
    """The components gamma^a = div S^{.a} - 2 T^a (canonical_pencil) of
    Hormander's subprincipal symbol, for a normalized (D1 = 0) plain (W-free)
    operator of order <= 2."""
    chart = D.chart
    if not D.order_leq(2) or D.uses_weight():
        raise DomainError("subprincipal symbol requires a W-free operator of order <= 2")
    if not _on_one(D).is_zero():
        raise DomainError("operator must be normalized: D1 = 0")
    eps = D.parity()
    if eps is None:
        raise ParityError("operator must be homogeneous")
    # D - (1/2) S^{ab} d_b d_a has the first-order part T of D
    S, T, zero = principal_matrix(D), first_order_coeffs(D), GradedPoly.zero(chart)
    out = {a: _divergence(chart, _column(chart, S, a), eps) - 2 * T.get(a, zero)
           for a in chart.names}
    return {a: g for a, g in out.items() if not g.is_zero()}


def div_form(chart: Chart, S: SMatrix, sigma: GradedPoly) -> DiffOp:
    """sum_a (d_a + d_a sigma) o (sum_b S^{ab} d_b) by compose, that is
    e^{-sigma} d_a (e^sigma S^{ab} d_b .) for even sigma: twice the odd
    Laplacian of odd S."""
    out = DiffOp.zero(chart)
    for a in chart.names:
        B = sum((DiffOp.mult(S[(a, b)]) * DiffOp.deriv(chart, b) for b in chart.names
                 if (a, b) in S), DiffOp.zero(chart))
        out = out + compose(DiffOp.deriv(chart, a) + DiffOp.mult(partial(a, sigma)), B)
    return out


def modular_vf(P: SMatrix, chart: Chart, sigma) -> DiffOp:
    """The modular vector field of an even antisymmetric Poisson tensor:
    div_form, without the 1/2 of the odd Laplacian.  Its second-order terms
    cancel in pairs exactly when every entry of P between an even and an
    odd coordinate is even."""
    sigma = _as_sigma(sigma, chart)
    for (a, b), p in P.items():
        if P.get((b, a), GradedPoly.zero(chart)) != -(_sym_sign(chart, a, b) * p):
            raise BracketDataError("P must be graded antisymmetric")
    op = div_form(chart, P, sigma)
    if not op.order_leq(1):
        raise BracketDataError("P must have even entries between even and odd coordinates")
    return op


def transform_smatrix(S: SMatrix, chart: Chart, cmap: CoordMap) -> SMatrix:
    """The tensor law S'^{ab} = (-1)^{pa(a) pa(b)} {x'^b, x'^a} entry by
    entry: one coordinate bracket of the new coordinate functions per
    entry, pushed to the new coordinates."""
    return smatrix_of(chart, lambda b, a: cmap.push(
        matrix_bracket(S, chart, cmap.fwd[b], cmap.fwd[a])))


def transform_gamma(S: SMatrix, gamma: GVector, chart: Chart, cmap: CoordMap) -> GVector:
    """gamma^{a'} = (gamma^a + S^{ab} d_b log J) dx^{a'}/dx^a, expressed in
    new coordinates."""
    J, lnJ = cmap.jacobian(), log_berezinian(cmap)
    shift = _contract(chart, S, {b: partial(b, lnJ) for b in chart.names})
    corrected = {a: gamma.get(a, GradedPoly.zero(chart)) + shift[a] for a in chart.names}
    out = {ap: cmap.push(sum((corrected[a] * J[(ap, a)] for a in chart.names),
                             GradedPoly.zero(chart)))
           for ap in chart.names}
    return {a: g for a, g in out.items() if not g.is_zero()}


# ---------------------------------------------------------------------------
# the Berezin pairing


def residue_pair(psi: DensityElement, chi: DensityElement) -> GradedPoly:
    """The weight-1 component of psi*chi: the integrand of the invariant
    scalar product on the algebra of densities."""
    if psi.chart != chi.chart:
        raise ChartMismatch("pairing across charts")
    return (psi * chi).component(1)


def berezin_integral(p: GradedPoly) -> Fraction:
    """Integral over a purely odd chart: the coefficient of the top odd
    monomial in canonical order."""
    chart = p.chart
    if chart.even:
        raise DomainError("Berezin integral requires a purely odd chart")
    top = tuple(range(len(chart.odd)))
    return p.terms.get(((), top), Fraction(0))
