"""Geometric constructions on top of the operator calculus: brackets from
operators, symbols, odd Laplacians, the canonical density pencil, Jacobi
conditions on the cotangent space, and coordinate covariance.  Operators
are written as term maps, each coefficient at its normal-ordered key;
bracket data is read off a pencil's coefficients, not probed by brackets,
and the Jacobi obstruction symbols off the square of its principal part.
The laws these are checked against (coordinate brackets and the bracket
on T*M as explicit sums, the subprincipal symbol, the modular vector
field, the tensor laws of S and gamma) are in superdelta.oracle.

Frozen conventions (certified by the theorem suites in tests/):

  * coordinate bracket      {f,g} = S^{ab} d_b f d_a g (-1)^{pa(a) pf}
  * forced symmetry         S^{ba} = (-1)^{pa(a) pa(b)} S^{ab}
  * momentum normalization  (p_a, x^b) = delta_a^b on T*M
  * divergence              div X = (-1)^{pa(a)(pX+1)} d_a X^a  (_divergence)
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, NamedTuple

from .gralg import (
    EVEN,
    ODD,
    Chart,
    DensityElement,
    DomainError,
    GradedPoly,
    Key,
    ParityError,
    _ONE,
    _deg,
    _key,
    _key_names,
    _odd_degree_part,
    _operand,
    _partial,
    _rational,
    _substitute,
    _unit,
)
from .diffop import (
    DiffOp,
    WPoly,
    _Sums,
    _add_into,
    _add_leibniz,
    _from_sums,
    _on_one,
    _pruned,
    _symbol_parts,
    compose,
    formal_adjoint,
    specialize,
)
from .brackets import LInftyReport, higher_bracket, linfty_check

SMatrix = dict[tuple[str, str], GradedPoly]
GVector = dict[str, GradedPoly]

HALF = Fraction(1, 2)


class BracketDataError(DomainError):
    pass


def _sym_sign(chart: Chart, a: str, b: str) -> int:
    return (-1) ** (chart.parity(a) * chart.parity(b))


def _contract(chart: Chart, S: SMatrix, v: Mapping[str, GradedPoly]) -> GVector:
    """(S v)^a = S^{ab} v_b for a covector v given on every coordinate."""
    return {a: GradedPoly._sum(chart, (S[(a, b)] * v[b] for b in chart.names
                                       if (a, b) in S)) for a in chart.names}


class _VBracketFields(NamedTuple):
    chart: Chart
    eps: int
    S: SMatrix
    gamma: GVector
    theta: GradedPoly


class VBracketData(_VBracketFields):
    """The coordinate data (S^{ab}, gamma^a, theta) of a weight-zero bracket
    on the algebra of densities, together with the bracket parity eps.

    The constructor refuses a parity eps that is not the int 0 or 1 (a
    bool included), an entry of S or gamma at a name that is not a chart
    variable, and an entry or theta that is not a polynomial on the chart;
    it drops zero entries of S and gamma, completes a partially given S by
    the forced graded symmetry and rejects entries that contradict it or
    carry wrong parity.  An immutable record.
    """

    __slots__ = ()

    @staticmethod
    def _of(chart: Chart, eps: int, S: SMatrix, gamma: GVector,
            theta: GradedPoly) -> "VBracketData":
        """Trusted constructor: adopts data the engine read off a pencil
        (_pencil_data), unchecked."""
        return _VBracketFields.__new__(VBracketData, chart, eps, S, gamma, theta)

    def __new__(cls, chart: Chart, eps: int, S: SMatrix, gamma: GVector,
                theta: GradedPoly):
        if type(eps) is not int or eps not in (EVEN, ODD):
            raise BracketDataError(f"a bracket parity must be the int 0 or 1, not {eps!r}")
        full: SMatrix = {}
        for (a, b), p in _as_smatrix(S, chart).items():
            if p.is_zero():
                continue
            want = (eps + chart.parity(a) + chart.parity(b)) % 2
            if p.parity() != want:
                raise BracketDataError(f"S[{a},{b}] has wrong parity")
            full[(a, b)] = p
        for (a, b), p in list(full.items()):
            expected = p * _sym_sign(chart, a, b)
            if a == b:
                if expected != p:
                    raise BracketDataError(f"S[{a},{a}] must vanish")
                continue
            mirror = full.get((b, a))
            if mirror is None:
                full[(b, a)] = expected
            elif mirror != expected:
                raise BracketDataError(f"S[{a},{b}] breaks graded symmetry")
        for a, p in _as_gvector(gamma, chart).items():
            if p.terms and p.parity() != (eps + chart.parity(a)) % 2:
                raise BracketDataError(f"gamma[{a}] has wrong parity")
        gamma = {a: p for a, p in gamma.items() if p.terms}
        if _operand(theta, GradedPoly, "theta", chart).terms and theta.parity() != eps:
            raise BracketDataError("theta has wrong parity")
        return super().__new__(cls, chart, eps, full, gamma, theta)

    def __hash__(self):
        return hash((self.chart, self.eps, tuple(sorted(self.S.items())),
                     tuple(sorted(self.gamma.items())), self.theta))


def _as_smatrix(S, chart: Chart) -> SMatrix:
    """S checked on a checked chart: a dict, each key a pair of chart variables
    and each entry a polynomial on chart; VBracketData tests symmetry and parity."""
    _operand(chart, Chart, "the chart")
    for key, p in _operand(S, dict, "S").items():
        if type(key) is not tuple or len(key) != 2:
            raise BracketDataError(f"a key of S must be a pair of names, not {key!r}")
        for v in key:
            if v not in chart.names:
                raise BracketDataError(f"unknown variable {v!r} in S")
        _operand(p, GradedPoly, f"S[{key[0]},{key[1]}]", chart)
    return S


def _as_gvector(gamma, chart: Chart) -> GVector:
    """gamma checked on a checked chart: a dict of chart variables to
    polynomials on chart; VBracketData tests parity."""
    for a, p in _operand(gamma, dict, "gamma").items():
        if a not in chart.names:
            raise BracketDataError(f"unknown variable {a!r} in gamma")
        _operand(p, GradedPoly, f"gamma[{a}]", chart)
    return gamma


def _as_sigma(sigma, chart: Chart) -> GradedPoly:
    """sigma, the log-density of a volume form rho = e^sigma Dx: a
    polynomial on chart, which must be even; the chart is checked first."""
    if _operand(sigma, GradedPoly, "a log-volume",
                _operand(chart, Chart, "the chart")).parity() != EVEN:
        raise ParityError("log-volume must be even")
    return sigma


# ---------------------------------------------------------------------------
# brackets of functions
# ---------------------------------------------------------------------------


def bracket_from_operator(D: DiffOp, f: GradedPoly, g: GradedPoly) -> GradedPoly:
    """An alias of higher_bracket(D, [f, g]), kept only for the benchmark
    workloads; it goes with the next revision of the benchmark."""
    return higher_bracket(D, [f, g])


def principal_matrix(D: DiffOp) -> SMatrix:
    """The symmetric coefficient matrix S^{ab} = (-1)^{pa(a) pa(b)}
    {x^b, x^a} of a homogeneous operator of order <= 2.  Checks D, then
    calls _principal_matrix."""
    return _principal_matrix(_operand(D, DiffOp, "the operator D"))


def _principal_matrix(D: DiffOp) -> SMatrix:
    """principal_matrix read off the coefficients: the bracket drops the
    lower orders and W, leaving c d_b d_a (x^b x^a) for the W^0 coefficient
    c at d_b d_a = s d^K; so S^{ab} = s c, doubled when a = b is even."""
    if not D.order_leq(2):
        raise DomainError("principal symbol defined for order <= 2 only")
    if D.parity() is None:
        raise ParityError("bracket generator must be homogeneous")
    chart = D.chart
    S: SMatrix = {}
    for a in chart.names:
        for b in chart.names:
            k = _key(chart, b, a)
            c = None if k is None else D.terms.get(k[0], {}).get(0)
            if c is not None:
                factor = 2 if a == b else k[1]
                S[(a, b)] = c if factor == 1 else c * factor
    return S


def second_order_part(chart: Chart, S: SMatrix) -> DiffOp:
    """The operator (1/2) S^{ab} d_b d_a in normal order.  Checks the chart
    and S, then writes it (_add_second_order)."""
    return _from_sums(chart, _add_second_order({}, chart, _as_smatrix(S, chart)))


def _add_second_order(sums: _Sums, chart: Chart, S: SMatrix) -> _Sums:
    """Add second_order_part to sums, each term at the key of d_b d_a."""
    for (a, b), s in S.items():
        k = _key(chart, b, a)
        if k is not None:
            _add_into(sums, k[0], 0, s, HALF * k[1])
    return sums


def first_order_coeffs(D: DiffOp) -> GVector:
    """Coefficients T^a of the pure first-order part of a normal-ordered
    operator.  Checks D, then calls _first_order_coeffs."""
    return _first_order_coeffs(_operand(D, DiffOp, "the operator D"))


def _first_order_coeffs(D: DiffOp) -> GVector:
    """first_order_coeffs, read at the key of each d_a."""
    out: GVector = {}
    for a in D.chart.names:
        wp = D.terms.get(_key(D.chart, a)[0])
        if wp is not None:
            if any(k != 0 for k in wp):
                raise DomainError("weight-dependent coefficient in plain operator")
            out[a] = wp[0]
    return out


def _divergence(chart: Chart, V: Mapping[str, GradedPoly], p: int) -> GradedPoly:
    """The divergence (-1)^{pa(a)(p+1)} d_a V^a of the field V^a d_a of
    parity p, by the frozen convention (module docstring): a term is
    negated when a is odd and p even."""
    return GradedPoly._sum(chart, (_partial(a, v) if p or not chart.parity(a)
                                   else -_partial(a, v) for a, v in V.items()))


def _column(chart: Chart, S: SMatrix, a: str) -> GVector:
    """The column S^{.a} = {b: S^{ba}} of S."""
    return {b: s for b in chart.names if (s := S.get((b, a))) is not None}


def hamiltonian_vf(S: SMatrix, chart: Chart, f: GradedPoly) -> DiffOp:
    """The Hamiltonian vector field X_f = S^{ab} d_b f (-1)^{pa(a) pf} d_a,
    with X_f(g) = {f,g}, written term by term."""
    S, sums = _as_smatrix(S, chart), {}
    for pf, fh in _operand(f, GradedPoly, "the polynomial f", chart).homogeneous_parts():
        for (a, b), s in S.items():
            dbf = _partial(b, fh)
            if not dbf.is_zero():
                _add_into(sums, _key(chart, a)[0], 0, s * dbf,
                          -1 if chart.parity(a) * pf else 1)
    return _from_sums(chart, sums)


def divergence(X: DiffOp) -> GradedPoly:
    """div X = (-1)^{pa(a)(pX+1)} d_a X^a for a first-order operator with no
    constant term."""
    if not _operand(X, DiffOp, "the vector field X").order_leq(1) or not _on_one(X).is_zero():
        raise DomainError("divergence requires a vector field")
    return GradedPoly._sum(X.chart, (_divergence(X.chart, _first_order_coeffs(part), p)
                                     for p, part in X.homogeneous_parts()))


def lie_derivative_pencil(X: DiffOp) -> DiffOp:
    """Lie derivative along a vector field acting on w-densities, as a pencil:
    L_X = X + W (div X), W (div X) being the term W^1 at the zero key."""
    div = divergence(X)  # checks X before its chart is read
    return X + DiffOp._of(X.chart, _pruned({_unit(X.chart): {1: div}}))


def lie_derivative(X: DiffOp, w) -> DiffOp:
    return specialize(lie_derivative_pencil(X), w)


# ---------------------------------------------------------------------------
# odd Laplacians and the density calculus
# ---------------------------------------------------------------------------


def _laplacian(S: SMatrix, chart: Chart, g: GradedPoly, h: GradedPoly) -> DiffOp:
    """(1/2) sum_{a,b} (d_a + d_a g) o S^{ab} (d_b + d_b h), that is
    (1/2) e^{-g} d_a (e^{g-h} S^{ab} d_b (e^h . )) for even g and h, a
    conjugate of Delta_rho by an even exponential, which keeps each parity
    part: refused when inhomogeneous.  Written term by term as
    (d_a + d_a g) o T^a, T^a = (1/2)(S^{ab} d_b + S^{ab} d_b h)."""
    S = {k: s * HALF for k, s in _as_smatrix(S, chart).items() if s.terms}
    keys, zero = {a: _key(chart, a)[0] for a in chart.names}, _unit(chart)
    Sh = _contract(chart, S, {b: _partial(b, h) for b in chart.names}) if h.terms else {}
    sums: _Sums = {}
    for a in chart.names:
        T = [(keys[b], {0: s}, None) for b in chart.names if (s := S.get((a, b))) is not None]
        if Sh and Sh[a].terms:
            T.append((zero, {0: Sh[a]}, None))
        if (da_g := _partial(a, g)).terms:
            for k, s, _ in T:
                _add_into(sums, k, 0, da_g * s[0])
        _add_leibniz(sums, chart, keys[a], T)
    op = _from_sums(chart, sums)
    if op.parity() not in (ODD, EVEN):
        raise ParityError("odd Laplacian came out inhomogeneous")
    return op


def odd_laplacian(S: SMatrix, chart: Chart, sigma) -> DiffOp:
    """The odd Laplacian  (1/2) e^{-sigma} d_a (e^{sigma} S^{ab} d_b . )
    attached to odd bracket data S and volume form rho = e^sigma Dx."""
    return _laplacian(S, chart, _as_sigma(sigma, chart), GradedPoly.zero(chart))


def act_on_w_densities(S: SMatrix, chart: Chart, sigma, w) -> DiffOp:
    """The odd Laplacian on w-densities,  rho^w Delta_rho (rho^{-w} . ) =
    conjugate_by_exp(Delta_rho, -w sigma), in closed form as e^{w sigma}
    is even: (1/2) sum (d_a + (1-w) d_a sigma) o S^{ab} (d_b - w d_b sigma)."""
    sigma = _as_sigma(sigma, chart)
    w = _rational(w, "weight")
    return _laplacian(S, chart, sigma * (_ONE - w), sigma * -w)


def master_discrepancy(S: SMatrix, chart: Chart, sigma0, sigma) -> GradedPoly:
    """H(rho', rho) = e^{-sigma/2} Delta_rho(e^{sigma/2}) for rho' = e^sigma
    rho, zero exactly on master-equation solutions: conjugate_by_exp(Delta_rho,
    sigma/2) 1 = (1/2) sum (d_a + d_a (sigma0 + sigma/2)) o S^{ab} (d_b + d_b sigma/2) 1."""
    sigma0 = _as_sigma(sigma0, chart)
    u = _as_sigma(sigma, chart) * HALF
    return _on_one(_laplacian(S, chart, sigma0 + u, u))


# ---------------------------------------------------------------------------
# the canonical pencil (operators <-> brackets on densities)
# ---------------------------------------------------------------------------


def canonical_pencil(data: VBracketData) -> DiffOp:
    """The unique normalized self-adjoint pencil generating the bracket:

    Delta_w = 1/2 ( S^{ab} d_b d_a + (div S^{.a} + (2w-1) gamma^a) d_a
                    + w div gamma + w(w-1) theta ),

    div at the parity eps (_divergence) and S^{.a} the column {b: S^{ba}},
    each coefficient written at its key and W-power: all terms but d_b d_a
    are in normal order, and d_b d_a costs only the sign of its odd part
    (second_order_part); the lower terms go into _principal_sums."""
    chart, eps = _operand(data, VBracketData, "the bracket data").chart, data.eps
    sums = _principal_sums(data)
    for a in chart.names:
        key = _key(chart, a)[0]
        _add_into(sums, key, 0, _divergence(chart, _column(chart, data.S, a), eps), HALF)
        if (ga := data.gamma.get(a)) is not None:
            _add_into(sums, key, 0, ga, -HALF)
    _add_into(sums, _unit(chart), 1, _divergence(chart, data.gamma, eps) - data.theta, HALF)
    return _from_sums(chart, sums)


def _principal_sums(data: VBracketData) -> _Sums:
    """The principal part T = 1/2 S^{ab} d_b d_a + gamma^a W d_a + 1/2 theta W^2
    of the canonical pencil, its terms of order k at W^w with k + w = 2,
    as sums: the terms _pencil_data reads back."""
    chart = data.chart
    sums = _add_second_order({}, chart, data.S)
    for a, ga in data.gamma.items():
        _add_into(sums, _key(chart, a)[0], 1, ga)
    _add_into(sums, _unit(chart), 2, data.theta, HALF)
    return sums


def lb_data(S: SMatrix, chart: Chart, sigma, eps: int = ODD) -> VBracketData:
    """The Laplace-Beltrami bracket data of a volume form rho = e^sigma Dx:
    gamma^a = -S^{ab} gamma_b and theta = -gamma^a gamma_a with
    gamma_a = d_a sigma.  The signs are normalized so that the canonical
    pencil of this data, specialized at weight w, coincides with the
    conjugated odd Laplacian e^{w sigma} Delta_rho e^{-w sigma} for every
    weight (in particular it equals Delta_rho itself at w = 0)."""
    S, sigma = _as_smatrix(S, chart), _as_sigma(sigma, chart)
    lower = {a: _partial(a, sigma) for a in chart.names}
    gamma = {a: -p for a, p in _contract(chart, S, lower).items() if not p.is_zero()}
    theta = -GradedPoly._sum(chart, (g * lower[a] for a, g in gamma.items()))
    return VBracketData(chart, eps, dict(S), gamma, theta)


def pencil_bracket(P: DiffOp, psi: DensityElement, chi: DensityElement) -> DensityElement:
    """{psi,chi} = P(psi chi) - (P psi) chi - (-1)^{eps p(psi)} psi (P chi)
    for a normalized weight-zero pencil of order <= 2."""
    if not _operand(P, DiffOp, "the pencil P").order_leq(2):
        raise DomainError("pencil bracket requires order <= 2")
    if (eps := P.parity()) is None:
        raise ParityError("pencil must be homogeneous")
    kinds = (GradedPoly, DensityElement)
    parts = _operand(psi, kinds, "the density psi", P.chart).homogeneous_parts()
    out = DensityElement.zero(_operand(chi, kinds, "the density chi", P.chart).chart)
    for ppsi, ph in parts:
        out = (out + P.apply(ph * chi) - P.apply(ph) * chi
               - ph * P.apply(chi) * (-1) ** (eps * ppsi))
    return out


def _pencil_data(P: DiffOp, eps: int) -> VBracketData:
    """The data of parity eps read where canonical_pencil writes it: S^{ab}
    at the W^0 coefficient of d_b d_a (principal_matrix), gamma^a at the
    W^1 coefficient of d_a, and theta as twice the W^2 coefficient at the
    zero key.  On the image of canonical_pencil this inverts it exactly:
    no other term of the formula carries those keys and W-powers.  The data
    is valid as read, so VBracketData._of builds it: P is homogeneous of
    parity eps and holds no zero coefficient, and principal_matrix fills
    S^{ab} and S^{ba} from the one key of d_b d_a, never S^{aa} for odd a."""
    chart = P.chart
    gamma = {a: wp[1] for a in chart.names
             if 1 in (wp := P.terms.get(_key(chart, a)[0], {}))}
    c = P.terms.get(_unit(chart), {}).get(2)
    theta = GradedPoly.zero(chart) if c is None else c * 2
    return VBracketData._of(chart, eps, _principal_matrix(P), gamma, theta)


def extract_vbracket(P: DiffOp) -> VBracketData:
    """Invert canonical_pencil on its image: read the data (_pencil_data)
    and check the round trip canonical_pencil(data) == P.  On the image
    these are the brackets {x^b, x^a}, {x^a, t} and {t, t} (t of weight 1).

    A pencil that passes the round trip is canonical, hence normalized and
    self-adjoint (criterion 3 certifies both of every canonical pencil), so
    neither is tested on it.  Raises if P has order > 2 or is
    inhomogeneous; when the round trip fails, names the first of: not
    normalized, not self-adjoint, or outside the image ((W^2 - W) d_x^2
    passes every other check, but no datum reads its W^2 d_x^2 term)."""
    if not _operand(P, DiffOp, "the pencil P").order_leq(2):
        raise DomainError("pencil must have order <= 2")
    if (eps := P.parity()) is None:
        raise ParityError("pencil must be homogeneous")
    data = _pencil_data(P, eps)
    if canonical_pencil(data) == P:
        return data
    if not _on_one(P).is_zero():
        raise DomainError("pencil is not normalized (P1 != 0 at w = 0)")
    if formal_adjoint(P) != P:
        raise DomainError("pencil is not self-adjoint")
    raise DomainError("pencil is outside the canonical bijection's domain")


# ---------------------------------------------------------------------------
# symbols and the canonical Poisson bracket on T*M
# ---------------------------------------------------------------------------

def cotangent_chart(chart: Chart) -> Chart:
    """Extend a chart by momenta of matching parity: each parity block is
    followed by the momenta of its variables, in the same order.  Checks the
    chart, then calls _cotangent_chart."""
    return _cotangent_chart(_operand(chart, Chart, "the chart"))


def _cotangent_chart(chart: Chart) -> Chart:
    """cotangent_chart: the momentum of x is named p_x unless that is a
    chart variable; then underscores are appended until the name is free."""
    names = {v: "p_" + v for v in chart.names}
    taken = set(chart.names) | set(names.values())
    for v, p in names.items():
        if p in chart.names:
            while p in taken:
                p += "_"
            taken.add(p)
            names[v] = p
    return Chart(
        even=chart.even + tuple(names[v] for v in chart.even),
        odd=chart.odd + tuple(names[v] for v in chart.odd),
    )


def jacobi_report(data: VBracketData) -> tuple[GradedPoly, GradedPoly, GradedPoly, GradedPoly]:
    """The four obstruction symbols ((S,S), (S,gamma), (S,theta)+(gamma,gamma),
    (gamma,theta)) of S = 1/2 S^{ab} p_b p_a, gamma = gamma^a p_a and theta
    on T*M under the canonical bracket (oracle.tstar_bracket); all four
    vanish iff ord(Delta^2) <= 1 for the canonical pencil.  The top symbol
    of a square is the bracket of the symbols: with [k, w] the symbol of
    the terms of order k at W^w (_symbol_parts) of T o T, T the principal
    part (_principal_sums), the slots are 2[3,0], [2,1], 2[1,2], 2[0,3].
    T suffices: for odd P = T + L the terms of P o P no derivative hits
    sum to sigma(P)^2 = 0, cross terms included, and any other term with L,
    or with two hits, has k + w <= 2.  Proved by polarization on odd data
    of bounded degree (tests/test_proofs.py)."""
    if _operand(data, VBracketData, "the bracket data").eps != ODD:
        raise ParityError("Jacobi report requires an odd bracket")
    T = _from_sums(data.chart, _principal_sums(data))
    ss, sg, st, gt = _symbol_parts(compose(T, T), _cotangent_chart(data.chart), 3)
    return ss * 2, sg, st * 2, gt * 2


# ---------------------------------------------------------------------------
# classification of Delta^2
# ---------------------------------------------------------------------------

def classify_square(D: DiffOp) -> str:
    """The finest level "<=r" with ord(Delta^2) <= r, for a normalized odd
    operator of order <= 2."""
    return _classify(D)[0]


def _classify(D: DiffOp) -> tuple[str, LInftyReport]:
    """classify_square's level, read off the report of linfty_check, which
    forms Delta^2 once."""
    if _operand(D, DiffOp, "the operator D").parity() != ODD:
        raise ParityError("classification requires an odd operator")
    if not D.order_leq(2):
        raise DomainError("classification requires order <= 2")
    if not _on_one(D).is_zero():
        raise DomainError("operator must be normalized: D1 = 0")
    rep = linfty_check(D)
    return f"<={rep.square_order or 0}", rep


# ---------------------------------------------------------------------------
# recovering the action from flat data (odd symplectic corollary)
# ---------------------------------------------------------------------------


def _euler_antiderivative(chart: Chart, form: GVector) -> GradedPoly:
    """Given a closed polynomial 1-form omega_b = d_b A with A(0) = 0,
    recover A by the Euler homotopy A = sum_m B_m / m, B = x^b omega_b
    (each term of B has degree m >= 1)."""
    B = GradedPoly._sum(chart, (GradedPoly.var(chart, b) * w for b, w in form.items()))
    return GradedPoly._of(chart, {k: c / _deg(k) for k, c in B.terms.items()})


def _exact_quotient(u: GradedPoly, d: GradedPoly) -> GradedPoly | None:
    """u / d for d in the even coordinates alone with d(0) != 0, or None
    when d does not divide u.  The power series quotient, lowest degree
    first: each step divides the lowest-degree part of the remainder by
    d(0).  Multiplying by d acts on the coefficient of each odd monomial
    alone, so a polynomial quotient has degree deg u - deg d, and a
    remainder left past that degree is not a multiple of d."""
    c0 = d.constant_term()
    top = max(map(_deg, u.terms), default=0) - max(map(_deg, d.terms))
    q, r = GradedPoly.zero(u.chart), u
    while not r.is_zero():
        m = min(map(_deg, r.terms))
        if m > top:
            return None
        t = GradedPoly._of(u.chart, {k: c / c0 for k, c in r.terms.items() if _deg(k) == m})
        q, r = q + t, r - t * d
    return q


def recover_action(S: SMatrix, chart: Chart, gamma: GVector) -> GradedPoly:
    """Solve gamma^a = S^{ab} gamma_b for the lowered form, then find the
    "action" A with gamma_b = -d_b A, normalized by A(0) = 0.

    S l = gamma is solved layer by layer in the odd degree.  The body B of
    S (its terms without odd coordinates) keeps the odd degree, S - B
    raises it, and det B(0) = det S(0).  So the part of l of odd degree j
    is l_j = adj(B) (gamma - S l_{<j})_j / det B, j = 0..q, the division
    exact (_exact_quotient).  Raises when S(0) is singular, when a
    division leaves a remainder (S l = gamma has no polynomial solution),
    and when the lowered form is not closed."""
    S, gamma = _as_smatrix(S, chart), _as_gvector(gamma, chart)
    names = chart.names
    zero = GradedPoly.zero(chart)
    if all(g.is_zero() for g in gamma.values()):
        return zero  # l = 0 solves S l = 0 for any S
    body = [[_odd_degree_part(S.get((a, b), zero), 0) for b in names] for a in names]
    det = _det_even(body, chart)
    if det.constant_term() == 0:
        raise DomainError("constant part of S is singular")
    adj = _adjugate(body, chart)
    lower = {a: zero for a in names}
    for j in range(len(chart.odd) + 1):
        Sl = _contract(chart, S, lower)
        layer = [_odd_degree_part(gamma.get(b, zero) - Sl[b], j) for b in names]
        for a, row in zip(names, adj):
            u = GradedPoly._sum(chart, (c * r for c, r in zip(row, layer)))
            q = _exact_quotient(u, det)
            if q is None:
                raise DomainError("S l = gamma has no polynomial solution")
            lower[a] = lower[a] + q
    form = {a: -l for a, l in lower.items()}
    A = _euler_antiderivative(chart, form)
    for a in names:
        if _partial(a, A) != form[a]:
            raise DomainError("lowered form is not closed; no action exists")
    return A


# ---------------------------------------------------------------------------
# coordinate changes
# ---------------------------------------------------------------------------


class CoordMapError(DomainError):
    pass


class _CoordMapFields(NamedTuple):
    chart: Chart
    fwd: Mapping[str, GradedPoly]
    inv: Mapping[str, GradedPoly]


class CoordMap(_CoordMapFields):
    """A coordinate change x' = phi(x) on a fixed chart, of the form
    "constant invertible body plus nilpotent (odd-containing) corrections",
    with the inverse supplied and checked, once: each map must send every
    chart variable, and no other name, to a polynomial on the chart of the
    variable's parity before the round trip runs, and push substitutes
    through the trusted kernel gralg._substitute.  An immutable record."""

    __slots__ = ()

    def __new__(cls, chart: Chart, fwd: Mapping[str, GradedPoly],
                inv: Mapping[str, GradedPoly]):
        for m in (fwd, inv):
            for name in m:
                if name not in chart.names:
                    raise CoordMapError(f"unknown variable {name!r} in the map")
        for name in chart.names:
            for m in (fwd, inv):
                if name not in m:
                    raise CoordMapError(f"map must list every variable ({name})")
                im = _operand(m[name], GradedPoly, f"the image of {name}", chart)
                if im.terms and im.parity() != chart.parity(name):
                    raise CoordMapError(f"image of {name} has wrong parity")
        # round trip check on the generators
        for name in chart.names:
            if _substitute(fwd[name], inv, chart).terms != {_key(chart, name)[0]: _ONE}:
                raise CoordMapError("supplied inverse fails the round trip")
        return super().__new__(cls, chart, fwd, inv)

    def push(self, p: GradedPoly) -> GradedPoly:
        """Express an old-coordinate polynomial in new coordinates."""
        return _substitute(p, self.inv, self.chart)

    def jacobian(self) -> dict[tuple[str, str], GradedPoly]:
        """Entries J[a', a] = d x'^{a'} / d x^a in old coordinates."""
        names = self.chart.names
        return {(ap, a): _partial(a, self.fwd[ap]) for ap in names for a in names}


def _det_even(entries: list[list[GradedPoly]], chart: Chart) -> GradedPoly:
    n = len(entries)
    if n == 0:
        return GradedPoly.one(chart)
    if n == 1:
        return entries[0][0]
    return GradedPoly._sum(chart, (
        entries[0][j] * _det_even([row[:j] + row[j + 1:] for row in entries[1:]], chart)
        * (-1) ** j for j in range(n)))


def _adjugate(M: list[list[GradedPoly]], chart: Chart) -> list[list[GradedPoly]]:
    """adj(M), entry (i, j) the signed (j, i) minor, so that
    M adj(M) = adj(M) M = det(M) 1 for a matrix of even entries."""
    n = len(M)
    return [[_det_even([[row[c] for c in range(n) if c != i]
                        for r, row in enumerate(M) if r != j], chart) * (-1) ** (i + j)
             for j in range(n)] for i in range(n)]


def _unit_series(u: GradedPoly, what: str, coeff) -> tuple[Fraction, GradedPoly]:
    """For u = c (1 + n) with c = u(0) != 0, return c and the series
    sum_k coeff(k) n^k.

    Bound: n must lie in the ideal of the odd coordinates (each of its
    terms has one), which is checked first.  Then each term of n^k has at
    least k odd coordinates, so with q of them n^{q+1} = 0 and the sum
    has at most q + 1 terms, k = 0..q."""
    c = u.constant_term()
    if c == 0:
        raise CoordMapError(f"{what} has no invertible body")
    n = u * (_ONE / c) - 1
    if not _odd_degree_part(n, 0).is_zero():
        raise CoordMapError(f"{what} minus its constant term is not nilpotent")
    out = GradedPoly.const(u.chart, coeff(0))
    power = GradedPoly.one(u.chart)
    for k in range(1, len(u.chart.odd) + 1):
        power = power * n
        if power.is_zero():
            break
        out = out + power * coeff(k)
    return c, out


def _berezinian(chart: Chart, J: Mapping[tuple[str, str], GradedPoly]) -> GradedPoly:
    """The superdeterminant of the Jacobi matrix J, in old coordinates:
    Ber = det(A - B D^{-1} C) / det D for the blocks of J by parity, with
    D^{-1} from the adjugate.  An empty block has determinant 1, so a
    purely even or purely odd chart needs no case of its own."""
    ev, od = chart.even, chart.odd
    A = [[J[(ap, a)] for a in ev] for ap in ev]
    B = [[J[(ap, a)] for a in od] for ap in ev]
    C = [[J[(ap, a)] for a in ev] for ap in od]
    Dm = [[J[(ap, a)] for a in od] for ap in od]
    d0, series = _unit_series(_det_even(Dm, chart), "element", lambda k: (-1) ** k)
    invdet = series * (_ONE / d0)
    adj = _adjugate(Dm, chart)
    # A - B D^{-1} C = A - (B adj(D)) C invdet: B, C odd, all else even
    BD = [[GradedPoly._sum(chart, (b * r[l] for b, r in zip(row, adj))) for l in range(len(od))]
          for row in B]
    top = [[a - GradedPoly._sum(chart, (x * c[j] for x, c in zip(bd, C))) * invdet
            for j, a in enumerate(row)] for row, bd in zip(A, BD)]
    return _det_even(top, chart) * invdet


def _log_berezinian(chart: Chart, J: Mapping[tuple[str, str], GradedPoly]) -> GradedPoly:
    """log_berezinian from the Jacobi matrix: the series of log(1 + n)."""
    return _unit_series(_berezinian(chart, J), "Berezinian",
                        lambda k: Fraction((-1) ** (k + 1), k) if k else 0)[1]


def log_berezinian(cmap: CoordMap) -> GradedPoly:
    """log of the Berezinian, normalized by dropping the constant log of the
    body (which never survives differentiation); in old coordinates.  Checks
    the map, then calls _log_berezinian."""
    return _log_berezinian(_operand(cmap, CoordMap, "the coordinate map").chart,
                           cmap.jacobian())


def transform_op(D: DiffOp, cmap: CoordMap) -> DiffOp:
    """Express an operator (or pencil) in the new coordinates.  By the left
    chain rule d_a = (d_a x'^b) d'_b, each old derivative is a vector field
    in the new coordinates, so c d^I becomes the pushed-forward coefficient
    times the composite F^I of those fields in the order of d^I, built one
    field at a time by the Leibniz rule; W is central and stays with its
    coefficient.  The field of d_a carries W d_a log Ber: conjugation by the
    density factor e^{W log Ber}, even, adds just that, so none follows.
    A map on another chart than the operator's is refused."""
    chart = _operand(D, DiffOp, "the operator D").chart
    _operand(cmap, CoordMap, "the coordinate map", chart)
    push = cmap.push
    J = cmap.jacobian()
    L = _log_berezinian(chart, J)
    # the field of d_a, as _add_leibniz's right-hand sum
    fields = {a: [(_key(chart, b)[0], {0: c}, None) for b in chart.names
                  if not (c := push(J[(b, a)])).is_zero()] for a in chart.names}
    for a in chart.names if L.terms else ():
        fields[a].append((_unit(chart), {1: push(_partial(a, L))}, None))
    sums: _Sums = {}
    for I, wp in D.terms.items():
        F: dict[Key, WPoly | None] = {_unit(chart): None}  # None: 1
        # d^I = d_even^e o d_odd(o_1) o ... o d_odd(o_k)
        for name in _key_names(chart, I):
            step: _Sums = {}
            for K, g in F.items():
                _add_leibniz(step, chart, K, fields[name], g)
            F = _from_sums(chart, step).terms
        for k, c in wp.items():
            c = push(c)
            for K, g in F.items():
                for w, f in (g or {0: None}).items():
                    _add_into(sums, K, k + w, c if f is None else c * f)
    return _from_sums(chart, sums)


def transform_logvol(sigma, cmap: CoordMap) -> GradedPoly:
    """The log-volume in new coordinates: sigma' = sigma o x(x') - log Ber
    (additive constants dropped)."""
    sigma = _as_sigma(sigma, _operand(cmap, CoordMap, "the coordinate map").chart)
    return cmap.push(sigma - _log_berezinian(cmap.chart, cmap.jacobian()))


def transform_data(data: VBracketData, cmap: CoordMap) -> VBracketData:
    """Transform bracket data through its canonical pencil: the pencil is
    natural, so the transformed canonical pencil of the data is the
    canonical pencil of the transformed data (criterion 6), and reading it
    back (_pencil_data) gives S', gamma' and theta' exactly, theta' whose
    law involves third derivatives included.  The parity is the data's own:
    the pencil of all-zero data is the zero operator, whose parity is
    even."""
    return _pencil_data(transform_op(canonical_pencil(data), cmap), data.eps)
