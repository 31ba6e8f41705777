"""Higher derived brackets of differential operators, Jacobiators with
shuffle sums, the abstract (Lie superalgebra, projector) engine, and
finite-dimensional matrix oracles on purely odd charts.

The n-th higher bracket generated by an operator Delta is

    {a_1, ..., a_n} = [ ... [[Delta, a_1], a_2], ..., a_n] 1,

with graded commutators and multiplication operators; the 0-ary bracket is
the background Delta 1.  The n-th Jacobiator is the shuffle sum

    J^n = sum_{k+l=n} sum_{(k,l)-shuffles s} sign(s) {{a_{s(1)}, ...,
          a_{s(k)}}, a_{s(k+1)}, ..., a_{s(n)}},

with the pure Koszul permutation sign.  It is the n-th higher bracket
generated by Delta^2 less a sum of products of brackets of Delta,

    J^n = {a_1, ..., a_n}_{Delta^2} - sum_{k=0}^{n} sum_{(k,l)-shuffles s}
          sign(s) (-1)^{|Delta| |a_S|} {a_S} {a_R},

S = s[:k] and R = s[k:], the 0-ary bracket being Delta 1.  The product sum
is the polarization of {a}^2, so it vanishes for odd Delta, where J^n is
the bracket of Delta^2; for even Delta it does not in general.

One kernel evaluates every bracket.  [c D, a] = c [D, a] for a
multiplication operator c, so with Delta = sum_I c_I d^I (W^0 coefficients
c_I: W acts as 0 at weight 0) the bracket is {a_1, ..., a_n} = sum_I c_I
P_I(a_1, ..., a_n), where P_I = [...[d^I, a_1], ..., a_n] 1 is the bracket
of a constant operator: the multinomial Leibniz rule over the splittings
I = I_1 + ... + I_n into nonempty blocks, d^{I_j} hitting a_j.  It is
multilinear, and on monomials an integer combination of monomials that
depends on keys alone: _products keeps it, one table of keys and ints per
process, built over diffop's _leibniz and bounded at 2,048 entries (under
1 MB).  So P_I(a_T) = 0 unless |I| >= |T| (order bound: an operator of
order r has brackets of arity <= r only) and I is within the envelope of
a_T (gralg's _envelope: support bound), and only such entries are formed;
per call, _Tables keeps the terms c_I of Delta.  ``jacobiator`` sums only
the blocks whose inner (k) and outer (l + 1) brackets have arity <= r,
max(0, n - r + 1) <= k <= min(n, r), so J^n = 0 for n >= 2r.  This module
forms every Delta^2 the engine reads: ``square_bracket`` only from order n
up and within the envelope, ``linfty_check`` whole.  The abstract engine
and the matrix oracle assume no bound: the independent paths that check them.

Matrix oracle: on a purely odd chart an operator is an exact matrix on
the Grassmann basis.  ``matrix_of`` builds it from the oracle's own
product and derivative tables, with gralg's dict filter ``_nonzero``, and
applies no engine kernel (no ``DiffOp.apply``, ``_derive`` or polynomial
product); ``jacobiator_abstract`` takes each inner chain once and every
outer nest literally.  Both stay here as the benchmark binds them; the
other reference definitions are in ``superdelta.oracle``.
"""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction
from typing import Any, Callable, NamedTuple, Optional, Sequence

from .gralg import (_ONE, Chart, GradedPoly, Key, ParityError, _deg, _envelope,
                    _key_names, _keys_upto, _mul_keys, _nonzero, _operand, _qadd, _qmul,
                    _qneg, _unit)
from .diffop import DiffOp, _leibniz, _on_one, compose, specialize

__all__ = [
    "koszul_sign",
    "shuffles",
    "higher_bracket",
    "jacobiator",
    "square_bracket",
    "LieSuperAlgebraInstance",
    "GrassmannMatrix",
    "matrix_of",
    "matrix_oracle_instance",
    "jacobiator_abstract",
    "LInftyReport",
    "linfty_check",
    "monomials_upto",
]


# ---------------------------------------------------------------------------
# signs and shuffles


def koszul_sign(perm: Sequence[int], parities: Sequence[int]) -> int:
    """The Koszul sign of a permutation acting on graded symbols.

    ``perm[i]`` is the original index of the element landing in slot i
    (so the permuted sequence is ``a[perm[0]], a[perm[1]], ...``).
    Each transposition of two odd elements contributes -1.  Checks both,
    then calls _koszul_sign."""
    if len(_operand(perm, Sequence, "the permutation perm")) != \
            len(_operand(parities, Sequence, "the parities")):
        raise ValueError("permutation and parity list lengths differ")
    if sorted(perm) != list(range(len(perm))):
        raise ValueError("not a permutation of 0..n-1")
    return _koszul_sign(perm, parities)


def _koszul_sign(perm: Sequence[int], parities: Sequence[int]) -> int:
    """koszul_sign of a permutation the engine built, unchecked."""
    sign = 1
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j] and parities[perm[i]] % 2 and parities[perm[j]] % 2:
                sign = -sign
    return sign


def shuffles(k: int, l: int) -> list[tuple[int, ...]]:
    """All (k,l)-shuffles of 0..k+l-1, each given as the tuple
    (s(0), ..., s(k+l-1)) of original indices in permuted order: the first
    k entries are increasing and the last l entries are increasing.
    Enumerated in lexicographic order of the first block."""
    if k < 0 or l < 0:
        raise ValueError("shuffle block sizes must be nonnegative")
    n = k + l
    out = []
    for first in itertools.combinations(range(n), k):
        rest = tuple(i for i in range(n) if i not in first)
        out.append(first + rest)
    return out


# ---------------------------------------------------------------------------
# higher brackets of operators


def _check_operands(Delta: DiffOp, args: Sequence[GradedPoly]):
    """Refuse a generator that is not an operator, and an argument that is
    not a polynomial on its chart, before a shortcut skips it."""
    chart = _operand(Delta, DiffOp, "the generator Delta").chart
    for a in args:
        _operand(a, GradedPoly, "a bracket argument", chart)


@functools.lru_cache(maxsize=2048)
def _products(I: Key, monos: tuple) -> tuple:
    """P_I(x^m, x^m_T) = [...[d^I, x^m], x^m_t1, ...] 1 for monomial keys
    monos = (m, *m_T), |m_T| < |I|, as (key, int) pairs: the sum of
    n x^m' P_rest(x^m_T) over the terms n x^m' d^rest of _leibniz(I, m) where
    1 to |I| - |m_T| derivatives hit x^m (order bound) and rest is within
    the envelope of x^m_T (support bound); for m_T empty, all hit: d^I x^m."""
    m, T = monos[0], monos[1:]
    terms = _leibniz(I, m, _deg(I) - len(T), False, _envelope(I, [(k,) for k in T]))
    if not T:
        return tuple((k, n) for _, k, n in terms)
    out: dict[Key, int] = {}
    for rest, k0, n in terms:
        for k1, v in _products(rest, T):
            if prod := _mul_keys(k0, k1):
                out[prod[0]] = out.get(prod[0], 0) + n * v * prod[1]
    return tuple(_nonzero(out).items())


class _Tables:
    """The bracket kernel of one call of Delta on ``args``: its only state is
    ``top``, (I, |I|, c_I) for the W^0 coefficients c_I of Delta; the P_I
    of argument monomials come from the process-wide table _products."""

    def __init__(self, Delta: DiffOp, args: Sequence[GradedPoly]):
        self.chart, self.args = Delta.chart, args
        self.top = [(I, _deg(I), wp[0]) for I, wp in Delta.terms.items() if 0 in wp]

    def phi(self, a: GradedPoly, T: tuple) -> GradedPoly:
        """The bracket {a, a_T} of Delta for argument positions T, sum_I c_I
        P_I(a, a_T) with one polynomial product per term kept: 0 for
        |I| <= |T|, else by multilinearity the sum of c prod c_t P_I(x^m,
        x^m_T) over the monomials c x^m of a and c_t x^m_t of the a_T."""
        chart, maps = self.chart, [a.terms, *[self.args[t].terms for t in T]]
        top = [(I, cI, {}) for I, d, cI in self.top if d > len(T)]
        for monos in itertools.product(*maps) if top else ():
            c = None  # the product of the coefficients but the 1s, once needed
            for I, _, out in top:
                for k, n in _products(I, monos):
                    if c is None:
                        c = functools.reduce(_qmul, [x for x in map(dict.__getitem__, maps, monos)
                                                     if x != 1] or [_ONE])
                    v = c if n == 1 else _qneg(c) if n == -1 else _qmul(c, n)
                    out[k] = _qadd(out[k], v) if k in out else v
        return GradedPoly._sum(chart, [cI * GradedPoly._of(chart, t) for _, cI, out in top
                                       if (t := _nonzero(out))])


def higher_bracket(Delta: DiffOp, args: Sequence[GradedPoly]) -> GradedPoly:
    """{a_1,...,a_n} = [...[[Delta,a_1],a_2],...,a_n] 1 = sum_I c_I P_I(a_1,
    ..., a_n) by the kernel (module docstring), so 0 for n > ord Delta.
    Multilinear; the kernel expands each argument monomial by monomial, so
    inhomogeneous arguments need no splitting.  The 0-ary bracket is the
    background Delta 1, read off the terms."""
    _check_operands(Delta, args)
    if Delta.parity() is None:
        raise ParityError("bracket generator must be homogeneous")
    if not args:
        return _on_one(Delta)
    return _Tables(Delta, args).phi(args[0], tuple(range(1, len(args))))


def square_bracket(Delta: DiffOp, args: Sequence[GradedPoly]) -> GradedPoly:
    """The n-th higher bracket generated by Delta^2, the n-th Jacobiator of
    an odd Delta (module docstring).  The kernel reads only the terms of
    order >= n with key within the envelope of the arguments, so compose
    forms only those; Delta^2 is formed whole when its parity is in doubt,
    so that higher_bracket refuses an inhomogeneous square."""
    _check_operands(Delta, args)  # before _envelope reads them
    if Delta.parity() is None:
        return higher_bracket(compose(Delta, Delta), args)
    bound = _envelope(_unit(Delta.chart), [a.terms for a in args])
    return higher_bracket(compose(Delta, Delta, floor=len(args), bound=bound), args)


def jacobiator(Delta: DiffOp, args: Sequence[GradedPoly]) -> GradedPoly:
    """The n-th Jacobiator of the higher brackets generated by Delta,
    n = len(args): the (k,l)-shuffle sum with the Koszul permutation sign
    of the module docstring, including the k = 0 (background inside) and
    l = 0 (unary of the n-bracket) terms.  Arguments must be homogeneous.

    A bracket of Delta with more than r = ord Delta arguments is 0, so a
    block contributes only if the inner bracket (k arguments) and the
    outer one (n - k + 1) both have at most r: k runs over
    max(0, n - r + 1) .. min(n, r), at most 2^(2r - 1) shuffles in all,
    and J^n = 0 for n >= 2r with no shuffle enumerated.  Every bracket is
    sum_I c_I P_I from the kernel, the outer {{a_S}, a_R} taken directly:
    the shuffles read the entries of a_R's monomials from the one table."""
    _check_operands(Delta, args)
    pars = [a.parity() for a in args]
    if None in pars:
        raise ParityError("Jacobiator arguments must be homogeneous")
    if Delta.parity() is None:
        raise ParityError("bracket generator must be homogeneous")
    n = len(args)
    r = Delta.order() or 0  # Delta = 0 leaves the k-range empty
    tables = _Tables(Delta, args)
    terms = []
    for k in range(max(0, n - r + 1), min(n, r) + 1):
        for s in shuffles(k, n - k):
            S, R = s[:k], s[k:]
            inner = tables.phi(args[S[0]], S[1:]) if k else _on_one(Delta)
            if inner.is_zero():
                continue
            outer = tables.phi(inner, R)
            terms.append(outer if _koszul_sign(s, pars) == 1 else -outer)
    return GradedPoly._sum(Delta.chart, terms)


# ---------------------------------------------------------------------------
# abstract engine


class _InstanceFields(NamedTuple):
    bracket: Callable[[Any, Any], Any]
    project: Callable[[Any], Any]
    sub: Callable[[Any, Any], Any]
    is_zero: Callable[[Any], bool]
    span: tuple
    name: str


class LieSuperAlgebraInstance(_InstanceFields):
    """A Lie superalgebra with a projector P whose image is an abelian
    subalgebra and whose kernel is a subalgebra.

    All structure is supplied as callables over an opaque element type;
    ``span`` is a finite spanning set over which the projector laws
    (P^2 = P, [im P, im P] = 0, [ker P, ker P] in ker P) are verified at
    construction time."""

    __slots__ = ()

    def __new__(cls, bracket, project, sub, is_zero, span=(), name="instance"):
        self = super().__new__(cls, bracket, project, sub, is_zero, span, name)
        for x in span:
            px = project(x)
            if not is_zero(sub(project(px), px)):
                raise ValueError(f"{name}: projector is not idempotent")
        for x in span:
            for y in span:
                px, py = project(x), project(y)
                if not is_zero(bracket(px, py)):
                    raise ValueError(f"{name}: image of P is not abelian")
                kx = sub(x, project(x))
                ky = sub(y, project(y))
                if not is_zero(project(bracket(kx, ky))):
                    raise ValueError(f"{name}: kernel of P is not a subalgebra")
        return self

    def in_image(self, x) -> bool:
        return self.is_zero(self.sub(self.project(x), x))


def _check_image(inst: LieSuperAlgebraInstance, args: Sequence):
    for a in args:
        if not inst.in_image(a):
            raise ValueError("derived bracket argument outside the image of P")


def _nested(inst: LieSuperAlgebraInstance, Delta, args: Sequence):
    """P [...[[Delta,a_1],a_2],...,a_n], with the arguments unchecked."""
    x = Delta
    for a in args:
        x = inst.bracket(x, a)
    return inst.project(x)


def jacobiator_abstract(
    inst: LieSuperAlgebraInstance, Delta, args: Sequence, parities: Sequence[int]
):
    """The n-th Jacobiator of the derived brackets of Delta in an abstract
    instance; ``parities`` lists the parities of the arguments.  Every
    shuffle block is evaluated: the instance is an oracle and assumes no
    order bound.  The arguments are checked against the image of P once;
    each inner bracket lies in it by construction.  The signed sum needs
    ``sub`` alone: x + y = x - (0 - y), with 0 = t - t for the first term
    t, which belongs to the identity shuffle and so has sign +1.

    Each inner chain [...[Delta, a_s1], ..., a_sk], before its projection,
    is taken once, from the chain of S[:-1]: the blocks run by increasing
    k and every increasing tuple of length k - 1 is the first block of a
    shuffle before them.  So (2^n - 1) + sum_k C(n, k) (n - k + 1)
    brackets are taken in all.  The outer nests stay literal."""
    _check_image(inst, args)
    n = len(args)
    chains = {(): Delta}
    total = zero = None
    for k in range(n + 1):
        for s in shuffles(k, n - k):
            S = s[:k]
            if k:
                chains[S] = inst.bracket(chains[S[:-1]], args[S[-1]])
            term = _nested(inst, Delta, [inst.project(chains[S])] + [args[i] for i in s[k:]])
            if total is None:
                total, zero = term, inst.sub(term, term)
            elif _koszul_sign(s, parities) == 1:
                total = inst.sub(total, inst.sub(zero, term))
            else:
                total = inst.sub(total, term)
    return total


def _op_span(chart: Chart) -> tuple[DiffOp, ...]:
    """The operators on which an operator instance checks its laws."""
    span = [DiffOp.identity(chart)]
    for v in chart.names:
        span.append(DiffOp.mult(GradedPoly.var(chart, v)))
        span.append(DiffOp.deriv(chart, v))
    for v in chart.names:
        span.append(compose(DiffOp.deriv(chart, v), DiffOp.mult(GradedPoly.var(chart, v))))
    if len(chart.names) >= 2:
        a, b = chart.names[0], chart.names[1]
        span.append(compose(DiffOp.deriv(chart, a), DiffOp.deriv(chart, b)))
    return tuple(span)


# ---------------------------------------------------------------------------
# matrix oracle on purely odd charts


@functools.cache
def _grassmann_basis(chart: Chart) -> tuple[tuple[int, ...], ...]:
    q = len(chart.odd)
    return tuple(o for r in range(q + 1) for o in itertools.combinations(range(q), r))


class GrassmannMatrix:
    """An exact matrix acting on the 2^q-dimensional Grassmann algebra of a
    purely odd chart, held as its nonzero entries: rows[i] maps a column j
    to the entry (i, j), and holds no zero (its builder filters it with
    _nonzero).  The entry (i, j) has parity |i| + |j| mod 2 for the basis
    monomials i and j, and ``parity`` is the common parity of the entries
    (None for a zero or inhomogeneous matrix), read off them when built.
    Immutable by convention, rows included: they are shared, never copied."""

    def __init__(self, chart: Chart, rows):
        self.chart = chart
        self.rows = rows = tuple(rows)
        basis = _grassmann_basis(chart)
        pars = {(len(basis[i]) + len(basis[j])) % 2 for i, row in enumerate(rows) for j in row}
        self.parity: Optional[int] = pars.pop() if len(pars) == 1 else None

    def __eq__(self, other):
        return (
            isinstance(other, GrassmannMatrix)
            and self.chart == other.chart
            and self.rows == other.rows
        )

    def is_zero(self) -> bool:
        return not any(self.rows)


def _mat_mul(A: GrassmannMatrix, B: GrassmannMatrix, sign: int = 0) -> GrassmannMatrix:
    """AB, or with sign = +-1 the sum AB + sign BA, in one pass over the rows."""
    rows = []
    for i in range(len(A.rows)):
        acc: dict[int, Fraction] = {}
        for X, Y, s in ((A, B, 1), (B, A, sign))[:2 if sign else 1]:
            for k, x in X.rows[i].items():
                x = x if s > 0 else -x
                for j, y in Y.rows[k].items():
                    xy = x * y
                    acc[j] = acc[j] + xy if j in acc else xy
        rows.append(_nonzero(acc))
    return GrassmannMatrix(A.chart, rows)


def _mat_sub(A: GrassmannMatrix, B: GrassmannMatrix) -> GrassmannMatrix:
    """A - B; a row B does not touch is A's."""
    if B.is_zero():
        return A
    rows = []
    for row_a, row_b in zip(A.rows, B.rows):
        if row_b:
            acc = dict(row_a)
            for j, b in row_b.items():
                acc[j] = acc[j] - b if j in acc else -b
            row_a = _nonzero(acc)
        rows.append(row_a)
    return GrassmannMatrix(A.chart, rows)


def _mat_bracket(A: GrassmannMatrix, B: GrassmannMatrix) -> GrassmannMatrix:
    pa, pb = A.parity, B.parity
    if (pa is None or pb is None) and not (A.is_zero() or B.is_zero()):
        raise ParityError("graded matrix commutator needs homogeneous factors")
    return _mat_mul(A, B, 1 if pa and pb else -1)


@functools.cache
def _sign_table(basis) -> tuple[tuple[Optional[tuple[int, int]], ...], ...]:
    """table[m][j] = (i, s) with xi^basis[m] xi^basis[j] = s xi^basis[i], or
    None when an odd factor repeats: s = (-1)^inv, inv the number of pairs
    a in basis[m], b in basis[j] with a > b, which sorting swaps."""
    index = {o: i for i, o in enumerate(basis)}
    return tuple(tuple(None if set(m) & set(o) else (index[tuple(sorted(m + o))],
                                                     (-1) ** sum(a > b for a in m for b in o))
                       for o in basis) for m in basis)


@functools.cache
def _derivative_table(basis) -> tuple[tuple[Optional[tuple[int, int]], ...], ...]:
    """table[m][j] = (r, s) with d^basis[m] xi^basis[j] = s xi^basis[r], or
    None when it is 0, from _sign_table alone.  With I = basis[m] of length
    k and r free of I, the left derivatives d^I = d_i1 o ... o d_ik pass
    xi^basis[r] and, innermost first, take xi^I to (-1)^(k(k-1)/2); so
    xi^I xi^basis[r] = s xi^basis[j] gives d^I xi^basis[j] = +-s xi^basis[r],
    and d^I kills a monomial that does not hold I."""
    table = []
    for I, products in zip(basis, _sign_table(basis)):
        flip = -1 if len(I) // 2 & 1 else 1  # k(k-1)/2 is odd iff k = 2, 3 mod 4
        col: list[Optional[tuple[int, int]]] = [None] * len(basis)
        for r, hit in enumerate(products):
            if hit:
                col[hit[0]] = r, hit[1] * flip
        table.append(tuple(col))
    return tuple(table)


def matrix_of(D: DiffOp) -> GrassmannMatrix:
    """The exact matrix of a weight-free operator on the Grassmann algebra
    of a purely odd chart (q = number of odd variables <= 3 is the intended
    range; any q works, at 2^q cost): column j is D(j-th basis monomial), a
    pencil read at weight 0.  Built from the oracle's own tables, applying
    no engine kernel: each term c d^I sends the j-th monomial to
    c (s xi^basis[r]) (_derivative_table), and c multiplies from the left
    one monomial at a time (_sign_table)."""
    chart = _operand(D, DiffOp, "the operator D").chart
    if chart.even:
        raise ValueError("matrix oracle requires a purely odd chart")
    basis = _grassmann_basis(chart)
    signs, derivs = _sign_table(basis), _derivative_table(basis)
    index = {o: i for i, o in enumerate(basis)}
    entries: list[dict[int, Fraction]] = [{} for _ in basis]
    for (_, o), wp in D.terms.items():
        if (c := wp.get(0)) is None:
            continue
        coeff = [(signs[index[om]], cm) for (_, om), cm in c.terms.items()]
        for j, hit in enumerate(derivs[index[o]]):
            if hit:
                r, s = hit
                for row, cm in coeff:
                    if prod := row[r]:
                        acc, v = entries[prod[0]], cm if s == prod[1] else -cm
                        acc[j] = acc[j] + v if j in acc else v
    return GrassmannMatrix(chart, map(_nonzero, entries))


def matrix_oracle_instance(chart: Chart) -> LieSuperAlgebraInstance:
    """The operator algebra on a purely odd chart, with every element stored
    as an exact 2^q x 2^q matrix; an independent computation path for the
    derived-bracket theorems."""
    if _operand(chart, Chart, "the chart").even:
        raise ValueError("matrix oracle requires a purely odd chart")
    basis = _grassmann_basis(chart)
    table = _sign_table(basis)

    def project(A: GrassmannMatrix) -> GrassmannMatrix:
        # the first column of A is A(1) = sum_m c_m xi^m; return the matrix
        # of left multiplication by it, column j = sum_m c_m xi^m xi^basis[j]
        entries: list[dict[int, Fraction]] = [{} for _ in basis]
        for m, row in enumerate(A.rows):
            if c := row.get(0):
                for j, hit in enumerate(table[m]):
                    if hit:  # xi^m is the only factor giving (i, j): no zero
                        entries[hit[0]][j] = c if hit[1] > 0 else -c
        return GrassmannMatrix(chart, entries)

    span = tuple(matrix_of(D) for D in _op_span(chart))
    return LieSuperAlgebraInstance(
        bracket=_mat_bracket,
        project=project,
        sub=_mat_sub,
        is_zero=lambda A: A.is_zero(),
        span=span,
        name=f"matrix oracle on {chart.names}",
    )


# ---------------------------------------------------------------------------
# L-infinity certification


def monomials_upto(chart: Chart, deg: int) -> list[GradedPoly]:
    """All coordinate monomials of total degree 1..deg, in the order of
    _keys_upto, whose first key is the unit's."""
    _operand(chart, Chart, "the chart")
    _operand(deg, int, "the degree deg")
    return [GradedPoly._of(chart, {k: _ONE}) for k in _keys_upto(chart, deg)[1:]]


class LInftyReport(NamedTuple):
    """Outcome of the homotopy-Jacobi certification of an odd operator.
    Every entry is proved from Delta^2; nothing is sampled."""

    square_order: Optional[int]  # None: Delta^2 = 0
    checked: dict  # arity -> J^n vanishes
    witness: Optional[tuple]  # (arity, args) with J^n != 0
    certified: bool


def linfty_check(Delta: DiffOp, n_max: int = 4) -> LInftyReport:
    """Certify the homotopy Jacobi identities of the higher brackets of an
    odd operator from Q = Delta^2 alone, evaluating no Jacobiator.

    The n-th Jacobiator of Delta is the n-th bracket generated by Q
    (J^n_Delta = Phi^n_Q, the derived-bracket identity).  A commutator with
    a multiplication operator lowers the order by one, so Phi^n_Q = 0 for
    n > r = ord Q: the identities J^n = 0 hold for r < n <= n_max.

    Brackets are taken at weight 0, where Q acts as Q0 = Q|_{W=0}.  If
    Q0 != 0, let r0 = ord Q0 and c d^I a top-order term of Q0 with the
    smallest key I = (e, o).  The witness lists each even coordinate x_i
    e_i times, then the odd coordinates in o; only the term at I survives
    the r0 commutators, so J^{r0}(witness) = Phi^{r0}_Q(witness) = +-I! c,
    a nonzero polynomial.  If Q0 = 0 every
    Jacobiator vanishes at weight 0, no witness exists and, unless Q = 0,
    the report is not certified."""
    if _operand(Delta, DiffOp, "the generator Delta").parity() != 1:
        raise ParityError("homotopy certification expects an odd operator")
    chart, sq = Delta.chart, compose(Delta, Delta)
    r = sq.order()
    lo = 0 if r is None else r + 1
    checked = {n: True for n in range(lo, n_max + 1)}

    witness = None
    q0 = specialize(sq, 0)
    r0 = q0.order()
    if r0 is not None:
        key = min(k for k in q0.terms if _deg(k) == r0)
        witness = (r0, tuple(GradedPoly.var(chart, v) for v in _key_names(chart, key)))

    return LInftyReport(
        square_order=r,
        checked=checked,
        witness=witness,
        certified=r is None or witness is not None,
    )
