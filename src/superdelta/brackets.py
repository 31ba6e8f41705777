"""Higher derived brackets of differential operators, Jacobiators with
shuffle sums, the abstract (Lie superalgebra, projector) engine, and
finite-dimensional matrix oracles on purely odd charts.

The n-th higher bracket generated by an operator Delta is

    {a_1, ..., a_n} = [ ... [[Delta, a_1], a_2], ..., a_n] 1,

with graded commutators and multiplication operators; the 0-ary bracket is
the background Delta 1.  The n-th Jacobiator is the shuffle sum

    J^n = sum_{k+l=n} sum_{(k,l)-shuffles s} sign(s) {{a_{s(1)}, ...,
          a_{s(k)}}, a_{s(k+1)}, ..., a_{s(n)}},

with the pure Koszul permutation sign, and equals the n-th higher bracket
generated by Delta^2.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Callable, Optional, Sequence

from .gralg import Chart, GradedPoly, ParityError
from .diffop import DiffOp, ad_mult, commutator, compose, specialize

__all__ = [
    "koszul_sign",
    "shuffles",
    "higher_bracket",
    "leibniz_obstruction",
    "jacobiator",
    "square_bracket",
    "LieSuperAlgebraInstance",
    "operator_algebra_instance",
    "GrassmannMatrix",
    "matrix_of",
    "matrix_oracle_instance",
    "derived_bracket_abstract",
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
    Each transposition of two odd elements contributes -1."""
    if len(perm) != len(parities):
        raise ValueError("permutation and parity list lengths differ")
    if sorted(perm) != list(range(len(perm))):
        raise ValueError("not a permutation of 0..n-1")
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


def _homogeneous_args(args: Sequence[GradedPoly]):
    """Split each argument into homogeneous parts; yield (sign-carrying)
    tuples of homogeneous polynomials covering the multilinear expansion."""
    parts = []
    for a in args:
        hp = [p for _, p in a.homogeneous_parts() if not p.is_zero()]
        if not hp:
            hp = [a]  # zero argument: keep a single zero slot
        parts.append(hp)
    return itertools.product(*parts)


def higher_bracket(Delta: DiffOp, args: Sequence[GradedPoly]) -> GradedPoly:
    """{a_1,...,a_n} = [...[[Delta,a_1],a_2],...,a_n] 1.  Multilinear;
    each commutator is taken by ad_mult, which is linear in its argument,
    so inhomogeneous arguments need no splitting.  The 0-ary bracket is
    the background Delta 1."""
    chart = Delta.chart
    if Delta.parity() is None:
        raise ParityError("bracket generator must be homogeneous")
    D = Delta
    for a in args:
        D = ad_mult(D, a)
    # D 1 at weight 0: every derivative kills 1 and W acts as 0, so only
    # the W^0 coefficient at the zero key remains
    zero_key = ((0,) * len(chart.even), ())
    return D.terms.get(zero_key, {}).get(0, GradedPoly.zero(chart))


def square_bracket(Delta: DiffOp, args: Sequence[GradedPoly]) -> GradedPoly:
    """The n-th higher bracket generated by Delta^2 (the right-hand side of
    the Jacobiator identity)."""
    return higher_bracket(compose(Delta, Delta), args)


def leibniz_obstruction(
    Delta: DiffOp, args: Sequence[GradedPoly], b: GradedPoly, c: GradedPoly
) -> GradedPoly:
    """The failure of the k-ary bracket (k = len(args)+1) to be a
    derivation in its last slot:

        {args, bc} - {args, b} c - (-1)^{pb (pD + sum pa)} b {args, c},

    for homogeneous b (inhomogeneous b and c are split by linearity).
    Equals the (k+1)-ary bracket {args, b, c} whenever the latter is the
    top nonvanishing arity obstruction; cross-checked against
    higher_bracket in the test suite."""
    chart = Delta.chart
    pD = Delta.parity()
    out = GradedPoly.zero(chart)
    for tup in _homogeneous_args(list(args)):
        inner = sum((p.parity() or 0) for p in tup)
        for pb, bh in b.homogeneous_parts():
            if bh.is_zero():
                continue
            sgn = (-1) ** (pb * ((pD + inner) % 2))
            out = (
                out
                + higher_bracket(Delta, list(tup) + [bh * c])
                - higher_bracket(Delta, list(tup) + [bh]) * c
                - bh * higher_bracket(Delta, list(tup) + [c]) * Fraction(sgn)
            )
    return out


def jacobiator(Delta: DiffOp, args: Sequence[GradedPoly]) -> GradedPoly:
    """The n-th Jacobiator of the higher brackets generated by Delta,
    n = len(args): the full (k,l)-shuffle sum with the Koszul permutation
    sign, including the k = 0 (background inside) and l = 0 (unary of the
    n-bracket) terms.  Arguments must be homogeneous."""
    chart = Delta.chart
    pars = []
    for a in args:
        p = a.parity()
        if p is None:
            raise ParityError("Jacobiator arguments must be homogeneous")
        pars.append(p)
    n = len(args)
    total = GradedPoly.zero(chart)
    for k in range(n + 1):
        for s in shuffles(k, n - k):
            sgn = koszul_sign(s, pars)
            inner = higher_bracket(Delta, [args[s[i]] for i in range(k)])
            outer = higher_bracket(
                Delta, [inner] + [args[s[i]] for i in range(k, n)]
            )
            total = total + outer * Fraction(sgn)
    return total


# ---------------------------------------------------------------------------
# abstract engine


@dataclass(frozen=True)
class LieSuperAlgebraInstance:
    """A Lie superalgebra with a projector P whose image is an abelian
    subalgebra and whose kernel is a subalgebra.

    All structure is supplied as callables over an opaque element type;
    ``span`` is a finite spanning set over which the projector laws
    (P^2 = P, [im P, im P] = 0, [ker P, ker P] in ker P) are verified at
    construction time."""

    bracket: Callable[[Any, Any], Any]
    parity: Callable[[Any], Optional[int]]
    project: Callable[[Any], Any]
    sub: Callable[[Any, Any], Any]
    is_zero: Callable[[Any], bool]
    span: tuple = ()
    name: str = "instance"

    def __post_init__(self):
        for x in self.span:
            px = self.project(x)
            if not self.is_zero(self.sub(self.project(px), px)):
                raise ValueError(f"{self.name}: projector is not idempotent")
        for x in self.span:
            for y in self.span:
                px, py = self.project(x), self.project(y)
                if not self.is_zero(self.bracket(px, py)):
                    raise ValueError(f"{self.name}: image of P is not abelian")
                kx = self.sub(x, self.project(x))
                ky = self.sub(y, self.project(y))
                b = self.bracket(kx, ky)
                if not self.is_zero(self.project(b)):
                    raise ValueError(f"{self.name}: kernel of P is not a subalgebra")

    def in_image(self, x) -> bool:
        return self.is_zero(self.sub(self.project(x), x))


def derived_bracket_abstract(
    inst: LieSuperAlgebraInstance, Delta, args: Sequence
):
    """{a_1,...,a_n}_Delta = P [...[[Delta,a_1],a_2],...,a_n] for arguments
    in the image of P."""
    for a in args:
        if not inst.in_image(a):
            raise ValueError("derived bracket argument outside the image of P")
    x = Delta
    for a in args:
        x = inst.bracket(x, a)
    return inst.project(x)


def jacobiator_abstract(
    inst: LieSuperAlgebraInstance, Delta, args: Sequence, parities: Sequence[int]
):
    """The n-th Jacobiator of the derived brackets of Delta in an abstract
    instance; ``parities`` lists the parities of the arguments."""
    n = len(args)
    total = None
    for k in range(n + 1):
        for s in shuffles(k, n - k):
            sgn = koszul_sign(s, parities)
            inner = derived_bracket_abstract(inst, Delta, [args[s[i]] for i in range(k)])
            # outer derived bracket takes `inner` as its first argument:
            x = Delta
            x = inst.bracket(x, inner)
            for i in range(k, n):
                x = inst.bracket(x, args[s[i]])
            term = inst.project(x)
            term = _scale(inst, term, sgn)
            total = term if total is None else _add(inst, total, term)
    return total


def _scale(inst: LieSuperAlgebraInstance, x, sgn: int):
    if sgn == 1:
        return x
    zero = inst.sub(x, x)
    return inst.sub(zero, x)


def _add(inst: LieSuperAlgebraInstance, x, y):
    return inst.sub(x, _scale(inst, y, -1))


# ---------------------------------------------------------------------------
# the operator-algebra instance


def _op_span(chart: Chart) -> tuple[DiffOp, ...]:
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


def operator_algebra_instance(chart: Chart) -> LieSuperAlgebraInstance:
    """Normal-ordered differential operators on a chart with the graded
    commutator; P sends an operator D to multiplication by D(1)."""
    one = GradedPoly.one(chart)

    def project(D: DiffOp) -> DiffOp:
        return DiffOp.mult(D.apply_poly(one))

    return LieSuperAlgebraInstance(
        bracket=commutator,
        parity=lambda D: D.parity(),
        project=project,
        sub=lambda D, E: D - E,
        is_zero=lambda D: D.is_zero(),
        span=_op_span(chart),
        name=f"operator algebra on {chart.names}",
    )


# ---------------------------------------------------------------------------
# matrix oracle on purely odd charts


def _grassmann_basis(chart: Chart) -> list[tuple[int, ...]]:
    q = len(chart.odd)
    basis = []
    for r in range(q + 1):
        for o in itertools.combinations(range(q), r):
            basis.append(o)
    return basis


@dataclass(frozen=True)
class GrassmannMatrix:
    """An exact matrix acting on the 2^q-dimensional Grassmann algebra of a
    purely odd chart, tagged with the parity of the operator it represents
    (None for inhomogeneous or zero)."""

    chart: Chart
    rows: tuple  # tuple of tuples of Fraction, row-major
    parity: Optional[int]

    def __eq__(self, other):
        return (
            isinstance(other, GrassmannMatrix)
            and self.chart == other.chart
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((self.chart, self.rows))

    def is_zero(self) -> bool:
        return all(all(v == 0 for v in row) for row in self.rows)


def _mat_mul(A: GrassmannMatrix, B: GrassmannMatrix) -> GrassmannMatrix:
    rows = []
    for row_a in A.rows:
        acc = [Fraction(0)] * len(row_a)
        for a, row_b in zip(row_a, B.rows):
            if a:
                for j, b in enumerate(row_b):
                    if b:
                        acc[j] += a * b
        rows.append(tuple(acc))
    rows = tuple(rows)
    if A.parity is None or B.parity is None:
        par = None
    else:
        par = (A.parity + B.parity) % 2
    z = GrassmannMatrix(A.chart, rows, par)
    return GrassmannMatrix(A.chart, rows, None) if z.is_zero() else z


def _mat_sub(A: GrassmannMatrix, B: GrassmannMatrix) -> GrassmannMatrix:
    rows = tuple(
        tuple(a - b for a, b in zip(ra, rb)) for ra, rb in zip(A.rows, B.rows)
    )
    par = A.parity if A.parity == B.parity else None
    z = GrassmannMatrix(A.chart, rows, par)
    if z.is_zero():
        return GrassmannMatrix(A.chart, rows, None)
    if A.is_zero():
        return GrassmannMatrix(A.chart, rows, B.parity)
    if B.is_zero():
        return GrassmannMatrix(A.chart, rows, A.parity)
    return z


def _mat_bracket(A: GrassmannMatrix, B: GrassmannMatrix) -> GrassmannMatrix:
    pa, pb = A.parity, B.parity
    AB = _mat_mul(A, B)
    BA = _mat_mul(B, A)
    if pa is None or pb is None:
        if A.is_zero() or B.is_zero():
            return _mat_sub(AB, BA)
        raise ParityError("graded matrix commutator needs homogeneous factors")
    if pa * pb % 2:
        rows = tuple(
            tuple(a + b for a, b in zip(ra, rb)) for ra, rb in zip(AB.rows, BA.rows)
        )
        z = GrassmannMatrix(A.chart, rows, (pa + pb) % 2)
        return GrassmannMatrix(A.chart, rows, None) if z.is_zero() else z
    return _mat_sub(AB, BA)


def _poly_to_vec(p: GradedPoly, basis, index) -> list[Fraction]:
    vec = [Fraction(0)] * len(basis)
    for (e, o), c in p.terms.items():
        if any(e):
            raise ValueError("matrix oracle requires a purely odd chart")
        vec[index[o]] += c
    return vec


def matrix_of(D: DiffOp) -> GrassmannMatrix:
    """The exact matrix of a weight-free operator on the Grassmann algebra
    of a purely odd chart (q = number of odd variables <= 3 is the intended
    range; any q works, at 2^q cost)."""
    chart = D.chart
    if chart.even:
        raise ValueError("matrix oracle requires a purely odd chart")
    basis = _grassmann_basis(chart)
    index = {o: i for i, o in enumerate(basis)}
    cols = []
    for o in basis:
        mono = GradedPoly(chart, {((), o): Fraction(1)})
        cols.append(_poly_to_vec(D.apply_poly(mono), basis, index))
    n = len(basis)
    rows = tuple(tuple(cols[j][i] for j in range(n)) for i in range(n))
    z = GrassmannMatrix(chart, rows, D.parity())
    return GrassmannMatrix(chart, rows, None) if z.is_zero() else z


def matrix_oracle_instance(chart: Chart) -> LieSuperAlgebraInstance:
    """The operator algebra on a purely odd chart, with every element stored
    as an exact 2^q x 2^q matrix; an independent computation path for the
    derived-bracket theorems."""
    if chart.even:
        raise ValueError("matrix oracle requires a purely odd chart")
    basis = _grassmann_basis(chart)
    index = {o: i for i, o in enumerate(basis)}
    n = len(basis)

    def project(A: GrassmannMatrix) -> GrassmannMatrix:
        # evaluation on the unit element: the first column of A is A(1);
        # return the matrix of multiplication by that Grassmann polynomial.
        col = [A.rows[i][0] for i in range(n)]
        p = GradedPoly(
            chart, {((), basis[i]): col[i] for i in range(n) if col[i] != 0}
        )
        return matrix_of(DiffOp.mult(p))

    span = tuple(matrix_of(D) for D in _op_span(chart))
    return LieSuperAlgebraInstance(
        bracket=_mat_bracket,
        parity=lambda A: A.parity,
        project=project,
        sub=_mat_sub,
        is_zero=lambda A: A.is_zero(),
        span=span,
        name=f"matrix oracle on {chart.names}",
    )


# ---------------------------------------------------------------------------
# L-infinity certification


def monomials_upto(chart: Chart, deg: int) -> list[GradedPoly]:
    """All coordinate monomials of total degree 1..deg, in a deterministic
    order."""
    out = []
    ne = len(chart.even)
    for total in range(1, deg + 1):
        for e in itertools.product(range(total + 1), repeat=ne):
            if sum(e) > total:
                continue
            for r in range(len(chart.odd) + 1):
                for o in itertools.combinations(range(len(chart.odd)), r):
                    if sum(e) + r == total:
                        out.append(GradedPoly(chart, {(e, o): Fraction(1)}))
    return out


@dataclass(frozen=True)
class LInftyReport:
    """Outcome of the homotopy-Jacobi certification of an odd operator.
    Every entry is proved from Delta^2; nothing is sampled."""

    square_order: Optional[int]  # None: Delta^2 = 0
    checked: dict = field(default_factory=dict)  # arity -> J^n vanishes
    witness: Optional[tuple] = None  # (arity, args) with J^n != 0
    certified: bool = False

    def __str__(self):
        r = "-inf" if self.square_order is None else str(self.square_order)
        lines = [f"ord(Delta^2) = {r}"]
        for nn in sorted(self.checked):
            lines.append(f"  J^{nn} = 0: proved")
        if self.witness is not None:
            from .dsl import render

            nn, args = self.witness
            shown = ", ".join(render(a) for a in args)
            lines.append(f"  witness: J^{nn} != 0 at ({shown})")
        lines.append(f"  certified: {self.certified}")
        return "\n".join(lines)


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
    if Delta.parity() != 1:
        raise ParityError("homotopy certification expects an odd operator")
    chart = Delta.chart
    sq = compose(Delta, Delta)
    r = sq.order()
    lo = 0 if r is None else r + 1
    checked = {n: True for n in range(lo, n_max + 1)}

    witness = None
    q0 = specialize(sq, 0)
    r0 = q0.order()
    if r0 is not None:
        e, o = min(k for k in q0.terms if sum(k[0]) + len(k[1]) == r0)
        names = [v for v, n in zip(chart.even, e) for _ in range(n)]
        names += [chart.odd[i] for i in o]
        witness = (r0, tuple(GradedPoly.var(chart, v) for v in names))

    return LInftyReport(
        square_order=r,
        checked=checked,
        witness=witness,
        certified=r is None or witness is not None,
    )
