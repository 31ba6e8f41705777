"""Acceptance suite: eight exact-equality criteria, one pass/fail line each.

Every numeric comparison is exact (Fraction arithmetic, tolerance zero)."""

import itertools
import json
import pathlib
import random
from contextlib import contextmanager
from fractions import Fraction

import pytest

from superdelta import (
    DensityElement,
    DiffOp,
    GradedPoly,
    commutator,
    compose,
    formal_adjoint,
)
from superdelta.diffop import specialize
from superdelta.geom import (
    VBracketData,
    act_on_w_densities,
    canonical_pencil,
    extract_vbracket,
    hamiltonian_vf,
    jacobi_report,
    lb_data,
    lie_derivative,
    master_discrepancy,
    odd_laplacian,
    pencil_bracket,
    recover_action,
    transform_data,
    transform_logvol,
    transform_op,
)
from superdelta.brackets import (
    higher_bracket,
    jacobiator,
    jacobiator_abstract,
    linfty_check,
    matrix_of,
    matrix_oracle_instance,
    monomials_upto,
    square_bracket,
)
from superdelta.oracle import (
    berezin_integral, derived_bracket_abstract, operator_algebra_instance, poisson_bracket,
    smatrix_of, transform_gamma, transform_smatrix,
)
from superdelta.cli import main as cli_main
from superdelta.dsl import load_module, render

from conftest import (
    R11, R12, R22, R02, R03,
    full_square, rand_op, rand_poly, rand_vdata, std_odd_smatrix,
)

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"
WEIGHTS = (Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(1), Fraction(2))


@contextmanager
def criterion(capsys, number, title):
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"[criterion {number}] FAIL - {title}")
        raise
    with capsys.disabled():
        print(f"[criterion {number}] PASS - {title}")


# ---------------------------------------------------------------------------


def test_criterion_1_derived_bracket_identity(capsys):
    """J^n of an odd Delta equals the n-th bracket of Delta^2, symbolic and
    matrix."""
    with criterion(capsys, 1, "higher-bracket Jacobiator identity, "
                   "symbolic and matrix paths"):
        rng = random.Random(101)
        for chart in (R11, R02, R03):
            monos = monomials_upto(chart, 2)
            for _ in range(200):
                D = rand_op(rng, chart, 3, parity=1)
                for n in range(5):
                    args = [rng.choice(monos) for _ in range(n)]
                    assert jacobiator(D, args) == square_bracket(D, args)
        # independent matrix-oracle path on the purely odd charts
        for chart in (R02, R03):
            iop = operator_algebra_instance(chart)
            imx = matrix_oracle_instance(chart)
            monos = monomials_upto(chart, 3)
            for _ in range(20):
                D = rand_op(rng, chart, 3, parity=1)
                sq = full_square(D)
                for n in range(4):
                    args = [rng.choice(monos) for _ in range(n)]
                    pars = [a.parity() for a in args]
                    sym = jacobiator(D, args)
                    assert jacobiator_abstract(
                        iop, D, [DiffOp.mult(a) for a in args], pars) == \
                        DiffOp.mult(sym)
                    assert jacobiator_abstract(
                        imx, matrix_of(D),
                        [matrix_of(DiffOp.mult(a)) for a in args], pars) == \
                        matrix_of(DiffOp.mult(sym))
                    assert derived_bracket_abstract(
                        imx, matrix_of(sq),
                        [matrix_of(DiffOp.mult(a)) for a in args]) == \
                        matrix_of(DiffOp.mult(sym))


def test_criterion_2_square_order_equivalence(capsys):
    """ord(Delta^2) <= r iff all Jacobiators with more than r arguments
    vanish, with witnesses at the boundary."""
    with criterion(capsys, 2, "square-order / homotopy-Jacobi equivalence "
                   "with boundary witnesses"):
        chart = R11
        x = GradedPoly.var(chart, "x")
        xi = GradedPoly.var(chart, "xi")
        dx = DiffOp.deriv(chart, "x")
        dxi = DiffOp.deriv(chart, "xi")
        W = DiffOp.weight(chart)
        cases = [
            (compose(dx, dxi), None, True),                          # zero
            (dxi + DiffOp.mult(xi), 0, True),                        # const
            (dxi + compose(DiffOp.mult(xi * x), dx), 1, True),       # field
            (dxi + compose(DiffOp.mult(xi), compose(dx, dx)), 2, True),
            (dxi + compose(DiffOp.mult(xi), compose(dx, compose(dx, dx))), 3,
             True),
            # Delta^2 carries W and vanishes at weight 0, where brackets
            # live: every Jacobiator is zero, so no witness exists
            (dxi + compose(W, compose(DiffOp.mult(xi), compose(dx, dx))), 2,
             False),
            (compose(W, dxi) + compose(DiffOp.mult(xi * x), dx), 1, False),
        ]
        rng = random.Random(202)
        for rchart in (R11, R12, R02):
            one = GradedPoly.one(rchart)
            drawn = 0
            while drawn < 3:
                D = rand_op(rng, rchart, 2, parity=1, nterms=4)
                D = D - DiffOp.mult(D.apply(one))  # normalize: D1 = 0
                if not D.is_zero():
                    cases.append((D, full_square(D).order(), True))
                    drawn += 1
        iops = {}
        for D, r, certified in cases:
            sq = full_square(D)
            assert sq.order() == r
            rep = linfty_check(D, n_max=4)
            assert rep.square_order == r
            lo = 0 if r is None else r + 1
            assert rep.checked == {n: True for n in range(lo, 5)}
            assert rep.certified is certified
            # the built witness: J^r0 != 0, with r0 <= r
            top = -1
            if r is not None and certified:
                assert rep.witness is not None
                top, wargs = rep.witness
                assert top <= r
                assert not jacobiator(D, list(wargs)).is_zero()
            else:
                assert rep.witness is None
            # oracle: sampled J^n vanish above the witness arity, which
            # covers every checked arity.  jacobiator skips the shuffle
            # blocks the order bound makes 0, so every 10th sample is also
            # computed by commutators alone, in the operator algebra.
            probe = monomials_upto(D.chart, (D.order() or 0) + 1)
            if D.chart not in iops:
                iops[D.chart] = operator_algebra_instance(D.chart)
            for n in range(top + 1, 5):
                tuples = list(itertools.combinations_with_replacement(probe, n))
                for i, args in enumerate(rng.sample(tuples, min(len(tuples), 60))):
                    assert jacobiator(D, list(args)).is_zero()
                    if i % 10 == 0:
                        assert jacobiator_abstract(
                            iops[D.chart], D, [DiffOp.mult(a) for a in args],
                            [a.parity() for a in args]).is_zero()


def test_criterion_3_canonical_pencil(capsys):
    """Normalized self-adjoint pencil generating the bracket; round trip."""
    with criterion(capsys, 3, "canonical pencil: normalization, "
                   "self-adjointness, bracket reproduction, inversion"):
        rng = random.Random(303)
        t = None
        for chart in (R11, R12, R22):
            one = GradedPoly.one(chart)
            t = DensityElement(chart, {Fraction(1): one})
            for i in range(100):
                eps = i % 2
                data = rand_vdata(rng, chart, eps)
                P = canonical_pencil(data)
                assert specialize(P, 0).apply(one).is_zero()
                assert formal_adjoint(P) == P
                # bracket reproduction on coordinates and t
                assert smatrix_of(chart, lambda b, a: pencil_bracket(
                    P, DensityElement.from_poly(GradedPoly.var(chart, b)),
                    DensityElement.from_poly(GradedPoly.var(chart, a))).component(0)) == data.S
                tt = pencil_bracket(P, t, t)
                assert tt.component(Fraction(2)) == data.theta
                assert extract_vbracket(P) == data
                # uniqueness probe: perturbations inside the bounded space
                # either break self-adjointness or change a bracket
                if i < 10:
                    X = rand_op(rng, chart, 1, parity=eps, nterms=2)
                    X = X - DiffOp.mult(X.apply(one))  # normalize
                    if X.is_zero():
                        continue
                    K = compose(DiffOp.weight(chart) + DiffOp.weight(chart)
                                - DiffOp.identity(chart), X)  # (2W-1)X
                    Q = P + K
                    if formal_adjoint(Q) != Q:
                        continue
                    same_brackets = all(
                        pencil_bracket(Q, DensityElement.from_poly(
                            GradedPoly.var(chart, a)), t).component(1) ==
                        pencil_bracket(P, DensityElement.from_poly(
                            GradedPoly.var(chart, a)), t).component(1)
                        for a in chart.names)
                    assert (Q == P) or not same_brackets


def test_criterion_4_density_calculus(capsys):
    """The odd-Laplacian calculus on functions and w-densities."""
    with criterion(capsys, 4, "odd-Laplacian and w-density laws "
                   "(resolved transformation sign included)"):
        rng = random.Random(404)
        chart = R12
        S = std_odd_smatrix(chart)
        half = Fraction(1, 2)
        for i in range(100):
            s0 = rand_poly(rng, chart, 3, parity=0, nterms=3)
            s = rand_poly(rng, chart, 3, parity=0, nterms=3)
            D0 = odd_laplacian(S, chart, s0)
            D1 = odd_laplacian(S, chart, s0 + s)
            # Leibniz discrepancy in the antibracket normalization
            f = rand_poly(rng, chart, 2)
            g = rand_poly(rng, chart, 2)
            for pf, fh in f.homogeneous_parts():
                assert D0.apply(fh * g) == \
                    D0.apply(fh) * g + \
                    fh * D0.apply(g) * Fraction((-1) ** pf) + \
                    poisson_bracket(S, chart, fh, g) * Fraction((-1) ** (pf + 1))
                # derivation of the bracket (S is Jacobi here)
                assert D0.apply(poisson_bracket(S, chart, fh, g)) == \
                    poisson_bracket(S, chart, D0.apply(fh), g) + \
                    poisson_bracket(S, chart, fh, D0.apply(g)) * \
                    Fraction((-1) ** (pf + 1))
            # volume transformation and square laws
            assert D1 == D0 + hamiltonian_vf(S, chart, s) * half
            H = master_discrepancy(S, chart, s0, s)
            assert compose(D1, D1) == \
                compose(D0, D0) - hamiltonian_vf(S, chart, H)
            assert compose(D0, D0).order_leq(1)
            # w-density laws (a rotating subset of weights per instance)
            for w in (WEIGHTS if i < 10 else (WEIGHTS[i % 5],)):
                Dw = act_on_w_densities(S, chart, s0, w)
                fh = f.parity_part(i % 2)
                X = hamiltonian_vf(S, chart, fh)
                assert commutator(Dw, DiffOp.mult(fh)) == \
                    lie_derivative(X, w) + \
                    DiffOp.mult(D0.apply(fh)) * (1 - 2 * w)
                Xs = hamiltonian_vf(S, chart, s)
                assert act_on_w_densities(S, chart, s0 + s, w) == \
                    Dw + lie_derivative(Xs, w) * (half * (1 - 2 * w)) - \
                    DiffOp.mult(H) * (4 * w * (1 - w))
            # half densities transform by -H exactly
            assert act_on_w_densities(S, chart, s0 + s, half) == \
                act_on_w_densities(S, chart, s0, half) - DiffOp.mult(H)
        # master groupoid: x-only sigmas solve the master equation over the
        # flat volume and compose
        x = GradedPoly.var(chart, "x")
        for s0, s, s2 in ((x * x, x * x * x, x), (x, x * x, x * x * x)):
            assert master_discrepancy(S, chart, s0, s).is_zero()
            assert master_discrepancy(S, chart, s0 + s, s2).is_zero()
            assert master_discrepancy(S, chart, s0, s + s2).is_zero()
            assert act_on_w_densities(S, chart, s0, half) == \
                act_on_w_densities(S, chart, s0 + s, half)


def _density_order_leq(D, r):
    """Operator order on the algebra of densities: derivative words plus the
    exponent of the weight symbol W = t d/dt."""
    return all(sum(e) + len(o) + k <= r
               for (e, o), wp in D.terms.items() for k in wp)


def test_criterion_5_geometric_equivalences(capsys):
    """Obstruction symbols characterize the order of the square; action
    recovery inverts the volume construction."""
    with criterion(capsys, 5, "Jacobi obstruction symbols and action "
                   "recovery"):
        rng = random.Random(505)
        chart = R12
        seen_flat = seen_curved = 0
        for _ in range(40):
            data = rand_vdata(rng, chart, 1, deg=1)
            D = specialize(canonical_pencil(data), 0)
            sq = full_square(D)
            ss, sg, *_ = jacobi_report(data)
            assert ss.is_zero() == sq.order_leq(2)
            if ss.is_zero():
                assert sg.is_zero() == sq.order_leq(1)
                seen_flat += 1
            else:
                seen_curved += 1
            # pencil characterization: all four symbols vanish iff the
            # pencil square has total order <= 1, counting the weight
            # symbol W = t d/dt as one derivative
            P = canonical_pencil(data)
            slots = jacobi_report(data)
            assert all(v.is_zero() for v in slots) == _density_order_leq(
                compose(P, P), 1)
        assert seen_flat > 0 and seen_curved > 0
        # action recovery on the nondegenerate standard S
        for chart2 in (R11, R22):
            S = std_odd_smatrix(chart2)
            for _ in range(10):
                A = rand_poly(rng, chart2, 3, parity=0, nterms=3)
                A = A - GradedPoly.const(chart2, A.constant_term())
                data = lb_data(S, chart2, A)
                assert recover_action(S, chart2, data.gamma) == A


def test_criterion_6_covariance(capsys):
    """Coordinate changes commute with the geometric constructions."""
    with criterion(capsys, 6, "covariance of Laplacian, subprincipal data, "
                   "and pencil under nilpotent coordinate changes"):
        from test_geom import _nilpotent_map
        rng = random.Random(606)
        for chart in (R12, R22):
            S = std_odd_smatrix(chart)
            done = 0
            while done < 50:
                cmap = _nilpotent_map(rng, chart)
                if cmap is None:
                    continue
                done += 1
                sigma = rand_poly(rng, chart, 2, parity=0, nterms=3)
                S2 = transform_smatrix(S, chart, cmap)
                sigma2 = transform_logvol(sigma, cmap)
                D = odd_laplacian(S, chart, sigma)
                assert transform_op(D, cmap) == \
                    odd_laplacian(S2, chart, sigma2)
                data = lb_data(S, chart, sigma)
                data2 = transform_data(data, cmap)
                assert data2.S == S2
                assert data2.gamma == transform_gamma(
                    S, data.gamma, chart, cmap)
                assert transform_op(canonical_pencil(data), cmap) == \
                    canonical_pencil(data2)


def test_criterion_7_adjoint_oracle(capsys):
    """Formal adjoints against the Berezin-integral pairing brute force."""
    with criterion(capsys, 7, "Berezin-pairing adjoint oracle, involution, "
                   "anti-multiplicativity"):
        rng = random.Random(707)
        for chart in (R02, R03):
            monos = [GradedPoly.one(chart), *monomials_upto(chart, len(chart.odd))]
            for _ in range(100):
                D = rand_op(rng, chart, rng.randint(0, 3),
                            parity=rng.randint(0, 1))
                pD = D.parity()
                if pD is None:
                    continue
                Ds = formal_adjoint(D)
                for psi in monos:
                    for chi in monos:
                        assert berezin_integral(D.apply(psi) * chi) == \
                            berezin_integral(psi * Ds.apply(chi)) * \
                            (-1) ** (pD * psi.parity())
        for chart in (R11, R12, R22, R02, R03):
            for _ in range(10):
                D = rand_op(rng, chart, 2, parity=rng.randint(0, 1))
                E = rand_op(rng, chart, 2, parity=rng.randint(0, 1))
                pD, pE = D.parity(), E.parity()
                if pD is None or pE is None:
                    continue
                assert formal_adjoint(formal_adjoint(D)) == D
                assert formal_adjoint(compose(D, E)) == \
                    compose(formal_adjoint(E), formal_adjoint(D)) * \
                    Fraction((-1) ** (pD * pE))


def test_criterion_8_parser_and_cli(capsys):
    """Parser round trip on random values; golden CLI outputs; exit codes."""
    with criterion(capsys, 8, "parser round trip, golden CLI outputs, "
                   "exit-code partition"):
        rng = random.Random(808)
        hdr = "chart C { even x; odd xi1, xi2; }\n"
        count = 0
        while count < 500:
            kind = count % 3
            if kind == 0:
                v = rand_poly(rng, R12, 3)
                src = hdr + "element e on C = " + render(v) + ";"
                got = load_module(src).elements["e"]
                if isinstance(got, DensityElement):
                    got = got.component(0)
            elif kind == 1:
                v = DensityElement(R12, {
                    Fraction(rng.randint(-3, 3), rng.randint(1, 4)):
                        rand_poly(rng, R12, 2) for _ in range(3)})
                src = hdr + "element e on C = " + render(v) + ";"
                got = load_module(src).elements["e"]
                if isinstance(got, GradedPoly):
                    got = DensityElement.from_poly(got)
                if v.is_zero():
                    got = DensityElement.zero(R12)
                    v = DensityElement.zero(R12)
            else:
                v = rand_op(rng, R12, 3)
                if rng.random() < 0.5:
                    v = v * DiffOp.weight(R12) + v
                src = hdr + "operator e on C = " + render(v) + ";"
                got = load_module(src).operators["e"]
            assert got == v
            count += 1

        bv = str(FIXTURES / "bv.sd")
        lb = str(FIXTURES / "lb.sd")
        pencil = str(FIXTURES / "pencil.sd")
        master = str(FIXTURES / "master.sd")

        def run(*argv):
            code = cli_main(list(argv))
            out = capsys.readouterr()
            return code, out.out

        goldens = [
            (("derived", "--input", bv, "--op", "Delta", "--args", "x,xi"),
             "1\n"),
            (("apply", "--input", bv, "--op", "Delta", "--args", "f"), "1\n"),
            (("bracket", "--input", bv, "--op", "Delta", "--args", "x,xi"),
             "1\n"),
            (("pencil", "--input", lb, "--bracket", "S", "--gamma", "gamma",
              "--theta", "0", "--weight", "0"), "x*d(xi) + d(x)*d(xi)\n"),
            (("adjoint", "--input", pencil, "--op", "P"),
             "(2*W - 1)*d(x)\n"),
            (("jacobiator", "--input", bv, "--op", "Delta", "--n", "2",
              "--args", "x,xi"), "0\n"),
        ]
        for argv, want in goldens:
            code, out = run(*argv)
            assert code == 0 and out == want
        code, out = run("classify", "--input", bv, "--op", "Delta", "--json")
        doc = json.loads(out)
        assert code == 0 and doc["extra"]["square_order"] == "zero"
        assert set(doc) == {"result", "parity", "order", "extra"}
        code, out = run("master", "--input", master, "--bracket", "S",
                        "--sigma0", "flat", "--sigma", "sigma_good")
        assert code == 0 and out.splitlines()[0] == "0"
        code, out = run("report", "--input", pencil, "--bracket", "S",
                        "--gamma", "gamma")
        assert code == 0 and out.splitlines()[0] == "(S,S) = 0"

        # exit-code partition
        assert run("derived", "--input", bv, "--op", "Nope",
                   "--args", "x")[0] == 1
        import tempfile, os
        with tempfile.TemporaryDirectory() as td:
            bad = os.path.join(td, "bad.sd")
            with open(bad, "w") as fh:
                fh.write("chart C { even x; odd xi; } density s on C = x*xi;")
            assert run("apply", "--input", bad, "--op", "D",
                       "--args", "x")[0] == 2
        assert run("pencil", "--input", lb, "--bracket", "S", "--gamma",
                   "gamma", "--theta", "x")[0] == 3
