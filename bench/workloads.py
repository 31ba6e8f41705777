"""The three benchmark workloads.

Each workload function takes a seeded ``random.Random`` and returns a list
of ``Op``.  An op is one certified computation or one CLI request:
``run()`` is the timed engine work, ``check(result)`` (untimed) returns
``(ok, text)``, where ``ok`` is the exact-equality verdict and ``text`` the
rendered output that goes into the workload digest.  The worker builds a
fresh schedule for every pass, from its own seeded ``random.Random``; only
the requests on the shipped fixtures repeat, and they carry a ``repeat``
key so that the worker can tell whether they got faster after pass 0.

Engine functions are always looked up through their module at call time
(``brackets.jacobiator``), so a tracer that re-binds module attributes sees
every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import shutil
from fractions import Fraction

from superdelta import DensityElement, DiffOp, GradedPoly
from superdelta import brackets, cli, diffop, dsl, geom
from superdelta.dsl import render

from gen import (R02, R03, R11, R12, R22, nilpotent_map, rand_op, rand_poly,
                 rand_vdata, std_odd_smatrix)

WEIGHTS = (Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(1), Fraction(2))


class Op:
    __slots__ = ("kind", "run", "check", "repeat")

    def __init__(self, kind, run, check, repeat=None):
        self.kind = kind
        self.run = run
        self.check = check
        self.repeat = repeat


def _sign(p, q) -> Fraction:
    return Fraction((-1) ** (p * q))


# ---------------------------------------------------------------------------
# derived-brackets: J^n_Delta against Phi^n_{Delta^2}, plus the matrix oracle

# operators per chart; each is evaluated at every arity n = 0..4
DERIVED_OPS_PER_CHART = 40


def _jacobi_op(D, args, oracle):
    def run():
        J = brackets.jacobiator(D, args)
        F = brackets.square_bracket(D, args)
        if oracle is None:
            return J, F, None, None
        pars = [a.parity() for a in args]
        M = brackets.jacobiator_abstract(
            oracle, brackets.matrix_of(D),
            [brackets.matrix_of(DiffOp.mult(a)) for a in args], pars)
        return J, F, M, brackets.matrix_of(DiffOp.mult(J))

    def check(res):
        J, F, M, R = res
        return J == F and M == R, render(J)

    return run, check


def derived_brackets(rng: random.Random) -> list[Op]:
    ops = []
    for chart in (R11, R02, R03):
        monos = brackets.monomials_upto(chart, 2)
        # the (0|3) oracle instance alone takes ~2 s to build, so the oracle
        # share runs on (0|2)
        oracle = brackets.matrix_oracle_instance(chart) if chart is R02 else None
        for i in range(DERIVED_OPS_PER_CHART):
            D = rand_op(rng, chart, 3, parity=1)
            while D.is_zero():
                D = rand_op(rng, chart, 3, parity=1)
            for n in range(5):
                args = [rng.choice(monos) for _ in range(n)]
                use_oracle = oracle if (i % 2 == 0 and n <= 3) else None
                ops.append(Op(f"n={n}", *_jacobi_op(D, args, use_oracle)))
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# density-geometry: pencils, w-density laws, covariance, adjoints

# rounds per chart; a round is two w-density laws, one pencil round trip,
# one covariance check and one adjoint check, so that the median op lies
# inside the cheap kinds rather than on the edge between cheap and dear
DENSITY_ROUNDS = 30


def _pencil_op(data):
    def run():
        P = geom.canonical_pencil(data)
        return P, diffop.formal_adjoint(P), geom.extract_vbracket(P)

    def check(res):
        P, A, X = res
        return A == P and X == data, render(P)

    return run, check


def _wdensity_op(S, chart, s0, s, w):
    half = Fraction(1, 2)

    def run():
        Dw = geom.act_on_w_densities(S, chart, s0, w)
        lhs = geom.act_on_w_densities(S, chart, s0 + s, w)
        H = geom.master_discrepancy(S, chart, s0, s)
        Xs = geom.hamiltonian_vf(S, chart, s)
        rhs = (Dw + geom.lie_derivative(Xs, w) * (half * (1 - 2 * w))
               - DiffOp.mult(H) * (4 * w * (1 - w)))
        return lhs, rhs

    def check(res):
        lhs, rhs = res
        return lhs == rhs, render(lhs)

    return run, check


def _covariance_op(data, cmap):
    def run():
        lhs = geom.transform_op(geom.canonical_pencil(data), cmap)
        rhs = geom.canonical_pencil(geom.transform_data(data, cmap))
        return lhs, rhs

    def check(res):
        lhs, rhs = res
        return lhs == rhs, render(lhs)

    return run, check


def _adjoint_op(D, E):
    sgn = _sign(D.parity(), E.parity())

    def run():
        adj = diffop.formal_adjoint
        DE = diffop.compose(D, E)
        lhs = adj(DE)
        rhs = diffop.compose(adj(E), adj(D)) * sgn
        return lhs, rhs, adj(adj(D))

    def check(res):
        lhs, rhs, DD = res
        return lhs == rhs and DD == D, render(lhs)

    return run, check


def _pencil_data(rng, chart, eps):
    """Bracket data that is not all zero: the zero pencil has every parity,
    so the round trip cannot give its eps back."""
    while True:
        data = rand_vdata(rng, chart, eps)
        if data.S or data.gamma or not data.theta.is_zero():
            return data


def _homogeneous_op(rng, chart, order):
    while True:
        D = rand_op(rng, chart, order, parity=rng.randint(0, 1))
        if not D.is_zero():
            return D


def density_geometry(rng: random.Random) -> list[Op]:
    ops = []
    for chart in (R12, R22):
        S = std_odd_smatrix(chart)
        for i in range(DENSITY_ROUNDS):
            ops.append(Op("pencil-roundtrip", *_pencil_op(_pencil_data(rng, chart, i % 2))))
            for j in range(2):
                s0 = rand_poly(rng, chart, 3, parity=0, nterms=3)
                s = rand_poly(rng, chart, 3, parity=0, nterms=3)
                w = WEIGHTS[(2 * i + j) % len(WEIGHTS)]
                ops.append(Op("w-density-law", *_wdensity_op(S, chart, s0, s, w)))
            cmap = None
            while cmap is None:
                cmap = nilpotent_map(rng, chart)
            sigma = rand_poly(rng, chart, 2, parity=0, nterms=3)
            ops.append(Op("covariance", *_covariance_op(
                geom.lb_data(S, chart, sigma), cmap)))
            D = _homogeneous_op(rng, chart, 2)
            E = _homogeneous_op(rng, chart, 2)
            if i % 2:
                D = D * DiffOp.weight(chart) + D  # a weight pencil
            ops.append(Op("adjoint-laws", *_adjoint_op(D, E)))
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# cli-session: in-process superdelta.cli.main requests on generated modules

# many small modules, each with a random third of its requests, rather than
# few modules with all of them: a request's cost depends mostly on its
# module, so more modules per pass steady the latency quantiles
CLI_MODULES_PER_CHART = 12
CLI_REQUESTS_PER_MODULE = 7  # of the 21 valid requests of a module
FIXTURE_GOLDENS = (  # tests/test_acceptance.py, criterion 8, byte for byte
    (("derived", "bv", "--op", "Delta", "--args", "x,xi"), "1\n"),
    (("apply", "bv", "--op", "Delta", "--args", "f"), "1\n"),
    (("bracket", "bv", "--op", "Delta", "--args", "x,xi"), "1\n"),
    (("pencil", "lb", "--bracket", "S", "--gamma", "gamma", "--theta", "0",
      "--weight", "0"), "x*d(xi) + d(x)*d(xi)\n"),
    (("adjoint", "pencil", "--op", "P"), "(2*W - 1)*d(x)\n"),
    (("jacobiator", "bv", "--op", "Delta", "--n", "2", "--args", "x,xi"), "0\n"),
)
ERROR_PREFIX = {1: "usage error: ", 2: "error: ", 3: "domain error: "}


def _chart_decl(chart) -> str:
    parts = [f"{kind} {', '.join(names)};"
             for kind, names in (("even", chart.even), ("odd", chart.odd)) if names]
    return "chart C { " + " ".join(parts) + " }"


def _module_text(chart, v) -> str:
    names = chart.names
    S = "".join(f" [{a},{b}] = {render(p)};" for (a, b), p in sorted(v["S"].items())
                if names.index(a) <= names.index(b))
    gamma = "".join(f" [{a}] = {render(p)};" for a, p in sorted(v["gamma"].items()))
    lines = [
        _chart_decl(chart),
        f"tensor S on C parity odd {{{S} }}",
        f"tensor gamma on C parity odd {{{gamma} }}",
        *(f"element {n} on C = {render(v[n])};" for n in ("theta", "f", "g", "psi")),
        *(f"density {n} on C = {render(v[n])};" for n in ("sigma0", "sigma")),
        *(f"operator {n} on C = {render(v[n])};" for n in ("Delta", "P", "E", "K")
          if n in v),
        "map phi on C {"
        + "".join(f" {a} -> {render(v['phi'].fwd[a])};" for a in names)
        + " inverse {" + "".join(f" {a} -> {render(v['phi'].inv[a])};" for a in names)
        + " } }",
    ]
    return "\n".join(lines) + "\n"


def _nonzero(draw):
    while True:
        p = draw()
        if not p.is_zero():
            return p


def _module_values(rng, chart) -> dict:
    """Seeded values of one generated module (the objects the CLI output is
    checked against)."""
    while True:
        data = rand_vdata(rng, chart, 1)
        if data.S and data.gamma:
            break
    cmap = None
    while cmap is None:
        cmap = nilpotent_map(rng, chart)
    v = {
        "data": data, "S": data.S, "gamma": data.gamma, "theta": data.theta,
        "f": rand_poly(rng, chart, 2, nterms=3),
        "g": rand_poly(rng, chart, 2, nterms=3),
        "psi": DensityElement(chart, {Fraction(1, 2): _nonzero(
            lambda: rand_poly(rng, chart, 2, nterms=3))}),
        "sigma0": rand_poly(rng, chart, 2, parity=0, nterms=3),
        "sigma": rand_poly(rng, chart, 2, parity=0, nterms=3),
        "Delta": _nonzero(lambda: rand_op(rng, chart, 2, parity=1, nterms=3)),
        "P": geom.canonical_pencil(data),
        "E": _nonzero(lambda: rand_op(rng, chart, 1, parity=0, nterms=2)),
        "phi": cmap,
    }
    if chart is R11:  # a normalized odd operator of order 1 for classify
        one = GradedPoly.one(chart)
        while True:
            K = rand_op(rng, chart, 1, parity=1, nterms=3)
            K = K - DiffOp.mult(K.apply_poly(one))
            if not K.is_zero() and K.parity() == 1:
                v["K"] = K
                break
    return v


def _parity_str(p):
    return {0: "even", 1: "odd"}.get(p, "inhomogeneous")


def _expected_out(result, extra, as_json) -> str:
    """What cli._emit prints for a library result."""
    text = result if isinstance(result, str) else render(result)
    if as_json:
        typed = isinstance(result, (GradedPoly, DensityElement, DiffOp))
        doc = {"result": text,
               "parity": _parity_str(result.parity()) if typed else None,
               "order": result.order() if isinstance(result, DiffOp) else None,
               "extra": extra or {}}
        return json.dumps(doc, sort_keys=True) + "\n"
    return text + "\n" + "".join(f"{k}: {extra[k]}\n" for k in sorted(extra or {}))


def _classify_expected(D):
    level = geom.classify_square(D)
    rep = brackets.linfty_check(D, n_max=4)
    names = {"<=3": "none", "<=2": "Jacobi_3", "<=1": "Jacobi_2", "<=0": "Jacobi_1"}
    extra = {
        "square_order": "zero" if rep.square_order is None else rep.square_order,
        "level": names[level],
        "identities": {str(n): bool(x) for n, x in sorted(rep.checked.items())},
        "linfty_certified": bool(rep.certified),
    }
    return level, extra


def _report_expected(data):
    slots = geom.jacobi_report(data)
    names = ("(S,S)", "(S,gamma)", "(S,theta)+(gamma,gamma)", "(gamma,theta)")
    text = "\n".join(f"{n} = {render(s)}" for n, s in zip(names, slots))
    return text, {"jacobi": all(s.is_zero() for s in slots)}


def _module_requests(rng, chart, v):
    """(subcommand argv without --input, library reference) pairs; the
    reference returns (result, extra) from the generated objects."""
    monos = brackets.monomials_upto(chart, 2)
    D, P, data, phi = v["Delta"], v["P"], v["data"], v["phi"]
    w = WEIGHTS[rng.randrange(len(WEIGHTS))]
    x, y = (GradedPoly.var(chart, a) for a in rng.sample(chart.names, 2))
    reqs = [
        (["apply", "--op", "Delta", "--args", "f"],
         lambda: (D.apply_poly(v["f"]), None)),
        (["apply", "--op", "P", "--args", "psi", "--weight", str(w)],
         lambda: (diffop.specialize(P, w).apply(v["psi"]), None)),
        (["bracket", "--op", "Delta", "--args", "f,g"],
         lambda: (geom.bracket_from_operator(D, v["f"], v["g"]), None)),
        (["bracket", "--op", "P", "--args", f"{render(x)},{render(y)}"],
         lambda: (geom.pencil_bracket(P, DensityElement.from_poly(x),
                                      DensityElement.from_poly(y)), None)),
        (["pencil", "--bracket", "S", "--gamma", "gamma", "--theta", "theta"],
         lambda: (geom.canonical_pencil(data), None)),
        (["pencil", "--bracket", "S", "--gamma", "gamma", "--theta", "theta",
          "--weight", str(w)],
         lambda: (diffop.specialize(geom.canonical_pencil(data), w), None)),
        (["adjoint", "--op", "Delta"], lambda: (diffop.formal_adjoint(D), None)),
        (["adjoint", "--op", "P"], lambda: (diffop.formal_adjoint(P), None)),
        (["master", "--bracket", "S", "--sigma0", "sigma0", "--sigma", "sigma"],
         lambda: _master(data.S, chart, v["sigma0"], v["sigma"])),
        (["transform", "--map", "phi", "--op", "Delta"],
         lambda: (geom.transform_op(D, phi), None)),
        (["transform", "--map", "phi", "--sigma", "sigma"],
         lambda: (geom.transform_logvol(v["sigma"], phi), None)),
        (["transform", "--map", "phi", "--bracket", "S", "--gamma", "gamma",
          "--theta", "theta"],
         lambda: (geom.transform_data(data, phi), None)),
        (["report", "--bracket", "S", "--gamma", "gamma", "--theta", "theta"],
         lambda: _report_expected(data)),
    ]
    for n in range(4):
        args = [rng.choice(monos) for _ in range(n)]
        text = ",".join(render(a) for a in args)
        reqs.append((["derived", "--op", "Delta", "--args", text],
                     lambda a=args: (brackets.higher_bracket(D, a), None)))
        reqs.append((["jacobiator", "--op", "Delta", "--n", str(n), "--args", text],
                     lambda a=args: (brackets.jacobiator(D, a), None)))
    return reqs


def _master(S, chart, s0, s):
    H = geom.master_discrepancy(S, chart, s0, s)
    return H, {"master_equation_holds": H.is_zero()}


def _malformed_requests(chart):
    """(subcommand argv without --input, expected exit code)."""
    odd_name, even_name = chart.odd[0], chart.even[0]
    return [
        (["derived", "--op", "Nope", "--args", even_name], 1),
        (["apply", "--op", "Delta", "--args", "f,g"], 1),
        (["jacobiator", "--op", "Delta", "--args", "f"], 1),
        (["derived", "--op", "Delta", "--args", "nosuch"], 2),
        (["derived", "--op", "Delta", "--args", "psi"], 3),
        (["pencil", "--bracket", "S", "--gamma", "gamma", "--theta", even_name], 3),
        (["classify", "--op", "E"], 3),
        (["derived", "--op", "Delta", "--args", f"{odd_name} +"], 2),
    ]


def _cli_run(argv):
    def run():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        return code, out.getvalue(), err.getvalue()
    return run


def _cli_check_ok(reference, as_json):
    """Exit code 0 and stdout equal to what cli prints for the reference
    result; with --json that is the four-key document.  The reference is
    computed once, on the first check."""
    cache = []

    def check(res):
        code, out, err = res
        if not cache:
            cache.append(_expected_out(*reference(), as_json))
        return code == 0 and out == cache[0], f"{code}\n{out}"

    return check


def _cli_check_error(code_want):
    def check(res):
        code, out, err = res
        ok = (code == code_want and out == ""
              and err.startswith(ERROR_PREFIX[code_want]))
        return ok, f"{code}\n"
    return check


def _fixture_ops(fixtures, workdir):
    """Requests on copies of the shipped fixtures under ``workdir``, so that
    no two passes read the same path."""
    for name in sorted(os.listdir(fixtures)):
        if name.endswith(".sd"):
            shutil.copyfile(os.path.join(fixtures, name), os.path.join(workdir, name))
    fixtures = workdir
    ops = []
    for (sub, fx, *rest), golden in FIXTURE_GOLDENS:
        argv = [sub, "--input", os.path.join(fixtures, fx + ".sd"), *rest]
        ops.append(Op(sub, _cli_run(argv), _cli_check_ok(
            lambda g=golden: (g[:-1], None), False), repeat=len(ops)))
    bv = os.path.join(fixtures, "bv.sd")
    with open(bv, encoding="utf-8") as fh:
        bv_text = fh.read()
    ops.append(Op("classify", _cli_run(["classify", "--input", bv, "--op", "Delta",
                                        "--json"]),
                  _cli_check_ok(lambda: _classify_expected(
                      dsl.load_module(bv_text).operators["Delta"]), True),
                  repeat=len(ops)))
    bad = os.path.join(workdir, "bad.sd")
    with open(bad, "w", encoding="utf-8") as fh:
        fh.write("chart C { even x; odd xi; } density s on C = x*xi;")
    for argv, code in (
            (["derived", "--input", bv, "--op", "Nope", "--args", "x"], 1),
            (["apply", "--input", bad, "--op", "D", "--args", "x"], 2),
            (["pencil", "--input", os.path.join(fixtures, "lb.sd"), "--bracket", "S",
              "--gamma", "gamma", "--theta", "x"], 3)):
        ops.append(Op(f"error:{argv[0]}", _cli_run(argv), _cli_check_error(code),
                      repeat=len(ops)))
    return ops


def cli_session(rng: random.Random, workdir: str, fixtures: str) -> list[Op]:
    """Generated modules are written under ``workdir``; every request
    loads its module afresh, so nothing is shared between requests."""
    ops = _fixture_ops(fixtures, workdir)
    for chart in (R11, R12, R22):
        for i in range(CLI_MODULES_PER_CHART):
            v = _module_values(rng, chart)
            path = os.path.join(workdir, f"m{len(chart.even)}{len(chart.odd)}_{i}.sd")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(_module_text(chart, v))
            reqs = _module_requests(rng, chart, v)
            for argv, reference in rng.sample(reqs, CLI_REQUESTS_PER_MODULE):
                as_json = rng.random() < 0.25
                full = [argv[0], "--input", path, *argv[1:]] + (["--json"] * as_json)
                ops.append(Op(argv[0], _cli_run(full),
                              _cli_check_ok(reference, as_json)))
            for argv, code in rng.sample(_malformed_requests(chart), 1):
                full = [argv[0], "--input", path, *argv[1:]]
                ops.append(Op(f"error:{argv[0]}", _cli_run(full),
                              _cli_check_error(code)))
            if "K" in v and i == 0:  # one generated classify request per pass
                K = v["K"]
                ops.append(Op("classify", _cli_run(["classify", "--input", path,
                                                    "--op", "K"]),
                              _cli_check_ok(lambda: _classify_expected(K), False)))
    rng.shuffle(ops)
    return ops
