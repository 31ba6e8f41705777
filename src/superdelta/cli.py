"""Command-line entry point: runs the engine's operations over .sd files
with canonical-text or JSON output.

Exit codes: 0 success, 1 usage error, 2 parse/elaboration error (diagnostic
on stderr), 3 mathematical domain error (the message names the violated
precondition)."""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys
from fractions import Fraction

from . import __version__
from .gralg import DensityElement, DomainError, GradedPoly
from .diffop import DiffOp, formal_adjoint, specialize
from .geom import (
    VBracketData,
    _classify,
    canonical_pencil,
    jacobi_report,
    master_discrepancy,
    pencil_bracket,
    transform_data,
    transform_logvol,
    transform_op,
)
from .brackets import higher_bracket, jacobiator
from .conventions import CONVENTIONS
from .dsl import DslError, Module, _position, load_module, parse_element, render

__all__ = ["main"]


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); usage errors are 1
        raise UsageError(message)


@functools.cache
def _build_parser() -> _Parser:
    p = _Parser(prog="superdelta", description=__doc__)
    p.add_argument("--version", action="store_true", help="print the version")
    p.add_argument("--conventions", action="store_true",
                   help="print the frozen sign-convention ledger")
    sub = p.add_subparsers(dest="cmd")

    def common(sp):
        sp.add_argument("--input", required=True, help=".sd module file")
        sp.add_argument("--json", action="store_true", help="JSON output")

    sp = sub.add_parser("apply", help="apply an operator to an element")
    common(sp)
    sp.add_argument("--op", required=True)
    sp.add_argument("--args", required=True, help="one element expression")
    sp.add_argument("--weight", help="specialize the weight symbol first")

    sp = sub.add_parser("bracket", help="the bracket generated by an operator")
    common(sp)
    sp.add_argument("--op", required=True)
    sp.add_argument("--args", required=True, help="two element expressions, comma separated")

    sp = sub.add_parser("pencil", help="the canonical pencil of bracket data")
    common(sp)
    sp.add_argument("--bracket", required=True, help="two-index tensor name (S)")
    sp.add_argument("--gamma", help="one-index tensor name")
    sp.add_argument("--theta", help="element expression")
    sp.add_argument("--weight", help="specialize the weight symbol")

    sp = sub.add_parser("adjoint", help="the formal adjoint of an operator")
    common(sp)
    sp.add_argument("--op", required=True)

    sp = sub.add_parser("derived", help="a higher derived bracket")
    common(sp)
    sp.add_argument("--op", required=True)
    sp.add_argument("--args", default="", help="element expressions, comma separated")

    sp = sub.add_parser("jacobiator", help="the n-th Jacobiator")
    common(sp)
    sp.add_argument("--op", required=True)
    sp.add_argument("--n", required=True, help="the arity, an integer")
    sp.add_argument("--args", default="", help="n element expressions")

    sp = sub.add_parser("classify", help="order of the square and Jacobi level")
    common(sp)
    sp.add_argument("--op", required=True)

    sp = sub.add_parser("master", help="the master discrepancy H(rho', rho)")
    common(sp)
    sp.add_argument("--bracket", required=True)
    sp.add_argument("--sigma0", required=True, help="log-volume name")
    sp.add_argument("--sigma", required=True, help="log-volume name")

    sp = sub.add_parser("transform", help="apply a declared coordinate map")
    common(sp)
    sp.add_argument("--map", required=True, dest="cmap")
    sp.add_argument("--op", help="operator to transform")
    sp.add_argument("--sigma", help="log-volume to transform")
    sp.add_argument("--bracket", help="two-index tensor to transform (with --gamma/--theta)")
    sp.add_argument("--gamma")
    sp.add_argument("--theta")

    sp = sub.add_parser("report", help="the four Jacobi obstruction symbols")
    common(sp)
    sp.add_argument("--bracket", required=True)
    sp.add_argument("--gamma")
    sp.add_argument("--theta")
    return p


# ---------------------------------------------------------------------------
# helpers


def _load(path: str) -> Module:
    try:
        with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
            text = fh.read()
    except OSError as ex:
        raise UsageError(str(ex)) from None
    # each byte that is not UTF-8 was read as a lone surrogate U+DC80..U+DCFF
    bad = re.search("[\udc80-\udcff]", text)
    if bad:
        raise DslError(f"invalid UTF-8 byte 0x{ord(bad.group()) - 0xdc00:02x}",
                       *_position(text, bad.start()))
    return load_module(text)


def _get_op(m: Module, name: str) -> DiffOp:
    if name not in m.operators:
        raise UsageError(f"--op: no operator named {name!r} in the module")
    return m.operators[name]


def _get_matrix(m: Module, name: str):
    t = m.tensors.get(name)
    if t is None or t[0] != "matrix":
        raise UsageError(f"--bracket: no two-index tensor named {name!r}")
    return t[1], t[2]  # eps, SMatrix


def _get_vector(m: Module, name: str):
    t = m.tensors.get(name)
    if t is None or t[0] != "vector":
        raise UsageError(f"--gamma: no one-index tensor named {name!r}")
    return t[2]


def _get_sigma(m: Module, name: str, flag: str):
    if name in m.densities:
        return m.densities[name]
    raise UsageError(f"{flag}: no log-volume named {name!r}")


_BLANKS = " \t\r\n"  # the blanks the .sd lexer skips


def _split_args(m: Module, s: str):
    """The comma-separated expressions of --args, each read stripped of the
    .sd blanks only; a diagnostic's line:col counts in s, as given."""
    if not s.strip(_BLANKS):
        return []
    vals, start = [], 0
    for part in s.split(","):
        try:
            vals.append(parse_element(part.strip(_BLANKS), m))
        except DslError as ex:
            line, col = _position(s, start + len(part) - len(part.lstrip(_BLANKS)))
            raise DslError(ex.message, line + ex.line - 1,
                           col + ex.col - 1 if ex.line == 1 else ex.col, ex.expected) from None
        start += len(part) + 1
    return vals


def _as_polys(vals, what: str):
    out = []
    for v in vals:
        if isinstance(v, DensityElement):
            raise DomainError(f"{what} must be t-free polynomials")
        out.append(v)
    return out


_ECHO = 40  # the longest flag value a refusal quotes whole


def _number(s: str, flag: str, kind=Fraction):
    """The value of a numeric flag, which is ASCII text: int() and Fraction()
    would also read other Unicode digits.  A number past Python's int-to-str
    limit is refused before it is read, naming the limit and not echoing the
    digits: a digit run past it, or an exponent past it, as Fraction("1e<k>")
    builds 10^k exactly.  Any other refusal quotes the value, or a value
    longer than _ECHO characters by its first _ECHO characters and its
    length."""
    if s.isascii():
        limit, plain = sys.get_int_max_str_digits(), s.replace("_", "")
        exp = kind is Fraction and re.search(r"[0-9.][eE][-+]?([0-9]+)\s*$", plain)
        if limit and (any(len(run) > limit for run in re.findall(r"[0-9]+", plain))
                      or exp and int(exp[1]) > limit):
            raise UsageError(f"{flag}: number longer than the limit of {limit} digits")
        try:
            return kind(s)
        except (ValueError, ZeroDivisionError):
            pass
    what = "an integer" if kind is int else "a rational number"
    shown = repr(s) if len(s) <= _ECHO else f"{s[:_ECHO]!r}... ({len(s)} characters)"
    raise UsageError(f"{flag}: not {what}: {shown}")


def _data_from_flags(m: Module, args) -> VBracketData:
    eps, S = _get_matrix(m, args.bracket)
    gamma = _get_vector(m, args.gamma) if args.gamma else {}
    theta = GradedPoly.zero(m.chart)
    if args.theta:
        v = parse_element(args.theta, m)
        if isinstance(v, DensityElement):
            raise DomainError("--theta must be a t-free polynomial")
        theta = v
    return VBracketData(m.chart, eps, S, gamma, theta)


def _parity_str(p) -> str:
    return {0: "even", 1: "odd"}.get(p, "inhomogeneous")


def _emit(args, result, extra=None) -> int:
    text = render(result) if not isinstance(result, str) else result
    parity = None
    order = None
    if isinstance(result, (GradedPoly, DensityElement, DiffOp)):
        parity = _parity_str(result.parity())
    if isinstance(result, DiffOp):
        order = result.order()
    if getattr(args, "json", False):
        doc = {"result": text, "parity": parity, "order": order,
               "extra": extra or {}}
        print(json.dumps(doc, sort_keys=True))
    else:
        print(text)
        if extra:
            for k in sorted(extra):
                print(f"{k}: {extra[k]}")
    return 0


# ---------------------------------------------------------------------------
# subcommands


def _cmd_apply(args, m: Module) -> int:
    D = _get_op(m, args.op)
    if args.weight is not None:
        D = specialize(D, _number(args.weight, "--weight"))
    vals = _split_args(m, args.args)
    if len(vals) != 1:
        raise UsageError("apply takes exactly one --args expression")
    return _emit(args, D.apply(vals[0]))


def _cmd_bracket(args, m: Module) -> int:
    D = _get_op(m, args.op)
    vals = _split_args(m, args.args)
    if len(vals) != 2:
        raise UsageError("bracket takes exactly two --args expressions")
    if D.uses_weight():
        ps = [v if isinstance(v, DensityElement) else DensityElement.from_poly(v)
              for v in vals]
        return _emit(args, pencil_bracket(D, ps[0], ps[1]))
    f, g = _as_polys(vals, "bracket arguments")
    return _emit(args, higher_bracket(D, [f, g]))


def _cmd_pencil(args, m: Module) -> int:
    data = _data_from_flags(m, args)
    P = canonical_pencil(data)
    if args.weight is not None:
        P = specialize(P, _number(args.weight, "--weight"))
    return _emit(args, P)


def _cmd_adjoint(args, m: Module) -> int:
    return _emit(args, formal_adjoint(_get_op(m, args.op)))


def _cmd_derived(args, m: Module) -> int:
    D = _get_op(m, args.op)
    vals = _as_polys(_split_args(m, args.args), "derived-bracket arguments")
    return _emit(args, higher_bracket(D, vals))


def _cmd_jacobiator(args, m: Module) -> int:
    n = _number(args.n, "--n", int)
    D = _get_op(m, args.op)
    vals = _as_polys(_split_args(m, args.args), "Jacobiator arguments")
    if len(vals) != n:
        raise UsageError(f"--n is {n} but {len(vals)} arguments were given")
    return _emit(args, jacobiator(D, vals))


_LEVEL_NAMES = {"<=3": "none", "<=2": "Jacobi_3", "<=1": "Jacobi_2",
                "<=0": "Jacobi_1"}


def _cmd_classify(args, m: Module) -> int:
    D = _get_op(m, args.op)
    level, rep = _classify(D)  # classify_square's checks and level, Delta^2 once
    sq = "zero" if rep.square_order is None else rep.square_order
    extra = {
        "square_order": sq,
        "level": _LEVEL_NAMES[level],
        "identities": {str(n): bool(v) for n, v in sorted(rep.checked.items())},
        "linfty_certified": bool(rep.certified),
    }
    return _emit(args, level, extra)


def _cmd_master(args, m: Module) -> int:
    _, S = _get_matrix(m, args.bracket)
    s0 = _get_sigma(m, args.sigma0, "--sigma0")
    s1 = _get_sigma(m, args.sigma, "--sigma")
    H = master_discrepancy(S, m.chart, s0, s1)
    return _emit(args, H, {"master_equation_holds": H.is_zero()})


def _cmd_transform(args, m: Module) -> int:
    cmap = m.maps.get(args.cmap)
    if cmap is None:
        raise UsageError(f"--map: no map named {args.cmap!r}")
    chosen = [f for f in ("op", "sigma", "bracket") if getattr(args, f)]
    if len(chosen) != 1:
        raise UsageError("transform needs exactly one of --op, --sigma, --bracket")
    if args.op:
        return _emit(args, transform_op(_get_op(m, args.op), cmap))
    if args.sigma:
        s = _get_sigma(m, args.sigma, "--sigma")
        return _emit(args, transform_logvol(s, cmap))
    data = _data_from_flags(m, args)
    return _emit(args, transform_data(data, cmap))


def _cmd_report(args, m: Module) -> int:
    data = _data_from_flags(m, args)
    slots = jacobi_report(data)
    names = ("(S,S)", "(S,gamma)", "(S,theta)+(gamma,gamma)", "(gamma,theta)")
    text = "\n".join(f"{n} = {render(s)}" for n, s in zip(names, slots))
    extra = {"jacobi": all(s.is_zero() for s in slots)}
    return _emit(args, text, extra)


_DISPATCH = {
    "apply": _cmd_apply,
    "bracket": _cmd_bracket,
    "pencil": _cmd_pencil,
    "adjoint": _cmd_adjoint,
    "derived": _cmd_derived,
    "jacobiator": _cmd_jacobiator,
    "classify": _cmd_classify,
    "master": _cmd_master,
    "transform": _cmd_transform,
    "report": _cmd_report,
}


def _diag(message: str):
    if os.environ.get("SUPERDELTA_COLOR") == "1":
        message = f"\x1b[31m{message}\x1b[0m"
    print(message, file=sys.stderr)


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        if args.version:
            print(__version__)
            return 0
        if args.conventions:
            print(CONVENTIONS, end="")
            return 0
        if not args.cmd:
            raise UsageError("a subcommand is required (see --help)")
        return _DISPATCH[args.cmd](args, _load(args.input))
    except UsageError as ex:
        _diag(f"usage error: {ex}")
        return 1
    except DslError as ex:
        _diag(f"error: {ex}")
        return 2
    except DomainError as ex:
        _diag(f"domain error: {ex}")
        return 3


if __name__ == "__main__":
    sys.exit(main())
