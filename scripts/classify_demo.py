#!/usr/bin/env python3
"""Classify odd second-order operators by the order of their square and
certify the resulting homotopy-Jacobi level of the derived brackets.

Usage: python3 scripts/classify_demo.py [--n-max N]
"""

import argparse
import textwrap

from superdelta import Chart, DiffOp, GradedPoly, compose
from superdelta.brackets import higher_bracket, jacobiator, linfty_check
from superdelta.dsl import render

chart = Chart(("x",), ("xi",))
x = GradedPoly.var(chart, "x")
xi = GradedPoly.var(chart, "xi")
dx = DiffOp.deriv(chart, "x")
dxi = DiffOp.deriv(chart, "xi")

EXAMPLES = [
    ("flat Laplacian d(x)d(xi)", compose(dx, dxi)),
    ("d(xi) + xi (unit square)", dxi + DiffOp.mult(xi)),
    ("d(xi) + x*xi*d(x) (first-order square)",
     dxi + compose(DiffOp.mult(xi * x), dx)),
    ("d(xi) + xi*d(x)^2 (second-order square)",
     dxi + compose(DiffOp.mult(xi), compose(dx, dx))),
]


def report_text(rep) -> str:
    """The lines of a linfty_check report: the order of Delta^2, each
    Jacobiator proved to vanish, the witness if there is one, the verdict."""
    r = "-inf" if rep.square_order is None else str(rep.square_order)
    lines = [f"ord(Delta^2) = {r}"]
    lines += [f"  J^{n} = 0: proved" for n in sorted(rep.checked)]
    if rep.witness is not None:
        n, args = rep.witness
        lines.append(f"  witness: J^{n} != 0 at ({', '.join(render(a) for a in args)})")
    lines.append(f"  certified: {rep.certified}")
    return "\n".join(lines)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n-max", type=int, default=4,
                    help="highest bracket arity to certify (default 4)")
    args = ap.parse_args()

    for title, D in EXAMPLES:
        print(f"== {title}")
        print(f"   Delta   = {render(D)}")
        print(f"   Delta^2 = {render(compose(D, D))}")
        rep = linfty_check(D, n_max=args.n_max)
        print(textwrap.indent(report_text(rep), "   "))
        if rep.witness is not None:
            n, witness = rep.witness
            print(f"   witness: J^{n}({', '.join(render(a) for a in witness)})"
                  f" = {render(jacobiator(D, list(witness)))}")
        print(f"   binary bracket {{x, xi}} = "
              f"{render(higher_bracket(D, [x, xi]))}")
        print()


if __name__ == "__main__":
    main()
