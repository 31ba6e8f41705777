"""Span tracing of the engine from outside, at its module boundaries.

``Tracer.install()`` wraps each public function listed in ``TARGETS``.
Engine modules bind each other's functions by name (``from .diffop import
compose``), so the wrapper replaces the function on *every* attribute of a
loaded ``superdelta`` module that names it, and on the class for methods;
otherwise nested calls would vanish.

While ``Tracer.active`` is true each wrapped call records a span -- name,
start, end, parent span and op id -- in compact arrays, and updates the
per-name aggregates: calls, self time and the work counts computed from
arguments and result.  A span's self time is its duration minus the time
its children cover, where a child covers its whole wrapper, bookkeeping
included: the tracer's own work is charged to no layer, and shows only in
the tracing overhead.

``GradedPoly.__mul__`` also scales by a number; those calls are reported
as ``gralg.scale``, so that ``gralg.mul`` counts only products of two
polynomials.
"""

from __future__ import annotations

import array
import functools
import gzip
import sys
import time
from collections import defaultdict

from superdelta import brackets, cli, diffop, dsl, geom, gralg
from superdelta.diffop import DiffOp
from superdelta.gralg import GradedPoly

GEOM_FUNCS = ("canonical_pencil", "extract_vbracket", "pencil_bracket",
              "act_on_w_densities", "master_discrepancy", "transform_op",
              "transform_data", "jacobi_report", "classify_square")
SUBCOMMANDS = ("apply", "bracket", "pencil", "adjoint", "derived",
               "jacobiator", "classify", "master", "transform", "report")

# span name -> (owner, attribute); the owner is a module or a class
TARGETS = {
    "gralg.mul": (GradedPoly, "__mul__"),
    "gralg.partial": (gralg, "partial"),
    "gralg.substitute": (gralg, "substitute"),
    "diffop.compose": (diffop, "compose"),
    "diffop.commutator": (diffop, "commutator"),
    "diffop.apply": (DiffOp, "apply"),
    "diffop.formal_adjoint": (diffop, "formal_adjoint"),
    "diffop.conjugate_by_exp": (diffop, "conjugate_by_exp"),
    "diffop.op_from_action": (diffop, "op_from_action"),
    **{f"geom.{f}": (geom, f) for f in GEOM_FUNCS},
    "brackets.higher_bracket": (brackets, "higher_bracket"),
    "brackets.jacobiator": (brackets, "jacobiator"),
    "brackets.linfty_check": (brackets, "linfty_check"),
    # the Grassmann-matrix oracle, reported as one layer
    "brackets.matrix_of": (brackets, "matrix_of"),
    "brackets.jacobiator_abstract": (brackets, "jacobiator_abstract"),
    "dsl.load_module": (dsl, "load_module"),
    "dsl.parse_element": (dsl, "parse_element"),
    "dsl.render": (dsl, "render"),
    "cli.main": (cli, "main"),
}
ORACLE_SPANS = ("brackets.matrix_of", "brackets.jacobiator_abstract")
# GradedPoly.__mul__ by a number: its own span name, not a target
SCALE = "gralg.scale"


def op_terms(D) -> int:
    """Size of an operator: its (derivative, W-power, monomial) terms."""
    return sum(len(p.terms) for wp in D.terms.values() for p in wp.values())


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.active = False
        self.op_id = -1
        self.clock = clock
        self._saved = []  # (owner, attribute, original)
        self._names = [*TARGETS, SCALE]
        self.span_name = array.array("i")
        self.span_parent = array.array("i")
        self.span_op = array.array("i")
        self.span_start = array.array("d")
        self.span_end = array.array("d")
        self._stack = []  # frames: [span id, time in children, compose terms]
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.peaks = defaultdict(int)
        self._linfty_depth = 0

    # -- installation ------------------------------------------------------

    def install(self):
        mods = [m for name, m in list(sys.modules.items())
                if name.split(".")[0] == "superdelta"]
        for name, (owner, attr) in TARGETS.items():
            orig = owner.__dict__[attr]
            wrapped = self._wrap(name, orig)
            for place in [owner] if isinstance(owner, type) else mods:
                for key, val in list(vars(place).items()):
                    if val is orig:
                        self._saved.append((place, key, orig))
                        setattr(place, key, wrapped)
        return self

    def uninstall(self):
        for place, key, orig in reversed(self._saved):
            setattr(place, key, orig)
        self._saved.clear()

    def _wrap(self, name, fn):
        own = (name, self._names.index(name))
        scale = (SCALE, self._names.index(SCALE)) if name == "gralg.mul" else None
        clock = self.clock
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            entered = clock()
            span, idx = (scale if scale and not isinstance(args[1], GradedPoly)
                         else own)
            stack = tracer._stack
            sid = len(tracer.span_name)
            tracer.span_name.append(idx)
            tracer.span_parent.append(stack[-1][0] if stack else -1)
            tracer.span_op.append(tracer.op_id)
            tracer.span_start.append(0.0)
            tracer.span_end.append(0.0)
            frame = [sid, 0.0, 0]
            stack.append(frame)
            if span == "brackets.linfty_check":
                tracer._linfty_depth += 1
            returned = False
            start = clock()
            try:
                result = fn(*args, **kwargs)
                returned = True
            finally:
                end = clock()
                stack.pop()
                if span == "brackets.linfty_check":
                    tracer._linfty_depth -= 1
                tracer.span_start[sid] = start
                tracer.span_end[sid] = end
                tracer.calls[span] += 1
                tracer.self_s[span] += end - start - frame[1]
                if returned:
                    tracer._account(span, args, result, frame[2])
                if stack:  # the parent's child time covers this whole wrapper
                    stack[-1][1] += clock() - entered
            return result

        return wrapper

    def _account(self, name, args, result, child_compose_terms):
        """Work counts of one finished call, from its arguments and result."""
        c = self.counts
        if isinstance(result, GradedPoly) and name.startswith("gralg."):
            if name == "gralg.mul":
                a, b = args
                c["gralg.mul.term_pairs"] += len(a.terms) * len(b.terms)
                c["gralg.mul.out_terms"] += len(result.terms)
            self.peaks["gralg.peak_terms"] = max(
                self.peaks["gralg.peak_terms"], len(result.terms))
        elif isinstance(result, DiffOp) and name.startswith("diffop."):
            n = op_terms(result)
            self.peaks["diffop.peak_terms"] = max(
                self.peaks["diffop.peak_terms"], n)
            if name == "diffop.compose":
                c["diffop.compose.term_pairs"] += op_terms(args[0]) * op_terms(args[1])
                if self._stack:
                    self._stack[-1][2] += n
            elif name == "diffop.commutator":
                c["diffop.commutator.out_terms"] += n
                c["diffop.commutator.compose_terms"] += child_compose_terms
        elif name == "brackets.jacobiator" and self._linfty_depth:
            c["brackets.linfty_check.jacobiators"] += 1

    # -- results -----------------------------------------------------------

    def layer_metrics(self, passes: int) -> dict:
        """Per-layer metrics per pass over the workload's op schedule:
        name -> (value, unit).  Counts of a deterministic schedule divide
        exactly by the number of passes."""
        def per_pass(v):
            q = v / passes
            return int(q) if v % passes == 0 else q

        def ratio(num, den):
            return num / den if den else 0.0

        out = {}
        for name in self._names:
            if name in ORACLE_SPANS:
                continue
            out[f"{name}.calls"] = (per_pass(self.calls[name]), "count")
            out[f"{name}.self_s"] = (self.self_s[name] / passes, "s")
        out["brackets.matrix_oracle.self_s"] = (
            sum(self.self_s[n] for n in ORACLE_SPANS) / passes, "s")
        c = self.counts
        out["gralg.mul.term_pairs"] = (per_pass(c["gralg.mul.term_pairs"]), "count")
        out["gralg.mul.useful_ratio"] = (
            ratio(c["gralg.mul.out_terms"], c["gralg.mul.term_pairs"]), "ratio")
        out["diffop.compose.term_pairs"] = (
            per_pass(c["diffop.compose.term_pairs"]), "count")
        out["diffop.commutator.useful_ratio"] = (
            ratio(c["diffop.commutator.out_terms"],
                  c["diffop.commutator.compose_terms"]), "ratio")
        out["brackets.linfty_check.jacobiators"] = (
            ratio(c["brackets.linfty_check.jacobiators"],
                  self.calls["brackets.linfty_check"]), "count")
        for key in ("gralg.peak_terms", "diffop.peak_terms"):
            out[key] = (self.peaks[key], "count")
        return out

    def write_spans(self, path):
        """Write every recorded span as one tab-separated line, gzipped:
        span id, name, parent span id (-1 for a root), op id, start, end."""
        names = self._names
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("span\tname\tparent\top\tstart_s\tend_s\n")
            for sid in range(len(self.span_name)):
                fh.write(f"{sid}\t{names[self.span_name[sid]]}\t"
                         f"{self.span_parent[sid]}\t{self.span_op[sid]}\t"
                         f"{self.span_start[sid]:.9f}\t{self.span_end[sid]:.9f}\n")
