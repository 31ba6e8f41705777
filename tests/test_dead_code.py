"""No dead private helpers: every private top-level function and class of
the engine is referenced in src/ outside its own definition."""

import ast
import importlib.util
import re
from collections import Counter
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "superdelta"
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _names(node: ast.AST) -> list[str]:
    """Every name read under node, as an identifier or an attribute."""
    return [n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))]


def test_private_helpers_are_referenced():
    trees = {p.name: ast.parse(p.read_text(), str(p)) for p in sorted(SRC.glob("*.py"))}
    uses = Counter(name for tree in trees.values() for name in _names(tree))
    dead = [f"{file}:{d.lineno} {d.name}"
            for file, tree in trees.items() for d in tree.body
            if isinstance(d, DEFS) and d.name.startswith("_")
            and not d.name.startswith("__")
            and uses[d.name] == _names(d).count(d.name)]
    assert dead == []



def _defaulted(d: ast.FunctionDef) -> list[tuple[str, int | None]]:
    """(name, position) of each parameter of d with a default; a
    keyword-only parameter has no position."""
    pos = d.args.posonlyargs + d.args.args
    out = [(a.arg, i) for i, a in enumerate(pos) if i >= len(pos) - len(d.args.defaults)]
    return out + [(a.arg, None) for a, v in zip(d.args.kwonlyargs, d.args.kw_defaults)
                  if v is not None]


def _passes(call: ast.Call, arg: str, i: int | None) -> bool:
    """Whether call passes the parameter arg, at position i (self
    excluded) when it has one; *args and **kwargs pass everything."""
    if any(k.arg in (arg, None) for k in call.keywords):
        return True
    return i is not None and (i < len(call.args)
                              or any(isinstance(a, ast.Starred) for a in call.args))


def test_private_options_are_passed():
    """Every parameter with a default, on a private function or method, is
    passed by position or by keyword in at least one direct call in src/.
    A function that src/ also passes as a value is exempt: its callers are
    not all direct calls."""
    trees = [ast.parse(p.read_text(), str(p)) for p in sorted(SRC.glob("*.py"))]
    calls, callees = {}, set()
    for n in (n for tree in trees for n in ast.walk(tree)):
        if isinstance(n, ast.Call):
            f = n.func
            name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
            calls.setdefault(name, []).append((n, isinstance(f, ast.Attribute)))
            callees.add(id(f))
    as_value = {n.id if isinstance(n, ast.Name) else n.attr for tree in trees
                for n in ast.walk(tree)
                if isinstance(n, (ast.Name, ast.Attribute)) and id(n) not in callees}
    unused = []
    for tree in trees:
        methods = {id(d) for c in ast.walk(tree) if isinstance(c, ast.ClassDef)
                   for d in c.body}
        for d in ast.walk(tree):
            if not isinstance(d, ast.FunctionDef) or not d.name.startswith("_") \
                    or d.name.startswith("__") or d.name in as_value:
                continue
            # a method called as obj.m(...) gets self without a position
            bound = id(d) in methods and not any(
                getattr(x, "id", None) == "staticmethod" for x in d.decorator_list)
            for arg, i in _defaulted(d):
                if not any(_passes(call, arg, None if i is None else i - (bound and attr))
                           for call, attr in calls.get(d.name, [])):
                    unused.append(f"{d.name}({arg}=)")
    assert unused == []


# Modules that own the key layout (even exponents, odd indices) and the one
# reader outside them, the matrix oracle's bridge from keys to its basis.
LAYOUT_OWNERS = ("gralg.py", "diffop.py")
LAYOUT_EXEMPT = ("matrix_of",)


def _is_call(node: ast.AST, name: str) -> bool:
    return isinstance(node, ast.Call) and getattr(node.func, "id", None) == name


def _key_pattern(node: ast.AST) -> str | None:
    """What node does with the key layout, or None: builds the unit key
    (0,) * len(...), takes a key degree sum(...) + len(...), or unpacks a
    key into its even exponents e and odd indices o as a target."""
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult) \
            and isinstance(node.left, ast.Tuple) and _is_call(node.right, "len") \
            and [getattr(x, "value", None) for x in node.left.elts] == [0]:
        return "unit key"
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add) \
            and _is_call(node.left, "sum") and _is_call(node.right, "len"):
        return "key degree"
    targets = (node.targets if isinstance(node, ast.Assign)
               else [node.target] if isinstance(node, (ast.For, ast.comprehension)) else [])
    for t in (s for t in targets for s in ast.walk(t)):
        if isinstance(t, ast.Tuple) and len(t.elts) == 2 \
                and all(isinstance(x, ast.Name) for x in t.elts) \
                and re.fullmatch(r"_|e\d*", t.elts[0].id) and t.elts[1].id.startswith("o"):
            return "key unpacked"
    return None


def test_only_the_kernel_reads_the_key_layout():
    """Outside gralg and diffop no engine code builds or takes apart a key
    inline; it reads keys through gralg's helpers (_unit, _deg, _keys_upto,
    _key_powers), so a change of layout touches the kernel alone."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name in LAYOUT_OWNERS:
            continue
        tree = ast.parse(path.read_text(), str(path))
        exempt = {id(n) for d in ast.walk(tree)
                  if isinstance(d, ast.FunctionDef) and d.name in LAYOUT_EXEMPT
                  for n in ast.walk(d)}
        scopes = {id(n): d.name for d in ast.walk(tree) if isinstance(d, ast.FunctionDef)
                  for n in ast.walk(d)}
        found += [f"{path.name}:{(n.target if isinstance(n, ast.comprehension) else n).lineno}"
                  f" {scopes.get(id(n), '<module>')}: {what}"
                  for n in ast.walk(tree)
                  if id(n) not in exempt and (what := _key_pattern(n))]
    assert found == [], "\n".join(sorted(found))


def _coverage_script():
    path = SRC.parent.parent / "scripts" / "coverage.py"
    spec = importlib.util.spec_from_file_location("coverage_script", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_coverage_allowlist_parses():
    """Every entry of scripts/coverage_allow.txt names an engine file and a
    line of it, and a source line that contains the separator round-trips."""
    script = _coverage_script()
    for file, source in script.parse_allowlist(script.ALLOW.read_text()):
        lines = {line.strip() for line in (SRC / file).read_text().splitlines()}
        assert source in lines, f"{file} | {source}"
    text = "geom.py | x: int | None = a | b | why it may stay unexecuted\n"
    assert script.parse_allowlist(text) == {("geom.py", "x: int | None = a | b")}
    for bad in ("geom.py | no reason", "geom.py |  | no source"):
        with pytest.raises(SystemExit, match=re.escape("is not file | source | reason")):
            script.parse_allowlist(bad)


def _imported(tree: ast.AST) -> set[str]:
    """Every module, and every module attribute, that an import in tree
    names, with a relative import resolved inside the package."""
    out = set()
    for n in ast.walk(tree):
        if isinstance(n, ast.Import):
            out |= {a.name for a in n.names}
        elif isinstance(n, ast.ImportFrom):
            base = ".".join(filter(None, ("superdelta" if n.level else "", n.module)))
            out |= {base} | {f"{base}.{a.name}" for a in n.names}
    return out


def test_no_engine_module_imports_the_oracle():
    """Only tests import superdelta.oracle, the reference definitions the
    engine is checked against: no other module of src/superdelta,
    __init__ included, imports it, absolutely or relatively."""
    for text in ("import superdelta.oracle as o", "from superdelta import oracle",
                 "from superdelta.oracle import x", "from . import oracle",
                 "from .oracle import x"):
        assert "superdelta.oracle" in _imported(ast.parse(text))
    assert "superdelta.oracle" not in _imported(ast.parse("from .geom import oracle_x"))
    found = [p.name for p in sorted(SRC.glob("*.py")) if p.name != "oracle.py"
             and "superdelta.oracle" in _imported(ast.parse(p.read_text(), str(p)))]
    assert found == []


# The one place each chart check lives: gralg._operand checks an operand at a
# public entry, and gralg._Value._check, inline, the operands of arithmetic.
CHART_CHECKS = {("gralg.py", "_operand"), ("gralg.py", "_Value._check")}


def _chart_mismatch_raises(tree: ast.AST) -> list[tuple[str, int]]:
    """(qualified scope, line) of every raise of ChartMismatch in tree."""
    found = []

    def visit(node: ast.AST, scope: str):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, DEFS):
                visit(child, f"{scope}.{child.name}" if scope else child.name)
                continue
            if isinstance(child, ast.Raise) and child.exc is not None:
                exc = child.exc.func if isinstance(child.exc, ast.Call) else child.exc
                if getattr(exc, "id", None) == "ChartMismatch":
                    found.append((scope or "<module>", child.lineno))
            visit(child, scope)

    visit(tree, "")
    return found


def test_one_operand_check():
    """Outside the oracle, ChartMismatch is raised only by gralg._operand
    and gralg._Value._check, and no module names the _polynomial check
    _operand replaced: a public entry checks its operands by one call."""
    sample = ast.parse("class A:\n    def f(self):\n        raise ChartMismatch('m')\n"
                       "def g():\n    raise ChartMismatch\n")
    assert _chart_mismatch_raises(sample) == [("A.f", 3), ("g", 5)]
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "oracle.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        found += [f"{path.name}:{line} {scope}" for scope, line in _chart_mismatch_raises(tree)
                  if (path.name, scope) not in CHART_CHECKS]
        if "_polynomial" in _names(tree) + [d.name for d in ast.walk(tree)
                                            if isinstance(d, DEFS)]:
            found.append(f"{path.name}: _polynomial")
    assert found == [], "\n".join(found)


# The value protocol _Value defines once; DiffOp alone hashes its own way,
# since its coefficients are dicts of W-powers.
PROTOCOL = ("zero", "is_zero", "_lift", "__eq__", "__hash__", "homogeneous_parts")
OWN_HASH = {"DiffOp"}


def _class_names(cls: ast.ClassDef) -> set[str]:
    """The names a class body defines, by def or by assignment."""
    return {n.name for n in cls.body if isinstance(n, DEFS)} | \
        {t.id for n in cls.body if isinstance(n, ast.Assign)
         for t in n.targets if isinstance(t, ast.Name)}


def test_one_value_protocol():
    """_Value defines zero, is_zero, _lift, equality, hashing and
    homogeneous_parts; no value type defines them again, but for DiffOp's
    __hash__."""
    classes = [(path.name, d) for path in sorted(SRC.glob("*.py"))
               for d in ast.walk(ast.parse(path.read_text(), str(path)))
               if isinstance(d, ast.ClassDef)]
    base = [d for name, d in classes if name == "gralg.py" and d.name == "_Value"]
    assert len(base) == 1 and set(PROTOCOL) <= _class_names(base[0])
    values = [(name, d) for name, d in classes
              if any(getattr(b, "id", None) == "_Value" for b in d.bases)]
    assert sorted(d.name for _, d in values) == ["DensityElement", "DiffOp", "GradedPoly"]
    found = [f"{name}:{d.lineno} {d.name}.{m}" for name, d in values
             for m in sorted(_class_names(d) & set(PROTOCOL))
             if not (m == "__hash__" and d.name in OWN_HASH)]
    assert found == [], "\n".join(found)


# The one place the zeros a sum leaves are dropped, the rule that keeps the
# kernel contract for every summed term map.
ZERO_RULE = ("gralg.py", "_nonzero")


def _zero_filters(tree: ast.AST) -> list[tuple[str, int]]:
    """(enclosing function, line) of every {k: v for k, v in x.items() if v}
    in tree: one generator over an .items() call, a pair of names as its
    target and the value name as its only condition."""
    scopes = {id(n): d.name for d in ast.walk(tree) if isinstance(d, ast.FunctionDef)
              for n in ast.walk(d)}
    found = []
    for n in ast.walk(tree):
        if not isinstance(n, ast.DictComp) or len(n.generators) != 1:
            continue
        g = n.generators[0]
        if isinstance(g.iter, ast.Call) and getattr(g.iter.func, "attr", None) == "items" \
                and not g.iter.args and isinstance(g.target, ast.Tuple) \
                and len(g.target.elts) == 2 \
                and all(isinstance(x, ast.Name) for x in g.target.elts) \
                and [getattr(c, "id", None) for c in g.ifs] == [g.target.elts[1].id]:
            found.append((scopes.get(id(n), "<module>"), n.lineno))
    return found


def test_one_zero_rule():
    """gralg._nonzero alone drops the zero coefficients of a summed term
    map: no other code filters a term map by its values inline, and no
    other module defines a _nonzero of its own."""
    sample = ast.parse("def f(t):\n    return {m: c for m, c in t.items() if c}\n"
                       "def g(t):\n    return {w: p for w, p in t.items() if p.terms}\n"
                       "h = {k: v for k, v in t.items() if v}\n")
    assert sorted(_zero_filters(sample)) == [("<module>", 5), ("f", 2)]
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        found += [f"{path.name}:{line} {scope}" for scope, line in _zero_filters(tree)
                  if (path.name, scope) != ZERO_RULE]
        found += [f"{path.name}:{d.lineno} defines _nonzero" for d in ast.walk(tree)
                  if isinstance(d, DEFS) and d.name == "_nonzero" and path.name != ZERO_RULE[0]]
    assert found == [], "\n".join(found)


# The caches of the engine, each keyed on keys, charts or nothing: the key of
# a product of names, the bounded Leibniz table, the bounded bracket table of
# monomials (keys and ints), the command-line parser and the matrix oracle's
# Grassmann tables.  None holds a polynomial, an operator or module text, so
# nothing outlives the op or the load that made it.
KEY_LEVEL_CACHES = {("gralg.py", "_key"), ("diffop.py", "_leibniz"),
                    ("brackets.py", "_products"),
                    ("cli.py", "_build_parser"), ("brackets.py", "_grassmann_basis"),
                    ("brackets.py", "_sign_table"), ("brackets.py", "_derivative_table")}
CACHES = ("cache", "lru_cache", "cached_property")


def _caches(tree: ast.AST) -> list[tuple[str, int]]:
    """(decorated function, line) of every use of a functools cache in
    tree: "<not a decorator>" for a use that decorates no function, and
    "<import>" for a cache imported by name, which hides its later uses."""
    decorated = {id(dec.func if isinstance(dec, ast.Call) else dec): d.name
                 for d in ast.walk(tree) if isinstance(d, (ast.FunctionDef, ast.AsyncFunctionDef))
                 for dec in d.decorator_list}
    found = []
    for n in ast.walk(tree):
        if isinstance(n, ast.ImportFrom) and n.module == "functools":
            found += [("<import>", n.lineno) for a in n.names if a.name in CACHES]
        elif isinstance(n, ast.Attribute) and n.attr in CACHES \
                and getattr(n.value, "id", None) == "functools":
            found.append((decorated.get(id(n), "<not a decorator>"), n.lineno))
    return found


def test_caches_are_key_level():
    """functools caches decorate only the key-level functions named in
    KEY_LEVEL_CACHES: a cache keyed on polynomials, operators or module
    text, or one used other than as a decorator, fails here."""
    sample = ast.parse("import functools\n@functools.lru_cache(maxsize=8)\ndef f(k):\n"
                       "    pass\n@functools.cache\ndef g():\n    pass\n"
                       "h = functools.cache(len)\nfrom functools import cache, reduce\n")
    assert sorted(_caches(sample)) == [("<import>", 9), ("<not a decorator>", 8),
                                       ("f", 2), ("g", 5)]
    found = [(path.name, name) for path in sorted(SRC.glob("*.py"))
             for name, _ in _caches(ast.parse(path.read_text(), str(path)))]
    assert sorted(found) == sorted(KEY_LEVEL_CACHES)


# The exact rational kernel: gralg's helpers alone touch a Fraction's slots,
# and the oracles (oracle.py, and the matrix oracle of brackets.py) compute
# with Python's own Fraction operators, so every oracle comparison checks
# the helpers against them.
RATIONAL_KERNEL = ("_q", "_qmul", "_qadd", "_qneg")
FRACTION_SLOTS = ("_numerator", "_denominator")
MATRIX_ORACLE = ("_grassmann_basis", "GrassmannMatrix", "_mat_mul", "_mat_sub", "_mat_bracket",
                 "_sign_table", "_derivative_table", "matrix_of", "matrix_oracle_instance")


def _rational_kernel_uses(tree: ast.AST, helpers: list, oracles: list) -> list[tuple[int, str]]:
    """(line, name) of every Fraction slot named in tree outside the nodes
    ``helpers``, and of every helper named inside the nodes ``oracles``."""
    exempt = {id(n) for d in helpers for n in ast.walk(d)}
    inside = {id(n) for d in oracles for n in ast.walk(d)}
    return [(n.lineno, name) for n in ast.walk(tree) if isinstance(n, (ast.Name, ast.Attribute))
            and ((name := n.id if isinstance(n, ast.Name) else n.attr) in FRACTION_SLOTS
                 and id(n) not in exempt or name in RATIONAL_KERNEL and id(n) in inside)]


def test_only_the_rational_kernel_builds_fractions():
    """Only gralg's _q, _qmul, _qadd and _qneg name _numerator or
    _denominator, and neither oracle.py nor the matrix oracle calls them."""
    sample = ast.parse("def _q(n, d):\n    c._numerator = n\n"
                       "def f(c):\n    return c._denominator\n"
                       "def g(a):\n    return _qneg(a)\n")
    q, _, g = sample.body
    assert _rational_kernel_uses(sample, [q], [g]) == [(4, "_denominator"), (6, "_qneg")]
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        defs = {d.name: d for d in tree.body if isinstance(d, DEFS)}
        if path.name == "brackets.py":
            assert set(MATRIX_ORACLE) <= set(defs)  # a renamed oracle must not leave the guard
        helpers = [defs[n] for n in RATIONAL_KERNEL] if path.name == "gralg.py" else []
        oracles = [tree] if path.name == "oracle.py" else \
            [defs[n] for n in MATRIX_ORACLE if n in defs]
        found += [f"{path.name}:{line} {name}"
                  for line, name in _rational_kernel_uses(tree, helpers, oracles)]
    assert found == [], "\n".join(found)
