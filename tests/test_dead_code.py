"""No dead private helpers: every private top-level function and class of
the engine is referenced in src/ outside its own definition."""

import ast
from collections import Counter
from pathlib import Path

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
