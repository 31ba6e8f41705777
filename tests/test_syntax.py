"""Every Python file of the project parses as Python 3.10, the oldest version
pyproject.toml admits (requires-python >= 3.10).

This checks syntax only: ast.parse with feature_version=(3, 10) refuses
grammar newer than 3.10, such as except* or a type statement.  It does not
catch a call to a library function or a module added after 3.10."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(p for d in ("src", "bench", "scripts", "tests")
               for p in (ROOT / d).rglob("*.py"))


def test_every_source_file_parses_as_python_3_10():
    assert len(FILES) > 20
    for path in FILES:
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))


@pytest.mark.parametrize("text", [
    "try:\n    pass\nexcept* ValueError:\n    pass\n",
    "type X = int\n",
])
def test_newer_grammar_is_refused(text):
    with pytest.raises(SyntaxError):
        ast.parse(text, feature_version=(3, 10))
