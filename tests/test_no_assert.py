"""The package holds no ``assert`` statement.

``python -O`` strips assert statements, so a check written as one would
vanish there, and an invariant written as one would make the program
behave differently under ``-O``.  Validation raises instead (the tables of
calls tested with and without ``-O`` in the other test modules).
"""

import ast
import pathlib

PKG = pathlib.Path(__file__).resolve().parent.parent / "src" / "mulam"


def test_the_package_has_no_assert_statement():
    found = []
    for path in sorted(PKG.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert not found, found
