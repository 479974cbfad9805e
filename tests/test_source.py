"""Source-level rules for the package under src/poisson3."""

import ast
import pathlib

SOURCES = sorted(
    (pathlib.Path(__file__).resolve().parent.parent / "src" / "poisson3").rglob("*.py"))


def test_no_assert_statements():
    # python -O strips asserts, so internal invariants raise explicitly
    assert any(path.name == "linalg.py" for path in SOURCES)
    found = [
        "%s:%d" % (path.name, node.lineno)
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
