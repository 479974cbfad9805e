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


def _unused_imports(tree):
    """(line, name) of each imported name the module never reads.

    A name listed in the module's __all__ counts as read: it is re-exported.
    """
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name != "*" and getattr(node, "module", None) != "__future__":
                    imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in node.targets):
            used.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_unused_import_rule_flags_only_unread_names():
    tree = ast.parse("import os\nimport a.b\nfrom m import x, y as z\n"
                     "__all__ = ['x']\nprint(a)\n")
    assert _unused_imports(tree) == [(1, "os"), (3, "z")]


def test_no_unused_imports():
    found = [
        "%s:%d %s" % (path.name, line, name)
        for path in SOURCES
        for line, name in _unused_imports(ast.parse(path.read_text(), str(path)))
    ]
    assert found == []
