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


def _unreferenced_functions(trees, exported):
    """(module, name) of each public module-level function the package never reads.

    A name counts as read where it appears as a name or an attribute in any
    module; a function listed in the package's __all__ is public API.
    """
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return sorted(
        (module, node.name)
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
        and node.name not in read | exported)


def test_dead_helper_rule_flags_only_unread_functions():
    trees = {"a": ast.parse("def f(): pass\ndef g(): pass\ndef _h(): pass\n"
                            "def api(): pass\n"),
             "b": ast.parse("from a import g\nimport a\na.f()\ng()\n")}
    assert _unreferenced_functions(trees, {"api"}) == []
    trees["b"] = ast.parse("from a import g\n")
    assert _unreferenced_functions(trees, {"api"}) == [("a", "f"), ("a", "g")]


def test_no_dead_public_functions():
    import poisson3

    trees = {path.name: ast.parse(path.read_text(), str(path)) for path in SOURCES}
    assert _unreferenced_functions(trees, set(poisson3.__all__)) == []
