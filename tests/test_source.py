"""Source-level rules for the package under src/poisson3."""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "poisson3").rglob("*.py"))
TESTS = sorted((ROOT / "tests").glob("*.py"))
# everything that may read the package: a method read only here is still live
READERS = SOURCES + TESTS + sorted((ROOT / "demos").glob("*.py")) + sorted(
    (ROOT / "tools").glob("*.py"))


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


def _read_names(trees):
    """Every name the trees read, as a name or as an attribute."""
    read = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return read


def _unreferenced_functions(trees, exported):
    """(module, name) of each public module-level function the modules never read.

    A name counts as read where it appears as a name or an attribute in any
    module; a function listed in `exported` is public API, and pytest calls
    each test_ function by its name.
    """
    read = _read_names(trees.values())
    return sorted(
        (module, node.name)
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith(("_", "test_"))
        and node.name not in read | exported)


def test_dead_helper_rule_flags_only_unread_functions():
    trees = {"a": ast.parse("def f(): pass\ndef g(): pass\ndef _h(): pass\n"
                            "def api(): pass\n"),
             "b": ast.parse("from a import g\nimport a\na.f()\ng()\n")}
    assert _unreferenced_functions(trees, {"api"}) == []
    trees["b"] = ast.parse("from a import g\n")
    assert _unreferenced_functions(trees, {"api"}) == [("a", "f"), ("a", "g")]
    # a test helper counts as read only where a test module reads it
    trees = {"helpers": ast.parse("def used(): pass\ndef unused(): pass\n"),
             "test_c": ast.parse("from helpers import used\ndef test_x():\n    used()\n")}
    assert _unreferenced_functions(trees, set()) == [("helpers", "unused")]


def test_no_dead_public_functions():
    import poisson3

    trees = {path.name: ast.parse(path.read_text(), str(path)) for path in SOURCES}
    assert _unreferenced_functions(trees, set(poisson3.__all__)) == []


def _unread_methods(trees, readers):
    """(module, Class.method) of each public method of a class in `trees`
    that no tree in `readers` reads, as a name or as an attribute.

    A property counts as a method; a _-prefixed or dunder method is left out.
    """
    read = _read_names(readers)
    return sorted(
        (module, "%s.%s" % (top.name, node.name))
        for module, tree in trees.items()
        for top in tree.body if isinstance(top, ast.ClassDef)
        for node in top.body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
        and node.name not in read)


def test_dead_method_rule_flags_only_unread_methods():
    trees = {"a": ast.parse("class C:\n    def used(self): pass\n    def unused(self): pass\n"
                            "    def _own(self): pass\n    def __len__(self): return 0\n"
                            "    @property\n    def size(self): pass\n"
                            "def unused_too(): pass\n")}
    # a definition is no read of itself
    readers = [trees["a"], ast.parse("import a\nprint(a.C().used())\n")]
    assert _unread_methods(trees, readers) == [("a", "C.size"), ("a", "C.unused")]
    readers.append(ast.parse("def f(c):\n    return c.size\n"))
    assert _unread_methods(trees, readers) == [("a", "C.unused")]


def test_no_dead_public_methods():
    # a method read only by a test, a demo or a tool (`CohomologyTable.totals`,
    # `StructureConstants.bracket`) is still read
    trees = {path.name: ast.parse(path.read_text(), str(path)) for path in SOURCES}
    assert any(isinstance(top, ast.ClassDef) for tree in trees.values() for top in tree.body)
    readers = [ast.parse(path.read_text(), str(path)) for path in READERS]
    assert _unread_methods(trees, readers) == []


def test_no_dead_test_helpers():
    assert any(path.name == "helpers.py" for path in TESTS)
    trees = {path.name: ast.parse(path.read_text(), str(path)) for path in TESTS}
    assert _unreferenced_functions(trees, set()) == []


def _private_imports(tree, package="poisson3"):
    """(line, name) of each _-prefixed name taken from another package module.

    That is a name imported from a package module (relative or absolute), or
    an attribute read off a package module the tree imported whole.
    """
    found, modules = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == package):
            for alias in node.names:
                if alias.name.startswith("_"):
                    found.append((node.lineno, alias.name))
                elif node.module is None or node.module == package:
                    modules.add(alias.asname or alias.name)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr.startswith("_")
                and isinstance(node.value, ast.Name) and node.value.id in modules):
            found.append((node.lineno, node.attr))
    return sorted(found)


def test_private_import_rule_flags_only_foreign_private_names():
    tree = ast.parse("from .a import _x, y\nfrom poisson3.b import _z as w\n"
                     "from os import _exit\nfrom . import c\nfrom poisson3 import d\n"
                     "c._p(); c.q(); d._r; y._s; self._t\n")
    assert _private_imports(tree) == [(1, "_x"), (2, "_z"), (6, "_p"), (6, "_r")]


def test_no_private_imports():
    # only multivector knows the wedge-sign convention (_TO_SUBSET and its kin)
    found = [
        "%s:%d %s" % (path.name, line, name)
        for path in SOURCES
        for line, name in _private_imports(ast.parse(path.read_text(), str(path)))
    ]
    assert found == []


def _scopes(tree):
    """(scope, node) for each top-level statement of a module, and for each
    statement in a class body: a definition's name, Class.method for a
    method, Class for the class's other statements, None for the module's."""
    for top in tree.body:
        if isinstance(top, ast.ClassDef):
            for node in top.body:
                yield (top.name + "." + node.name if isinstance(node, ast.FunctionDef)
                       else top.name), node
        else:
            yield getattr(top, "name", None), top


def _callers(trees, name):
    """(module, scope) of each call of `name`, bare or as an attribute, with
    the scope `_scopes` gives the statement that holds the call."""
    return sorted(
        (module, scope)
        for module, tree in trees.items()
        for scope, top in _scopes(tree)
        for node in ast.walk(top)
        if isinstance(node, ast.Call) and name in (getattr(node.func, "id", None),
                                                   getattr(node.func, "attr", None)))


def test_single_caller_rule_flags_a_second_caller():
    trees = {"a": ast.parse("def _f(): pass\ndef g():\n    return _f()\n"),
             "b": ast.parse("import a\nh = a._f\n")}
    assert _callers(trees, "_f") == [("a", "g")]
    trees["b"] = ast.parse("import a\nclass C:\n    x = a._f()\n    def m(self):\n"
                           "        a._f()\n")
    assert _callers(trees, "_f") == [("a", "g"), ("b", "C"), ("b", "C.m")]


def test_each_layout_and_the_mod_p_pass_have_their_named_callers():
    # `lay_out` is the one writer of the row layout of a list of columns, for
    # a cell that holds one and for `kernel_and_image`; a cell read off a
    # stencil writes the same layout itself.  Only the degree loop runs the
    # mod-p pass, and only an OperatorCell walks its stencil's columns
    trees = {path.name: ast.parse(path.read_text(), str(path)) for path in SOURCES}
    assert _callers(trees, "lay_out") == [("complexes.py", "OperatorCell.rows"),
                                          ("linalg.py", "kernel_and_image")]
    assert _callers(trees, "independent_columns_mod_p") == [("cohomology.py", "_degree_cells")]
    built = _callers(trees, "_built")
    assert built and {(module, scope.split(".")[0]) for module, scope in built} == {
        ("complexes.py", "OperatorCell")}
