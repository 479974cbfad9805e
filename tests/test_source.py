"""Source-level rules for the package under src/poisson3."""

import ast
import pathlib
import re

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


def _read_attributes(trees):
    """Every name the trees read as an attribute, or by a literal getattr."""
    read = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "getattr"
                  and len(node.args) > 1 and isinstance(node.args[1], ast.Constant)):
                read.add(node.args[1].value)
    return read


def _read_names(trees):
    """Every name the trees read as an attribute (`_read_attributes`), or as
    a bare name in a tree that defines it at top level or imports it by name:
    a local variable elsewhere is no read of a function of that name."""
    read = _read_attributes(trees)
    for tree in trees:
        own = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
        own.update(alias.asname or alias.name for node in ast.walk(tree)
                   if isinstance(node, ast.ImportFrom) for alias in node.names)
        read.update(node.id for node in ast.walk(tree)
                    if isinstance(node, ast.Name) and node.id in own)
    return read


def _unreferenced_functions(trees, exported):
    """(module, name) of each public module-level function the modules never read.

    A name counts as read where any module reads it (`_read_names`); a
    function listed in `exported` is public API, and pytest calls each
    test_ function by its name.
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
    # a variable of the same name in a module that does not import it is no read
    trees["test_d"] = ast.parse("def test_y():\n    unused = 1\n    return unused\n")
    assert _unreferenced_functions(trees, set()) == [("helpers", "unused")]
    trees["test_d"] = ast.parse("import helpers\nf = getattr(helpers, 'unused')\n")
    assert _unreferenced_functions(trees, set()) == []


def test_no_dead_public_functions():
    import poisson3

    trees = {path.name: ast.parse(path.read_text(), str(path)) for path in SOURCES}
    assert _unreferenced_functions(trees, set(poisson3.__all__)) == []


def _unread_methods(trees, readers):
    """(module, Class.method) of each public method of a class in `trees`
    that no tree in `readers` reads as an attribute or by a literal getattr
    (`_read_attributes`): a bare name of the same name is no read.

    A property counts as a method; a _-prefixed or dunder method is left out.
    """
    read = _read_attributes(readers)
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
    # a variable or a function named like the method is no read of it
    readers.append(ast.parse("def unused(): pass\nunused = 2\nprint(unused)\n"))
    assert _unread_methods(trees, readers) == [("a", "C.unused")]
    readers.append(ast.parse("def g(c):\n    return getattr(c, 'unused')()\n"))
    assert _unread_methods(trees, readers) == []


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


def _defined(tree):
    """Every name a tree defines: a function or class, or an assignment target."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for target in targets for t in ast.walk(target)
                         if isinstance(t, ast.Name))
    return names


def _imported_roots(tree):
    """The top-level package of each absolute import in a tree."""
    return {name.split(".")[0] for node in ast.walk(tree) for name in (
        [alias.name for alias in node.names] if isinstance(node, ast.Import)
        else [node.module] if isinstance(node, ast.ImportFrom) and not node.level else [])}


def test_definition_and_import_rules_flag_only_their_names():
    tree = ast.parse("import a.b, c\nfrom d.e import f\nfrom . import g\nh = i = 1\n"
                     "(j, k) = 2\nl: int = 3\ndef m():\n    n = 4\nclass O:\n    pass\n")
    assert _imported_roots(tree) == {"a", "c", "d"}
    assert _defined(tree) == {"h", "i", "j", "k", "l", "m", "n", "O"}


def test_reference_implementations_stay_out_of_the_package():
    # the oracles the engine is checked against, and the schema the JSON
    # tables are validated with, live with the tests: no verb runs them, and
    # the package imports neither the tests nor a test-only dependency
    sources = [ast.parse(path.read_text(), str(path)) for path in SOURCES]
    tests = [ast.parse(path.read_text(), str(path)) for path in TESTS]
    references = {"closed_form_differential", "lie_bracket", "invariant_basis", "hs_dimensions",
                  "TABLE_SCHEMA"}
    assert references <= set().union(*map(_defined, tests))
    assert references & set().union(*map(_defined, sources)) == set()
    forbidden = {"jsonschema", "tests"} | {path.stem for path in TESTS}
    assert forbidden & set().union(*map(_imported_roots, sources)) == set()


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
    # a cell that holds one and for `solve_combination`; a cell read off a
    # stencil writes the same layout itself.  Only the degree loop runs the
    # mod-p pass, and only the pass reads leads.  A column is built alone
    # only where the pass's lead collides and where it reduces against a
    # pivot for the first time, by its position, and where the degree loop
    # reads the columns a certified cell kept.
    # `OperatorCell.apply` is the one writer of a cell applied to a vector,
    # with no column built: the restriction builder applies d_q to each
    # basis vector, and `OperatorCell.kills` runs a closedness test, the
    # degree loop's check of d_0 reduced on its pivot rows included.
    # `OperatorCell.column` is the one writer of a stencil column, and
    # `columns` builds each through it: no block walk writes a second one
    trees = {path.name: ast.parse(path.read_text(), str(path)) for path in SOURCES}
    assert _callers(trees, "lay_out") == [("complexes.py", "OperatorCell.rows"),
                                          ("linalg.py", "solve_combination")]
    assert _callers(trees, "independent_columns_mod_p") == [("cohomology.py", "_degree_cells")]
    assert _callers(trees, "leads") == [("linalg.py", "independent_columns_mod_p")]
    assert _callers(trees, "column") == [("cohomology.py", "_degree_cells"),
                                         ("complexes.py", "OperatorCell.columns"),
                                         ("linalg.py", "independent_columns_mod_p"),
                                         ("linalg.py", "independent_columns_mod_p")]
    assert _callers(trees, "column_of") == []
    assert _callers(trees, "apply") == [("cohomology.py", "_restricted_differentials"),
                                        ("complexes.py", "OperatorCell.kills")]
    assert not [(module, node.name) for module, tree in trees.items() for node in ast.walk(tree)
                if isinstance(node, ast.FunctionDef)
                and node.name in ("_column", "_built", "columns_at")]


def test_one_stencil_cache():
    # `holding_stencils` is the one stencil cache: every engine read of a
    # stencil goes through the hold's reader, so no second memo and no read
    # that bypasses a hold can creep in
    trees = {path.name: ast.parse(path.read_text(), str(path)) for path in SOURCES}
    assert _callers(trees, "linear_stencil") == [("complexes.py", "_read_stencil"),
                                                 ("complexes.py", "_read_stencil")]


def test_one_reduction_loop_and_one_writer_of_basis_positions():
    # `rref` is the one exact reduction, the one insertion into a forward
    # table: span and membership questions read the rows that land in it,
    # and no other function eliminates against a pivot row.  A
    # basis position is written by `GradedBasis.position`;
    # beside the stencil walks of `complexes`, which inline its formula, its
    # callers are the decomposition and the closed forms that place a
    # field's or a family's entries
    trees = {path.name: ast.parse(path.read_text(), str(path)) for path in SOURCES}
    assert _callers(trees, "_eliminate") == [("linalg.py", "rref")]
    # no second entry point to the insertion is left
    assert not [(module, node.name) for module, tree in trees.items() for node in ast.walk(tree)
                if isinstance(node, ast.FunctionDef)
                and node.name in ("echelon", "kernel_and_image")]
    assert _callers(trees, "position") == [
        ("cohomology.py", "_fields"), ("cohomology.py", "_fields"),
        ("cohomology.py", "_weight_zero"), ("complexes.py", "GradedBasis.decompose"),
        ("complexes.py", "new_invariant_vectors")]


def test_one_joiner_writes_every_term():
    # `_join_terms` writes each term's text inline, and only the two
    # formatters feed it: no per-term renderer, no other code that writes a
    # coordinate's power, and a position is decoded by `GradedBasis.element`,
    # with no copy of its formula (isqrt, divmod) in `expressions`
    trees = {path.name: ast.parse(path.read_text(), str(path)) for path in SOURCES}
    assert _callers(trees, "_join_terms") == [("expressions.py", "format_coordinates"),
                                              ("expressions.py", "format_multivector")]
    defined = {node.name for tree in trees.values() for node in ast.walk(tree)
               if isinstance(node, ast.FunctionDef)}
    assert "_join_terms" in defined and "_render_term" not in defined
    powers = sorted((module, scope) for module, tree in trees.items()
                    for scope, top in _scopes(tree) for node in ast.walk(top)
                    if isinstance(node, ast.Constant) and isinstance(node.value, str)
                    and re.search(r"[xyz]\^%d", node.value))
    assert powers == [("expressions.py", "_join_terms")] * 3
    expressions = {"expressions.py": trees["expressions.py"]}
    assert _reads(expressions, "isqrt") == _callers(expressions, "divmod") == []
    assert _callers(expressions, "element") == [("expressions.py", "format_coordinates")]


def test_only_the_invariant_table_and_family_read_new_invariant_vectors():
    # one closed form gives the vectors new at a degree, and no package code
    # calls it: the invariant table and cell hand it to the restriction
    # builder (`_complex`); so does the one choice function, `_family`, where
    # X_z is a rotation block, and only it picks a full complex's subcomplex
    # off the fields' matrices.  `_complex` reads them too, for what it does
    # with the whole complex: the axes whose sigma_k it leaves out (`_axes`)
    # and X_z, fields[2], for its carry
    trees = {path.name: ast.parse(path.read_text(), str(path)) for path in SOURCES}
    assert _callers(trees, "new_invariant_vectors") == []
    assert _reads(trees, "new_invariant_vectors") == [("cohomology.py", "_complex"),
                                                      ("cohomology.py", "_family")]
    assert _callers(trees, "_restricted_differentials") == [("cohomology.py", "_complex")]
    for name in ("_weights", "_weight_zero"):
        assert _callers(trees, name) == [("cohomology.py", "_family")], name
    assert _callers(trees, "_fields") == [("cohomology.py", "_complex")]
    assert _callers(trees, "_family") == [("cohomology.py", "_complex")]


def test_one_builder_restricts_to_every_subcomplex():
    # one restriction path: a table and a single cell of the invariant
    # subcomplex or of a weighted bivector's full complex, and the table
    # `verify` reads, all run `_restricted_differentials` over the degrees
    # up to theirs, through `_complex`, and only it wraps restricted columns
    # in a cell
    trees = {path.name: ast.parse(path.read_text(), str(path)) for path in SOURCES}
    assert _callers(trees, "_complex") == [
        ("cohomology.py", "_single_cell"), ("cohomology.py", "_table")]
    assert _callers(trees, "_table") == [
        ("cohomology.py", "class_table"), ("cohomology.py", "cohomology_table")]
    assert _callers(trees, "class_table") == [("verification.py", "verify")]
    assert {scope for module, scope in _callers(trees, "OperatorCell")
            if module == "cohomology.py"} == {"_restricted_differentials"}


def test_the_degree_loop_builds_no_cell():
    # `_degree_cells` reduces the four cells it is handed; the builders of a
    # complex (`_differentials`, `_restricted_differentials`) make them
    trees = {path.name: ast.parse(path.read_text(), str(path)) for path in SOURCES}
    callers = {name: _callers(trees, name) for name in (
        "differential_matrix", "new_invariant_vectors",
        "linear_operator_matrix", "OperatorCell")}
    assert ("cohomology.py", "_restricted_differentials") in callers["OperatorCell"]
    assert [name for name, found in callers.items()
            if ("cohomology.py", "_degree_cells") in found] == []


def test_one_exact_reduction_per_differential():
    # the degree loop reduces each differential at one site: d_0 reduced on
    # its pass's pivot rows is checked, and a failed check raises, with no
    # second reduction on every row
    trees = {path.name: ast.parse(path.read_text(), str(path)) for path in SOURCES}
    assert _callers(trees, "kernel_and_image_of_rows") == [("cohomology.py", "_degree_cells"),
                                                           ("linalg.py", "solve_combination")]
    assert ("cohomology.py", "_degree_cells") in _callers(trees, "kills")


def test_one_read_off_of_the_kernel_and_no_back_substitution():
    # every exact reduction is an `rref`, so the benchmark's `linalg.rref`
    # counters see each of them: the read-off of a kernel, and the readers
    # of pivots or landed rows alone, call it straight.  Only `rref`
    # eliminates, and a row or a vector is made primitive only where it
    # lands there, where the read-off ends a kernel vector's back-solve,
    # and by `integer_normalize`: no second read-off and no
    # back-substitution of the forward rows
    trees = {path.name: ast.parse(path.read_text(), str(path)) for path in SOURCES}
    assert _callers(trees, "rref") == [("cohomology.py", "_degree_cells"),
                                       ("linalg.py", "kernel_and_image_of_rows"),
                                       ("verification.py", "_check_generators")]
    assert _callers(trees, "_eliminate") == [("linalg.py", "rref")]
    assert _callers(trees, "_primitive") == [("linalg.py", "integer_normalize"),
                                             ("linalg.py", "kernel_and_image_of_rows"),
                                             ("linalg.py", "rref")]


def test_a_carried_degree_adds_no_route_and_no_public_name():
    # the carry between degrees rides on the one loop: `_complex` makes it,
    # reading X_z off `_fields`, `_full_cells`, the one caller of
    # `_degree_cells` for every full complex, passes it on, and
    # `_degree_cells` hands it to its one reduction, inside which `rref`
    # alone eliminates; the invariant subcomplex hands
    # `_degree_cells` over uncalled (`partial`).  The stencil is still read
    # only through the hold's reader, and `cohomology` keeps its public names
    trees = {path.name: ast.parse(path.read_text(), str(path)) for path in SOURCES}
    assert _callers(trees, "_eliminate") == [("linalg.py", "rref")]
    assert [caller for caller in _callers(trees, "kernel_and_image_of_rows")
            if caller[0] == "cohomology.py"] == [("cohomology.py", "_degree_cells")]
    assert _callers(trees, "_degree_cells") == [("cohomology.py", "_full_cells")]
    assert _callers(trees, "linear_stencil") == [("complexes.py", "_read_stencil")] * 2
    public = sorted(node.name for node in trees["cohomology.py"].body
                    if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_"))
    assert public == ["CohomologyCell", "CohomologyTable", "cell_multivectors", "class_table",
                      "coboundary_witness", "cohomology_cell", "cohomology_table",
                      "invariant_cohomology", "resonance_range", "resonances"]


def _function(tree, name):
    """The module-level function `name` of a tree."""
    (found,) = [node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == name]
    return found


def test_one_invariant_family_and_a_carry_read_off_x_z_alone():
    # the rotation-invariant family is the only one: `new_invariant_vectors`
    # takes (q, d) and its generators take nothing, so no sign picks a
    # second family.  `_complex` carries wherever X_z = 0, pi = 0 included:
    # its carry condition reads the fields' matrices and no `is_zero`
    trees = {path.name: ast.parse(path.read_text(), str(path)) for path in SOURCES}
    for name, params in (("new_invariant_vectors", ["q", "d"]), ("_invariant_generators", [])):
        args = _function(trees["complexes.py"], name).args
        assert [arg.arg for arg in args.posonlyargs + args.args] == params, name
        assert not (args.vararg or args.kwonlyargs or args.kwarg or args.defaults), name
    complex_ = _function(trees["cohomology.py"], "_complex")
    (carry,) = [node.value for node in ast.walk(complex_) if isinstance(node, ast.Assign)
                and [getattr(target, "id", None) for target in node.targets] == ["carry"]]
    assert {node.id for node in ast.walk(carry) if isinstance(node, ast.Name)} == {
        "any", "map", "fields"}
    assert ("cohomology.py", "_complex") not in _reads(trees, "is_zero")


def test_the_degree_loop_boxes_no_representative():
    # a cell keeps the int kernel rows; `representatives` boxes them on read
    trees = {path.name: ast.parse(path.read_text(), str(path)) for path in SOURCES}
    assert ("cohomology.py", "CohomologyCell.representatives") in _callers(trees, "Fraction")
    assert ("cohomology.py", "_degree_cells") not in _callers(trees, "Fraction")


def _reads(trees, name):
    """(module, scope) of each read of `name`, bare or as an attribute, with
    the scope `_scopes` gives the statement that holds it."""
    return sorted(
        (module, scope)
        for module, tree in trees.items()
        for scope, top in _scopes(tree)
        for node in ast.walk(top)
        if name in (getattr(node, "id", None), getattr(node, "attr", None)))


def test_read_rule_flags_bare_names_and_attributes():
    trees = {"a": ast.parse("import sys\nclass C:\n    def m(self):\n"
                            "        return sys.stdout\ndef f():\n    stdout = 1\n")}
    assert _reads(trees, "stdout") == [("a", "C.m"), ("a", "f")]


def test_computed_values_have_one_constructor_each():
    # a value the package computed exactly is kept as built by
    # `Polynomial._of` or `MultiVector._of`, the only code that makes an
    # instance without `__init__`; input from outside goes through `__init__`
    trees = {path.name: ast.parse(path.read_text(), str(path)) for path in SOURCES}
    assert _reads(trees, "__new__") == [("multivector.py", "MultiVector._of"),
                                        ("multivector.py", "Polynomial._of")]


def test_the_cli_writes_stdout_in_one_place():
    # each handler returns (status, text) and `main` writes it through `_emit`
    trees = {path.name: ast.parse(path.read_text(), str(path)) for path in SOURCES}
    cli = {"cli.py": trees["cli.py"]}
    assert _reads(cli, "stdout") == [("cli.py", "_emit")]
    assert _callers(cli, "print") == []
    assert ("cli.py", "main") in _callers(cli, "_emit")


def test_the_table_writers_read_the_table_by_one_path():
    # `_run_table` picks a writer, each writer reads the table itself, and
    # the representatives' text comes from one call: no document between
    # the table and its bytes
    trees = {path.name: ast.parse(path.read_text(), str(path)) for path in SOURCES}
    for fmt in ("text", "json", "csv"):
        assert _callers(trees, "_render_table_" + fmt) == [("cli.py", "_run_table")]
    assert _callers({"cli.py": trees["cli.py"]}, "format_coordinates") == [
        ("cli.py", "_printed_cells")]
    assert "_table_document" not in {node.name for tree in trees.values()
                                     for node in ast.walk(tree)
                                     if isinstance(node, ast.FunctionDef)}


def test_verify_checks_its_generators_with_no_bracket():
    # `verify` tests each generator's closedness on pi's held stencil
    # (`OperatorCell.kills`); only the deformation and modular checks, which
    # bracket cochains that no complex holds, read the Schouten bracket
    tree = ast.parse((ROOT / "src" / "poisson3" / "verification.py").read_text())
    trees = {"verification.py": tree}
    assert ("verification.py", "_check_generators") in _callers(trees, "kills")
    assert _reads(trees, "poisson_differential") == []
    assert {scope for _, scope in _reads(trees, "schouten_bracket")} == {
        "deformation_identity_check", "modular_class_check"}


def test_cohomology_checks_pi_with_no_bracket():
    # pi's checks read the stencils a table or a cell holds (`_check_pi`)
    tree = ast.parse((ROOT / "src" / "poisson3" / "cohomology.py").read_text())
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                for alias in node.names}
    assert "linear_operator_matrix" in imported and "schouten_bracket" not in imported
    assert _reads({"cohomology.py": tree}, "schouten_bracket") == []
