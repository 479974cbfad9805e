"""The demo scripts and the README's library example run end to end."""

import ast
import pathlib
import runpy

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out.strip()


def _library_block():
    """The lines of the python block under the README's "## Library" heading."""
    section = (ROOT / "README.md").read_text().split("\n## Library\n", 1)[1]
    return section.split("```python\n", 1)[1].split("\n```", 1)[0].splitlines()


def test_the_readme_library_block_prints_its_commented_values():
    # each bare expression is followed by its value as a comment, on its own
    # line or on the next one
    lines = _library_block()
    namespace, checked = {}, 0
    for n, line in enumerate(lines):
        code, _, comment = line.partition("#")
        if not code.strip():
            continue
        if not isinstance(ast.parse(code).body[0], ast.Expr):
            exec(code, namespace)
            continue
        if not comment.strip():
            comment = lines[n + 1].partition("#")[2]
        assert eval(code, namespace) == ast.literal_eval(comment.strip()), line
        checked += 1
    assert checked == 6
