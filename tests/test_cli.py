"""Command line front end: verbs, formats, determinism, exit codes."""

import contextlib
import csv
import hashlib
import io
import json
import os
import pathlib
import re
import runpy
import subprocess
import sys
from fractions import Fraction

import jsonschema
import pytest

from poisson3 import (FIXTURE_IDS, Algebra, OperatorCell, Report, cell_multivectors,
                      cohomology_table, differential_matrix, format_multivector,
                      linear_poisson)
from poisson3 import cli
from poisson3 import cohomology as cohomology_module
from poisson3.cli import main
from poisson3.complexes import new_invariant_vectors

# schema for the JSON table documents emitted by cohomology verbs
TABLE_SCHEMA = {
    "type": "object",
    "required": ["algebra", "tau", "dmax", "cells", "totals", "stable"],
    "additionalProperties": False,
    "properties": {
        "algebra": {"type": "string"},
        "tau": {"type": ["string", "null"]},
        "dmax": {"type": "integer", "minimum": 0},
        "cells": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["q", "d", "dim_cochains", "rank_in", "rank_out",
                             "dim_h", "representatives"],
                "additionalProperties": False,
                "properties": {
                    "q": {"type": "integer", "minimum": 0, "maximum": 3},
                    "d": {"type": "integer", "minimum": 0},
                    "dim_cochains": {"type": "integer", "minimum": 0},
                    "rank_in": {"type": "integer", "minimum": 0},
                    "rank_out": {"type": "integer", "minimum": 0},
                    "dim_h": {"type": "integer", "minimum": 0},
                    "representatives": {
                        "type": "array", "items": {"type": "string"},
                    },
                },
            },
        },
        "totals": {
            "type": "object",
            "required": ["0", "1", "2", "3"],
            "additionalProperties": False,
            "properties": {
                key: {"type": "integer", "minimum": 0} for key in "0123"
            },
        },
        "stable": {"type": "boolean"},
    },
}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------- basics


def test_list_names_algebras_and_fixtures(capsys):
    code, out, err = run(capsys, "list")
    assert code == 0 and err == ""
    for kind in ("abelian", "heisenberg", "book", "spiral", "so3"):
        assert kind in out
    for fixture_id in FIXTURE_IDS:
        assert fixture_id in out


def test_show_book(capsys):
    code, out, _ = run(capsys, "show", "--algebra", "book", "--tau", "1/3")
    assert code == 0
    assert "[e1, e3] = e1" in out
    assert "[e2, e3] = 1/3 e2" in out
    assert "modular field: -4/3*dz" in out


# sha256 of `show` stdout as first recorded
GOLDEN_SHOW = [
    (("abelian",), "b05054aa08148fae3036e86342e2e0a82cbc4556dd1490b8f5cfcf117d105830"),
    (("heisenberg",), "960bf819b998d309b1b0add2786418892ef6cd1bbccd216bd84690f00688e165"),
    (("aff_x_r",), "09a32964251d10b1fda91d7e7e25156b94eef4b834b719942fb2fc2c103c7c34"),
    (("euclidean",), "7ce0c9eba7f669b2e0df6fca3677e580ba0c3c3e219d48e394628abe76d3b478"),
    (("semi_open_book",), "4edc5c45052dbf72b9f725b76cbb4e377492861f0de900f625ec42a3b67348b0"),
    (("sl2",), "cda204cee6a4d7a8c6718738b3c1a706638f8b8bc9c749bf468b01080a006599"),
    (("so3",), "5d2911f4f5af8da215b271348c104ae4058b2b784a9830da849dde6ebd9c2767"),
    (("book", "--tau", "1/3"), "5b7fab0dac1c9bb623406834a31de93c793e94e85995138c5448601c40da0e22"),
    (("book", "--tau", "-2/3"), "8cf5b0aaf17697632ef2417400579ccafa7bd61718f8fd5b35d354e88115ffa6"),
]


@pytest.mark.parametrize("argv, digest", GOLDEN_SHOW,
                         ids=[" ".join(argv) for argv, _ in GOLDEN_SHOW])
def test_show_output_matches_recorded_digest(capsys, argv, digest):
    code, out, _ = run(capsys, "show", "--algebra", *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_show_writes_a_later_negative_term_with_a_minus(capsys):
    code, out, _ = run(capsys, "show", "--algebra", "spiral", "--tau", "1/2")
    assert code == 0
    assert out == (
        "algebra: spiral\n"
        "tau: 1/2\n"
        "nonzero brackets:\n"
        "  [e1, e3] = 1/2 e1 - e2\n"
        "  [e2, e3] = e1 + 1/2 e2\n"
        "poisson structure: 1/2*y*dy^dz - y*dx^dz + x*dy^dz + 1/2*x*dx^dz\n"
        "modular field: -1*dz\n")


def test_show_requires_tau_for_parametric_kinds(capsys):
    code, out, err = run(capsys, "show", "--algebra", "book")
    assert code == 2
    assert out == ""
    assert "error:" in err


# ---------------------------------------------------------------- tables


def test_cohomology_text_table(capsys):
    code, out, _ = run(capsys, "cohomology", "--algebra", "book",
                       "--tau", "1", "--dmax", "4")
    assert code == 0
    assert "totals: H^0=1 H^1=4 H^2=3 H^3=0" in out
    assert "stable: yes" in out
    assert "q=0 d=0: 1" in out


def test_cohomology_json_validates_against_schema(capsys):
    code, out, _ = run(capsys, "cohomology", "--algebra", "heisenberg",
                       "--dmax", "3", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    jsonschema.validate(doc, TABLE_SCHEMA)
    assert doc["algebra"] == "heisenberg"
    assert doc["tau"] is None
    assert doc["dmax"] == 3
    assert doc["totals"]["0"] == 4
    assert len(doc["cells"]) == 16
    assert not doc["stable"]


def test_cohomology_json_handles_negative_tau(capsys):
    # leading-minus option values must survive argument fusing
    code, out, _ = run(capsys, "cohomology", "--algebra", "book",
                       "--tau", "-2/3", "--dmax", "6", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    jsonschema.validate(doc, TABLE_SCHEMA)
    assert doc["tau"] == "-2/3"
    assert doc["totals"] == {"0": 2, "1": 4, "2": 2, "3": 0}


def _digest_tool(monkeypatch):
    """The namespace of tools/cli_digests.py, which prepends src/ to sys.path."""
    monkeypatch.setattr(sys, "path", list(sys.path))
    return runpy.run_path(str(pathlib.Path(__file__).resolve().parent.parent
                              / "tools" / "cli_digests.py"))


def test_the_json_writer_lays_out_a_table_as_json_dumps_does(monkeypatch):
    # json.dumps is the oracle, of a document built here from the table's
    # fields and each representative's multivector: every kind at the taus
    # the digest tool pins, the rotation-invariant kinds also as invariant
    # tables
    tool = _digest_tool(monkeypatch)
    tables = [(argv, False) for argv in tool["algebras"]()]
    tables += [(argv, True) for argv in tool["INVARIANT"]]
    checked = 0
    for argv, invariant in tables:
        tau = Fraction(argv[3]) if len(argv) > 2 else None
        algebra = Algebra(argv[1], tau)
        for dmax in (0, 6):
            table = cohomology_table(linear_poisson(algebra), dmax, invariant)
            for q_filter in ((1,), (2, 3), (0, 1, 2, 3)):
                cells = [table.cell(q, d) for q in q_filter for d in range(dmax + 1)]
                doc = {
                    "algebra": algebra.name,
                    "tau": None if tau is None else str(tau),
                    "dmax": dmax,
                    "cells": [{
                        "q": cell.q, "d": cell.d, "dim_cochains": cell.dim_cochains,
                        "rank_in": cell.rank_in, "rank_out": cell.rank_out,
                        "dim_h": cell.dim_h,
                        "representatives": list(map(format_multivector,
                                                    cell_multivectors(cell))),
                    } for cell in cells],
                    "totals": {str(q): table.total(q) for q in range(4)},
                    "stable": table.stable,
                }
                assert cli._render_table_json(algebra, table, q_filter) == (
                    json.dumps(doc, indent=2) + "\n")
                checked += 1
    assert checked == (14 + 6) * 2 * 3


def test_text_csv_and_json_print_the_same_cells(capsys, monkeypatch):
    # the three writers read the table apart: for every kind at the digest
    # tool's taus, and for the invariant kinds' invariant tables, the text
    # grid, the CSV rows and the JSON cells give the same (q, d, dim_h), CSV
    # and JSON the same ranks and representatives, and the text's
    # representative lines are the JSON's nonzero cells', in order
    tool = _digest_tool(monkeypatch)
    tables = [("cohomology", argv) for argv in tool["algebras"]()]
    tables += [("invariant-cohomology", argv) for argv in tool["INVARIANT"]]
    classes = 0
    for verb, argv in tables:
        out = {}
        for fmt in ("text", "csv", "json"):
            code, out[fmt], _ = run(capsys, verb, *argv, "--dmax", "6", "--format", fmt)
            assert code == 0, (argv, fmt)
        cells = json.loads(out["json"])["cells"]
        header, *rows = csv.reader(io.StringIO(out["csv"]))
        assert header == ["q", "d", "dim_cochains", "rank_in", "rank_out",
                          "dim_h", "representatives"]
        grid = [(int(row[1]), d, int(dim_h))
                for row in re.finditer(r"^   (\d) \|(.*)$", out["text"], re.M)
                for d, dim_h in enumerate(row[2].split())]
        assert grid == [tuple(map(int, row[:2] + row[5:6])) for row in rows] == [
            (cell["q"], cell["d"], cell["dim_h"]) for cell in cells], argv
        assert rows == [[str(cell[key]) for key in header[:6]]
                        + ["; ".join(cell["representatives"])] for cell in cells], argv
        lines = re.findall(r"^  q=(\d+) d=(\d+): (.*)$", out["text"], re.M)
        assert lines == [(str(cell["q"]), str(cell["d"]), rep) for cell in cells
                         if cell["dim_h"] for rep in cell["representatives"]], argv
        classes += len(lines)
    assert classes > 0


def test_cohomology_csv_rows(capsys):
    code, out, _ = run(capsys, "cohomology", "--algebra", "aff_x_r",
                       "--dmax", "5", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["q", "d", "dim_cochains", "rank_in", "rank_out",
                       "dim_h", "representatives"]
    assert len(rows) == 1 + 4 * 6
    by_cell = {(r[0], r[1]): r for r in rows[1:]}
    assert by_cell[("0", "1")][5] == "1"
    assert by_cell[("0", "1")][6] == "z"


def test_q_filter_restricts_rows(capsys):
    code, out, _ = run(capsys, "cohomology", "--algebra", "heisenberg",
                       "--dmax", "2", "--q", "0,3", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))[1:]
    assert {r[0] for r in rows} == {"0", "3"}
    assert len(rows) == 6


def test_invariant_cohomology_verb(capsys):
    code, out, _ = run(capsys, "invariant-cohomology", "--algebra", "euclidean",
                       "--dmax", "3")
    assert code == 0
    assert "subcomplex: rotation invariant" in out
    assert "q=0 d=2: y^2 + x^2" in out


def test_invariant_table_builds_each_basis_and_differential_once(capsys, monkeypatch):
    # each basis is a running list: the table adds the vectors new at each
    # (q, d) once; no whole basis is enumerated, as the package has no
    # function that would (`test_source.py`'s rule on the reference
    # implementations)
    new = {}
    differentials = {}

    def counting(fn, counts, key):
        def wrapper(*args):
            k = key(*args)
            counts[k] = counts.get(k, 0) + 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(cohomology_module, "new_invariant_vectors", counting(
        cohomology_module.new_invariant_vectors, new, lambda q, d: (q, d)))
    cells = []
    monkeypatch.setattr(cohomology_module, "differential_matrix", counting(
        lambda *args: cells.append(differential_matrix(*args)) or cells[-1],
        differentials, lambda pi, q, d: (q, d)))
    read, applied, whole = {}, {}, []
    monkeypatch.setattr(OperatorCell, "column", counting(  # a list cell has no source
        OperatorCell.column, read, lambda cell, j: (cell.source, len(cell), j)))
    monkeypatch.setattr(OperatorCell, "apply", counting(
        OperatorCell.apply, applied,
        lambda cell, vector: cell.source and (cell.source.q, cell.source.d)))
    columns = OperatorCell.columns
    monkeypatch.setattr(OperatorCell, "columns", property(
        lambda cell: whole.append(cell) or columns.fget(cell)))
    code, _, _ = run(capsys, "invariant-cohomology", "--algebra", "euclidean",
                     "--dmax", "4", "--format", "json")
    assert code == 0
    assert new == {(q, d): 1 for q in range(4) for d in range(5)}
    # no differential's columns are read, only two certified invariant cells'
    # kept columns, each once: every column of a 1- and a 2-column cell
    assert read == {(None, 1, 0): 1, (None, 2, 0): 1, (None, 2, 1): 1}
    # d_0..d_2 each built once and applied once to each vector new at its
    # degree; d_3 is 0 and not built
    assert differentials == {(q, d): 1 for q in range(3) for d in range(5)}
    # pi's checks apply [pi, .] once more, to R on (1, 1) and to pi on (2, 1)
    assert applied == {(q, d): n for q in range(3) for d in range(5) if (n := len(
        new_invariant_vectors(q, d)) + ((q, d) in ((1, 1), (2, 1))))}
    assert not any(cell in whole for cell in cells)  # no differential is built whole


def test_invariant_cohomology_rejects_non_invariant(capsys):
    code, out, err = run(capsys, "invariant-cohomology", "--algebra", "aff_x_r",
                         "--dmax", "2")
    assert code == 2
    assert "not rotation invariant" in err


# sha256 of stdout as first recorded; table output must stay byte-identical
# whenever the reduction behind it is reorganised
GOLDEN_TABLES = [
    (("invariant-cohomology", "--algebra", "euclidean", "--dmax", "6", "--format", "text"),
     "f819f65afff15a91984282fb18c02a9cfeb115c83f917d1662328584ca06608a"),
    (("invariant-cohomology", "--algebra", "euclidean", "--dmax", "6", "--format", "json"),
     "1b68e9dc38605e3df4e4b9b16491442b38dfa7ab45639224d9a81d718ac7fabf"),
    (("invariant-cohomology", "--algebra", "euclidean", "--dmax", "6", "--format", "csv"),
     "61b6d58a18bf1ab766551bc015e24fe76051f09a3c832b26402b8a6f50e6308c"),
    (("invariant-cohomology", "--algebra", "heisenberg", "--dmax", "4", "--format", "json"),
     "e1bd9bc84a55e08d3b10edce8ded9295eb6828836bb91364dfc68bf1d91f22e3"),
    (("cohomology", "--algebra", "heisenberg", "--dmax", "6", "--format", "json"),
     "a6209695b2132b4b6b7d5fb0f176ec90d0efca135989466c771abfe6643421b9"),
    (("cohomology", "--algebra", "book", "--tau", "-2/3", "--dmax", "8", "--format", "json"),
     "0d54492f8d4ac53bfade0be8aeafb4ff8db4b96d466df7b6c27bc104564b4597"),
    (("cohomology", "--algebra", "sl2", "--dmax", "6", "--format", "json"),
     "faae01f5e195e762fed0a8464718713c40e4057539aa36ca984dae7d0cd98e87"),
    (("cohomology", "--algebra", "spiral", "--tau", "5/2", "--dmax", "8", "--format", "json"),
     "531923d97a26c1b748374e68541aeb5a19936ec86d7fbfa90611e8618070fac6"),
    (("invariant-cohomology", "--algebra", "spiral", "--tau", "1", "--dmax", "8",
      "--format", "json"),
     "c1c9393a8c4a6ed0df00eadd24a8a8f9e6c5d6a740a8d5d45bed9100c2cc99bd"),
    (("invariant-cohomology", "--algebra", "so3", "--dmax", "8", "--format", "json"),
     "1f08ee5d66724b79b7e00e64260fceed0328498c12179969827cece3cdeeafbd"),
]


@pytest.mark.parametrize("argv, digest", GOLDEN_TABLES,
                         ids=[" ".join(argv) for argv, _ in GOLDEN_TABLES])
def test_table_output_matches_recorded_digest(capsys, argv, digest):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_table_output_is_deterministic(capsys):
    args = ("cohomology", "--algebra", "book", "--tau", "1/3",
            "--dmax", "5", "--format", "json")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second


def test_out_option_writes_file(tmp_path, capsys):
    target = tmp_path / "table.json"
    code, out, _ = run(capsys, "cohomology", "--algebra", "euclidean",
                       "--dmax", "2", "--format", "json", "--out", str(target))
    assert code == 0
    assert out == ""
    doc = json.loads(target.read_text())
    jsonschema.validate(doc, TABLE_SCHEMA)


# ---------------------------------------------------------------- verify


def test_verify_pass_text_and_exit_zero(capsys):
    code, out, _ = run(capsys, "verify", "--id", "open_book_tau_1",
                       "--dmax", "10")
    assert code == 0
    assert out.splitlines()[0] == "verify open_book_tau_1 dmax=10: PASS"


def test_verify_json_document(capsys):
    code, out, _ = run(capsys, "verify", "--id", "aff_x_r", "--dmax", "6",
                       "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["id"] == "aff_x_r"
    assert doc["passed"] is True
    assert doc["mismatches"] == []
    assert doc["cells_checked"] == 28


def test_verify_failure_sets_exit_code(monkeypatch, capsys):
    import poisson3.cli as cli_mod

    def fake_verify(fixture_id, dmax):
        return Report(fixture_id, dmax,
                      ["dim H^1_2: expected 1, computed 2"], 12, 0, 0)

    monkeypatch.setattr(cli_mod, "verify", fake_verify)
    code, out, _ = run(capsys, "verify", "--id", "heisenberg", "--dmax", "2")
    assert code == 1
    assert "FAIL" in out
    assert "MISMATCH dim H^1_2" in out


def test_verify_rejects_out_of_range_dmax(capsys):
    code, out, err = run(capsys, "verify", "--id", "hyperbolic_2_3",
                         "--dmax", "2")
    assert code == 2
    assert "must lie in" in err


BUDGET_VERBS = [
    ("cohomology", "cohomology_table", ["--algebra", "abelian"]),
    ("invariant-cohomology", "cohomology_table", ["--algebra", "euclidean"]),
    ("verify", "verify", ["--id", "heisenberg"]),
]


@pytest.mark.parametrize("verb, engine, opts", BUDGET_VERBS, ids=[v[0] for v in BUDGET_VERBS])
def test_dmax_past_the_cochain_budget_is_rejected(capsys, monkeypatch, verb, engine, opts):
    import poisson3.cli as cli_mod

    reached = []

    def stub(source, dmax, *rest):
        reached.append(dmax)
        raise ValueError("stopped before the engine ran")

    monkeypatch.setattr(cli_mod, engine, stub)
    code, out, err = run(capsys, verb, *opts, "--dmax", "88")
    # 8 * binom(91, 3) = 971,880 cochains: within the budget, so the engine is called
    assert (code, reached, out) == (2, [88], "")
    assert "stopped before the engine ran" in err

    code, out, err = run(capsys, verb, *opts, "--dmax", "89")
    assert (code, reached, out) == (2, [88], "")
    assert err == "error: dmax 89 spans 1004640 cochains, over the budget of 1000000\n"


# ---------------------------------------------------------------- small verbs


def test_schouten_verb(capsys):
    code, out, _ = run(capsys, "schouten", "z*dx^dy", "x")
    assert code == 0
    assert out == "-1*z*dy\n"


def test_dpi_verb(capsys):
    code, out, _ = run(capsys, "dpi", "--algebra", "euclidean", "z")
    assert code == 0
    assert out == "-1*y*dx + x*dy\n"


def test_an_expression_that_starts_with_a_minus_follows_a_double_dash(capsys):
    # without "--" argparse reads "-x" as an option
    code, out, _ = run(capsys, "dpi", "--algebra", "so3", "--", "-x")
    assert code == 0
    assert out == "z*dy - y*dz\n"
    code, out, _ = run(capsys, "schouten", "--", "-x*dy", "x*dz")
    assert code == 0
    assert out == "0\n"


def test_modular_verb(capsys):
    code, out, _ = run(capsys, "modular", "--algebra", "aff_x_r")
    assert code == 0
    assert out == ("modular field: -1*dy\n"
                   "expected: -1*dy\n"
                   "matches table: yes\n"
                   "cocycle: yes\n"
                   "exact: no\n"
                   "unimodular: no\n")


def test_resonances_verb_bytes(capsys):
    code, out, _ = run(capsys, "resonances", "--tau", "-2/3", "--c", "1",
                       "--dmax", "20")
    assert code == 0
    assert out == "(1,0) (3,3) (5,6) (7,9)\n"
    code, out, _ = run(capsys, "resonances", "--tau", "3/5", "--c", "1/7",
                       "--dmax", "5")
    assert code == 0
    assert out == "none\n"
    # the bounds confine j, so a huge --dmax costs nothing extra
    code, out, _ = run(capsys, "resonances", "--tau", "1/2", "--c", "1",
                       "--dmax", str(10**12))
    assert code == 0
    assert out == "(1,0) (0,2)\n"


def test_resonances_verb_refuses_too_many_pairs(capsys, monkeypatch):
    # tau 0, c 1 resonates at every j < dmax: the count is read off the range
    # of j, so the refusal comes before any pair is built
    code, out, err = run(capsys, "resonances", "--tau", "0", "--c", "1",
                         "--dmax", str(10**12))
    assert code == 2 and out == ""
    assert "1000000000000 resonance pairs" in err
    # at most the budget is printed
    monkeypatch.setattr(cli, "COCHAIN_BUDGET", 5)
    code, out, _ = run(capsys, "resonances", "--tau", "0", "--c", "1", "--dmax", "5")
    assert code == 0 and out == "(1,0) (1,1) (1,2) (1,3) (1,4)\n"
    code, out, err = run(capsys, "resonances", "--tau", "0", "--c", "1", "--dmax", "6")
    assert code == 2 and out == ""
    assert "6 resonance pairs, over the budget of 5" in err


def test_jacobi_verb(capsys):
    code, out, _ = run(capsys, "jacobi", "--algebra", "heisenberg")
    assert code == 0
    assert out == "[pi, pi] = 0\njacobi identity: satisfied\n"


# ---------------------------------------------------------------- errors


def test_unknown_verb_is_usage_error(capsys):
    assert run(capsys, "frobnicate")[0] == 2


def test_each_verbs_parser_is_built_at_most_once_per_process(capsys, monkeypatch):
    builds = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser",
                        lambda verb=None: builds.append(verb) or build(verb))
    commands = [("cohomology", "--algebra", "nosuch", "--dmax", "2"), ("list",),
                ("cohomology", "--algebra", "heisenberg", "--dmax", "3", "--format", "json")]
    first_calls = []
    for argv in commands:  # each as the first call of its process
        monkeypatch.setattr(cli, "_PARSERS", {})
        first_calls.append(run(capsys, *argv))
    assert builds == ["cohomology", "list", "cohomology"]
    code, out, err = first_calls[0]
    assert code == 2 and out == "" and "invalid choice: 'nosuch'" in err
    assert [code for code, _, _ in first_calls[1:]] == [0, 0]
    monkeypatch.setattr(cli, "_PARSERS", {})
    assert [run(capsys, *argv) for argv in commands] == first_calls
    assert builds == ["cohomology", "list", "cohomology", "cohomology", "list"]
    # no verb, an unknown one or a leading option: the full parser, built once
    assert [run(capsys, *argv)[0] for argv in ((), ("frobnicate",), ("--help",))] == [2, 2, 0]
    assert builds[5:] == [None]


def _parse(parser, argv):
    """(exit status or None, stdout, stderr, parsed options) of one parse."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            status, parsed = None, vars(parser.parse_args(argv))
        except SystemExit as exc:
            status, parsed = exc.code, None
    return status, out.getvalue(), err.getvalue(), parsed


# a valid command line of each verb, and an option of it that takes choices
VERB_COMMANDS = {
    "list": ([], None),
    "show": (["--algebra", "so3"], "--algebra"),
    "cohomology": (["--algebra", "so3", "--dmax", "2"], "--format"),
    "invariant-cohomology": (["--algebra", "so3", "--dmax", "2"], "--algebra"),
    "verify": (["--id", "heisenberg", "--dmax", "4"], "--id"),
    "schouten": (["x*dx", "y*dy"], None),
    "dpi": (["--algebra", "so3", "x"], "--algebra"),
    "modular": (["--algebra", "so3"], "--algebra"),
    "resonances": (["--tau", "1", "--c", "1", "--dmax", "2"], None),
    "jacobi": (["--algebra", "so3"], "--algebra"),
}


@pytest.mark.parametrize("verb", list(VERB_COMMANDS))
def test_a_verbs_own_parser_answers_as_the_full_parser(verb):
    # compared in one process, so both format help for the same terminal width;
    # a parser of one verb must still list every verb in its usage
    assert list(VERB_COMMANDS) == list(cli._VERBS)
    options, choice = VERB_COMMANDS[verb]
    bad_choice = (options + [choice, "nosuch"] if choice
                  else options + ["--nosuch"])  # a verb with no choices: an unknown option
    cases = [[verb, "--help"], [verb], [verb] + bad_choice, [verb] + options + ["extra"],
             [verb] + options]
    full, own = cli.build_parser(), cli.build_parser(verb)
    results = [_parse(own, argv) for argv in cases]
    assert results == [_parse(full, argv) for argv in cases]
    assert [status for status, *_ in results] == [0, None if verb == "list" else 2, 2, 2, None]
    assert "{list,show,cohomology,invariant-cohomology," in results[3][2]


def test_bad_tau_is_domain_error(capsys):
    code, _, err = run(capsys, "cohomology", "--algebra", "book",
                       "--tau", "2", "--dmax", "2")
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize("argv, option, value", [
    (("cohomology", "--algebra", "book", "--tau", "1/0", "--dmax", "2"), "--tau", "1/0"),
    (("show", "--algebra", "spiral", "--tau", "half"), "--tau", "half"),
    (("resonances", "--tau", "1", "--c", "1/0", "--dmax", "3"), "--c", "1/0"),
    (("cohomology", "--algebra", "heisenberg", "--dmax", "2", "--q", "a"), "--q", "a"),
    (("cohomology", "--algebra", "heisenberg", "--dmax", "2", "--q", "1,4"), "--q", "1,4"),
], ids=["tau_zero_denominator", "tau_word", "c_zero_denominator", "q_word", "q_range"])
def test_malformed_option_names_the_option(capsys, argv, option, value):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert "error: argument %s:" % option in err
    assert repr(value) in err


def test_verify_has_no_csv_format(capsys):
    code, out, err = run(capsys, "verify", "--id", "heisenberg", "--dmax", "2",
                         "--format", "csv")
    assert code == 2 and out == ""
    assert "error: argument --format:" in err


@pytest.mark.parametrize("argv", [
    ("cohomology", "--algebra", "heisenberg", "--dmax", "-1"),
    ("invariant-cohomology", "--algebra", "euclidean", "--dmax", "-1"),
    ("resonances", "--tau", "1", "--c", "1", "--dmax", "-1"),
], ids=lambda argv: argv[0])
def test_negative_dmax_is_domain_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert "error: dmax must be nonnegative, got -1" in err


def test_parse_error_reports_position(capsys):
    code, _, err = run(capsys, "schouten", "x ++ y", "z")
    assert code == 2
    assert "position" in err
    # past Python's 4,300-digit int string limit
    code, out, err = run(capsys, "schouten", "x^" + "9" * 4400, "z")
    assert code == 2 and out == ""
    assert "integer literal of 4400 digits is too long (at position 2)" in err


def test_output_past_the_int_digit_limit_is_domain_error(capsys):
    # each factor parses (2,200 digits), their product has 4,400
    nines = "9" * 2200
    code, out, err = run(capsys, "schouten", nines + "*" + nines + "*x*dx", "x")
    assert code == 2 and out == ""
    assert err == "error: a coefficient has more than 4300 digits, the limit for printing" \
        " an integer\n"


def test_help_exits_zero(capsys):
    assert run(capsys, "--help")[0] == 0


# ---------------------------------------------------------------- process


def test_console_script_round_trip():
    # the installed entry point must agree with the in-process runner; the
    # subprocess imports this checkout's package, installed or not
    src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    res = subprocess.run(
        [sys.executable, "-m", "poisson3", "resonances", "--tau", "-2/3",
         "--c", "1", "--dmax", "20"],
        capture_output=True, text=True, env=env)
    assert res.returncode == 0
    assert res.stdout == "(1,0) (3,3) (5,6) (7,9)\n"
    res = subprocess.run(
        [sys.executable, "-m", "poisson3", "cohomology", "--algebra", "spiral",
         "--tau", "1", "--dmax", "4", "--format", "json"],
        capture_output=True, text=True, env=env)
    assert res.returncode == 0
    doc = json.loads(res.stdout)
    assert doc["totals"] == {"0": 1, "1": 2, "2": 1, "3": 0}


def test_the_digest_tool_prints_a_line_per_command(monkeypatch, capsys):
    # the lines must equal the recorded ones: a change that moves printed
    # bytes re-records tests/cli_digests_dmax8.txt with
    # `python tools/cli_digests.py --dmax 8` and names the moved lines
    root = pathlib.Path(__file__).resolve().parent.parent
    tool = _digest_tool(monkeypatch)
    assert tool["main"](["--dmax", "8"]) == 0
    lines = capsys.readouterr().out.splitlines()
    commands = tool["commands"](8)
    # 14 algebras, 6 invariant kinds, 12 fixtures; then the tables under two
    # --q filters, 6 distinct taus by 2 resonance constants, modular and list;
    # last schouten on every pair of 6 expressions, and dpi for each algebra
    assert len(lines) == len(commands) == (14 * 3 + 6 * 3 + 12 * 2 + 14 * 2
                                           + (14 + 6) * 2 * 3 + 6 * 2 + 14 + 1
                                           + 6 * 6 + 14 * 6)
    for line, argv in zip(lines, commands):
        sha, size, status, command = line.split(" ", 3)
        assert (len(sha), status, command) == (64, "0", " ".join(argv))
        assert int(size) > 0
    argv = ["cohomology", "--algebra", "book", "--tau", "-2/3", "--dmax", "8", "--format", "json"]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert "%s %d 0 %s" % (hashlib.sha256(out.encode()).hexdigest(), len(out.encode()),
                           " ".join(argv)) in lines
    recorded = (root / "tests" / "cli_digests_dmax8.txt").read_text().splitlines()
    assert lines == recorded


def test_the_digest_tool_at_dmax_16_prints_the_recorded_lines(monkeypatch, capsys):
    # the deeper recording reaches the degrees where the carry, the
    # parity-even blocks and the restricted families do most of their work;
    # a change that moves printed bytes re-records
    # tests/cli_digests_dmax16.txt with `python tools/cli_digests.py --dmax 16`
    root = pathlib.Path(__file__).resolve().parent.parent
    tool = _digest_tool(monkeypatch)
    assert tool["main"](["--dmax", "16"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == len(tool["commands"](16)) == 379
    recorded = (root / "tests" / "cli_digests_dmax16.txt").read_text().splitlines()
    assert lines == recorded
