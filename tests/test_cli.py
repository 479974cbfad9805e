"""Command line front end: verbs, formats, determinism, exit codes."""

import csv
import hashlib
import io
import json
import subprocess
import sys

import jsonschema
import pytest

from poisson3 import FIXTURE_IDS, Report
from poisson3 import cohomology as cohomology_module
from poisson3.cli import TABLE_SCHEMA, main


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
    bases = {}
    differentials = {}

    def counting(fn, counts, key):
        def wrapper(*args):
            k = key(*args)
            counts[k] = counts.get(k, 0) + 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(cohomology_module, "invariant_basis", counting(
        cohomology_module.invariant_basis, bases, lambda q, d: (q, d)))
    monkeypatch.setattr(cohomology_module, "differential_matrix", counting(
        cohomology_module.differential_matrix, differentials, lambda pi, q, d: (q, d)))
    code, _, _ = run(capsys, "invariant-cohomology", "--algebra", "euclidean",
                     "--dmax", "4", "--format", "json")
    assert code == 0
    assert bases == {(q, d): 1 for q in range(4) for d in range(5)}
    assert set(differentials) >= {(q, d) for q in range(3) for d in range(5)}
    assert set(differentials.values()) == {1}


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


# ---------------------------------------------------------------- small verbs


def test_schouten_verb(capsys):
    code, out, _ = run(capsys, "schouten", "z*dx^dy", "x")
    assert code == 0
    assert out == "-1*z*dy\n"


def test_dpi_verb(capsys):
    code, out, _ = run(capsys, "dpi", "--algebra", "euclidean", "z")
    assert code == 0
    assert out == "-1*y*dx + x*dy\n"


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


def test_jacobi_verb(capsys):
    code, out, _ = run(capsys, "jacobi", "--algebra", "heisenberg")
    assert code == 0
    assert out == "[pi, pi] = 0\njacobi identity: satisfied\n"


# ---------------------------------------------------------------- errors


def test_unknown_verb_is_usage_error(capsys):
    assert run(capsys, "frobnicate")[0] == 2


def test_bad_tau_is_domain_error(capsys):
    code, _, err = run(capsys, "cohomology", "--algebra", "book",
                       "--tau", "2", "--dmax", "2")
    assert code == 2
    assert "error:" in err


def test_parse_error_reports_position(capsys):
    code, _, err = run(capsys, "schouten", "x ++ y", "z")
    assert code == 2
    assert "position" in err


def test_help_exits_zero(capsys):
    assert run(capsys, "--help")[0] == 0


# ---------------------------------------------------------------- process


def test_console_script_round_trip():
    # the installed entry point must agree with the in-process runner
    res = subprocess.run(
        [sys.executable, "-m", "poisson3", "resonances", "--tau", "-2/3",
         "--c", "1", "--dmax", "20"],
        capture_output=True, text=True)
    assert res.returncode == 0
    assert res.stdout == "(1,0) (3,3) (5,6) (7,9)\n"
    res = subprocess.run(
        [sys.executable, "-m", "poisson3", "cohomology", "--algebra", "spiral",
         "--tau", "1", "--dmax", "4", "--format", "json"],
        capture_output=True, text=True)
    assert res.returncode == 0
    doc = json.loads(res.stdout)
    assert doc["totals"] == {"0": 1, "1": 2, "2": 1, "3": 0}
