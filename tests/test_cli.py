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
from poisson3 import cli
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
