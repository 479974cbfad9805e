"""Fixture oracles, verification reports, deformation and modular checks."""

import random
from fractions import Fraction

import pytest

from poisson3 import verification
from poisson3.complexes import GradedBasis
from poisson3 import (
    Algebra,
    FIXTURE_IDS,
    MultiVector,
    Polynomial,
    available_ids,
    cohomology_table,
    deformation_identity_check,
    expected_modular_field,
    expected_table,
    format_multivector,
    linear_poisson,
    load_fixture,
    modular_class_check,
    oracle_dimension_grid,
    parse_multivector,
    poisson_differential,
    schouten_bracket,
    verify,
)


def mv(text):
    return parse_multivector(text)


# ---------------------------------------------------------------- fixtures


def test_fixture_ids_are_stable():
    assert available_ids() == FIXTURE_IDS
    assert len(FIXTURE_IDS) == 12
    assert FIXTURE_IDS[0] == "heisenberg"
    assert "hyperbolic_2_3" in FIXTURE_IDS


def test_every_fixture_matches_its_oracle():
    # the shipped dimension tables must be regenerable from the independent
    # generator-family enumeration, entry for entry
    for fixture_id in FIXTURE_IDS:
        expect = expected_table(fixture_id)
        grid = oracle_dimension_grid(fixture_id, expect.dmax_table)
        for q in range(4):
            for d in range(expect.dmax_table + 1):
                assert expect.dim(q, d) == grid.get(q, {}).get(d, 0), (
                    fixture_id, q, d)


def test_fixture_raw_schema():
    raw = load_fixture("open_book_tau_1")
    assert raw["algebra"] == "book"
    assert raw["tau"] == "1"
    assert raw["coefficient_model"] == "formal"
    assert raw["dmax_table"] == 16
    assert {"id", "dims", "generators", "checks"} <= set(raw)


def test_expectation_accessors():
    expect = expected_table("hyperbolic_2_3")
    assert expect.make_algebra() == Algebra("book", Fraction(-2, 3))
    assert expect.dim(0, 0) == 1
    assert expect.dim(0, 5) == 1
    assert expect.dim(0, 3) == 0
    assert expect.dim(3, 7) == 0


def test_unknown_fixture_id_rejected():
    with pytest.raises(ValueError):
        load_fixture("nosuch")
    with pytest.raises(ValueError):
        oracle_dimension_grid("nosuch", 4)
    with pytest.raises(ValueError):
        verify("nosuch", 4)


# ---------------------------------------------------------------- oracles


def test_heisenberg_oracle_pattern():
    grid = oracle_dimension_grid("heisenberg", 6)
    assert grid[0] == {d: 1 for d in range(7)}
    assert grid[1][0] == 2
    assert all(grid[1][d] == d + 3 for d in range(1, 7))
    assert grid[2][0] == 2
    assert all(grid[2][d] == 2 * d + 3 for d in range(1, 7))
    assert all(grid[3][d] == d + 1 for d in range(7))


def test_euclidean_oracle_pattern():
    grid = oracle_dimension_grid("euclidean", 6)
    assert grid[0] == {d: 1 for d in range(7) if d % 2 == 0}
    assert grid[1] == {d: 1 for d in range(7)}
    assert all(grid[2][d] == (2 if d % 2 else 1) for d in range(7))
    assert grid[3] == {d: 1 for d in range(7)}


def test_hyperbolic_oracle_patterns():
    grid = oracle_dimension_grid("hyperbolic_2_3", 11)
    assert grid[0] == {0: 1, 5: 1, 10: 1}
    assert grid[1] == {0: 1, 1: 1, 5: 1, 6: 1, 10: 1, 11: 1}
    assert grid[2] == {1: 1, 6: 1, 11: 1}
    assert grid.get(3, {}) == {}
    # the balanced case keeps a z-line volume family in every degree
    grid = oracle_dimension_grid("hyperbolic_1_1", 5)
    assert grid[0] == {0: 1, 2: 1, 4: 1}
    assert grid[2] == {0: 1, 1: 2, 2: 1, 3: 2, 4: 1, 5: 2}
    assert grid[3] == {d: 1 for d in range(6)}


# ---------------------------------------------------------------- verify


def test_verify_passes_every_fixture():
    for fixture_id in FIXTURE_IDS:
        expect = expected_table(fixture_id)
        dmax = max(expect.dmax_min, 6)
        report = verify(fixture_id, dmax)
        assert report.passed, report.lines()
        assert report.cells_checked == 4 * (dmax + 1)
        assert report.mismatches == ()


def test_verify_report_text():
    report = verify("open_book_tau_1", 10)
    assert report.lines() == [
        "verify open_book_tau_1 dmax=10: PASS",
        "  dimension cells checked: 44",
        "  generator spans checked: 3",
        "  exactness witnesses checked: 4",
    ]


def test_verify_rejects_out_of_range_dmax():
    expect = expected_table("hyperbolic_2_3")
    with pytest.raises(ValueError, match="must lie in"):
        verify("hyperbolic_2_3", expect.dmax_min - 1)
    with pytest.raises(ValueError, match="must lie in"):
        verify("hyperbolic_2_3", expect.dmax_table + 1)


def _patch_heisenberg_generators(monkeypatch, exprs):
    """Serve the heisenberg fixture with the (q=1, d=1) generators replaced."""
    raw = load_fixture("heisenberg")
    for entry in raw["generators"]:
        if (entry["q"], entry["d"]) == (1, 1):
            entry["exprs"] = exprs
    monkeypatch.setattr(verification, "load_fixture", lambda fixture_id: raw)


@pytest.mark.parametrize("exprs, mismatch", [
    (["x*dx + z*dz", "x*dz", "x*dx - y*dy", "y*dx"],
     "generator 'x*dz' at (q=1, d=1) is not closed"),
    (["x*dx + z*dz", "x*dy", "x*dx - y*dy"],
     "generator count at (q=1, d=1): fixture lists 3, dim H is 4"),
    (["x*dx + z*dz", "x*dy", "x*dx - y*dy", "x*dy + x*dx - y*dy"],
     "generators at (q=1, d=1) are dependent modulo exact terms"),
], ids=["not_closed", "count", "dependent"])
def test_verify_reports_bad_generators(monkeypatch, exprs, mismatch):
    _patch_heisenberg_generators(monkeypatch, exprs)
    report = verify("heisenberg", 4)
    assert not report.passed
    assert report.mismatches == (mismatch,)
    assert "  MISMATCH " + mismatch in report.lines()


def test_verify_reports_span_of_corrupted_representative(monkeypatch):
    # a representative that is not even closed cannot lie in the span of the
    # generators and the exact terms
    def corrupted_table(pi, dmax):
        table = cohomology_table(pi, dmax)
        cell = table.cell(1, 1)
        cell.representatives = [GradedBasis(1, 1).decompose(mv("x*dz"))] + \
            cell.representatives[1:]
        return table

    monkeypatch.setattr(verification, "cohomology_table", corrupted_table)
    report = verify("heisenberg", 4)
    assert report.mismatches == (
        "generator span at (q=1, d=1) differs from computed classes",)


# ---------------------------------------------------------------- deformation


def test_heisenberg_deformation_closed_form():
    g1 = Polynomial.monomial((2, 0, 0))
    g2 = Polynomial.monomial((0, 2, 0))
    check = deformation_identity_check("heisenberg", g1, g2)
    assert check.bracket == mv("8*x*y*dx^dy^dz")
    assert check.closed_form == check.bracket
    assert check.residual.is_zero()


def test_heisenberg_deformation_symmetric_data_commutes():
    g = Polynomial.monomial((1, 1, 0), Fraction(3, 2))
    check = deformation_identity_check("heisenberg", g, g)
    assert check.bracket.is_zero()
    assert check.residual.is_zero()


def test_euclidean_deformation_closed_form():
    profile = Polynomial.variable(0)  # f(u) = u
    g = Polynomial.variable(2)
    check = deformation_identity_check("euclidean", profile, g)
    # 4 g (f + u f') with f = u gives 8 z (x^2 + y^2)
    assert check.bracket == mv("8*x^2*z*dx^dy^dz + 8*y^2*z*dx^dy^dz")
    assert check.residual.is_zero()


def test_deformation_residual_vanishes_on_random_data():
    rng = random.Random(419)
    for _ in range(20):
        g1 = sum(
            (Polynomial.monomial(
                (rng.randint(0, 2), rng.randint(0, 2), 0),
                Fraction(rng.randint(-3, 3)))
             for _ in range(3)), Polynomial.zero())
        g2 = sum(
            (Polynomial.monomial(
                (rng.randint(0, 2), rng.randint(0, 2), 0),
                Fraction(rng.randint(-3, 3)))
             for _ in range(3)), Polynomial.zero())
        g1 = g1 - Polynomial.monomial((0, 0, 0), g1.terms.get((0, 0, 0), 0))
        g2 = g2 - Polynomial.monomial((0, 0, 0), g2.terms.get((0, 0, 0), 0))
        assert deformation_identity_check("heisenberg", g1, g2).residual.is_zero()
    for _ in range(20):
        profile = sum(
            (Polynomial.monomial((k, 0, 0), Fraction(rng.randint(-3, 3)))
             for k in range(3)), Polynomial.zero())
        g = sum(
            (Polynomial.monomial((0, 0, k), Fraction(rng.randint(-3, 3)))
             for k in range(3)), Polynomial.zero())
        assert deformation_identity_check("euclidean", profile, g).residual.is_zero()


def test_deformation_validates_inputs():
    z = Polynomial.variable(2)
    x = Polynomial.variable(0)
    y = Polynomial.variable(1)
    with pytest.raises(ValueError):
        deformation_identity_check("heisenberg", z, x)
    with pytest.raises(ValueError):
        deformation_identity_check("heisenberg", x + Polynomial.one(), y)
    with pytest.raises(ValueError):
        deformation_identity_check("euclidean", y, z)
    with pytest.raises(ValueError):
        deformation_identity_check("euclidean", x, x)
    with pytest.raises(ValueError):
        deformation_identity_check("nosuch", x, y)
    with pytest.raises(ValueError):
        deformation_identity_check("heisenberg", mv("x*dx"), y)


def test_deformation_accepts_degree_zero_multivectors():
    check = deformation_identity_check("heisenberg", mv("x^2"), mv("y^2"))
    assert check.bracket == mv("8*x*y*dx^dy^dz")


def test_deformed_structure_really_contains_the_perturbation():
    g1 = Polynomial.monomial((2, 0, 0))
    g2 = Polynomial.monomial((0, 2, 0))
    check = deformation_identity_check("heisenberg", g1, g2)
    assert schouten_bracket(check.deformed, check.deformed) == check.bracket
    assert check.deformed != linear_poisson("heisenberg")


# ---------------------------------------------------------------- modular


def test_modular_class_table():
    cases = [
        ("heisenberg", None, "0"),
        ("abelian", None, "0"),
        ("euclidean", None, "0"),
        ("so3", None, "0"),
        ("sl2", None, "0"),
        ("aff_x_r", None, "-1*dy"),
        ("semi_open_book", None, "-2*dz"),
        ("book", Fraction(1, 3), "-4/3*dz"),
        ("book", Fraction(-2, 3), "-1/3*dz"),
        ("spiral", Fraction(2), "-4*dz"),
    ]
    for kind, tau, text in cases:
        alg = Algebra(kind, tau)
        check = modular_class_check(alg)
        assert format_multivector(check.field) == text
        assert check.matches
        assert check.is_cocycle
        assert check.unimodular == (text == "0")
        assert check.is_exact == check.unimodular
        assert poisson_differential(linear_poisson(alg), check.field).is_zero()


def test_balanced_hyperbolic_member_is_unimodular():
    check = modular_class_check(Algebra("book", Fraction(-1)))
    assert check.field.is_zero()
    assert check.unimodular


def test_expected_modular_field_matches_checks():
    for kind in ("heisenberg", "aff_x_r", "euclidean"):
        assert expected_modular_field(kind) == modular_class_check(kind).field
    book = Algebra("book", Fraction(1, 2))
    assert expected_modular_field(book) == modular_class_check(book).field
    with pytest.raises(ValueError):
        expected_modular_field("nosuch")


def test_modular_check_accepts_tau_argument():
    check = modular_class_check("book", tau=Fraction(1, 2))
    assert format_multivector(check.field) == "-3/2*dz"
