"""Fixture oracles, verification reports, deformation and modular checks."""

import json
import pathlib
import random
import runpy
import sys
from fractions import Fraction
from importlib import resources

import pytest

from helpers import bracket_calls
from poisson3 import complexes, linalg, verification
from poisson3.cohomology import class_table
from poisson3.complexes import (
    GradedBasis, differential_matrix, holding_stencils, linear_operator_matrix)
from poisson3.linalg import integer_normalize
from poisson3 import (
    Algebra,
    FIXTURE_IDS,
    KINDS,
    MultiVector,
    Polynomial,
    coboundary_witness,
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


def test_shipped_fixtures_are_what_the_tool_writes(monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))  # the tool prepends src/
    tool = runpy.run_path(str(
        pathlib.Path(__file__).resolve().parent.parent / "tools" / "make_fixtures.py"))
    assert set(tool["FIXTURES"]) == set(FIXTURE_IDS)
    shipped = resources.files("poisson3") / "fixtures"
    for fixture_id in FIXTURE_IDS:
        written = json.dumps(tool["build_fixture"](fixture_id), indent=2, sort_keys=True) + "\n"
        assert written == (shipped / (fixture_id + ".json")).read_text(), fixture_id


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


def test_oracle_grid_takes_an_algebra_or_a_fixture_id():
    for fixture_id in FIXTURE_IDS:
        algebra = expected_table(fixture_id).make_algebra()
        assert oracle_dimension_grid(fixture_id, 9) == oracle_dimension_grid(algebra, 9)
        for key in (fixture_id, algebra):
            with pytest.raises(ValueError, match="dmax must be nonnegative"):
                oracle_dimension_grid(key, -1)
    with pytest.raises(ValueError, match="unknown fixture id"):
        oracle_dimension_grid("nosuch", 4)
    grid = oracle_dimension_grid(Algebra("abelian"), 6)
    assert grid == {q: {d: len(GradedBasis(q, d)) for d in range(7)} for q in range(4)}
    assert oracle_dimension_grid(Algebra("book", Fraction(1, 4)), 6)[1] == {0: 1, 1: 1, 4: 1}
    # the resonant family at d = n is in the grid exactly when n <= dmax
    assert oracle_dimension_grid(Algebra("book", Fraction(1, 6)), 6)[2] == {1: 1, 6: 1}
    assert oracle_dimension_grid(Algebra("book", Fraction(1, 6)), 5)[2] == {1: 1}


def test_oracle_grids_satisfy_the_euler_identity():
    # sum_q (-1)^q binom(3, q) = 0, so the alternating sum of dim C^{q,d}
    # vanishes in every degree, and with it that of dim H^{q,d}; no engine
    # is involved.  Book at every tau = +-a/b, 0 < a <= b <= 7 (36 values),
    # spiral at tau = 1 and 5/2, each other kind, and every frozen fixture
    dmax = 40
    taus = {Fraction(a, b) for b in range(1, 8) for a in range(1, b + 1)}
    algebras = [Algebra(kind) for kind in KINDS if kind not in ("book", "spiral")]
    algebras += [Algebra("book", sign * tau) for tau in sorted(taus) for sign in (1, -1)]
    algebras += [Algebra("spiral", Fraction(1)), Algebra("spiral", Fraction(5, 2))]
    assert len(algebras) == len(KINDS) - 2 + 36 + 2
    grids = [(algebra, oracle_dimension_grid(algebra, dmax), dmax) for algebra in algebras]
    for fixture_id in FIXTURE_IDS:
        expect = expected_table(fixture_id)
        grids.append((fixture_id, expect.dims, expect.dmax_table))
    for algebra, dims, top in grids:
        for d in range(top + 1):
            euler = sum((-1) ** q * dims.get(q, {}).get(d, 0) for q in range(4))
            assert euler == 0, (algebra, d)


def _oracle_algebras():
    """Every kind: book at every reduced tau = a/b with 0 < |a| <= b <= 10,
    spiral at 8 seeded tau, and the kinds without a parameter."""
    algebras = [Algebra(kind) for kind in KINDS if kind not in ("book", "spiral")]
    for b in range(1, 11):
        for a in range(1, b + 1):
            if Fraction(a, b).denominator == b:
                algebras += [Algebra("book", Fraction(a, b)), Algebra("book", Fraction(-a, b))]
    rng = random.Random(181)
    algebras += [Algebra("spiral", Fraction(rng.randint(1, 30), rng.randint(1, 12)))
                 for _ in range(8)]
    return algebras


def test_every_kind_and_tau_matches_its_oracle_grid():
    dmax = 14
    algebras = _oracle_algebras()
    assert len(algebras) == len(KINDS) - 2 + 2 * 32 + 8
    for algebra in algebras:
        table = cohomology_table(linear_poisson(algebra), dmax)
        grid = oracle_dimension_grid(algebra, dmax)
        for q in range(4):
            for d in range(dmax + 1):
                assert table.dim_h(q, d) == grid.get(q, {}).get(d, 0), (algebra, q, d)


# ---------------------------------------------------------------- verify


def test_verify_passes_every_fixture():
    for fixture_id in FIXTURE_IDS:
        expect = expected_table(fixture_id)
        dmax = max(expect.dmax_min, 6)
        report = verify(fixture_id, dmax)
        assert report.passed, report.lines()
        assert report.cells_checked == 4 * (dmax + 1)
        assert report.mismatches == ()


def test_verify_passes_sl2_at_every_dmax():
    # sl2's engine side is its cohomology table's parity-even block, so
    # verify checks the fixture's generators against the representatives
    # the CLI prints, at every dmax the fixture allows
    expect = expected_table("sl2_vanishing")
    assert (expect.dmax_min, expect.dmax_table) == (2, 16)
    for dmax in range(2, 17):
        report = verify("sl2_vanishing", dmax)
        assert report.passed and report.mismatches == (), (dmax, report.lines())


def test_verify_derives_each_stencil_once_while_its_bivector_is_held(monkeypatch):
    # the table, the generator spans and the exactness witnesses of one
    # verify all read d_q of one bivector, which verify holds around them
    calls, stencil = [], complexes.linear_stencil

    def counting(operator, q):
        calls.append((q, any(held is operator for held, _ in complexes._HELD)))
        return stencil(operator, q)

    monkeypatch.setattr(complexes, "linear_stencil", counting)
    for fixture_id in FIXTURE_IDS:
        calls.clear()
        verify(fixture_id, max(4, expected_table(fixture_id).dmax_min))
        assert sorted(calls) == [(0, True), (1, True), (2, True)], fixture_id


def test_every_elimination_step_runs_inside_rref(monkeypatch):
    # `rref` is the one insertion into a forward table, so the benchmark's
    # `linalg.rref` counters see every exact elimination: on each route to
    # an exact result (tables, invariant tables, verify's span checks,
    # witnesses and the modular check) no `_eliminate` call runs outside it
    depth, seen, outside = [0], [0], []
    rref, eliminate = linalg.rref, linalg._eliminate

    def inserting(*args):
        depth[0] += 1
        try:
            return rref(*args)
        finally:
            depth[0] -= 1

    def eliminating(row, pivot_row, col):
        seen[0] += 1
        if not depth[0]:
            outside.append(sys._getframe(1).f_code.co_name)
        return eliminate(row, pivot_row, col)

    monkeypatch.setattr(linalg, "rref", inserting)
    monkeypatch.setattr(linalg, "_eliminate", eliminating)
    fixtures = [expected_table(fixture_id) for fixture_id in FIXTURE_IDS]
    algebras = [Algebra(kind) for kind in KINDS if kind not in ("book", "spiral")]
    algebras += [fixture.make_algebra() for fixture in fixtures if fixture.tau is not None]
    for algebra in algebras:
        cohomology_table(linear_poisson(algebra), 8)
    for algebra in (Algebra("euclidean"), Algebra("so3"), Algebra("heisenberg"),
                    Algebra("spiral", 1), Algebra("abelian"), Algebra("spiral", Fraction(5, 2))):
        cohomology_table(linear_poisson(algebra), 8, invariant=True)
    for fixture in fixtures:
        assert verify(fixture.fixture_id, fixture.dmax_min).passed, fixture.fixture_id
    pi = linear_poisson(Algebra("book", 1))
    for _, _, text in expected_table("open_book_tau_1").exact_checks:
        assert coboundary_witness(pi, parse_multivector(text)) is not None, text
    assert modular_class_check("aff_x_r").is_exact is False
    assert seen[0] and not outside, outside


def test_verify_makes_no_bracket():
    # each generator's closedness is read off pi's held stencil
    # (`OperatorCell.kills`), as the table's checks of pi are
    for fixture_id in FIXTURE_IDS:
        assert bracket_calls(lambda: verify(fixture_id, 10)) == 0, fixture_id


def test_every_fixture_generator_is_closed_under_the_bracket_and_the_stencil():
    # the bracket is the oracle the stencil's closedness test is checked by
    for fixture_id in FIXTURE_IDS:
        expect = expected_table(fixture_id)
        pi = linear_poisson(expect.make_algebra())
        with holding_stencils(pi):
            for q, d, exprs in expect.generators:
                differential = differential_matrix(pi, q, d)
                for text in exprs:
                    generator = mv(text)
                    assert schouten_bracket(pi, generator).is_zero(), (fixture_id, text)
                    assert differential.kills(differential.source.decompose(generator))


def test_a_q3_generator_cell_is_checked_on_the_zero_cell_of_d3():
    # [pi, .] maps a trivector outside 0..3, and d_3 is the zero cell
    pi = linear_poisson("heisenberg")
    with pytest.raises(ValueError, match=r"outside 0\.\.3"):
        linear_operator_matrix(pi, 3, 2)
    top = differential_matrix(pi, 3, 2)
    assert top.kills(top.source.decompose(mv("x^2*dx^dy^dz + 3*x*y*dx^dy^dz")))
    assert (3, 2, ("x^2*dx^dy^dz", "x*y*dx^dy^dz", "y^2*dx^dy^dz")) in \
        expected_table("heisenberg").generators
    assert verify("heisenberg", 4).passed


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


def _patch_heisenberg_generators(monkeypatch, exprs, cell=(1, 1)):
    """Serve the heisenberg fixture with the generators of one (q, d) cell replaced."""
    raw = load_fixture("heisenberg")
    for entry in raw["generators"]:
        if (entry["q"], entry["d"]) == cell:
            entry["exprs"] = exprs
    monkeypatch.setattr(verification, "load_fixture", lambda fixture_id: raw)


@pytest.mark.parametrize("cell, exprs, mismatch", [
    ((1, 1), ["x*dx + z*dz", "x*dz", "x*dx - y*dy", "y*dx"],
     "generator 'x*dz' at (q=1, d=1) is not closed"),
    ((2, 1), ["x*dy^dz", "x*dx^dz", "y*dx^dz", "z*dy^dz", "z*dx^dz"],
     "generator 'x*dx^dz' at (q=2, d=1) is not closed"),
    ((1, 1), ["x*dx + z*dz", "x*dy", "x*dx - y*dy"],
     "generator count at (q=1, d=1): fixture lists 3, dim H is 4"),
    ((1, 1), ["x*dx + z*dz", "x*dy", "x*dx - y*dy", "x*dy + x*dx - y*dy"],
     "generators at (q=1, d=1) are dependent modulo exact terms"),
], ids=["not_closed", "not_closed_at_q2", "count", "dependent"])
def test_verify_reports_bad_generators(monkeypatch, cell, exprs, mismatch):
    _patch_heisenberg_generators(monkeypatch, exprs, cell)
    report = verify("heisenberg", 4)
    assert not report.passed
    assert report.mismatches == (mismatch,)
    assert "  MISMATCH " + mismatch in report.lines()


def test_verify_reports_generators_dependent_against_a_larger_incoming_rank(monkeypatch):
    # one more exact cochain than the generators and the image span: rank_in
    # is raised by 1 and dim_cochains with it, so dim H and the generator
    # count still agree, and only the rank of the image and the generators
    # falls short
    def corrupted_table(pi, dmax):
        table = class_table(pi, dmax)
        cell = table.cell(1, 1)
        cell.rank_in += 1
        cell.dim_cochains += 1
        return table

    monkeypatch.setattr(verification, "class_table", corrupted_table)
    report = verify("heisenberg", 4)
    assert report.mismatches == (
        "generators at (q=1, d=1) are dependent modulo exact terms",)


def test_verify_reports_span_of_corrupted_representative(monkeypatch):
    # a representative that is not even closed cannot lie in the span of the
    # generators and the exact terms
    def corrupted_table(pi, dmax):
        table = class_table(pi, dmax)
        cell = table.cell(1, 1)
        cell.kernel_rows = [integer_normalize(GradedBasis(1, 1).decompose(mv("x*dz")))] + \
            cell.kernel_rows[1:]
        return table

    monkeypatch.setattr(verification, "class_table", corrupted_table)
    report = verify("heisenberg", 4)
    assert report.mismatches == (
        "generator span at (q=1, d=1) differs from computed classes",)


def test_verify_reports_span_of_corrupted_restricted_representative(monkeypatch):
    # euclidean's table for verify reduces only the rotation-invariant
    # subcomplex: its second class at (2, 1) is a restricted row mapped back,
    # not the full complex's canonical one, and replaced by a cochain that is
    # not closed it no longer lies in the span of the generators
    pi = linear_poisson("euclidean")
    assert class_table(pi, 4).cell(2, 1).kernel_rows[1] not in \
        cohomology_table(pi, 4).cell(2, 1).kernel_rows
    assert verify("euclidean", 4).passed

    def corrupted_table(pi, dmax):
        table = class_table(pi, dmax)
        cell = table.cell(2, 1)
        cell.kernel_rows = cell.kernel_rows[:1] + [
            integer_normalize(GradedBasis(2, 1).decompose(mv("x*dx^dy")))]
        return table

    monkeypatch.setattr(verification, "class_table", corrupted_table)
    report = verify("euclidean", 4)
    assert report.mismatches == (
        "generator span at (q=2, d=1) differs from computed classes",)


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
