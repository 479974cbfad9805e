"""Acceptance gate: one test per numbered criterion, exact equality only.

Each criterion is a standalone check of the engine against frozen expected
values (closed-form dimension patterns, hand-derived resonance tables,
independently enumerated generator families).  Nothing here is tuned to the
engine output; every constant was fixed before the comparison.
"""

import json
import random
from fractions import Fraction

from helpers import closed_form_differential, compose, random_multivector, rank
from poisson3 import (
    Algebra,
    GradedBasis,
    KINDS,
    cohomology_table,
    deformation_identity_check,
    differential_matrix,
    format_multivector,
    invariant_cohomology,
    linear_poisson,
    modular_class_check,
    oracle_dimension_grid,
    parse_multivector,
    poisson_differential,
    resonances,
    schouten_bracket,
    verify,
    wedge,
)
from poisson3 import expected_table, load_fixture
from poisson3.cli import main as cli_main
from poisson3.complexes import holding_stencils
from poisson3.verification import FIXTURE_IDS

F = Fraction


def mv(text):
    return parse_multivector(text)


def _spans_cell(pi, q, d, exprs):
    """exprs are cocycles, independent mod the image, spanning H^q_d."""
    basis = GradedBasis(q, d)
    out_cell = differential_matrix(pi, q, d)
    in_columns = differential_matrix(pi, q - 1, d).columns if q else []
    base = rank(in_columns)
    coords = []
    for expr in exprs:
        value = mv(expr)
        assert poisson_differential(pi, value).is_zero(), expr
        coords.append(basis.decompose(value))
    assert rank(in_columns + coords) == base + len(exprs)
    dim_h = len(basis) - rank(out_cell.columns) - base
    assert len(exprs) == dim_h
    return True


# criterion 1: the symmetric book structure has totals (1, 4, 3, 0) over
# d <= 10, everything concentrated in d <= 1, and the table is stable
def test_criterion_01():
    table = cohomology_table(linear_poisson(Algebra("book", F(1))), 10)
    assert table.totals == {0: 1, 1: 4, 2: 3, 3: 0}
    assert all(cell.dim_h == 0 for (q, d), cell in table.cells.items() if d > 1)
    assert table.stable


# criterion 2: book tau = 1/3 has totals (1, 3, 2, 0) and its extra second
# cohomology class in degree 3 is spanned by y^3 dx^dz
def test_criterion_02():
    pi = linear_poisson(Algebra("book", F(1, 3)))
    table = cohomology_table(pi, 10)
    assert table.totals == {0: 1, 1: 3, 2: 2, 3: 0}
    assert table.dim_h(2, 3) == 1
    assert _spans_cell(pi, 2, 3, ["y^3*dx^dz"])


# criterion 3: book tau = 3/5 is resonance free beyond degree one
def test_criterion_03():
    table = cohomology_table(linear_poisson(Algebra("book", F(3, 5))), 10)
    assert table.totals == {0: 1, 1: 2, 2: 1, 3: 0}
    assert table.stable


# criterion 4: hyperbolic tau = -2/3, d <= 11; the expected grading comes
# from the fixture, whose dimension table is regenerated by the independent
# oracle enumeration before the engine is consulted
def test_criterion_04():
    expect = expected_table("hyperbolic_2_3")
    grid = oracle_dimension_grid("hyperbolic_2_3", 11)
    for q in range(4):
        for d in range(12):
            assert expect.dim(q, d) == grid.get(q, {}).get(d, 0)
    table = cohomology_table(linear_poisson(Algebra("book", F(-2, 3))), 11)
    assert {d for d in range(12) if table.dim_h(0, d)} == {0, 5, 10}
    assert {d for d in range(12) if table.dim_h(1, d)} == {0, 1, 5, 6, 10, 11}
    assert {d for d in range(12) if table.dim_h(2, d)} == {1, 6, 11}
    for d in range(12):
        for q in range(3):
            assert table.dim_h(q, d) in (0, 1)
            assert table.dim_h(q, d) == expect.dim(q, d)
        assert table.dim_h(3, d) == 0


# criterion 5: spiral tau = 1 and the semi open book share totals
# (1, 2, 1, 0); their second cohomology generators in degree one are the
# euler-type field wedge dz and y dx^dz respectively
def test_criterion_05():
    spiral = linear_poisson(Algebra("spiral", F(1)))
    table = cohomology_table(spiral, 10)
    assert table.totals == {0: 1, 1: 2, 2: 1, 3: 0}
    assert _spans_cell(spiral, 2, 1, ["x*dx^dz + y*dy^dz"])

    semi = linear_poisson("semi_open_book")
    table = cohomology_table(semi, 10)
    assert table.totals == {0: 1, 1: 2, 2: 1, 3: 0}
    assert _spans_cell(semi, 2, 1, ["y*dx^dz"])


# criterion 6: heisenberg degreewise dimensions for d <= 10: casimirs keep
# H^0 one-dimensional, the top row grows linearly, and H^1 matches the
# independent enumeration of generator families
def test_criterion_06():
    table = cohomology_table(linear_poisson("heisenberg"), 10)
    grid = oracle_dimension_grid("heisenberg", 10)
    for d in range(11):
        assert table.dim_h(0, d) == 1
        assert table.dim_h(3, d) == d + 1
        assert table.dim_h(1, d) == grid[1].get(d, 0)
        assert table.dim_h(2, d) == grid[2].get(d, 0)


# criterion 7: the affine structure has constant columns (1, 2, 1, 0)
def test_criterion_07():
    table = cohomology_table(linear_poisson("aff_x_r"), 10)
    for d in range(11):
        assert [table.dim_h(q, d) for q in range(4)] == [1, 2, 1, 0]


# criterion 8: so3 has no cohomology in degrees 1 and 2; degrees 0 and 3
# carry exactly the even casimir powers
def test_criterion_08():
    table = cohomology_table(linear_poisson("so3"), 8)
    for d in range(9):
        expect = 1 if d % 2 == 0 else 0
        assert table.dim_h(1, d) == 0
        assert table.dim_h(2, d) == 0
        assert table.dim_h(0, d) == expect
        assert table.dim_h(3, d) == expect


# criterion 9: for the euclidean structure the rotation-invariant subcomplex
# computes the same dimensions as the full complex in every cell with d <= 8
def test_criterion_09():
    pi = linear_poisson("euclidean")
    table = cohomology_table(pi, 8)
    for q in range(4):
        for d in range(9):
            assert invariant_cohomology(pi, q, d).dim_h == table.dim_h(q, d)


# criterion 10: structural identities of the machinery itself: d^2 = 0 on
# every cell with d <= 8 for all nine registry kinds, the three graded
# bracket identities on 100 random triples, and agreement of the bracket
# route with the closed-form differential on 100 random inputs
def test_criterion_10():
    instantiated = [
        Algebra("abelian"), Algebra("heisenberg"), Algebra("aff_x_r"),
        Algebra("euclidean"), Algebra("book", F(1, 2)),
        Algebra("book", F(-2, 3)), Algebra("semi_open_book"),
        Algebra("spiral", F(1)), Algebra("sl2"), Algebra("so3")]
    for alg in instantiated:
        pi = linear_poisson(alg)
        with holding_stencils(pi):
            for d in range(9):
                mats = [differential_matrix(pi, q, d) for q in range(4)]
                for q in range(3):
                    assert all(
                        col == {} for col in
                        compose(mats[q + 1].columns, mats[q].columns)), (alg, q, d)

    rng = random.Random(1009)
    for _ in range(100):
        p, q, r = (rng.randint(0, 3) for _ in range(3))
        a = random_multivector(rng, p, 5)
        b = random_multivector(rng, q, 5)
        c = random_multivector(rng, r, 5)
        anti = -1 if ((p - 1) * (q - 1)) % 2 else 1
        assert schouten_bracket(a, b) == schouten_bracket(b, a) * (-anti)
        s1 = -1 if ((p - 1) * (r - 1)) % 2 else 1
        s2 = -1 if ((q - 1) * (p - 1)) % 2 else 1
        s3 = -1 if ((r - 1) * (q - 1)) % 2 else 1
        jac = (
            schouten_bracket(a, schouten_bracket(b, c)) * s1
            + schouten_bracket(b, schouten_bracket(c, a)) * s2
            + schouten_bracket(c, schouten_bracket(a, b)) * s3)
        assert jac.is_zero()
        leib = -1 if ((p - 1) * q) % 2 else 1
        assert schouten_bracket(a, wedge(b, c)) == (
            wedge(schouten_bracket(a, b), c)
            + wedge(b, schouten_bracket(a, c)) * leib)

    rng = random.Random(1013)
    wedge_dz_kinds = [
        Algebra("euclidean"), Algebra("book", F(1, 2)),
        Algebra("book", F(-2, 3)), Algebra("semi_open_book"),
        Algebra("spiral", F(1))]
    for i in range(100):
        pi = linear_poisson(wedge_dz_kinds[i % len(wedge_dz_kinds)])
        value = random_multivector(rng, rng.randint(0, 3), 5)
        assert closed_form_differential(pi, value) == poisson_differential(pi, value)


# criterion 11: the deformation bracket identities hold exactly on 20 random
# coefficient pairs per family
def test_criterion_11():
    from poisson3 import Polynomial

    def planar(rng):
        poly = sum(
            (Polynomial.monomial(
                (rng.randint(0, 3), rng.randint(0, 3), 0),
                F(rng.randint(-4, 4)))
             for _ in range(4)), Polynomial.zero())
        return poly - Polynomial.monomial((0, 0, 0), poly.terms.get((0, 0, 0), 0))

    rng = random.Random(1021)
    for _ in range(20):
        check = deformation_identity_check("heisenberg", planar(rng), planar(rng))
        assert check.residual.is_zero()
    for _ in range(20):
        profile = sum(
            (Polynomial.monomial((k, 0, 0), F(rng.randint(-4, 4)))
             for k in range(4)), Polynomial.zero())
        g = sum(
            (Polynomial.monomial((0, 0, k), F(rng.randint(-4, 4)))
             for k in range(4)), Polynomial.zero())
        check = deformation_identity_check("euclidean", profile, g)
        assert check.residual.is_zero()


# criterion 12: modular classes: zero for heisenberg and euclidean, -dy for
# the affine kind, -(1 + tau) dz for every book member, and always a cocycle
def test_criterion_12():
    fixed = {
        "heisenberg": "0",
        "aff_x_r": "-1*dy",
        "euclidean": "0",
    }
    for kind, text in fixed.items():
        check = modular_class_check(kind)
        assert format_multivector(check.field) == text
        assert check.matches and check.is_cocycle
    for tau in (F(1), F(1, 3), F(3, 5), F(-2, 3), F(-1)):
        check = modular_class_check(Algebra("book", tau))
        expected = -(1 + tau)
        if expected:
            assert format_multivector(check.field) == "%s*dz" % expected
        else:
            assert check.field.is_zero()
        assert check.matches and check.is_cocycle


# criterion 13: resonance enumeration against the hand-derived case analysis
# at c = 1, dmax = 20 (tau = p/q in lowest terms: positive tau admits a
# second pair only for p = 1, negative tau gives the arithmetic progression
# (np+1, nq))
def test_criterion_13():
    expected = {
        F(1): [(1, 0), (0, 1)],
        F(1, 2): [(1, 0), (0, 2)],
        F(1, 5): [(1, 0), (0, 5)],
        F(3, 5): [(1, 0)],
        F(-1): [(n + 1, n) for n in range(10)],
        F(-2, 3): [(2 * n + 1, 3 * n) for n in range(4)],
        F(-1, 4): [(n + 1, 4 * n) for n in range(4)],
    }
    for tau, pairs in expected.items():
        assert resonances(tau, F(1), 20) == pairs, tau


# criterion 14: the expression grammar round-trips 200 random multivectors
# with coefficient degree <= 5, and a full verification pass emits byte
# identical JSON when repeated
def test_criterion_14(capsys):
    rng = random.Random(1031)
    for _ in range(200):
        value = random_multivector(rng, rng.randint(0, 3), 5)
        assert parse_multivector(format_multivector(value)) == value

    def full_run():
        chunks = []
        for fixture_id in FIXTURE_IDS:
            dmax = max(expected_table(fixture_id).dmax_min, 4)
            code = cli_main(["verify", "--id", fixture_id, "--dmax",
                             str(dmax), "--format", "json"])
            assert code == 0
            chunks.append(capsys.readouterr().out)
        return chunks

    first = full_run()
    second = full_run()
    assert first == second
    for chunk in first:
        doc = json.loads(chunk)
        assert doc["passed"] is True
