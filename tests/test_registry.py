"""Structure constant tables, linear bivectors, and the jacobi defect."""

import random
from fractions import Fraction

import pytest

from poisson3 import (
    KINDS,
    Algebra,
    MultiVector,
    Polynomial,
    StructureConstants,
    format_multivector,
    jacobi_defect,
    linear_poisson,
    parse_multivector,
    schouten_bracket,
    structure_constants,
)

HALF = Fraction(1, 2)


def test_registry_lists_nine_kinds():
    assert len(KINDS) == 9
    assert KINDS[0] == "abelian"
    assert set(KINDS) == {
        "abelian", "heisenberg", "aff_x_r", "euclidean", "book",
        "semi_open_book", "spiral", "sl2", "so3"}


def test_structure_constant_tables():
    assert structure_constants("abelian").c == {}
    assert structure_constants("heisenberg").c == {(0, 1, 2): 1}
    assert structure_constants("aff_x_r").c == {(0, 1, 0): 1}
    assert structure_constants("euclidean").c == {(0, 2, 1): -1, (1, 2, 0): 1}
    assert structure_constants("semi_open_book").c == {
        (0, 2, 0): 1, (1, 2, 0): 1, (1, 2, 1): 1}
    assert structure_constants("sl2").c == {
        (0, 1, 2): 1, (1, 2, 0): 1, (0, 2, 1): 1}
    assert structure_constants("so3").c == {
        (0, 1, 2): 1, (1, 2, 0): 1, (0, 2, 1): -1}


def test_parametric_tables():
    book = structure_constants(Algebra("book", HALF))
    assert book.c == {(0, 2, 0): 1, (1, 2, 1): HALF}
    spiral = structure_constants(Algebra("spiral", HALF))
    # [e1,e3] = tau e1 - e2, [e2,e3] = e1 + tau e2
    assert spiral.c == {
        (0, 2, 0): HALF, (0, 2, 1): -1, (1, 2, 0): 1, (1, 2, 1): HALF}


def test_structure_constants_are_antisymmetric_storage():
    # keys are stored with i < j only
    for kind in KINDS:
        alg = Algebra(kind, HALF) if kind in ("book", "spiral") else kind
        for (i, j, k) in structure_constants(alg).c:
            assert i < j
    # get() folds in the antisymmetry
    heis = structure_constants("heisenberg")
    assert heis.get(1, 0, 2) == -1
    assert heis.get(1, 1, 2) == 0


def test_tau_validation():
    with pytest.raises(ValueError):
        Algebra("book", Fraction(0))
    with pytest.raises(ValueError):
        Algebra("book", Fraction(3, 2))
    with pytest.raises(ValueError):
        Algebra("spiral", Fraction(-1))
    with pytest.raises(ValueError):
        Algebra("spiral", Fraction(0))
    with pytest.raises(ValueError):
        Algebra("book")
    with pytest.raises(ValueError):
        Algebra("heisenberg", HALF)
    with pytest.raises(ValueError):
        Algebra("nosuch")
    # book accepts the full punctured interval including negatives
    Algebra("book", Fraction(-2, 3))
    Algebra("book", Fraction(1))
    Algebra("book", Fraction(-1))


def test_linear_poisson_bivectors():
    assert linear_poisson("heisenberg") == parse_multivector("z*dx^dy")
    assert linear_poisson("aff_x_r") == parse_multivector("x*dx^dy")
    # rotation field wedge dz
    assert linear_poisson("euclidean") == parse_multivector(
        "-1*y*dx^dz + x*dy^dz")
    assert linear_poisson(Algebra("book", Fraction(1, 3))) == parse_multivector(
        "x*dx^dz + 1/3*y*dy^dz")
    assert linear_poisson("semi_open_book") == parse_multivector(
        "x*dx^dz + x*dy^dz + y*dy^dz")
    assert linear_poisson(Algebra("spiral", Fraction(2))) == parse_multivector(
        "2*x*dx^dz - y*dx^dz + x*dy^dz + 2*y*dy^dz")
    assert linear_poisson("sl2") == parse_multivector(
        "z*dx^dy + y*dx^dz + x*dy^dz")
    assert linear_poisson("so3") == parse_multivector(
        "z*dx^dy - y*dx^dz + x*dy^dz")
    assert linear_poisson("abelian").is_zero()


def test_linear_poisson_accepts_kind_or_algebra_or_constants():
    by_kind = linear_poisson("heisenberg")
    by_alg = linear_poisson(Algebra("heisenberg"))
    by_table = linear_poisson(StructureConstants({(0, 1, 2): Fraction(1)}))
    assert by_kind == by_alg == by_table


def test_linear_poisson_is_linear_in_coordinates():
    for kind in KINDS:
        alg = Algebra(kind, HALF) if kind in ("book", "spiral") else kind
        pi = linear_poisson(alg)
        assert pi.is_zero() or pi.is_coefficient_homogeneous(1)


def test_book_like_kinds_have_no_dxdy_component():
    # these structures are X wedge dz, so the dx^dy slot stays empty
    for alg in ("euclidean", Algebra("book", HALF),
                "semi_open_book", Algebra("spiral", Fraction(3))):
        assert linear_poisson(alg).component(2).is_zero()


def test_jacobi_defect_zero_for_all_registry_kinds():
    for kind in KINDS:
        alg = Algebra(kind, HALF) if kind in ("book", "spiral") else kind
        assert jacobi_defect(alg).is_zero()
        pi = linear_poisson(alg)
        assert schouten_bracket(pi, pi).is_zero()


def test_jacobi_defect_detects_broken_table():
    # mixing the heisenberg bracket with [e1,e3] = e1 breaks jacobi
    bad = StructureConstants({(0, 1, 2): Fraction(1), (0, 2, 0): Fraction(1)})
    assert format_multivector(jacobi_defect(bad)) == "2*z*dx^dy^dz"


def _jacobiator(sc):
    """[e1,[e2,e3]] + [e2,[e3,e1]] + [e3,[e1,e2]] as a coefficient triple."""
    e = [(Fraction(1), Fraction(0), Fraction(0)),
         (Fraction(0), Fraction(1), Fraction(0)),
         (Fraction(0), Fraction(0), Fraction(1))]
    total = [Fraction(0)] * 3
    for (a, b, c) in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        inner = sc.bracket(e[b], e[c])
        outer = sc.bracket(e[a], inner)
        total = [t + o for t, o in zip(total, outer)]
    return tuple(total)


def test_jacobi_defect_matches_jacobiator_on_random_tables():
    # independent route: [pi, pi] = 2 (sum_m J^m x_m) dx^dy^dz where J is
    # the jacobiator of (e1, e2, e3) computed from the bracket table alone
    rng = random.Random(83)
    for _ in range(50):
        table = {}
        for (i, j) in ((0, 1), (0, 2), (1, 2)):
            for k in range(3):
                val = Fraction(rng.randint(-3, 3))
                if val:
                    table[(i, j, k)] = val
        sc = StructureConstants(table)
        jac = _jacobiator(sc)
        coeff = sum(
            (Polynomial.variable(m) * jac[m] for m in range(3)),
            Polynomial.zero())
        assert jacobi_defect(sc) == MultiVector.trivector(coeff * 2)


def test_cyclic_symmetric_table_satisfies_jacobi():
    # c^1_12 = c^2_13 = c^3_23 = 1 cancels pairwise inside the defect sum
    sc = StructureConstants({
        (0, 1, 0): Fraction(1), (0, 2, 1): Fraction(1), (1, 2, 2): Fraction(1)})
    assert jacobi_defect(sc).is_zero()


def test_algebra_equality_and_repr():
    assert Algebra("book", HALF) == Algebra("book", Fraction(2, 4))
    assert Algebra("book", HALF) != Algebra("book", Fraction(1, 3))
    assert Algebra("so3") == Algebra("so3")
    text = repr(Algebra("book", HALF))
    assert "book" in text and "1/2" in text


def test_structure_constants_reject_bad_keys():
    with pytest.raises(ValueError):
        StructureConstants({(1, 0, 2): Fraction(1)})
    with pytest.raises(ValueError):
        StructureConstants({(0, 3, 2): Fraction(1)})


def test_inexact_inputs_are_rejected():
    # the float -2/3 is a binary approximation, and its table differs
    with pytest.raises(TypeError, match="expected a rational scalar"):
        Algebra("book", -2 / 3)
    with pytest.raises(TypeError):
        Algebra("spiral", 0.5)
    with pytest.raises(TypeError):
        StructureConstants({(0, 1, 2): 0.1})
    # int, Fraction and str stay exact
    assert Algebra("book", "-2/3") == Algebra("book", Fraction(-2, 3))
    assert Algebra("spiral", 1).tau == 1
    assert StructureConstants({(0, 1, 2): "1/2"}) == StructureConstants({(0, 1, 2): HALF})


def test_structure_constants_reject_an_unknown_kind():
    algebra = Algebra("so3")
    algebra.name = "so4"
    with pytest.raises(ValueError, match="unknown algebra 'so4'"):
        structure_constants(algebra)
