"""Graded cochain bases, differential matrices, and the invariant subcomplex."""

import hashlib
import random
import re
from fractions import Fraction
from math import lcm

import pytest

from helpers import (
    ROTATION, closed_form_differential, compose, conjugated_constants, exact_columns,
    invariant_basis, invariant_multivectors, kernel_basis, operator_matrix, random_multivector,
    rank, rotation_matrix)
from poisson3 import (
    Algebra,
    DegreeError,
    GradedBasis,
    KINDS,
    MultiVector,
    OperatorCell,
    Polynomial,
    cohomology_table,
    differential_matrix,
    jacobi_defect,
    linear_poisson,
    monomials,
    parse_multivector,
    poisson_differential,
    rotation_field,
    schouten_bracket,
    structure_constants,
)
from poisson3 import complexes, linalg, multivector
from poisson3.complexes import holding_stencils, linear_operator_matrix, new_invariant_vectors
from poisson3.multivector import NCOMP, linear_stencil, monomial_key
from poisson3.linalg import matvec

ALGEBRAS = tuple(
    Algebra(kind, Fraction(1, 2)) if kind in ("book", "spiral") else Algebra(kind)
    for kind in KINDS)


def mv(text):
    return parse_multivector(text)


# ---------------------------------------------------------------- bases


def test_monomials_of_degree_two():
    assert monomials(2) == [
        (0, 0, 2), (0, 1, 1), (1, 0, 1), (0, 2, 0), (1, 1, 0), (2, 0, 0)]
    assert monomials(0) == [(0, 0, 0)]
    assert monomials(-1) == []


def test_basis_sizes():
    assert len(GradedBasis(0, 2)) == 6
    assert len(GradedBasis(3, 0)) == 1
    assert len(GradedBasis(1, 1)) == 9
    # binom(3, q) * (d+1)(d+2)/2
    assert len(GradedBasis(2, 4)) == 3 * 15


def _elements(basis):
    """The elements of a basis in order, read off `GradedBasis.element`."""
    return [basis.element(position) for position in range(len(basis))]


def test_basis_order_is_deterministic():
    first = _elements(GradedBasis(1, 2))
    second = _elements(GradedBasis(1, 2))
    assert first == second
    # monomial-major, component index minor
    assert first[0] == (0, (0, 0, 2))
    assert first[1] == (1, (0, 0, 2))
    assert first[2] == (2, (0, 0, 2))


def test_monomials_enumerate_the_sorted_order():
    for d in range(16):
        triples = [(i, j, d - i - j) for i in range(d + 1) for j in range(d + 1 - i)]
        assert monomials(d) == sorted(triples, key=monomial_key, reverse=True)


def test_position_is_the_index_of_the_element():
    for q in range(4):
        for d in range(13):
            basis = GradedBasis(q, d)
            listed = [(idx, mono) for mono in monomials(d) for idx in range(NCOMP[q])]
            assert len(basis) == len(listed)
            for pos, element in enumerate(listed):
                assert basis.position(*element) == pos
                assert basis.element(pos) == element


def test_position_rejects_elements_outside_the_basis():
    for q in range(4):
        basis = GradedBasis(q, 2)
        for idx, mono in ((NCOMP[q], (1, 1, 0)), (-1, (1, 1, 0)), (0, (3, -1, 0)),
                          (0, (1, 1, 1)), (0, (1, 0, 0))):
            with pytest.raises(KeyError):
                basis.position(idx, mono)
    with pytest.raises(DegreeError):
        GradedBasis(2, 2).decompose(mv("x*y^2*dx^dy"))


def test_reconstruct_rejects_positions_outside_the_basis():
    for basis in [GradedBasis(q, d) for q in range(4) for d in range(4)]:
        last = len(basis) - 1
        assert basis.decompose(basis.reconstruct({last: 1})) == {last: 1}
        for position in (-1, len(basis), 10**9):
            with pytest.raises(KeyError):
                basis.reconstruct({position: 1})
            with pytest.raises(KeyError):
                basis.element(position)


def test_basis_rejects_bad_degrees():
    with pytest.raises(ValueError):
        GradedBasis(4, 0)
    with pytest.raises(ValueError):
        GradedBasis(1, -1)


def test_decompose_reconstruct_roundtrip():
    rng = random.Random(211)
    for q in range(4):
        basis = GradedBasis(q, 3)
        for _ in range(5):
            coords = {rng.randrange(len(basis)): Fraction(rng.randint(-5, 5))
                      for _ in range(4)}
            coords = {i: v for i, v in coords.items() if v}
            value = basis.reconstruct(coords)
            assert basis.decompose(value) == coords


def test_decompose_degree_errors():
    basis = GradedBasis(1, 2)
    with pytest.raises(DegreeError):
        basis.decompose(mv("x*dx"))
    with pytest.raises(ValueError):
        basis.decompose(mv("x^2*dx^dy"))
    assert basis.decompose(MultiVector.zero(1)) == {}


# ---------------------------------------------------------------- matrices


def test_heisenberg_differential_on_linear_functions():
    pi = linear_poisson("heisenberg")
    cell = differential_matrix(pi, 0, 1)
    assert len(cell.source) == 3 and len(cell.target) == 9
    images = {}
    for pos in range(len(cell.source)):
        idx, mono = cell.source.element(pos)
        image = cell.target.reconstruct(matvec(exact_columns(cell), {pos: Fraction(1)}))
        images[mono] = image
    assert images[(0, 0, 1)].is_zero()  # z is a casimir
    assert images[(0, 1, 0)] == mv("z*dx")
    assert images[(1, 0, 0)] == mv("-1*z*dy")
    assert rank(cell.columns) == 2


def test_abelian_differential_is_zero():
    pi = linear_poisson("abelian")
    for q in range(4):
        cell = differential_matrix(pi, q, 2)
        assert all(col == {} for col in cell.columns)


def test_top_degree_differential_is_zero_map():
    pi = linear_poisson("so3")
    cell = differential_matrix(pi, 3, 2)
    assert len(cell.source) == len(GradedBasis(3, 2))
    assert all(col == {} for col in cell.columns)


def test_differential_requires_linear_bivector():
    with pytest.raises(ValueError):
        differential_matrix(mv("x*dx"), 0, 1)
    with pytest.raises(DegreeError):
        differential_matrix(mv("z^2*dx^dy"), 0, 1)
    # rejected up front, even where every bracket vanishes (a constant
    # bivector on the constants)
    for text in ("dx^dy", "x*dy^dz + z^2*dx^dy"):
        for d in (0, 1):
            for q in range(3):
                with pytest.raises(DegreeError):
                    differential_matrix(mv(text), q, d)
    # raised by the stencil in multivector, re-exported unchanged
    assert DegreeError is complexes.DegreeError is multivector.DegreeError


def test_zero_operator_counts_as_linear():
    for degree in range(4):
        for q in range(4):
            if 0 <= q + degree - 1 <= 3:
                cell = linear_operator_matrix(MultiVector.zero(degree), q, 2)
                assert len(cell.source) == len(GradedBasis(q, 2))
                assert all(col == {} for col in cell.columns)
    with pytest.raises(ValueError):
        linear_operator_matrix(rotation_field(), 0, -1)
    with pytest.raises(ValueError):
        linear_operator_matrix(MultiVector.zero(3), 2, 1)


@pytest.mark.parametrize("entry", [
    (0, (-1, 1, 0), (1, 0, 0, 2)),   # lowers x, with a constant term
    (0, (-1, 1, 0), (1, 1, 0, 0)),   # lowers x, with a form on y
    (0, (0, 0, -1), (0, 1, 0, 0)),   # lowers z, with a form on y only
    (1, (-2, 1, 1), (5, 0, 0, 0)),   # lowers x by two
    (2, (1, 0, 0), (1, 0, 0, 0)),    # raises the total degree
    (3, (0, 0, 0), (0, 0, 0, 1)),    # no component 3 in degree 1
])
def test_stencil_entries_that_leave_the_basis_are_rejected(monkeypatch, entry):
    good = (1, (0, 1, -1), (0, 0, 4, 0))  # lowers z with a form on z alone
    with pytest.raises(ValueError, match=re.escape(repr(entry))):
        multivector._check_stencil([[good, entry]], 1)
    multivector._check_stencil([[good]], 1)
    monkeypatch.setattr(complexes, "linear_stencil",
                        lambda operator, q: ([[good]], 1))
    pi = linear_poisson("sl2")
    cell = linear_operator_matrix(pi, 0, 2)
    assert matvec(cell.columns, {cell.source.position(0, (0, 0, 2)): 1}) == {
        cell.target.position(1, (0, 1, 1)): 8}


def test_a_stencil_for_no_degree_must_be_empty():
    # [A, B] has degree deg A + deg B - 1, which can fall outside 0..3, where
    # the bracket is 0
    for out_q in (-1, 4):
        multivector._check_stencil([[], []], out_q)
        with pytest.raises(ValueError, match="degree-%d basis" % out_q):
            multivector._check_stencil([[(0, (0, 0, 0), (0, 0, 0, 1))]], out_q)


def test_a_stencil_table_is_checked_once(monkeypatch):
    # within a hold of its operator each stencil is derived and checked once,
    # however many tables and cells read it
    checked = []
    check = multivector._check_stencil
    monkeypatch.setattr(multivector, "_check_stencil",
                        lambda table, out_q: checked.append(table) or check(table, out_q))
    pi = linear_poisson("sl2")
    with holding_stencils(pi), holding_stencils(ROTATION):
        for _ in range(2):
            cohomology_table(pi, 4)
            for q in range(4):
                for d in range(3):
                    rotation_matrix(q, d)
    held = list(checked)
    derived = [linear_stencil(operator, q)[0]
               for operator, qs in ((pi, range(3)), (ROTATION, range(4))) for q in qs]
    assert sorted(map(repr, held)) == sorted(map(repr, derived))


def test_a_stencil_that_fails_its_check_is_checked_again(monkeypatch):
    # a hold keeps only a stencil that passed its check
    checked = []
    check = multivector._check_stencil

    def rejecting(table, out_q):
        checked.append(out_q)
        raise ValueError("rejected")

    monkeypatch.setattr(multivector, "_check_stencil", rejecting)
    pi = linear_poisson("sl2")
    with holding_stencils(pi):
        for _ in range(2):
            with pytest.raises(ValueError, match="rejected"):
                linear_operator_matrix(pi, 0, 2)
        assert checked == [1, 1]
        monkeypatch.setattr(multivector, "_check_stencil",
                            lambda table, out_q: checked.append(out_q) or check(table, out_q))
        for d in range(3):
            linear_operator_matrix(pi, 0, d)
    assert checked == [1, 1, 1]


def _layout_algebras(rng):
    """Every registry kind, with book and spiral at fixed and seeded tau."""
    taus = {"book": [Fraction(-2, 3), Fraction(1, 3), Fraction(-1),
                     Fraction(rng.randint(1, 9), rng.randint(9, 15)) * rng.choice((1, -1))],
            "spiral": [Fraction(1), Fraction(5, 2),
                       Fraction(rng.randint(1, 30), rng.randint(1, 12))]}
    return [Algebra(kind, tau) for kind in KINDS for tau in taus.get(kind, [None])]


def _leads(columns, p):
    """The highest row at which each column is nonzero mod p, None for none."""
    return [max((i for i, c in col.items() if c % p), default=None) for col in columns]


@pytest.mark.parametrize("seed", [5, 17])
def test_each_layout_of_a_cell_reads_the_same_matrix(seed):
    # a cell read as rows with some columns left out is the row layout of
    # its columns with those emptied, and read at some rows it is those of
    # its rows, and off a stencil where no entry raises s = d - m_z, from a
    # target block, those of the blocks from it on, while off a stencil with
    # such an entry, read from any block but the first, it raises rather
    # than drop what the block below writes into it; its leads mod p, read last
    # first outside a skip, are the highest rows at which its columns are
    # nonzero mod p; each column built alone, from its component and monomial,
    # is that column, and a position outside the source basis, -1 or n,
    # raises KeyError; reading every column leaves the cell as it was; so
    # for a cell that holds a list of columns
    rng = random.Random(seed)
    for algebra in _layout_algebras(rng):
        pi = linear_poisson(algebra)
        with holding_stencils(pi):
            for q in range(4):
                for d in range(9):
                    whole = differential_matrix(pi, q, d).columns
                    n = len(whole)
                    raised = q < 3 and any(  # an entry that raises s = d - m_z
                        sz < 0 for component in linear_stencil(pi, q)[0]
                        for _, (_, _, sz), _ in component)
                    for cell in (differential_matrix(pi, q, d), OperatorCell(None, None, whole, 1)):
                        free = set(rng.sample(range(n), rng.randint(0, n)))
                        skip = set(rng.sample(range(n), rng.randint(0, n)))
                        laid_out = linalg.lay_out(
                            [{} if j in free else col for j, col in enumerate(whole)])
                        assert cell.rows(free) == laid_out
                        size = len(differential_matrix(pi, q, d).target)
                        at = set(rng.sample(range(size), rng.randint(0, size)))
                        kept = [k for k, i in enumerate(laid_out[0]) if i in at]
                        assert cell.rows(free, at) == ([laid_out[0][k] for k in kept],
                                                       [laid_out[1][k] for k in kept])
                        if cell.source is not None and not raised:  # from a target block
                            start = rng.randint(0, d)
                            first = len(GradedBasis(cell.target.q, start - 1)) if start else 0
                            kept = [k for k, i in enumerate(laid_out[0]) if i >= first]
                            assert cell.rows(free, None, start) == (
                                [laid_out[0][k] for k in kept], [laid_out[1][k] for k in kept])
                        elif cell.source is not None:  # block start - 1 writes into block start
                            for start in range(1, d + 1):
                                with pytest.raises(ValueError, match="rows from block %d would "
                                                   "drop the entries that raise s" % start):
                                    cell.rows(free, None, start)
                            assert cell.rows(free, None, 0) == laid_out
                        read = [j for j in range(n - 1, -1, -1) if j not in skip]
                        for p in (linalg.PRIME, 2, 3):
                            leads = _leads(whole, p)
                            reader = cell.leads(skip, p)
                            first = read[:rng.randint(0, len(read))]  # a pass that stops early
                            assert [next(reader) for _ in first] == [(j, leads[j]) for j in first]
                            assert list(reader) == [(j, leads[j]) for j in read[len(first):]]
                        assert [cell.column(j) for j in range(n)] == whole
                        for outside in (-1, n):
                            with pytest.raises(KeyError):
                                cell.column(outside)
                        state = [getattr(cell, name) for name in OperatorCell.__slots__]
                        assert cell.columns == whole and len(cell) == n
                        assert all(getattr(cell, name) is value
                                   for name, value in zip(OperatorCell.__slots__, state))


def test_apply_is_the_product_with_the_columns_and_its_slope_the_next_degrees():
    # a cell applied to a sparse vector gives the product with its columns,
    # and the slope that the same coordinates at degree d + 1 add to it (m_z
    # and d raised together), with no column built; a position outside the
    # source basis raises KeyError; a list cell's image is the product with
    # its columns.  Every kind, in its registry basis and in a conjugated one
    rng = random.Random(341)
    pis = [linear_poisson(algebra) for algebra in ALGEBRAS]
    pis += [linear_poisson(conjugated_constants(structure_constants(algebra), rng))
            for algebra in ALGEBRAS]
    moved = 0
    for pi in pis:
        with holding_stencils(pi):
            for q in range(3):
                for d in range(9):
                    cell, above = differential_matrix(pi, q, d), differential_matrix(pi, q, d + 1)
                    whole, n = cell.columns, len(cell)
                    for value in (lambda: rng.randint(-5, 5),
                                  lambda: Fraction(rng.randint(-5, 5), rng.randint(1, 4))):
                        vector = {j: value() for j in rng.sample(range(n), rng.randint(0, min(n, 5)))}
                        image, slope = cell.apply(vector)
                        assert image == matvec(whole, vector), (pi, q, d)
                        assert slope == matvec((matvec(above.columns, vector), image),
                                               {0: 1, 1: -1}), (pi, q, d)
                        moved += bool(slope)
                        assert OperatorCell(None, None, whole, 1).apply(vector) == (image, None)
                    for outside in (n, -1):
                        for read in (cell, OperatorCell(None, None, whole, 1)):
                            with pytest.raises(KeyError):
                                read.apply({0: 1, outside: 2})
    assert moved > 100  # the slope is exercised, not only 0


def test_leads_pass_over_entries_that_vanish_or_are_zero_mod_p(monkeypatch):
    # the entry of a column that would reach the highest row can vanish (a
    # form c m_a at m_a = 0) or be 0 mod p: the lead is then a lower
    # entry's row, or None for a column that is 0 mod p.  No column is built
    built = []
    column = complexes.OperatorCell.column
    monkeypatch.setattr(complexes.OperatorCell, "column",
                        lambda cell, j: built.append(j) or column(cell, j))
    cases = dict.fromkeys(("vanishes", "zero mod p", "zero column"), 0)
    for algebra in ALGEBRAS:
        pi = linear_poisson(algebra)
        with holding_stencils(pi):
            for q in range(4):
                stencil = linear_stencil(pi, q)[0] if q < 3 else [[]]
                for d in range(7):
                    for p in (linalg.PRIME, 2, 3):
                        cell = differential_matrix(pi, q, d)
                        leads = dict(cell.leads((), p))
                        assert built == []
                        whole = cell.columns
                        del built[:]
                        assert leads == dict(enumerate(_leads(whole, p)))
                        for j, lead in leads.items():
                            idx, mono = cell.source.element(j)
                            top = min(stencil[idx], key=lambda e: (monomial_key(e[1]), -e[0]),
                                      default=None)
                            value = top and sum(a * m for a, m in zip(top[2], (*mono, 1)))
                            cases["vanishes"] += lead is not None and value == 0
                            cases["zero mod p"] += lead is not None and value and not value % p
                            cases["zero column"] += lead is None
    assert all(cases.values()), cases


def test_differentials_leave_the_basis_elements_unbuilt(monkeypatch):
    # a differential is sized and filled by closed forms: no build enumerates
    # the basis elements, which come from `monomials`
    listed = []
    monkeypatch.setattr(complexes, "monomials", lambda d: listed.append(d) or monomials(d))
    pi = linear_poisson("sl2")
    cells = [differential_matrix(pi, q, d) for q in range(4) for d in range(9)]
    cells += [linear_operator_matrix(rotation_field(), q, 5) for q in range(4)]
    for cell in cells:  # a cell builds only as it is read: read it every way
        cell.rows(), list(cell.leads((), linalg.PRIME)), cell.columns
        cell.column(0), cell.column(len(cell) - 1)
    assert listed == []
    for cell in cells:
        assert len(cell.columns) == len(cell.source)
        for basis in (cell.source, cell.target):
            assert _elements(basis) == [(idx, mono) for mono in complexes.monomials(basis.d)
                                        for idx in range(NCOMP[basis.q])]
    assert listed  # the patch is live: the element lists above came from it


def test_kills_is_the_brackets_closedness_test():
    # a cell kills a cochain's coordinates exactly when its bracket with pi
    # is 0; exact cochains [pi, u] are killed, and at q = 3 every trivector
    rng = random.Random(234)
    found = {False: 0, True: 0}
    for pi in [linear_poisson(alg) for alg in ALGEBRAS]:
        with holding_stencils(pi):
            for q in range(4):
                for d in range(5):
                    cell = differential_matrix(pi, q, d)
                    basis, size = cell.source, len(cell.source)
                    coords = {j: Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                              for j in rng.sample(range(size), rng.randint(0, min(size, 4)))}
                    closed = schouten_bracket(pi, basis.reconstruct(coords)).is_zero()
                    assert cell.kills(coords) == closed, (pi, q, d)
                    found[closed] += 1
                    if q:
                        below = GradedBasis(q - 1, d)
                        u = below.reconstruct({j: rng.randint(-3, 3) for j in range(len(below))})
                        assert cell.kills(basis.decompose(schouten_bracket(pi, u)))
    assert found[False] > 50 and found[True] > 50


def _random_linear_operator(rng, degree):
    comps = []
    for _ in range(3):
        poly = Polynomial.zero()
        for k in rng.sample(range(3), rng.randint(0, 3)):
            coeff = Fraction(rng.randint(-6, 6), rng.randint(1, 5))
            poly = poly + Polynomial.monomial(tuple(int(j == k) for j in range(3)), coeff)
        comps.append(poly)
    return MultiVector(degree, comps[:(1, 3, 3, 1)[degree]])


def _assert_same_columns(ours, oracle):
    assert _elements(ours.source) == _elements(oracle.source)
    assert _elements(ours.target) == _elements(oracle.target)
    assert exact_columns(ours) == oracle.columns
    assert all(type(value) is int for col in ours.columns for value in col.values())


def test_stencil_matches_bracket_oracle():
    rng = random.Random(233)
    bivectors = [linear_poisson(alg) for alg in ALGEBRAS]
    for _ in range(3):
        book = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(9, 15))
        spiral = Fraction(rng.randint(1, 15), rng.randint(1, 9))
        bivectors.append(linear_poisson(Algebra("book", book)))
        bivectors.append(linear_poisson(Algebra("spiral", spiral)))
    for alg in ALGEBRAS:
        conjugated = conjugated_constants(structure_constants(alg), rng)
        assert jacobi_defect(conjugated).is_zero()
        bivectors.append(linear_poisson(conjugated))
    for pi in bivectors:
        with holding_stencils(pi):
            for d in range(9):
                for q in range(3):
                    _assert_same_columns(differential_matrix(pi, q, d), operator_matrix(pi, q, d))
                assert all(col == {} for col in differential_matrix(pi, 3, d).columns)
    with holding_stencils(ROTATION):
        for d in range(9):
            for q in range(4):
                _assert_same_columns(rotation_matrix(q, d), operator_matrix(ROTATION, q, d))
    for degree in range(4):
        for _ in range(3):
            operator = _random_linear_operator(rng, degree)
            with holding_stencils(operator):
                for q in range(4):
                    if 0 <= q + degree - 1 <= 3:
                        for d in range(9):
                            _assert_same_columns(linear_operator_matrix(operator, q, d),
                                                 operator_matrix(operator, q, d))


def test_stencil_is_integer_over_the_operator_denominators():
    rng = random.Random(239)
    operators = [linear_poisson(alg) for alg in ALGEBRAS] + [rotation_field()]
    operators += [_random_linear_operator(rng, degree) for degree in range(4) for _ in range(3)]
    for operator in operators:
        den = lcm(*(c.denominator for poly in operator.components.values()
                    for c in poly.terms.values()))
        for q in range(4):
            stencil, stencil_den = linear_stencil(operator, q)
            assert stencil_den == den
            assert all(entries == sorted(entries, key=lambda e: (monomial_key(e[1]), -e[0]))
                       for entries in stencil)
            assert all(type(v) is int
                       for entries in stencil for _, _, form in entries for v in form)


def _reversed(operator):
    """The operator with its components, and each one's terms, in reversed order."""
    return MultiVector(operator.degree, {
        idx: Polynomial(dict(reversed(poly.terms.items())))
        for idx, poly in reversed(operator.components.items())})


def _term_order(operator):
    return [(idx, mono) for idx, poly in operator.components.items() for mono in poly.terms]


def _in_order(dicts):
    return [list(entries.items()) for entries in dicts]


def test_a_stencil_is_canonical_in_the_operator_value():
    # the stencil, each column read alone or all together (in the order of
    # its entries) and the row layout depend only on the operator's value,
    # not on the order its components and terms were summed in
    rng = random.Random(241)
    operators = [linear_poisson(alg) for alg in _layout_algebras(rng)] + [rotation_field()]
    operators += [_random_linear_operator(rng, degree) for degree in range(4) for _ in range(4)]
    reordered = 0
    for operator in operators:
        flipped = _reversed(operator)
        assert flipped == operator and _term_order(flipped) == _term_order(operator)[::-1]
        reordered += len(_term_order(operator)) > 1
        with holding_stencils(operator), holding_stencils(flipped):
            for q in range(4):
                if not 0 <= q + operator.degree - 1 <= 3:
                    continue
                assert linear_stencil(flipped, q) == linear_stencil(operator, q)
                for d in range(6):
                    cell, other = (linear_operator_matrix(op, q, d) for op in (operator, flipped))
                    assert _in_order(other.columns) == _in_order(cell.columns)
                    assert _in_order(map(other.column, range(len(other)))) == _in_order(
                        map(cell.column, range(len(cell))))
                    (index, rows), (other_index, other_rows) = cell.rows(), other.rows()
                    assert other_index == index and _in_order(other_rows) == _in_order(rows)
    assert reordered > len(operators) // 2


# sha256 of (kind, q, d, den, sorted columns) for d <= 4, recorded before the
# stencil, the monomial order and the basis positions became closed forms
DIFFERENTIALS_SHA256 = "ccb353009fc496e50944ba8598fb095079ba3d2692473b2e81e0bb58a8daa3a3"


def test_differential_matrices_are_pinned():
    taus = {"book": Fraction(-3, 7), "spiral": Fraction(5, 2)}
    digest = hashlib.sha256()
    for kind in KINDS:
        pi = linear_poisson(Algebra(kind, taus.get(kind)))
        with holding_stencils(pi):
            for q in range(4):
                for d in range(5):
                    cell = differential_matrix(pi, q, d)
                    digest.update(repr((kind, q, d, cell.den,
                                        [sorted(col.items()) for col in cell.columns])).encode())
    assert digest.hexdigest() == DIFFERENTIALS_SHA256


def test_tables_build_no_bracket_per_column(monkeypatch):
    calls = []

    def counting(a, b):
        calls.append((a.degree, b.degree))
        return schouten_bracket(a, b)

    monkeypatch.setattr(complexes, "schouten_bracket", counting)
    pi = linear_poisson("euclidean")
    full = cohomology_table(pi, 4)
    invariant = cohomology_table(pi, 4, invariant=True)
    assert calls == []
    assert len(full.cells) == len(invariant.cells) == 20
    # the counter does see the bracket route
    complexes.poisson_differential(pi, mv("x*dz"))
    assert calls == [(2, 1)]


def test_differential_squares_to_zero_small():
    for alg in ALGEBRAS:
        pi = linear_poisson(alg)
        with holding_stencils(pi):
            for d in range(4):
                for q in range(3):
                    inner = differential_matrix(pi, q, d)
                    outer = differential_matrix(pi, q + 1, d)
                    assert all(col == {} for col in compose(outer.columns, inner.columns))


def test_matrix_route_matches_direct_bracket():
    rng = random.Random(223)
    pi = linear_poisson(Algebra("book", Fraction(-2, 3)))
    for _ in range(10):
        q = rng.randint(0, 2)
        d = rng.randint(0, 3)
        basis = GradedBasis(q, d)
        coords = {rng.randrange(len(basis)): Fraction(rng.randint(-3, 3))
                  for _ in range(3)}
        value = basis.reconstruct(coords)
        cell = differential_matrix(pi, q, d)
        via_matrix = cell.target.reconstruct(
            matvec(exact_columns(cell), basis.decompose(value)))
        assert via_matrix == schouten_bracket(pi, value)


# ---------------------------------------------------------------- one-shot


def test_poisson_differential_examples():
    euc = linear_poisson("euclidean")
    assert poisson_differential(euc, mv("z")) == mv("-1*y*dx + x*dy")
    book = linear_poisson(Algebra("book", Fraction(1, 3)))
    assert poisson_differential(book, mv("dz")).is_zero()
    for alg in ALGEBRAS:
        pi = linear_poisson(alg)
        assert poisson_differential(pi, pi).is_zero()
    assert poisson_differential(euc, mv("x*dx^dy^dz")).is_zero()
    with pytest.raises(ValueError):
        poisson_differential(mv("dx"), mv("x"))


def test_closed_form_differential_agrees_with_bracket():
    rng = random.Random(227)
    structures = (
        "euclidean",
        Algebra("book", Fraction(1, 2)),
        Algebra("book", Fraction(-2, 3)),
        "semi_open_book",
        Algebra("spiral", Fraction(1)),
    )
    for alg in structures:
        pi = linear_poisson(alg)
        for _ in range(30):
            q = rng.randint(0, 3)
            value = random_multivector(rng, q, 3)
            assert closed_form_differential(pi, value) == poisson_differential(pi, value)


def test_closed_form_rejects_unsupported_structures():
    with pytest.raises(ValueError):
        closed_form_differential(linear_poisson("heisenberg"), mv("x"))
    with pytest.raises(ValueError):
        closed_form_differential(mv("z*dy^dz"), mv("x"))


# ---------------------------------------------------------------- invariants


def test_rotation_field_form():
    assert rotation_field() == mv("-1*y*dx + x*dy")


def test_invariant_basis_examples():
    basis, vectors = invariant_basis(0, 2)
    assert len(vectors) == 2
    # the span is exactly {x^2 + y^2, z^2}
    span = [basis.decompose(mv("x^2 + y^2")), basis.decompose(mv("z^2"))]
    assert rank(vectors + span) == 2

    zonly = invariant_multivectors(1, 0)
    assert len(zonly) == 1
    assert zonly[0] == mv("dz")

    top = invariant_multivectors(3, 0)
    assert len(top) == 1
    assert top[0] == mv("dx^dy^dz")


def test_invariant_basis_is_the_reduced_kernel_of_the_rotation():
    # the closed-form products equal the eliminated kernel, entry order included
    with holding_stencils(ROTATION):
        for q in range(4):
            for d in range(41):
                _, vectors = invariant_basis(q, d)
                _, kernel = kernel_basis(rotation_matrix(q, d).columns)
                assert [list(vec.items()) for vec in vectors] == [
                    list(vec.items()) for vec in kernel]
                assert all(vec[max(vec)] in (1, -1) for vec in vectors)


def test_z_keeps_the_positions_of_a_vector_one_degree_up():
    # z x^m xi_idx of degree d sits where x^m xi_idx of degree d - 1 does, so
    # the invariant basis of degree d is that of d - 1 followed by the
    # vectors new at d, which lie after all of C_(d-1)
    for q in range(4):
        for d in range(1, 31):
            lower, upper = GradedBasis(q, d - 1), GradedBasis(q, d)
            for idx in range(NCOMP[q]):
                for i, j, k in monomials(d - 1):
                    assert upper.position(idx, (i, j, k + 1)) == lower.position(idx, (i, j, k))
            new = new_invariant_vectors(q, d)
            assert all(len(lower) <= j < len(upper) for vec in new for j in vec)
            assert invariant_basis(q, d)[1] == invariant_basis(q, d - 1)[1] + list(new)


@pytest.mark.parametrize("q, d", [(-1, 2), (4, 2), (0, -1)])
def test_invariant_basis_rejects_a_bad_cell(q, d):
    with pytest.raises(ValueError):
        invariant_basis(q, d)
    with pytest.raises(ValueError):
        new_invariant_vectors(q, d)


def test_invariant_multivectors_are_killed_by_rotation():
    for q in range(4):
        for d in range(4):
            for value in invariant_multivectors(q, d):
                assert schouten_bracket(rotation_field(), value).is_zero()


def test_rotation_derivative_commutes_with_euclidean_differential():
    pi = linear_poisson("euclidean")
    with holding_stencils(pi), holding_stencils(ROTATION):
        for q in range(3):
            for d in range(4):
                d_cell = differential_matrix(pi, q, d)
                lhs = compose(rotation_matrix(q + 1, d).columns, d_cell.columns)
                rhs = compose(d_cell.columns, rotation_matrix(q, d).columns)
                assert lhs == rhs


def test_operator_matrix_of_rotation_matches_bracket():
    rng = random.Random(229)
    cell = operator_matrix(rotation_field(), 2, 2)
    basis = cell.source
    for _ in range(5):
        coords = {rng.randrange(len(basis)): Fraction(rng.randint(-3, 3))
                  for _ in range(3)}
        value = basis.reconstruct(coords)
        image = cell.target.reconstruct(matvec(exact_columns(cell), basis.decompose(value)))
        assert image == schouten_bracket(rotation_field(), value)
