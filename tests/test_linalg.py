"""Exact rational rank / kernel / solve routines on sparse columns."""

import copy
import random
from fractions import Fraction
from math import gcd, lcm

import pytest

from helpers import (
    cell_pass, compose, integer_matrix, integer_rows, kernel_basis, rank, reference_rref)

from poisson3 import OperatorCell, linalg
from poisson3.linalg import (
    independent_columns_mod_p,
    integer_normalize,
    kernel_and_image,
    matvec,
    rref,
    solve_combination,
)


def _columns_from_rows(rows):
    ncols = max(len(r) for r in rows)
    cols = []
    for j in range(ncols):
        col = {}
        for i, row in enumerate(rows):
            if row[j]:
                col[i] = row[j]
        cols.append(col)
    return cols


def _solve(columns, target):
    """`solve_combination` on rational data, scaled to integers by one lcm."""
    *columns, target = integer_matrix([*columns, target])
    return solve_combination(columns, target)


def _det2(m):
    return Fraction(m[0][0]) * m[1][1] - Fraction(m[0][1]) * m[1][0]


def test_identity_matrix():
    cols = _columns_from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert rank(cols) == 3
    rk, kern = kernel_basis(cols)
    assert rk == 3 and kern == []


def test_zero_matrix_four_by_five():
    cols = [{} for _ in range(5)]
    assert rank(cols) == 0
    rk, kern = kernel_basis(cols)
    assert rk == 0
    assert len(kern) == 5
    assert kern == [{j: Fraction(1)} for j in range(5)]


def test_rank_one_matrix_with_kernel():
    cols = _columns_from_rows([[1, 2], [2, 4]])
    rk, kern = kernel_basis(cols)
    assert rk == 1
    assert len(kern) == 1
    # kernel spanned by (2, -1), integer normalized with positive leading entry
    assert kern[0] == {0: Fraction(2), 1: Fraction(-1)}


def test_rank_against_determinant_on_random_two_by_two():
    rng = random.Random(101)
    for _ in range(60):
        m = [[Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(2)]
             for _ in range(2)]
        cols = [{i: m[i][j] for i in range(2) if m[i][j]} for j in range(2)]
        expected_full = _det2(m) != 0
        assert (rank(cols) == 2) == expected_full


def test_kernel_vectors_annihilate_matrix():
    rng = random.Random(103)
    for _ in range(40):
        nrows = rng.randint(1, 6)
        ncols = rng.randint(1, 6)
        cols = []
        for _ in range(ncols):
            col = {}
            for i in range(nrows):
                if rng.random() < 0.4:
                    col[i] = Fraction(rng.randint(-5, 5))
            cols.append({i: v for i, v in col.items() if v})
        rk, kern = kernel_basis(integer_matrix(cols))
        # rank-nullity over an exact field
        assert rk + len(kern) == ncols
        assert rk == rank(cols)
        for vec in kern:
            assert matvec(cols, vec) == {}


def test_solve_combination_positive_and_negative():
    cols = _columns_from_rows([[1, 0], [0, 1], [1, 1]])
    target = {0: Fraction(2), 1: Fraction(-3), 2: Fraction(-1)}
    combo = _solve(cols, target)
    assert combo == {0: Fraction(2), 1: Fraction(-3)}
    assert all(type(c) is Fraction for c in combo.values())
    assert _solve(cols, {0: Fraction(1), 2: Fraction(5)}) is None
    # zero target always solvable by the empty combination
    assert _solve(cols, {}) == {}


def test_solve_combination_reconstructs_random_images():
    rng = random.Random(107)
    for _ in range(30):
        cols = []
        for _ in range(4):
            cols.append({i: Fraction(rng.randint(-3, 3))
                         for i in range(5) if rng.random() < 0.5})
        coeffs = {j: Fraction(rng.randint(-3, 3)) for j in range(4)}
        target = {}
        for j, c in coeffs.items():
            for i, v in cols[j].items():
                target[i] = target.get(i, Fraction(0)) + c * v
        target = {i: v for i, v in target.items() if v}
        combo = _solve(cols, target)
        assert combo is not None
        rebuilt = {}
        for j, c in combo.items():
            for i, v in cols[j].items():
                rebuilt[i] = rebuilt.get(i, Fraction(0)) + c * v
        assert {i: v for i, v in rebuilt.items() if v} == target


def test_integer_normalize():
    vec = {0: Fraction(2, 3), 2: Fraction(-4, 3)}
    assert integer_normalize(vec) == {0: Fraction(1), 2: Fraction(-2)}
    # leading (lowest index) entry is made positive
    vec = {1: Fraction(-1, 2), 2: Fraction(3, 2)}
    assert integer_normalize(vec) == {1: Fraction(1), 2: Fraction(-3)}
    assert integer_normalize({}) == {}
    assert integer_normalize({0: Fraction(0)}) == {}
    assert integer_normalize({1: 0, 4: Fraction(0, 7)}) == {}
    assert integer_normalize({3: -4, 5: 6}) == {3: 2, 5: -3}
    assert all(type(c) is int for c in integer_normalize(vec).values())


def _assert_forward_table(pivots, echelon):
    """Check the form of `rref`'s forward table: distinct pivots, each its
    row's lowest index, where the row is positive, and each row primitive."""
    assert len(pivots) == len(echelon) == len(set(pivots))
    for p, row in zip(pivots, echelon):
        assert min(row) == p and row[p] > 0 and gcd(*row.values()) == 1


def test_rref_is_idempotent_and_canonical():
    # fed back in, a forward table lands as it is, row by row; its reduced
    # form, `reference_rref`'s, is the input's
    rng = random.Random(109)
    for _ in range(20):
        rows = [{j: Fraction(rng.randint(-3, 3)) for j in range(4)
                 if rng.random() < 0.7} for _ in range(3)]
        rows = integer_rows([{j: v for j, v in r.items() if v} for r in rows])
        pivots, echelon = rref(rows)
        again_pivots, again = rref(echelon)
        assert again == echelon and again_pivots == pivots
        _assert_forward_table(pivots, echelon)
        assert reference_rref(echelon) == reference_rref(rows)


def _random_rows(rng, nrows, ncols):
    rows = []
    for _ in range(nrows):
        row = {}
        for j in range(ncols):
            if rng.random() < 0.5:
                row[j] = Fraction(rng.randint(-6, 6), rng.choice((1, 1, 2, 3, 5, 7, 12)))
        rows.append(row)
    return rows


def test_rref_matches_reference_oracle():
    rng = random.Random(113)
    cases = [[], [{}], [{0: Fraction(0)}, {}]]
    for _ in range(150):
        rows = _random_rows(rng, rng.randint(1, 7), rng.randint(1, 8))
        extra = rng.random()
        if rows and extra < 0.3:
            rows.append(dict(rng.choice(rows)))  # duplicate row
        elif rows and extra < 0.6:
            rows.append({j: -c for j, c in rng.choice(rows).items()})  # negated row
        if rng.random() < 0.3:
            rows.insert(rng.randrange(len(rows) + 1), {})  # zero row
        rows.append({rng.randint(0, 8): Fraction(-rng.randint(1, 9), rng.randint(1, 4)),
                     9: Fraction(rng.randint(-3, 3))})  # negative lead
        rng.shuffle(rows)
        cases.append(rows)
    for rows in cases:
        _assert_rref_matches_oracle(rows)


def _assert_rref_matches_oracle(rows):
    """`rref` of the rows scaled to integers is a forward table of integer
    rows with `reference_rref`'s pivots, whose reduced form is the rows',
    and writes no input row."""
    ints = integer_rows(rows)
    snapshot = [dict(row) for row in ints]
    pivots, echelon = rref(ints)
    assert ints == snapshot
    assert all(type(c) is int for row in echelon for c in row.values())
    _assert_forward_table(pivots, echelon)
    reduced = reference_rref(rows)
    assert sorted(pivots) == reduced[0]
    assert reference_rref(echelon) == reduced


def _sparse_rows(rng, nrows, ncols):
    """Integer rows of one to three entries, most of them a single entry."""
    rows = []
    for _ in range(nrows):
        size = min(rng.choice((1, 1, 1, 2, 3)), ncols)
        rows.append({j: rng.choice((-1, 1)) * rng.randint(1, 6)
                     for j in rng.sample(range(ncols), size)})
    return rows


def _edge_rows(rng):
    """Sparse rows after a first row of several entries, with one-entry rows
    at its lead, one-entry rows that hold 0 and empty rows put in at random.

    The first row lands with all its entries, so a one-entry row at its lead
    meets a pivot row of several entries.
    """
    ncols = rng.randint(1, 7)
    rows = _sparse_rows(rng, rng.randint(0, 6), ncols)
    lead = rng.randrange(ncols)
    rows = [{lead: rng.choice((-1, 1)) * rng.randint(1, 6),
             rng.randint(lead + 1, ncols): rng.randint(1, 6)}, *rows]
    for _ in range(rng.randint(1, 3)):
        rows.insert(rng.randint(1, len(rows)), {lead: rng.choice((-1, 1)) * rng.randint(1, 6)})
    for _ in range(rng.randint(1, 3)):
        rows.insert(rng.randint(0, len(rows)), {rng.randrange(ncols + 1): 0})
    for _ in range(rng.randint(0, 2)):
        rows.insert(rng.randint(0, len(rows)), {})
    return rows


EDGE_ROWS = [
    [{3: 0}], [{3: 0}, {3: 2}], [{3: 2}, {3: 0}, {}],  # 0 never lands, at any pivot
    [{}, {0: 1}, {}],
    # a one-entry row whose pivot row has several entries is eliminated: it
    # leaves what the pivot row holds past the pivot
    [{0: 2, 3: 5}, {0: 4}], [{0: 2, 3: 5}, {0: -3}, {3: 1}], [{1: -2, 2: 3}, {0: 0}, {1: 6}],
]


def test_rref_matches_reference_oracle_on_single_entry_rows():
    rng = random.Random(163)
    cases = [
        [{2: -3}, {0: 4}, {2: 5}],  # one-entry rows, one of them twice
        # a one-entry row after rows that hold its column: they lose it
        [{0: 2, 3: 5}, {1: 3, 3: -1}, {3: -4}],
        # a row with one entry left after its first step, then none after
        # its second, and one left on a new pivot after its third
        [{0: 1, 1: 1}, {0: 1, 1: 1, 2: 3}, {2: 2}, {0: 2, 1: 2, 2: 6, 4: -9}],
        [{2: 5, 4: 1}, {0: 1, 1: 1}, {0: -2, 1: -2, 2: 3}],
    ]
    for _ in range(150):
        rows = _sparse_rows(rng, rng.randint(1, 9), rng.randint(1, 7))
        if rng.random() < 0.5:  # a row that is one entry off another row
            row = dict(rng.choice(rows))
            row[rng.randrange(8)] = rng.randint(1, 4)
            rows.append(row)
        rng.shuffle(rows)
        cases.append(rows)
    edge_rng = random.Random(193)  # a stream of its own for the edge rows
    cases += [_edge_rows(edge_rng) for _ in range(150)]
    for rows in EDGE_ROWS + cases:
        _assert_rref_matches_oracle(rows)


def _assert_landed_rows_raise_the_prefix_rank(rows, prefix_rank):
    landed = []
    assert rref(rows, landed) == rref(rows)
    assert landed == [k for k in range(len(rows))
                      if prefix_rank(rows[:k + 1]) > prefix_rank(rows[:k])]


def _resume_cases(rng):
    """Integer row lists with one-entry, zero and repeated rows."""
    edge_rng = random.Random(rng.random())
    cases = [*EDGE_ROWS, *(_edge_rows(edge_rng) for _ in range(100))]
    for _ in range(100):
        rows = _sparse_rows(rng, rng.randint(0, 9), rng.randint(1, 7))
        for _ in range(rng.randint(0, 3)):
            extra = dict(rng.choice(rows)) if rows and rng.random() < 0.6 else {}
            rows.insert(rng.randrange(len(rows) + 1), extra)
        cases.append(rows)
    return cases


def test_rref_resumes_from_the_table_held_after_its_first_rows():
    # an elimination that resumes from the forward table a call handed on
    # after row n, and hands one on after row m, gives the pivots, forward
    # rows and landed rows of a fresh one, which reduce to `reference_rref`'s;
    # resumed twice from one held table, it gives them twice and writes
    # neither the table nor its rows
    rng = random.Random(227)
    for rows in _resume_cases(rng):
        landed = []
        fresh = rref(rows, landed)
        pivots, echelon = fresh
        _assert_forward_table(pivots, echelon)
        assert reference_rref(echelon) == reference_rref(rows)
        n = rng.randint(0, len(rows))
        m = rng.randint(n, len(rows))
        held = []
        assert rref(rows, None, held, n) == fresh
        assert held[0] == n and held[2] == [k for k in landed if k < n]
        snapshot = copy.deepcopy(held)
        handed = []
        for _ in range(2):
            again, resumed = [], list(held)
            assert rref(rows, again, resumed, m) == fresh and again == landed
            assert held == snapshot
            handed.append(resumed)
        cold = []
        rref(rows, None, cold, m)
        assert handed[0] == handed[1] == cold
        assert cold[0] == m and cold[2] == [k for k in landed if k < m]
        assert list(cold[1]) == rref(rows[:m])[0] and len(cold[1]) == len(cold[2])
        assert sorted(cold[1]) == reference_rref(rows[:m])[0]
        assert rref(rows, None, cold) == fresh


def test_rref_reports_the_rows_that_raise_the_prefix_rank():
    # a row lands on a new pivot exactly when it is independent of the rows
    # before it, and reporting those rows changes nothing in the echelon
    rng = random.Random(191)
    for _ in range(150):
        rows = integer_rows(_random_rows(rng, rng.randint(0, 7), rng.randint(1, 7)))
        for _ in range(rng.randint(0, 3)):  # repeated and zero rows
            extra = dict(rng.choice(rows)) if rows and rng.random() < 0.6 else {}
            rows.insert(rng.randrange(len(rows) + 1), extra)
        _assert_landed_rows_raise_the_prefix_rank(rows, rank)
    # one-entry rows that hold 0 or meet a pivot row of several entries, and
    # empty rows, ranked by the oracle
    edge_rng = random.Random(197)
    for rows in EDGE_ROWS + [_edge_rows(edge_rng) for _ in range(150)]:
        _assert_landed_rows_raise_the_prefix_rank(rows, lambda rows: len(reference_rref(rows)[0]))


def test_a_row_after_a_table_lands_exactly_when_it_lies_outside_its_span():
    # span and membership questions read the rows that land in one `rref`:
    # put after a table's rows, a vector lands exactly when no combination of
    # those rows gives it, and then it is the last row to land
    rng = random.Random(199)
    lands = {False: 0, True: 0}
    for _ in range(120):
        table = integer_rows(_random_rows(rng, rng.randint(0, 6), 7))
        inside = {}
        for row in table:
            scale = rng.randint(-3, 3)
            for i, c in row.items():
                inside[i] = inside.get(i, 0) + scale * c
        inside = {i: c for i, c in inside.items() if c}
        outside = integer_rows(_random_rows(rng, 1, 7))[0]
        for vec in (inside, outside):
            landed = []
            rref(table + [vec], landed)
            outside_span = solve_combination(table, vec) is None
            assert (landed[-1:] == [len(table)]) == outside_span
            lands[outside_span] += 1
    assert lands[False] > 100 and lands[True] > 20


def _scaled(pivots, rows):
    """Echelon rows scaled to 1 at their pivots, as `reference_rref` gives them."""
    return list(pivots), [{i: Fraction(c, row[p]) for i, c in row.items()}
                          for p, row in zip(pivots, rows)]


def test_kernel_and_image_agrees_with_separate_reductions():
    rng = random.Random(127)
    for _ in range(80):
        columns = _random_rows(rng, rng.randint(0, 7), rng.randint(1, 6))
        if columns and rng.random() < 0.3:
            columns.append(dict(rng.choice(columns)))
        columns = integer_matrix(columns)
        rk, ker_pivots, ker_echelon, image = kernel_and_image(columns)
        assert rk == rank(columns) == len(image)
        assert _scaled(ker_pivots, ker_echelon) == reference_rref(kernel_basis(columns)[1])
        # the image's pivots are those of the echelon of its columns
        assert image == set(reference_rref(columns)[0])


def test_kernel_and_image_reads_off_only_the_kernel_outside_skip():
    rng = random.Random(167)
    skip_rng = random.Random(179)  # a stream of its own for the skips
    for _ in range(80):
        columns = _random_rows(rng, rng.randint(0, 7), rng.randint(1, 6))
        if columns and rng.random() < 0.3:
            columns.append(dict(rng.choice(columns)))
        columns = integer_matrix(columns)
        rk, ker_pivots, ker_echelon, image = kernel_and_image(columns)
        # pivot columns, free columns and indices out of range
        skip = {j for j in range(-2, len(columns) + 3) if skip_rng.random() < 0.4}
        for chosen in (skip, range(len(columns)), dict.fromkeys(skip)):
            snapshot = copy.deepcopy(columns)
            rk_skip, pivots_skip, echelon_skip, image_skip = kernel_and_image(columns, chosen)
            assert columns == snapshot
            assert rk_skip == rk
            assert image_skip == image
            assert list(zip(pivots_skip, echelon_skip)) == [
                (p, vec) for p, vec in zip(ker_pivots, ker_echelon) if p not in chosen]


def test_kernel_and_image_on_columns_of_mostly_one_entry():
    # the shape of a differential: most rows and columns hold one entry, so
    # most echelon rows are {pivot: 1} and are passed over in the read-off
    rng = random.Random(199)
    skip_rng = random.Random(211)  # a stream of its own for the skips
    for _ in range(120):
        columns = _sparse_rows(rng, rng.randint(1, 9), rng.randint(1, 7))
        for _ in range(rng.randint(0, 3)):  # empty and repeated columns
            extra = dict(rng.choice(columns)) if rng.random() < 0.5 else {}
            columns.insert(rng.randrange(len(columns) + 1), extra)
        snapshot = copy.deepcopy(columns)
        rk, ker_pivots, ker_echelon, image = kernel_and_image(columns)
        assert columns == snapshot
        assert _scaled(ker_pivots, ker_echelon) == reference_rref(kernel_basis(columns)[1])
        assert kernel_basis(columns) == _reference_kernel(columns)
        assert rk == len(image)
        assert image == set(rref(columns)[0]) == set(reference_rref(columns)[0])
        skip = {j for j in range(len(columns)) if skip_rng.random() < 0.4}
        rk_skip, pivots_skip, echelon_skip, image_skip = kernel_and_image(columns, skip)
        assert columns == snapshot
        assert (rk_skip, image_skip) == (rk, image)
        assert list(zip(pivots_skip, echelon_skip)) == [
            (p, vec) for p, vec in zip(ker_pivots, ker_echelon) if p not in skip]


def _keyed_rows(rng, size):
    """Integer rows of a matrix of `size` columns, column j keyed ~j: sparse
    rows with entries up to 9, so leads above 1, with duplicate, negated and
    scaled copies, zero and empty rows, and columns no row touches."""
    untouched = {j for j in range(size) if rng.random() < 0.2}
    rows = []
    for _ in range(rng.randint(0, 9)):
        columns = [j for j in range(size) if j not in untouched and rng.random() < 0.4]
        rows.append({~j: rng.choice((-1, 1)) * rng.randint(1, 9) for j in columns})
    for _ in range(rng.randint(0, 4)):
        pick = rng.random()
        if rows and pick < 0.5:
            factor = rng.choice((1, -1, 2, -3))
            rows.append({k: factor * c for k, c in rng.choice(rows).items()})
        elif pick < 0.75:
            rows.append({})
        elif size > len(untouched):
            rows.append({~rng.choice([j for j in range(size) if j not in untouched]): 0})
    rng.shuffle(rows)
    return rows


def _read_off_reference(size, rows, skip):
    """(rank, kernel pivots, kernel rows as item lists, image pivots) read off
    `reference_rref`'s reduced rows: v_j is 1 at free column j and minus a
    reduced row's entry there at its pivot, as coprime ints keyed j first,
    then the pivot columns in descending order.  A row is an image pivot
    when it raises the rank of the rows before it."""
    pivots, reduced = reference_rref(rows)
    kernel_pivots = [j for j in range(size) if ~j not in pivots and j not in skip]
    kernel = []
    for j in kernel_pivots:
        vec = {j: Fraction(1)}
        vec.update((~p, -row[~j]) for p, row in zip(pivots, reduced) if ~j in row)
        scale = lcm(*(c.denominator for c in vec.values()))
        ints = {i: int(c * scale) for i, c in vec.items()}
        g = gcd(*ints.values())
        kernel.append([(i, c // g) for i, c in ints.items()])
    ranks = [len(reference_rref(rows[:k])[0]) for k in range(len(rows) + 1)]
    image = {k for k in range(len(rows)) if ranks[k + 1] > ranks[k]}
    return len(pivots), kernel_pivots, kernel, image


def test_kernel_read_off_matches_the_reduced_rows_of_the_oracle():
    # the sparse back-solve of the forward rows gives each kernel vector
    # `reference_rref`'s reduced rows give, entry for entry and key for key,
    # with any skip, and resumed from a table a call handed on
    rng = random.Random(229)
    skip_rng = random.Random(233)  # a stream of its own for the skips
    for _ in range(300):
        size = rng.randint(1, 8)
        rows = _keyed_rows(rng, size)
        skip = {j for j in range(size) if skip_rng.random() < 0.3}
        expected = _read_off_reference(size, rows, skip)
        n = rng.randint(0, len(rows))
        held, again = [], []
        for carried in ((), (held, n), (held,), (again, n), (again,)):
            snapshot = copy.deepcopy(rows)
            rk, kernel_pivots, kernel, image = linalg.kernel_and_image_of_rows(
                size, (list(range(len(rows))), rows), skip, *carried)
            assert rows == snapshot
            assert (rk, kernel_pivots, [list(vec.items()) for vec in kernel], image) == expected
            if carried and carried[0] is held:  # hand on after row n, then resume there
                again[:] = copy.deepcopy(held)


def _fraction_solve(columns, target):
    """The combination of the columns that gives target, or None: nonzero
    only at the columns independent of those before them, by Gauss-Jordan
    over Fractions (`reference_rref`) on the rows of [basis | target]."""
    basis = [j for j in range(len(columns)) if rank(columns[:j + 1]) > rank(columns[:j])]
    last = len(basis)
    rows = [{k: vec[i] for k, vec in enumerate([*(columns[j] for j in basis), target])
             if vec.get(i)} for i in set().union(target, *columns)]
    pivots, reduced = reference_rref(rows)
    if last in pivots:
        return None
    return {basis[p]: row[last] for p, row in zip(pivots, reduced) if last in row}


def test_solve_combination_matches_a_fraction_solve():
    # consistent and inconsistent systems, with dependent columns
    rng = random.Random(239)
    solved = {False: 0, True: 0}
    for _ in range(200):
        columns = _dependent_columns(rng)
        if rng.random() < 0.5:
            target = matvec(columns, {j: Fraction(rng.randint(-3, 3), rng.randint(1, 4))
                                      for j in range(len(columns))})
        else:
            target = _random_rows(rng, 1, 7)[0]
        combo = _solve(columns, target)
        assert combo == _fraction_solve(columns, target)
        solved[combo is not None] += 1
    assert solved[False] > 20 and solved[True] > 20


def test_kernel_rows_come_out_canonical_and_led_at_their_free_column():
    # what lets the engine publish kernel rows with no normalisation of its own
    rng = random.Random(191)
    checked = 0
    for _ in range(150):
        columns = _random_rows(rng, rng.randint(0, 7), rng.randint(1, 7))
        if columns and rng.random() < 0.4:
            columns.append(dict(rng.choice(columns)))
        columns = integer_matrix(columns)
        _, ker_pivots, ker_echelon, _ = kernel_and_image(columns)
        for free, vec in zip(ker_pivots, ker_echelon):
            assert all(type(c) is int for c in vec.values())
            assert integer_normalize(vec) == vec
            assert min(vec) == free
            checked += 1
    assert checked


def _leading_rows(columns):
    """Rows r at which some vector of the columns' span leads (is last nonzero)."""
    def rank_from(r):
        return rank([{i: c for i, c in col.items() if i >= r} for col in columns])

    return {r for r in set().union(*columns) if rank_from(r) > rank_from(r + 1)}


def test_columns_independent_mod_p_have_the_exact_rank():
    rng = random.Random(131)
    shift_rng = random.Random(137)  # a stream of its own, so the matrices stay the same
    skip_rng = random.Random(139)  # and another one for the skipped columns
    for _ in range(120):
        ncols, nrows = rng.randint(0, 9), rng.randint(1, 8)
        columns = _random_rows(rng, ncols, nrows)
        if columns and rng.random() < 0.3:
            sign = rng.choice((1, -1))
            columns.append({i: sign * c for i, c in rng.choice(columns).items()})
        columns = integer_matrix(columns)
        snapshot = copy.deepcopy(columns)
        independent, pivot_rows = cell_pass(columns, set())
        assert columns == snapshot
        # entries shifted by multiples of p, and new entries of +-p where there
        # were none, are the same matrix mod p
        shifted = [{i: c + linalg.PRIME * shift_rng.randint(-2, 2) for i, c in col.items()}
                   for col in columns]
        for col in shifted:
            for i in range(nrows):
                if i not in col and shift_rng.random() < 0.3:
                    col[i] = shift_rng.choice((1, -1)) * linalg.PRIME
        assert cell_pass(shifted, set()) == (independent, pivot_rows)
        assert len(independent) == kernel_and_image(columns)[0]
        # with any skip, the columns outside it are reduced as if the others
        # were not there: column j is kept exactly when it is independent of
        # the later columns outside the skip
        skip = {j for j in range(len(columns)) if skip_rng.random() < 0.4}
        for skip in (set(), skip):
            kept, pivot_rows = cell_pass(columns, skip)
            assert columns == snapshot
            outside = [j for j in range(len(columns)) if j not in skip]
            rest = [columns[j] for j in outside]
            assert kept == [j for n, j in enumerate(outside)
                            if rank(rest[n:]) > rank(rest[n + 1:])]
            assert not skip & set(kept)
            assert rank([columns[j] for j in kept]) == len(kept) == len(pivot_rows)
            assert pivot_rows == _leading_rows(rest)
            # with `spare`, the pass stops at the first dependent column past
            # it and keeps only the columns found before that one
            dependent = [j for j in reversed(outside) if j not in kept]
            for spare in range(len(dependent) + 2):
                stopped = cell_pass(columns, skip, spare)
                assert columns == snapshot
                if spare < len(dependent):
                    assert stopped == ([j for j in kept if j > dependent[spare]], None)
                else:
                    assert stopped == (kept, pivot_rows)


def test_skipping_the_pivot_rows_of_the_incoming_map_keeps_the_rank():
    # outer . inner = 0: the columns of outer outside the rows at which inner's
    # pass leads have all of outer's image
    rng = random.Random(149)
    dropped = dropped_exact = 0
    for _ in range(60):
        nrows = rng.randint(1, 8)
        inner = integer_matrix(_random_rows(rng, rng.randint(0, 6), nrows))
        transposed = [{j: col[i] for j, col in enumerate(inner) if i in col}
                      for i in range(nrows)]
        _, left_kernel = kernel_basis(transposed)
        outer_rows = [{} for _ in range(rng.randint(0, 5))]
        for row in outer_rows:
            for vec in left_kernel:
                factor = rng.randint(-3, 3)
                for i, c in vec.items():
                    row[i] = row.get(i, 0) + factor * c
        outer = [{r: row[i] for r, row in enumerate(outer_rows) if row.get(i)}
                 for i in range(nrows)]
        assert not any(compose(outer, inner))
        kept_inner, skip = cell_pass(inner, set())
        assert len(skip) == len(kept_inner) == rank(inner)
        kept, _ = cell_pass(outer, skip)
        assert not skip & set(kept)
        assert len(kept) == len(cell_pass(outer, set())[0]) == rank(outer)
        assert rank([outer[j] for j in kept]) == len(kept)
        dropped += sum(map(bool, (outer[j] for j in skip)))
        # so do the columns outside the rows at which inner's image echelon
        # leads, over Q and so for all but unlucky primes
        image_pivots = set(rref(inner)[0])
        assert len(image_pivots) == rank(inner)
        kept, _ = cell_pass(outer, image_pivots)
        assert not image_pivots & set(kept)
        assert len(kept) == rank([outer[j] for j in range(nrows) if j not in image_pivots])
        assert len(kept) == rank(outer)
        dropped_exact += sum(map(bool, (outer[j] for j in image_pivots)))
    assert dropped and dropped_exact  # nonzero columns were skipped


def test_rank_drop_mod_the_prime_returns_fewer_columns(monkeypatch):
    # det [[1, 1], [1, 4]] = 3: rank 2 over Q, rank 1 mod 3
    columns = _columns_from_rows([[1, 1, 0], [1, 4, 0], [0, 0, 7]])
    assert cell_pass(columns, set()) == ([0, 1, 2], {0, 1, 2})
    monkeypatch.setattr(linalg, "PRIME", 3)
    independent, pivot_rows = cell_pass(columns, set())
    assert len(independent) == len(pivot_rows) == 2 < kernel_and_image(columns)[0]
    assert rank([columns[j] for j in independent]) == 2
    # column 0 is dependent mod 3: a pass with no spare column stops there
    assert cell_pass(columns, set(), 0) == (independent, None)
    assert cell_pass(columns, set(), 1) == (independent, pivot_rows)
    monkeypatch.setattr(linalg, "PRIME", 7)
    assert cell_pass(columns, set()) == ([0, 1], {0, 1})
    # more columns than rows: every 2x2 minor is a multiple of 3
    wide = _columns_from_rows([[1, 1, 2, 3], [1, 4, 2, 0]])
    assert cell_pass(wide, set()) == ([2, 3], {0, 1})
    monkeypatch.setattr(linalg, "PRIME", 3)
    assert cell_pass(wide, set()) == ([2], {1})
    # columns 3, 1 and 0 are dependent mod 3, in that order
    assert [cell_pass(wide, set(), spare) for spare in range(4)] == [
        ([], None), ([2], None), ([2], None), ([2], {1})]
    assert kernel_and_image(wide)[0] == 2
    assert rank([wide[2]]) == 1


def test_a_pass_builds_a_column_only_where_its_lead_collides(monkeypatch):
    # a column whose lead is no pivot yet lands there unbuilt; a column is
    # built when its lead is a pivot already, and a pivot that landed
    # unbuilt when a later column is first reduced against it
    p = linalg.PRIME
    built = []
    column = OperatorCell.column
    monkeypatch.setattr(OperatorCell, "column",
                        lambda cell, j: built.append(j) or column(cell, j))
    # columns 2 and 1 land at rows 1 and 2; column 0 leads at row 1, so it
    # is built, and so is column 2, to reduce it
    assert cell_pass([{1: 2, 0: 1}, {2: 1}, {1: 1}], set()) == ([0, 1, 2], {0, 1, 2})
    assert built == [0, 2]
    # column 0's top entry is 0 mod p: it leads at row 0, where column 1 landed
    del built[:]
    assert cell_pass([{0: 1, 1: p}, {0: 1}], set()) == ([1], {0})
    assert built == [0, 1]
    # an empty column and one that is 0 mod p are dependent, with no build
    del built[:]
    assert cell_pass([{}, {2: -p, 0: 2 * p}, {0: 3}], set()) == ([2], {0})
    assert cell_pass([{}, {2: -p}, {0: 3}], set(), 1) == ([2], None)
    assert built == []


def test_a_lead_read_below_the_top_of_its_column_raises(monkeypatch):
    # a pivot must be 0 above its row mod p, or a reduction against it could
    # put entries back above it without end
    monkeypatch.setattr(OperatorCell, "leads", lambda cell, skip, p: (
        (j, min(cell.columns[j])) for j in range(len(cell) - 1, -1, -1)))
    with pytest.raises(RuntimeError, match="pivot 0 of column 1 is not its lead"):
        independent_columns_mod_p(OperatorCell(None, None, [{0: 1}, {0: 1, 1: 1}], 1))


def test_the_modulus_is_a_word_size_prime():
    # a composite modulus would make pow(c, -1, p) raise on some entries
    p = linalg.PRIME
    assert 2 < p < 2**30
    assert all(p % k for k in range(2, int(p**0.5) + 1))


def _reference_kernel(columns):
    """Kernel basis read off `reference_rref` of the rows, one per free column,
    scaled to coprime integers with a positive lowest entry."""
    rows = [{j: col[i] for j, col in enumerate(columns) if col.get(i)}
            for i in sorted({i for col in columns for i in col})]
    pivots, echelon = reference_rref(rows)
    basis = []
    for free in range(len(columns)):
        if free in pivots:
            continue
        vec = {free: Fraction(1)}
        vec.update({p: -row[free] for p, row in zip(pivots, echelon) if row.get(free)})
        scale = lcm(*(c.denominator for c in vec.values()))
        ints = {i: c * scale for i, c in vec.items()}
        g = gcd(*(int(c) for c in ints.values()))
        sign = 1 if ints[min(ints)] > 0 else -1
        basis.append({i: c * sign / g for i, c in ints.items()})
    return len(pivots), basis


def _dependent_columns(rng):
    """Random rational columns with zero, duplicate and combined columns."""
    columns = _random_rows(rng, rng.randint(1, 6), rng.randint(0, 6))
    for _ in range(rng.randint(0, 3)):
        pick = rng.random()
        if pick < 0.3:
            columns.append({})
        elif columns and pick < 0.6:
            columns.append(dict(rng.choice(columns)))
        elif columns:
            a, b = rng.choice(columns), rng.choice(columns)
            columns.append(matvec([a, b], {0: Fraction(2), 1: Fraction(-1, 3)}))
    rng.shuffle(columns)
    return columns


def test_kernel_basis_matches_reference_oracle():
    rng = random.Random(131)
    cases = [[], [{}], [{} for _ in range(4)]]
    cases += [_dependent_columns(rng) for _ in range(150)]
    for columns in cases:
        assert kernel_basis(integer_matrix(columns)) == _reference_kernel(columns)


def test_solve_combination_on_dependent_columns():
    rng = random.Random(137)
    for _ in range(150):
        columns = _dependent_columns(rng)
        if rng.random() < 0.5:
            coeffs = {j: Fraction(rng.randint(-3, 3), rng.randint(1, 4))
                      for j in range(len(columns))}
            target = matvec(columns, coeffs)
        else:
            target = _random_rows(rng, 1, 7)[0]
        combo = _solve(columns, target)
        rank_before = len(reference_rref(columns)[0])
        rank_after = len(reference_rref(columns + [target])[0])
        assert (combo is None) == (rank_after > rank_before)
        if combo is not None:
            assert matvec(columns, combo) == target
            assert all(c for c in combo.values())


def test_compose_matches_manual_product():
    # outer: 2x2 swap, inner: 2x2 diag(1, 2)
    outer = [{1: Fraction(1)}, {0: Fraction(1)}]
    inner = [{0: Fraction(1)}, {1: Fraction(2)}]
    prod = compose(outer, inner)
    assert prod == [{1: Fraction(1)}, {0: Fraction(2)}]
