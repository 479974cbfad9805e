"""Exact rational rank / kernel / solve routines on sparse columns."""

import random
from fractions import Fraction

from helpers import reference_rref

from poisson3.linalg import (
    compose,
    integer_normalize,
    kernel_and_image,
    kernel_basis,
    matvec,
    rank,
    reduce_against,
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
                col[i] = Fraction(row[j])
        cols.append(col)
    return cols


def _det2(m):
    return Fraction(m[0][0]) * m[1][1] - Fraction(m[0][1]) * m[1][0]


def test_identity_matrix():
    cols = _columns_from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert rank(cols) == 3
    rk, kern = kernel_basis(cols, 3)
    assert rk == 3 and kern == []


def test_zero_matrix_four_by_five():
    cols = [{} for _ in range(5)]
    assert rank(cols) == 0
    rk, kern = kernel_basis(cols, 5)
    assert rk == 0
    assert len(kern) == 5
    assert kern == [{j: Fraction(1)} for j in range(5)]


def test_rank_one_matrix_with_kernel():
    cols = _columns_from_rows([[1, 2], [2, 4]])
    rk, kern = kernel_basis(cols, 2)
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
        rk, kern = kernel_basis(cols, ncols)
        # rank-nullity over an exact field
        assert rk + len(kern) == ncols
        assert rk == rank(cols)
        for vec in kern:
            assert matvec(cols, vec) == {}


def test_solve_combination_positive_and_negative():
    cols = _columns_from_rows([[1, 0], [0, 1], [1, 1]])
    target = {0: Fraction(2), 1: Fraction(-3), 2: Fraction(-1)}
    combo = solve_combination(cols, target)
    assert combo == {0: Fraction(2), 1: Fraction(-3)}
    assert solve_combination(cols, {0: Fraction(1), 2: Fraction(5)}) is None
    # zero target always solvable by the empty combination
    assert solve_combination(cols, {}) == {}


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
        combo = solve_combination(cols, target)
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


def test_rref_is_idempotent_and_canonical():
    rng = random.Random(109)
    for _ in range(20):
        rows = [{j: Fraction(rng.randint(-3, 3)) for j in range(4)
                 if rng.random() < 0.7} for _ in range(3)]
        rows = [{j: v for j, v in r.items() if v} for r in rows]
        pivots, echelon = rref(rows)
        again_pivots, again = rref(echelon)
        assert again == echelon and again_pivots == pivots
        assert len(pivots) == len(echelon)
        # pivot columns are strictly increasing and pivot entries are 1
        assert pivots == sorted(set(pivots))
        for p, row in zip(pivots, echelon):
            assert row[p] == 1
            # pivot column cleared everywhere else
            for other in echelon:
                assert other is row or p not in other


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
        snapshot = [dict(row) for row in rows]
        pivots, echelon = rref(rows)
        assert rows == snapshot
        assert (pivots, echelon) == reference_rref(rows)
        assert all(type(c) is Fraction for row in echelon for c in row.values())


def test_kernel_and_image_agrees_with_separate_reductions():
    rng = random.Random(127)
    for _ in range(80):
        columns = _random_rows(rng, rng.randint(0, 7), rng.randint(1, 6))
        if columns and rng.random() < 0.3:
            columns.append(dict(rng.choice(columns)))
        rk, ker_pivots, ker_echelon, image = kernel_and_image(columns)
        assert rk == rank(columns) == len(image)
        assert (ker_pivots, ker_echelon) == rref(kernel_basis(columns, len(columns))[1])
        assert rref(image) == rref(columns)
        assert all(any(col is c for c in columns) for col in image)


def test_compose_matches_manual_product():
    # outer: 2x2 swap, inner: 2x2 diag(1, 2)
    outer = [{1: Fraction(1)}, {0: Fraction(1)}]
    inner = [{0: Fraction(1)}, {1: Fraction(2)}]
    prod = compose(outer, inner)
    assert prod == [{1: Fraction(1)}, {0: Fraction(2)}]


def test_reduce_against_reports_membership():
    rows = [{0: Fraction(1)}, {1: Fraction(1)}]
    pivots, echelon = rref(rows)
    inside = reduce_against(pivots, echelon, {0: Fraction(3), 1: Fraction(-2)})
    assert inside == {}
    outside = reduce_against(pivots[:1], echelon[:1], {1: Fraction(1)})
    assert outside == {1: Fraction(1)}
