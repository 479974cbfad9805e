"""Cohomology cells, tables, invariant subcomplex, witnesses, resonances."""

import random
from fractions import Fraction

import pytest

from helpers import exact_columns, invariant_multivectors, kernel_basis, rank, reference_rref
from poisson3 import (
    KINDS,
    Algebra,
    GradedBasis,
    MultiVector,
    Polynomial,
    cell_multivectors,
    coboundary_witness,
    cohomology_cell,
    cohomology_table,
    differential_matrix,
    format_multivector,
    invariant_basis,
    invariant_cohomology,
    linear_poisson,
    monomials,
    parse_multivector,
    poisson_differential,
    resonances,
    rotation_field,
    schouten_bracket,
)
from poisson3 import cohomology as cohomology_module
from poisson3 import complexes as complexes_module
from poisson3 import linalg
from poisson3 import multivector as multivector_module
from poisson3.cohomology import resonance_range

BOOK1 = Algebra("book", Fraction(1))


def mv(text):
    return parse_multivector(text)


def _spans_same_classes(pi, cell, exprs):
    """The given cocycles span the computed cohomology classes of the cell."""
    basis = GradedBasis(cell.q, cell.d)
    in_columns = differential_matrix(pi, cell.q - 1, cell.d).columns if cell.q else []
    coords = []
    for expr in exprs:
        value = mv(expr)
        assert poisson_differential(pi, value).is_zero()
        coords.append(basis.decompose(value))
    base = rank(in_columns)
    assert rank(in_columns + coords) == base + len(exprs)
    assert rank(in_columns + coords + list(cell.representatives)) == base + cell.dim_h
    return True


# ---------------------------------------------------------------- cells


def test_heisenberg_casimir_cell():
    pi = linear_poisson("heisenberg")
    cell = cohomology_cell(pi, 0, 1)
    assert (cell.dim_cochains, cell.rank_out, cell.rank_in) == (3, 2, 0)
    assert cell.dim_h == 1
    assert cell_multivectors(cell) == [mv("z")]


def test_book_tau_one_vector_cell():
    pi = linear_poisson(BOOK1)
    cell = cohomology_cell(pi, 1, 1)
    assert cell.dim_h == 3
    assert _spans_same_classes(pi, cell, ["y*dx", "x*dy", "y*dy"])


def test_so3_vector_cells_vanish():
    pi = linear_poisson("so3")
    for d in range(5):
        assert cohomology_cell(pi, 1, d).dim_h == 0
        assert cohomology_cell(pi, 2, d).dim_h == 0


def test_cell_representatives_are_cocycles_mod_image():
    rng = random.Random(307)
    structures = [BOOK1, Algebra("book", Fraction(-2, 3)), Algebra("heisenberg"),
                  Algebra("euclidean"), Algebra("semi_open_book")]
    for alg in structures:
        pi = linear_poisson(alg)
        for _ in range(4):
            q = rng.randint(0, 3)
            d = rng.randint(0, 5)
            cell = cohomology_cell(pi, q, d)
            assert len(cell.representatives) == cell.dim_h
            out = differential_matrix(pi, q, d)
            in_cols = differential_matrix(pi, q - 1, d).columns if q else []
            for rep in cell.representatives:
                assert linalg.matvec(exact_columns(out), rep) == {}
            # independent mod the image
            assert rank(in_cols + list(cell.representatives)) == \
                cell.rank_in + cell.dim_h


@pytest.mark.parametrize("q", [-1, 4])
def test_cell_rejects_out_of_range_cochain_degree(q):
    pi = linear_poisson("euclidean")
    with pytest.raises(ValueError, match="cochain degree"):
        cohomology_cell(pi, q, 1)
    with pytest.raises(ValueError, match="cochain degree"):
        invariant_cohomology(pi, q, 1)


def test_inconsistent_cell_raises_runtime_error(monkeypatch):
    # the dim H / representative count check must survive python -O
    kernel_and_image = cohomology_module.linalg.kernel_and_image

    def wrong_rank(columns, skip=()):
        rank_out, *rest = kernel_and_image(columns, skip)
        return (rank_out + 1, *rest)

    monkeypatch.setattr(cohomology_module.linalg, "kernel_and_image", wrong_rank)
    with pytest.raises(RuntimeError, match=r"cell \(0, 1\)"):
        cohomology_cell(linear_poisson("heisenberg"), 0, 1)


@pytest.mark.parametrize("algebra", ["sl2", Algebra("book", Fraction(-2, 3))],
                         ids=["sl2", "book_-2/3"])
def test_one_reduction_gives_kernel_and_image_echelons(algebra):
    pi = linear_poisson(algebra)
    for d in range(7):
        for q in range(4):
            columns = differential_matrix(pi, q, d).columns
            rank_out, ker_pivots, ker_echelon, image = linalg.kernel_and_image(columns)
            assert rank_out == len(image)
            assert (ker_pivots, ker_echelon) == linalg.rref(
                kernel_basis(columns)[1])
            assert image == set(linalg.rref(columns)[0])


def _count_calls(monkeypatch, *names):
    """Patch the named `linalg` routines to count their calls; returns the counts."""
    calls = dict.fromkeys(names, 0)

    def counting(name, function):
        def wrapper(*args):
            calls[name] += 1
            return function(*args)
        return wrapper

    for name in names:
        monkeypatch.setattr(linalg, name, counting(name, getattr(linalg, name)))
    return calls


def test_each_exact_cell_makes_one_rref_call_plus_one_after_a_certified_cell(monkeypatch):
    # each differential reduced exactly is one rref, which also gives the next
    # cell its image's pivots; only a cell fed by a certified acyclic cell runs
    # one more rref, on the certified columns, for those pivots
    calls = _count_calls(monkeypatch, "rref", "kernel_and_image")
    cohomology_table(linear_poisson("heisenberg"), 3)  # no acyclic cell
    assert calls == {"rref": 16, "kernel_and_image": 16}
    # the invariant table restricts the same differentials: no elimination of its own
    calls.update(rref=0, kernel_and_image=0)
    cohomology_table(linear_poisson("euclidean"), 3, invariant=True)
    assert calls["rref"] == 16
    # exact work only in q = 0, 3 of d = 0, 2, the Casimir classes; H^3 is fed
    # by a certified cell, so its image pivots cost one rref each
    for kind in ("sl2", "so3"):
        calls.update(rref=0, kernel_and_image=0)
        cohomology_table(linear_poisson(kind), 3)
        assert calls == {"rref": 6, "kernel_and_image": 4}


def test_each_stored_row_is_made_primitive_once(monkeypatch):
    # one gcd when a row lands on a new pivot and one after its
    # back-substitution, none per elimination step (the table makes 670 steps)
    calls = _count_calls(monkeypatch, "_primitive")
    cohomology_table(linear_poisson("sl2"), 8)
    assert calls == {"_primitive": 200}


def test_rows_are_laid_out_only_for_exact_reductions(monkeypatch):
    # the mod-p pass reduces the columns of every differential; only an exact
    # reduction lays out rows
    calls = _count_calls(monkeypatch, "_rows", "kernel_and_image")
    listed = []
    monkeypatch.setattr(complexes_module, "monomials",
                        lambda d: listed.append(d) or monomials(d))
    cohomology_table(linear_poisson("sl2"), 8)
    assert calls == {"_rows": 10, "kernel_and_image": 10}
    assert listed == []  # no basis element list is built


def test_a_table_derives_each_stencil_once():
    # d_0, d_1 and d_2 of every degree read three stencils (d_3 is zero);
    # the memo is keyed by the bivector's terms, so a second object of the
    # same bivector derives none
    stencils = multivector_module._stencil
    stencils.cache_clear()
    cohomology_table(linear_poisson("sl2"), 8)
    derived = stencils.cache_info()
    assert (derived.misses, derived.currsize) == (3, 3)
    cohomology_table(linear_poisson("sl2"), 8)
    assert stencils.cache_info().misses == 3


REGISTRY_ALGEBRAS = [Algebra(kind, {"book": Fraction(-2, 3), "spiral": Fraction(5, 2)}.get(kind))
                     for kind in KINDS] + [Algebra("book", Fraction(1, 3))]


def _table_fields(tables):
    return [[_cell_fields(table.cells[key]) for key in sorted(table.cells)] for table in tables]


@pytest.mark.parametrize("prime, exact_reductions", [(2, 266), (3, 254), (5, 228)])
def test_a_small_prime_only_sends_cells_down_the_exact_path(monkeypatch, prime,
                                                            exact_reductions):
    calls = _count_calls(monkeypatch, "kernel_and_image")
    pis = [linear_poisson(algebra) for algebra in REGISTRY_ALGEBRAS]
    expected = _table_fields(cohomology_table(pi, 8) for pi in pis)
    assert calls["kernel_and_image"] == 173
    monkeypatch.setattr(linalg, "PRIME", prime)
    calls["kernel_and_image"] = 0
    assert _table_fields(cohomology_table(pi, 8) for pi in pis) == expected
    assert calls["kernel_and_image"] == exact_reductions


def test_the_mod_p_pass_skips_the_pivot_rows_of_the_incoming_differential(monkeypatch):
    # each pass skips the rows at which the previous one found its pivots; it
    # keeps columns independent over Q, as many as the rank mod p of the whole
    # matrix, so it certifies the cells the whole matrix would, also where the
    # previous rank mod p is below the exact one
    passes = []
    restricted = linalg.independent_columns_mod_p

    def recording(columns, skip):
        kept, pivot_rows = restricted(columns, skip)
        passes.append((columns, skip, kept, pivot_rows))
        return kept, pivot_rows

    monkeypatch.setattr(linalg, "independent_columns_mod_p", recording)
    skipped = 0
    for prime in (linalg.PRIME, 2, 3, 5):
        monkeypatch.setattr(linalg, "PRIME", prime)
        for algebra in REGISTRY_ALGEBRAS:
            pi = linear_poisson(algebra)
            rotation_invariant = schouten_bracket(rotation_field(), pi).is_zero()
            for invariant in (False, True)[:1 + rotation_invariant]:
                del passes[:]
                cohomology_table(pi, 12, invariant)
                for n, (columns, skip, kept, pivot_rows) in enumerate(passes):
                    assert skip == (passes[n - 1][3] if n % 4 else set())
                    assert not skip & set(kept)
                    assert rank([columns[j] for j in kept]) == len(kept) == len(pivot_rows)
                    assert len(kept) == len(restricted(columns, set())[0])
                    skipped += sum(map(bool, (columns[j] for j in skip)))
    assert skipped


def test_exact_rank_below_the_modular_rank_raises(monkeypatch):
    # a rank mod p can never exceed the rank over Q; the guard must survive python -O
    independent_columns_mod_p = linalg.independent_columns_mod_p

    def over_reporting(columns, skip):
        independent, pivot_rows = independent_columns_mod_p(columns, skip)
        if len(columns) == 9:  # d_1 at degree 1, a cell with dim H = 4
            independent.append(max(set(range(len(columns))) - set(independent) - skip))
        return independent, pivot_rows

    monkeypatch.setattr(linalg, "independent_columns_mod_p", over_reporting)
    message = r"cell \(1, 1\): exact rank 3 is below the rank 4 mod p"
    with pytest.raises(RuntimeError, match=message):
        cohomology_table(linear_poisson("heisenberg"), 1)


def _invariant_coordinates(vectors, vec):
    """vec in the invariant sub-basis `vectors`, each the only one nonzero at
    its highest coordinate, where it is +-1; checked by mapping it back."""
    coords = {k: vec[top] * v[top] for k, v in enumerate(vectors) if (top := max(v)) in vec}
    assert linalg.matvec(vectors, coords) == vec
    return coords


def _free_columns(columns):
    """The columns in the span of the columns after them, by Fraction elimination.

    With the columns taken last first, the pivots of the rows are the
    columns independent of those after them; the others are free.
    """
    last = len(columns) - 1
    rows = {}
    for j, col in enumerate(columns):
        for i, c in col.items():
            rows.setdefault(i, {})[last - j] = c
    pivots = reference_rref(list(rows.values()))[0]
    return set(range(len(columns))) - {last - k for k in pivots}


@pytest.mark.parametrize("algebra, invariant", [
    *((algebra, False) for algebra in REGISTRY_ALGEBRAS),
    *((algebra, True) for algebra in ("euclidean", "so3", "heisenberg",
                                      Algebra("spiral", Fraction(1)))),
], ids=[*(a.name if a.tau is None else "%s_%s" % (a.name, a.tau) for a in REGISTRY_ALGEBRAS),
        "euclidean_invariant", "so3_invariant", "heisenberg_invariant",
        "spiral_1_invariant"])
def test_representatives_need_no_reduction_against_the_incoming_image(algebra, invariant):
    # the image of d_{q-1} lies in the kernel of d_q, so its echelon's pivots
    # are free columns of d_q; a kernel row led at another free column is
    # nonzero only there and at d_q's pivot columns, so reducing it against
    # the image, the step the engine leaves out, changes nothing
    pi = linear_poisson(algebra)
    table = cohomology_table(pi, 8, invariant)
    checked = 0
    for d in range(9):
        columns = [differential_matrix(pi, q, d).columns for q in range(4)]
        if invariant:
            vectors = [invariant_basis(q, d)[1] for q in range(4)] + [[]]
            columns = [[_invariant_coordinates(vectors[q + 1], linalg.matvec(cols, vec))
                        for vec in vectors[q]] for q, cols in enumerate(columns)]
        for q in range(1, 4):
            pivots, echelon = linalg.rref(columns[q - 1])
            assert set(pivots) <= _free_columns(columns[q])
            image = dict(zip(pivots, echelon))
            for rep in table.cell(q, d).representatives:
                if invariant:
                    rep = _invariant_coordinates(vectors[q], rep)
                rep = linalg.integer_normalize(rep)
                reduced = linalg.reduce_against(image, rep)
                assert linalg.integer_normalize(reduced) == rep
                checked += 1
    assert checked


def test_cells_are_deterministic():
    pi = linear_poisson(Algebra("spiral", Fraction(1)))
    a = cohomology_cell(pi, 2, 1)
    b = cohomology_cell(pi, 2, 1)
    assert a.representatives == b.representatives


# ---------------------------------------------------------------- tables


def test_book_tau_one_table():
    table = cohomology_table(linear_poisson(BOOK1), 10)
    assert table.totals == {0: 1, 1: 4, 2: 3, 3: 0}
    assert table.stable
    for (q, d), cell in table.cells.items():
        if d > 1:
            assert cell.dim_h == 0


def test_aff_table_is_flat():
    table = cohomology_table(linear_poisson("aff_x_r"), 6)
    for d in range(7):
        assert [table.dim_h(q, d) for q in range(4)] == [1, 2, 1, 0]
    assert not table.stable


def test_abelian_table_is_full_cochain_space():
    table = cohomology_table(linear_poisson("abelian"), 4)
    for (q, d), cell in table.cells.items():
        assert cell.dim_h == cell.dim_cochains == len(GradedBasis(q, d))


def test_sl2_table_casimir_pattern():
    table = cohomology_table(linear_poisson("sl2"), 4)
    for d in range(5):
        expect = 1 if d % 2 == 0 else 0
        assert table.dim_h(0, d) == expect
        assert table.dim_h(1, d) == 0
        assert table.dim_h(2, d) == 0
        assert table.dim_h(3, d) == expect


def test_euler_characteristic_matches_cochain_alternating_sum():
    structures = ["heisenberg", "aff_x_r", "euclidean", "sl2",
                  Algebra("book", Fraction(3, 5)), Algebra("book", Fraction(-1))]
    for alg in structures:
        table = cohomology_table(linear_poisson(alg), 6)
        for d in range(7):
            chains = sum((-1) ** q * len(GradedBasis(q, d)) for q in range(4))
            homology = sum((-1) ** q * table.dim_h(q, d) for q in range(4))
            assert chains == homology


def test_table_shares_ranks_between_neighbouring_cells():
    table = cohomology_table(linear_poisson("euclidean"), 4)
    for d in range(5):
        for q in range(3):
            assert table.cell(q, d).rank_out == table.cell(q + 1, d).rank_in


def test_stability_needs_three_empty_degrees():
    pi = linear_poisson(BOOK1)
    assert not cohomology_table(pi, 1).stable
    assert cohomology_table(pi, 4).stable


# ---------------------------------------------------------------- invariant


def test_invariant_cohomology_examples():
    pi = linear_poisson("euclidean")
    casimir = invariant_cohomology(pi, 0, 2)
    assert casimir.dim_h == 1
    assert cell_multivectors(casimir) == [mv("x^2 + y^2")]
    euler = invariant_cohomology(pi, 1, 1)
    assert euler.dim_h == 1
    assert cell_multivectors(euler) == [mv("x*dx + y*dy")]


def _cell_fields(cell):
    return (cell.q, cell.d, cell.dim_cochains, cell.rank_out, cell.rank_in,
            cell.dim_h, cell.representatives)


def test_invariant_cohomology_matches_full_for_euclidean():
    pi = linear_poisson("euclidean")
    table = cohomology_table(pi, 5)
    for q in range(4):
        for d in range(6):
            assert invariant_cohomology(pi, q, d).dim_h == table.dim_h(q, d)


@pytest.mark.parametrize("algebra", [
    "euclidean", "so3", "heisenberg", Algebra("spiral", Fraction(1)),
], ids=["euclidean", "so3", "heisenberg", "spiral_tau_1"])
def test_invariant_table_matches_single_cells(algebra):
    pi = linear_poisson(algebra)
    table = cohomology_table(pi, 6, invariant=True)
    assert sorted(table.cells) == [(q, d) for q in range(4) for d in range(7)]
    for (q, d), cell in table.cells.items():
        assert _cell_fields(cell) == _cell_fields(invariant_cohomology(pi, q, d))


def test_invariant_cohomology_accepts_heisenberg():
    pi = linear_poisson("heisenberg")
    cell = invariant_cohomology(pi, 0, 1)
    assert cell.dim_h == 1
    assert cell_multivectors(cell) == [mv("z")]


def test_invariant_cohomology_rejects_non_invariant_bivector():
    with pytest.raises(ValueError, match="not rotation invariant"):
        invariant_cohomology(linear_poisson("aff_x_r"), 1, 1)
    with pytest.raises(ValueError, match="not rotation invariant"):
        cohomology_table(linear_poisson("aff_x_r"), 2, invariant=True)


@pytest.mark.parametrize("invariant", [False, True])
def test_table_rejects_negative_dmax(invariant):
    with pytest.raises(ValueError, match="dmax must be nonnegative, got -1"):
        cohomology_table(linear_poisson("aff_x_r"), -1, invariant=invariant)


def test_a_bivector_that_is_not_poisson_is_rejected():
    # d o d = 0 needs [pi, pi] = 0; such a bivector used to come back as a
    # table, or to fail inside a cell with a RuntimeError
    rng = random.Random(5)
    axes = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    samples = [mv("x*dy^dz + y*dx^dy")]
    samples += [MultiVector.bivector(*(Polynomial({e: rng.randint(-2, 2) for e in axes})
                                       for _ in range(3))) for _ in range(200)]
    samples += [sum((value * rng.randint(-2, 2) for value in invariant_multivectors(2, 1)),
                    MultiVector.zero(2)) for _ in range(50)]  # z dx^dy, E^dz, R^dz
    rejected = {False: 0, True: 0}
    for pi in samples:
        if schouten_bracket(pi, pi).is_zero():
            assert cohomology_table(pi, 2).dim_h(0, 0) == 1
            continue
        invariant = schouten_bracket(rotation_field(), pi).is_zero()
        rejected[invariant] += 1
        for call in (lambda: cohomology_table(pi, 3), lambda: cohomology_cell(pi, 2, 0)):
            with pytest.raises(ValueError, match=r"bivector is not Poisson: \[pi, pi\] is not 0"):
                call()
        for call in (lambda: invariant_cohomology(pi, 1, 1),
                     lambda: cohomology_table(pi, 3, invariant=True)):
            with pytest.raises(ValueError, match="bivector is not "
                               + ("Poisson" if invariant else "rotation invariant")):
                call()
    assert rejected[False] > 100 and rejected[True] > 10
    for algebra in REGISTRY_ALGEBRAS:
        pi = linear_poisson(algebra)
        cohomology_table(pi, 1)
        cohomology_cell(pi, 2, 1)
        if schouten_bracket(rotation_field(), pi).is_zero():
            invariant_cohomology(pi, 2, 1)
            cohomology_table(pi, 1, invariant=True)


def test_restriction_to_invariant_bases_solves_each_image():
    for q in range(3):
        source, target = invariant_basis(q, 3)[1], invariant_basis(q + 1, 3)[1]
        columns = differential_matrix(linear_poisson("euclidean"), q, 3).columns
        assert cohomology_module._restrict(columns, source, target) == [
            linalg.solve_combination(target, linalg.matvec(columns, vec)) for vec in source]
    columns = differential_matrix(linear_poisson("aff_x_r"), 1, 2).columns
    with pytest.raises(ValueError, match="does not preserve the invariant subspace"):
        cohomology_module._restrict(columns, invariant_basis(1, 2)[1], invariant_basis(2, 2)[1])


# ---------------------------------------------------------------- witnesses


def test_coboundary_witness_positive():
    pi = linear_poisson(BOOK1)
    target = mv("x*dx^dz + y*dy^dz")
    witness = coboundary_witness(pi, target)
    assert witness is not None
    assert poisson_differential(pi, witness) == target


def test_coboundary_witness_negative_on_genuine_class():
    pi = linear_poisson(BOOK1)
    assert coboundary_witness(pi, mv("y*dy^dz")) is None
    assert coboundary_witness(linear_poisson("heisenberg"), mv("y*dx")) is None


def test_euclidean_classes_are_the_families_of_its_oracle_grid():
    # the families named beside `_euclidean_grid`, for d <= 6
    pi = linear_poisson("euclidean")
    table = cohomology_table(pi, 6)
    u = mv("x^2 + y^2").component(0)
    for d in range(7):
        f = u ** (d // 2)
        families = {0: [], 1: [], 2: [mv("z^%d*dx^dy" % d)], 3: [mv("z^%d*dx^dy^dz" % d)]}
        if d % 2 == 0:
            families[0].append(mv("1") * f)
            families[1].append(mv("dz") * f)
        else:
            families[1].append(mv("x*dx + y*dy") * f)
            families[2].append(mv("x^%d*dx^dz" % d))
        for q, members in families.items():
            for member in members:
                assert coboundary_witness(pi, member) is None
            # closed, independent modulo the image and as many as dim H
            assert len(members) == table.dim_h(q, d)
            assert _spans_same_classes(pi, table.cell(q, d),
                                       [format_multivector(m) for m in members])
    for text in ("dx^dy", "dx^dy^dz"):
        target = mv(text) * u
        witness = coboundary_witness(pi, target)
        assert witness is not None and poisson_differential(pi, witness) == target


DENOMINATOR_ALGEBRAS = [Algebra("book", Fraction(-2, 3)), Algebra("book", Fraction(-3, 7)),
                        Algebra("spiral", Fraction(5, 2))]


@pytest.mark.parametrize("algebra", DENOMINATOR_ALGEBRAS,
                         ids=["book_-2/3", "book_-3/7", "spiral_5/2"])
def test_coboundary_witness_round_trip_with_denominators(algebra):
    # the differential is an integer matrix over den > 1
    pi = linear_poisson(algebra)
    assert differential_matrix(pi, 0, 1).den > 1
    rng = random.Random(317)
    for _ in range(12):
        q = rng.randint(0, 2)
        basis = GradedBasis(q, rng.randint(0, 4))
        value = basis.reconstruct({
            rng.randrange(len(basis)): Fraction(rng.randint(-6, 6), rng.randint(1, 5))
            for _ in range(3)})
        target = poisson_differential(pi, value)
        witness = coboundary_witness(pi, target)
        assert poisson_differential(pi, witness) == target
        assert all(type(c) is Fraction
                   for poly in witness.components.values() for c in poly.terms.values())
    # a genuine class is no coboundary
    cell = cohomology_cell(pi, 2, 1)
    assert cell.dim_h == 1
    assert coboundary_witness(pi, cell_multivectors(cell)[0]) is None


def test_representatives_are_published_as_fractions():
    tables = [cohomology_table(linear_poisson(alg), 4) for alg in DENOMINATOR_ALGEBRAS]
    tables.append(cohomology_table(linear_poisson("euclidean"), 4, invariant=True))
    tables.append(cohomology_table(linear_poisson(Algebra("spiral", Fraction(1))), 4,
                                   invariant=True))
    for table in tables:
        values = [c for cell in table.cells.values() for rep in cell.representatives
                  for c in rep.values()]
        assert values and all(type(c) is Fraction for c in values)


def test_coboundary_witness_edge_cases():
    pi = linear_poisson("heisenberg")
    zero = coboundary_witness(pi, MultiVector.zero(2))
    assert zero is not None and zero.is_zero() and zero.degree == 1
    assert coboundary_witness(pi, mv("x^2")) is None
    with pytest.raises(ValueError):
        coboundary_witness(pi, mv("x*dx + dz"))


# ---------------------------------------------------------------- resonances


def test_resonance_examples():
    assert resonances(Fraction(1, 2), Fraction(1), 10) == [(1, 0), (0, 2)]
    assert resonances(Fraction(3, 5), Fraction(1), 10) == [(1, 0)]
    assert resonances(Fraction(1), Fraction(1), 20) == [(1, 0), (0, 1)]
    assert resonances(Fraction(-2, 3), Fraction(1), 12) == [(1, 0), (3, 3), (5, 6)]
    assert resonances(Fraction(-2, 3), Fraction(1), 20) == [
        (1, 0), (3, 3), (5, 6), (7, 9)]
    assert resonances(Fraction(3, 5), Fraction(1, 7), 5) == []


def test_resonances_reject_inexact_inputs():
    for tau, c in ((0.1, 1), (Fraction(1, 2), 0.5)):
        with pytest.raises(TypeError, match="expected a rational scalar"):
            resonances(tau, c, 5)
        with pytest.raises(TypeError, match="expected a rational scalar"):
            resonance_range(tau, c, 5)
    assert resonances("1/2", "1", 10) == resonances(Fraction(1, 2), 1, 10) == [(1, 0), (0, 2)]


def test_resonance_pairs_satisfy_defining_equation():
    rng = random.Random(311)
    for _ in range(40):
        tau = Fraction(rng.randint(-3, 3), rng.randint(1, 4))
        if tau == 0:
            continue
        c = Fraction(rng.randint(0, 4))
        dmax = rng.randint(0, 15)
        pairs = resonances(tau, c, dmax)
        assert pairs == sorted(pairs, key=lambda p: p[1])
        assert len({j for (_, j) in pairs}) == len(pairs)
        for (i, j) in pairs:
            assert i >= 0 and j >= 0 and i + j <= dmax
            assert Fraction(i) + tau * j == c


def _resonances_by_every_j(tau, c, dmax):
    """The plain loop over every j <= dmax, an oracle for `resonances`."""
    out = []
    for j in range(dmax + 1):
        i = c - tau * j
        if i.denominator == 1 and i >= 0 and i + j <= dmax:
            out.append((int(i), j))
    return out


def test_resonances_match_the_loop_over_every_j():
    rng = random.Random(313)
    for _ in range(400):
        tau = Fraction(rng.randint(-9, 9), rng.randint(1, 7))
        c = Fraction(rng.randint(-6, 40), rng.choice((1, 1, 1, 2, 3, 7)))
        dmax = rng.randint(-1, 60)
        if dmax < 0:
            with pytest.raises(ValueError, match="dmax must be nonnegative, got -1"):
                resonances(tau, c, dmax)
            continue
        pairs = resonances(tau, c, dmax)
        assert pairs == _resonances_by_every_j(tau, c, dmax), (tau, c, dmax)
        assert all(type(i) is int and type(j) is int for i, j in pairs)


def test_resonance_range_counts_the_pairs():
    rng = random.Random(317)
    for _ in range(200):
        tau = Fraction(rng.randint(-9, 9), rng.randint(1, 7))
        c = Fraction(rng.randint(-6, 40), rng.choice((1, 1, 1, 2, 3, 7)))
        dmax = rng.randint(-1, 60)
        if dmax < 0:
            with pytest.raises(ValueError, match="dmax must be nonnegative, got -1"):
                resonance_range(tau, c, dmax)
            continue
        pairs = _resonances_by_every_j(tau, c, dmax)
        assert list(resonance_range(tau, c, dmax)) == [j for _, j in pairs]
    assert len(resonance_range(0, 1, 10**12)) == 10**12


def test_resonances_predict_extra_second_cohomology():
    # beyond the weight-field class at d = 1, extra classes appear exactly
    # in the coefficient degrees i + j of the nontrivial resonance pairs
    for tau in (Fraction(1), Fraction(1, 2), Fraction(1, 3), Fraction(-2, 3)):
        table = cohomology_table(linear_poisson(Algebra("book", tau)), 8)
        generic = {d: (1 if d == 1 else 0) for d in range(9)}
        excess = {d for d in range(9) if table.dim_h(2, d) > generic[d]}
        predicted = {i + j for (i, j) in resonances(tau, Fraction(1), 8)
                     if (i, j) != (1, 0)}
        assert excess == predicted
