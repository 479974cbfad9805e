"""Cohomology cells, tables, invariant subcomplex, witnesses, resonances."""

import hashlib
import random
from fractions import Fraction
from math import gcd, inf

import pytest

from helpers import (
    bracket_calls, ce_coordinates, ce_differential, conjugated_constants, determinant,
    exact_columns, full_build_invariant_table, hs_dimensions, invariant_basis,
    invariant_multivectors, inverse_matrix, kernel_and_image, kernel_basis, mod_p_pass,
    operator_matrix, rank, reference_rref, unimodular_matrix)
from poisson3 import (
    KINDS,
    Algebra,
    GradedBasis,
    MultiVector,
    OperatorCell,
    Polynomial,
    StructureConstants,
    cell_multivectors,
    coboundary_witness,
    cohomology_cell,
    cohomology_table,
    differential_matrix,
    format_coordinates,
    format_multivector,
    invariant_cohomology,
    linear_poisson,
    monomials,
    oracle_dimension_grid,
    parse_multivector,
    poisson_differential,
    resonances,
    rotation_field,
    schouten_bracket,
    structure_constants,
)
from poisson3 import cli
from poisson3 import cohomology as cohomology_module
from poisson3 import complexes as complexes_module
from poisson3 import linalg
from poisson3 import multivector as multivector_module
from poisson3.cohomology import CohomologyCell, class_table, resonance_range
from poisson3.complexes import holding_stencils
from poisson3.multivector import DegreeError, component_wedge

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
    kernel_and_image_of_rows = cohomology_module.linalg.kernel_and_image_of_rows

    def wrong_rank(size, laid_out, skip=(), *carried):  # heisenberg's table is carried
        rank_out, *rest = kernel_and_image_of_rows(size, laid_out, skip, *carried)
        return (rank_out + 1, *rest)

    monkeypatch.setattr(cohomology_module.linalg, "kernel_and_image_of_rows", wrong_rank)
    with pytest.raises(RuntimeError, match=r"cell \(0, 1\)"):
        cohomology_cell(linear_poisson("heisenberg"), 0, 1)


@pytest.mark.parametrize("algebra", ["sl2", Algebra("book", Fraction(-2, 3))],
                         ids=["sl2", "book_-2/3"])
def test_one_reduction_gives_kernel_and_image_echelons(algebra):
    pi = linear_poisson(algebra)
    for d in range(7):
        for q in range(4):
            columns = differential_matrix(pi, q, d).columns
            rank_out, ker_pivots, ker_echelon, image = kernel_and_image(columns)
            assert rank_out == len(image)
            scaled = [{i: Fraction(c, vec[j]) for i, c in vec.items()}
                      for j, vec in zip(ker_pivots, ker_echelon)]
            assert (ker_pivots, scaled) == reference_rref(kernel_basis(columns)[1])
            assert image == set(reference_rref(columns)[0])


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
    # each differential reduced exactly is one read-off, which inserts its
    # rows with one `rref` and also gives the next cell its image's pivots;
    # only a cell fed by a certified acyclic cell runs one more rref, on the
    # certified columns, for those pivots
    calls = _count_calls(monkeypatch, "rref", "kernel_and_image_of_rows")
    cohomology_table(linear_poisson("heisenberg"), 3)  # no acyclic cell
    assert calls == {"rref": 16, "kernel_and_image_of_rows": 16}
    # the invariant table restricts the same differentials: no elimination
    # of its own; two of its cells are fed by a certified one
    calls.update(rref=0, kernel_and_image_of_rows=0)
    cohomology_table(linear_poisson("euclidean"), 3, invariant=True)
    assert calls == {"rref": 16, "kernel_and_image_of_rows": 14}
    # exact work only in q = 0, 3 of d = 0, 2, the Casimir classes; H^3 is fed
    # by a certified cell, so its image pivots cost one rref each
    for kind in ("sl2", "so3"):
        calls.update(rref=0, kernel_and_image_of_rows=0)
        cohomology_table(linear_poisson(kind), 3)
        assert calls == {"rref": 6, "kernel_and_image_of_rows": 4}


def test_each_stored_row_is_made_primitive_once(monkeypatch):
    # one gcd when a row lands on a new pivot, none per elimination step
    # (the table makes 90 steps), and one for each representative that is
    # not a unit vector, at the end of its back-solve: 6 of the 10 are e_j
    # at a free column no forward row holds, with no gcd, and 4 take one (70
    # calls when each of the 10 took one).  A full back-substitution of the
    # forward rows took 86 gcds and 112 steps.  The pivots of a certified
    # cell's image take no back-substitution: with one the table took 112
    # gcds and 138 steps.  sl2's table reduces only the cochains every
    # sigma_k keeps even, where it took 184 gcds and 250 steps on the whole
    # complex
    calls = _count_calls(monkeypatch, "_primitive", "_eliminate")
    cohomology_table(linear_poisson("sl2"), 8)
    assert calls == {"_primitive": 64, "_eliminate": 90}


def test_one_entry_rows_take_no_elimination_step(monkeypatch):
    # most rows of a differential hold one entry: one that meets a {col: 1}
    # pivot row is dropped with no step, and no row is made primitive more
    # often.  Heisenberg reduces its full complex and sl2 the block of its
    # full complex that every sigma_k keeps even (eliminating each one-entry
    # row made 4,410 and, on sl2's whole complex, 6,404 steps); book reduces
    # only its weight-0 subcomplex, which takes no elimination step.  Where
    # d_1's pass certifies cell 1, d_0 is reduced on its pass's pivot rows
    # alone: sl2's table made 6,290 steps when its H^0 cells reduced all
    # their rows and 2,012 on the pass's pivot rows of the whole complex,
    # and 1,116 on those of the even block (1,168 gcds there went to 608);
    # the pivots of a certified cell's image take no back-substitution,
    # which left 968 steps and 460 gcds.  Book's table took 28 gcds where
    # all of d_0's rows took 46; heisenberg's d_0 is reduced on every row.
    # A representative at a free column no forward row of several entries
    # holds is e_j, with no gcd: 566 of heisenberg's 1,006 are, all 18 of
    # book's and 10 of sl2's 18 (4,276, 28 and 470 calls when each took
    # one).  Heisenberg's z is a Casimir, and each degree resumes from the
    # forward table the one before handed on: its rows that land there take
    # no gcd again (3,710 calls when every degree inserted every row).  Each
    # kernel vector is back-solved from the forward rows, with no
    # back-substitution: that took heisenberg's 1,520 steps and 1,520 gcds,
    # run by each degree over its whole held table, and 140 of sl2's steps
    # and gcds.  It runs 63 mod-p passes, none on d_0, which no pass could
    # certify (84 with d_0's); the others run one per differential
    calls = _count_calls(monkeypatch, "_eliminate", "_primitive", "independent_columns_mod_p")
    for pi, dmax, expected in ((linear_poisson("heisenberg"), 20, (0, 1050, 63)),
                               (linear_poisson(Algebra("book", Fraction(-2, 3))), 20, (0, 10, 84)),
                               (linear_poisson("sl2"), 16, (828, 320, 68))):
        calls.update(_eliminate=0, _primitive=0, independent_columns_mod_p=0)
        cohomology_table(pi, dmax)
        assert (calls["_eliminate"], calls["_primitive"],
                calls["independent_columns_mod_p"]) == expected


def _count_cell_reads(monkeypatch):
    """Patch `complexes` to count the columns its cells build off a stencil,
    all through `OperatorCell.column`, the vectors they are applied to with
    no column built (`OperatorCell.apply`), and the row layouts they give;
    returns the counts."""
    counts = {"columns": 0, "applied": 0, "rows": 0}
    column, rows = complexes_module.OperatorCell.column, complexes_module.OperatorCell.rows
    apply = complexes_module.OperatorCell.apply

    def building(self, j):
        counts["columns"] += self._stencil is not None
        return column(self, j)

    def applying(self, vector):
        counts["applied"] += 1
        return apply(self, vector)

    def laying_out(self, free=(), at=None, start=0):
        counts["rows"] += 1
        return rows(self, free, at, start)

    monkeypatch.setattr(complexes_module.OperatorCell, "column", building)
    monkeypatch.setattr(complexes_module.OperatorCell, "apply", applying)
    monkeypatch.setattr(complexes_module.OperatorCell, "rows", laying_out)
    return counts


def test_rows_are_laid_out_only_for_exact_reductions(monkeypatch):
    # the mod-p pass reduces the columns of every differential; only an exact
    # reduction lays out rows, read straight off the stencil: no column list
    # is turned into rows
    calls = _count_calls(monkeypatch, "lay_out", "kernel_and_image_of_rows")
    reads = _count_cell_reads(monkeypatch)
    listed = []
    monkeypatch.setattr(complexes_module, "monomials",
                        lambda d: listed.append(d) or monomials(d))
    cohomology_table(linear_poisson("sl2"), 8)
    assert (reads["rows"], calls["kernel_and_image_of_rows"]) == (10, 10)
    assert calls["lay_out"] == 0
    assert listed == []  # no basis element list is built


def test_differentials_are_built_only_as_far_as_they_are_read(monkeypatch):
    # a mod-p pass builds a column only when its lead is a pivot already or
    # a later column is first reduced against it; a certified cell builds
    # the columns it kept only for a next cell reduced exactly; an exact
    # reduction lays out its rows straight from the stencil; and a
    # closedness test or a restriction applies the stencil to its vector
    # with no column built.  Each table applies the (2, 1) cell to pi for
    # [pi, pi], and builds the 3 columns of d_0 on degree 1 that the weight
    # detection reads.  Heisenberg reduces its full complex, whose passes
    # build 0 more (building each column they read built 1,864, and every
    # column of every differential 14,168).  Sl2 reduces the block of its
    # full complex that every sigma_k keeps even: its passes read the leads
    # of 978 columns and build 589 more, where on the whole complex they
    # read 3,885 and built 1,195 (every column of every differential is
    # 7,752).  Sl2 reduces d_0 of its H^0 cells, the powers C^k of the
    # Casimir at degree 2k, k = 0..8, on its pass's pivot rows alone, and
    # applies d_0 to each kernel row to check that it kills it: 9 more
    # vectors.  Book restricts to weight 0 under the weights (3, -2, 0) and
    # applies d_q once to each weight-0 vector, at the degree where it is
    # new; every later column is read off its line.  x^m_x y^(d - m_x) xi_S
    # is new at d when 5 m_x = 2d + sum_S D_s: 1 at d = 0 mod 5 (q = 0);
    # xi_x, xi_y at d = 1 and xi_z at d = 0 mod 5 (q = 1); and each of the
    # three components at d = 1 or 2 mod 5 (q = 2).  Up to degree 20 that
    # is 5 + 13 + 12 = 30 vectors of d_0..d_2.  The row layouts are one per
    # exact reduction
    reads = _count_cell_reads(monkeypatch)
    for pi, dmax, expected in ((linear_poisson("heisenberg"), 20, (3, 1, 84)),
                               (linear_poisson(Algebra("book", Fraction(-2, 3))), 20, (3, 31, 18)),
                               (linear_poisson("sl2"), 16, (592, 10, 18))):
        reads.update(columns=0, applied=0, rows=0)
        cohomology_table(pi, dmax)
        assert (reads["columns"], reads["applied"], reads["rows"]) == expected


def test_a_table_derives_each_stencil_once(monkeypatch):
    # d_0, d_1 and d_2 of every degree read three stencils (d_3 is zero),
    # each derived and checked once while the table holds its bivector; the
    # hold ends with the table, so the next table derives them again
    checked, check = [], multivector_module._check_stencil
    monkeypatch.setattr(multivector_module, "_check_stencil",
                        lambda stencil, out_q: checked.append(out_q) or check(stencil, out_q))
    pi = linear_poisson("sl2")
    for _ in range(2):
        checked.clear()
        cohomology_table(pi, 8)
        assert sorted(checked) == [1, 2, 3]


def test_a_table_or_a_cell_calls_linear_stencil_once_per_q(monkeypatch):
    # `linear_stencil` derives and checks its stencil on every call; a table,
    # or a single cell, holds its bivector's stencils while it is built and
    # calls it at most once per q, at q = 0, 1, 2 (d_3 is zero)
    calls, stencil = [], complexes_module.linear_stencil
    monkeypatch.setattr(complexes_module, "linear_stencil",
                        lambda operator, q: calls.append(q) or stencil(operator, q))
    builds = [
        lambda: cohomology_table(linear_poisson("heisenberg"), 12),
        lambda: cohomology_table(linear_poisson(Algebra("book", Fraction(-2, 3))), 12),
        lambda: cohomology_table(linear_poisson("sl2"), 12),
        lambda: cohomology_table(linear_poisson("euclidean"), 12, invariant=True),
        lambda: invariant_cohomology(linear_poisson("so3"), 1, 12),
        lambda: cohomology_cell(linear_poisson("aff_x_r"), 2, 12),
    ]
    for build in builds:
        calls.clear()
        build()
        assert sorted(calls) == [0, 1, 2]
    pi = linear_poisson("heisenberg")  # outside a hold each cell derives its own
    calls.clear()
    for d in range(3):
        complexes_module.differential_matrix(pi, 1, d)
    assert calls == [1, 1, 1]


def test_a_bivector_changed_in_place_gets_its_own_table():
    # a table holds the stencils of its bivector object only while it is
    # built; the next table finds them by the bivector's value, so a
    # bivector written after a table was read off it reads its new value
    pi = linear_poisson("heisenberg")
    assert cohomology_table(pi, 4).totals == {0: 5, 1: 24, 2: 34, 3: 15}
    sl2 = linear_poisson("sl2")
    pi.components.clear()
    pi.components.update(sl2.components)
    changed = cohomology_table(pi, 4)
    assert changed.totals == {0: 3, 1: 0, 2: 0, 3: 3}
    assert _table_fields([changed]) == _table_fields([cohomology_table(sl2, 4)])


REGISTRY_ALGEBRAS = [Algebra(kind, {"book": Fraction(-2, 3), "spiral": Fraction(5, 2)}.get(kind))
                     for kind in KINDS] + [Algebra("book", Fraction(1, 3))]


def _table_fields(tables):
    return [[_cell_fields(table.cells[key]) for key in sorted(table.cells)] for table in tables]


@pytest.mark.parametrize("prime, exact_reductions, guarded",
                         [(2, 300, 1), (3, 266, 1), (5, 239, 2)])
def test_a_small_prime_only_sends_cells_down_the_exact_path(monkeypatch, prime,
                                                            exact_reductions, guarded):
    # a pass that stops hands the next one the exact image's pivots to skip,
    # not pivot rows of its own; modulo a small prime the columns outside
    # those can hold less than the whole rank (an image vector's leading
    # entry may be a multiple of p), so a few more cells of the registry
    # tables go exact than the 252, 219 and 208 of passes that all run to
    # the end, none at PRIME.  d_1's pass runs before d_0 is reduced, on
    # d_0's rank mod p: where that is below the rank over Q, its spare is
    # too small, it may stop where it could have certified cell 1, and the
    # cell goes exact (at p = 3 and 5 four and two more than 221 and 208).
    # Book, semi_open_book and aff_x_r count the reductions of their
    # weight-0 subcomplexes, and so3, sl2, euclidean and spiral those of
    # their parity-even blocks, whose fewer columns collide less often mod
    # p (258, 225 and 210 at p = 2, 3, 5, against 268, 242 and 228 when
    # they reduced the whole complex; 173 at PRIME either way).  The class
    # table of so3 adds 10, 22, 23 and 17 reductions at PRIME, 2, 3 and 5;
    # where d_1's pass certifies cell 1 of its restricted list cells, d_0 is
    # reduced on its pass's pivot rows, at any prime, and passes the check
    # there.  That of sl2 reduces the parity-even block its table does, and
    # adds 10, 20, 18 and 12, with no list cell to check
    calls = _count_calls(monkeypatch, "kernel_and_image_of_rows")
    checked, kills = [], complexes_module.OperatorCell.kills  # the source of each cell checked

    def checking(cell, vector):
        checked.append(cell.source)
        return kills(cell, vector)

    monkeypatch.setattr(complexes_module.OperatorCell, "kills", checking)
    pis = [linear_poisson(algebra) for algebra in REGISTRY_ALGEBRAS]
    blocks = [linear_poisson(kind) for kind in ("so3", "sl2")]

    def tables():
        return _table_fields([cohomology_table(pi, 8) for pi in pis]
                             + [class_table(pi, 8) for pi in blocks])

    expected = tables()
    assert calls["kernel_and_image_of_rows"] == 193
    assert checked.count(None) == 5  # the guard on so3's restricted list cells
    monkeypatch.setattr(linalg, "PRIME", prime)
    calls["kernel_and_image_of_rows"] = 0
    del checked[:]
    assert tables() == expected
    assert calls["kernel_and_image_of_rows"] == exact_reductions
    assert checked.count(None) == guarded


def _recorded_passes(monkeypatch):
    """Record each mod-p pass as (columns, skip, spare, kept, pivot_rows):
    the whole matrix whose columns outside skip it read, and what it kept,
    as ascending positions.  The columns are read after the pass."""
    passes = []
    restricted = linalg.independent_columns_mod_p

    def recording(cell, skip=(), spare=inf):
        kept, pivot_rows = restricted(cell, skip, spare)
        passes.append((cell.columns, skip, spare, kept, pivot_rows))
        return kept, pivot_rows

    monkeypatch.setattr(linalg, "independent_columns_mod_p", recording)
    return passes


def _left_out_of(pi, dmax):
    """The positions the full table of pi leaves out at each (q, d), d <=
    dmax, as `_complex` chooses them: those odd under some sigma_k of an
    axis whose field passes the block test, where pi has no weight-0
    family, and none elsewhere."""
    fields = cohomology_module._fields(pi)
    axes = cohomology_module._axes(fields)
    if cohomology_module._family(fields, False) is not None or not axes:
        return lambda q, d: set()
    return cohomology_module._left_out(axes, dmax)


def _carried(pi, invariant=False):
    """True where a table of pi carries each degree's forward table to the
    next: its full complex is reduced (no weight-0 family) and X_z is 0, pi
    too or not.  Then z^d is a class at every degree, and d_0 runs no pass."""
    fields = cohomology_module._fields(pi)
    return (not invariant and not any(map(any, fields[2]))
            and cohomology_module._family(fields, False) is None)


def _emptied(columns, out):
    """The columns with those at the positions in `out` made empty."""
    return [{} if j in out else col for j, col in enumerate(columns)]


def test_the_mod_p_pass_skips_the_pivot_rows_of_the_incoming_differential(monkeypatch):
    # each pass skips the rows at which the previous one found its pivots, or,
    # after a pass that stopped, the exact pivots of the previous image; it
    # keeps columns independent over Q.  d_0's pass runs to the end and keeps
    # the rank mod p of the whole matrix, and so does every pass that skips
    # pivot rows of a pass; a later pass stops at the first dependent column
    # past rank_in - |skip|, where its whole run could not certify the cell
    # had d_{q-1} that rank.  d_1's pass runs before d_0 is reduced: its
    # rank_in is d_0's rank mod p, below the exact one at an unlucky prime.
    # Where z is a Casimir (heisenberg, abelian), d_0 runs no pass and is
    # reduced exactly, and d_1's pass skips its exact image pivots with no
    # spare.
    # Where the full table leaves out the positions odd under some sigma_k
    # (so3, sl2, euclidean, spiral), every pass skips them too, and all of
    # this holds of the matrix with their columns emptied: ranks, sizes and
    # skips count only the other columns
    restricted = mod_p_pass
    passes = _recorded_passes(monkeypatch)
    skipped = stopped = after_stop = split = still_certified = after_d_0 = 0
    word_prime = linalg.PRIME
    for prime in (word_prime, 2, 3, 5):
        monkeypatch.setattr(linalg, "PRIME", prime)
        for algebra in REGISTRY_ALGEBRAS:
            pi = linear_poisson(algebra)
            rotation_invariant = schouten_bracket(rotation_field(), pi).is_zero()
            for invariant in (False, True)[:1 + rotation_invariant]:
                left_out = (lambda q, d: set()) if invariant else _left_out_of(pi, 12)
                carried = _carried(pi, invariant)
                del passes[:]
                cohomology_table(pi, 12, invariant)
                assert len(passes) == (4 - carried) * 13
                for n, (columns, skip, spare, kept, pivot_rows) in enumerate(passes):
                    d, q = divmod(n, 4 - carried)
                    q += carried
                    out = left_out(q, d)
                    incoming = passes[n - 1] if q > carried else None
                    if q == carried == 1:  # d_0 was reduced exactly, with no pass
                        incoming = (differential_matrix(pi, 0, d).columns, *[None] * 4)
                        after_d_0 += 1
                    rank_in = kernel_and_image(
                        _emptied(incoming[0], left_out(q - 1, d)))[0] if incoming else 0
                    if q == 1 and not carried:
                        rank_in = len(incoming[3])  # d_0's pass ran to the end
                    whole = restricted(columns, out)[0]
                    assert out <= skip
                    if incoming is None:
                        assert (skip, spare) == (out, inf)
                        assert pivot_rows is not None
                    else:
                        assert spare == rank_in - len(skip - out)
                    if incoming is None or incoming[4] is not None:
                        assert skip == (incoming[4] if incoming else set()) | out
                    elif skip == out != set(linalg.rref(incoming[0])[0]) | out:
                        # d_1's pass stopped on d_0's rank mod p and still
                        # certified cell 1: its kept columns hold the exact rank
                        assert q == 2 and prime != word_prime and rank_in == len(incoming[3])
                        still_certified += 1
                    else:
                        assert skip == set(linalg.rref(incoming[0])[0]) | out
                        if prime == word_prime:
                            assert len(restricted(columns, skip)[0]) == len(whole)
                        after_stop += 1
                    assert not skip & set(kept)
                    assert rank([columns[j] for j in kept]) == len(kept)
                    full, full_rows = restricted(columns, skip)
                    if pivot_rows is None:
                        order = [j for j in range(len(columns) - 1, -1, -1) if j not in skip]
                        stop = [j for j in order if j not in full][spare]
                        assert kept == [j for j in full if j > stop]
                        assert len(full) + rank_in < len(columns) - len(out)
                        stopped += 1
                    else:
                        assert (kept, pivot_rows) == (full, full_rows)
                        assert len(kept) == len(pivot_rows)
                        if incoming is None or incoming[4] is not None:
                            assert len(kept) == len(whole)
                    skipped += sum(map(bool, (columns[j] for j in skip - out)))
                    split += bool(out)
    assert skipped and stopped and after_stop and split and still_certified and after_d_0


def test_exact_rank_below_the_modular_rank_raises(monkeypatch):
    # a rank mod p can never exceed the rank over Q; the guard must survive
    # python -O, and holds the columns a stopped pass kept to it
    independent_columns_mod_p = linalg.independent_columns_mod_p

    def over_reporting(cell, skip=(), spare=inf):
        kept, pivot_rows = independent_columns_mod_p(cell, skip, spare)
        if len(cell) == 9:  # d_1 at degree 1, a cell with dim H = 4
            assert (kept, pivot_rows) == ([8], None)  # stopped at its first dependent column
            others = [j for j in range(len(cell)) if j not in skip and j not in kept]
            kept = sorted([*kept, *others[:3]])
        return kept, pivot_rows

    monkeypatch.setattr(linalg, "independent_columns_mod_p", over_reporting)
    message = r"cell \(1, 1\): exact rank 3 is below the rank 4 mod p"
    with pytest.raises(RuntimeError, match=message):
        cohomology_table(linear_poisson("heisenberg"), 1)


def _exact_reductions(monkeypatch, pi, dmax):
    """The exact reductions of `cohomology_table(pi, dmax)`, on the complex
    its builder hands the degree loop (the weight-0 one for a bivector with
    coordinate weights).

    Each is (incoming, whole, columns, skip, out, at, result, nnz): all
    columns of d_{q-1} ([] at q = 0) and of d_q, the columns of the rows
    handed to `kernel_and_image_of_rows` with skip, those an earlier degree
    laid out and handed on included, the positions of d_q's source that the
    degree loop was told to leave out (`_left_out`, empty for none), where
    d_q laid out its rows at the row indices in `at` (None for all), what it
    returned and the nonzeros it sent into `rref`.  Each reduction follows
    the one layout of its rows.
    """
    degrees, laid_out, calls = [], [], []  # degrees: the matrices of each degree
    degree_cells, lay_out, kernel_and_image_of_rows, rref = (
        cohomology_module._degree_cells, complexes_module.OperatorCell.rows,
        linalg.kernel_and_image_of_rows, linalg.rref)
    inside = []

    def recording(d, matrices, back=None, carry=None, out=None):
        degrees.append((matrices, out))
        return degree_cells(d, matrices, back, carry, out)

    def laying_out(cell, free=(), at=None, start=0):
        laid_out.append((cell, at))
        return lay_out(cell, free, at, start)

    def reducing(size, laid, skip=(), *carried):
        inside.append(0)
        result = kernel_and_image_of_rows(size, laid, skip, *carried)
        calls.append((laid, skip, result, inside.pop()))
        return result

    def counting(rows, landed=None, *held):
        if inside:
            inside[-1] += sum(map(len, rows))
        return rref(rows, landed, *held)

    with monkeypatch.context() as patch:
        patch.setattr(cohomology_module, "_degree_cells", recording)
        patch.setattr(complexes_module.OperatorCell, "rows", laying_out)
        patch.setattr(linalg, "kernel_and_image_of_rows", reducing)
        patch.setattr(linalg, "rref", counting)
        cohomology_table(pi, dmax)
    reductions = []
    assert len(calls) == len(laid_out)
    for ((index, rows), skip, result, nnz), (cell, at) in zip(calls, laid_out):
        ((incoming, out),) = [
            (matrices[q - 1].columns if q else [], set(left[q]) if left else set())
            for matrices, left in degrees for q, matrix in enumerate(matrices) if matrix is cell]
        whole = cell.columns
        columns = [{} for _ in whole]  # the rows read back as columns
        for i, row in zip(index, rows):
            for k, c in row.items():
                columns[~k][i] = c
        reductions.append((incoming, whole, columns, skip, out, at, result, nnz))
    return reductions


def _seeded_algebras(seed):
    """Every registry kind, book and spiral at a seeded rational tau."""
    rng = random.Random(seed)
    book = Fraction(rng.randint(1, 9), rng.randint(9, 15)) * rng.choice((1, -1))
    spiral = Fraction(rng.randint(1, 30), rng.randint(1, 12))
    return [Algebra(kind, {"book": book, "spiral": spiral}.get(kind)) for kind in KINDS]


@pytest.mark.parametrize("seed", [7, 11])
def test_the_pass_on_leads_decides_as_the_pass_on_built_columns(monkeypatch, seed):
    # every pass of d_0..d_2 of these tables, with the skip and spare the
    # table gave it, keeps the positions and finds the pivot rows that the
    # pass on built columns (`mod_p_pass`) does, at the word prime and at
    # small ones, where more entries are 0 mod p; so on the invariant
    # subcomplex, whose cells hold lists of columns
    passes = _recorded_passes(monkeypatch)
    checked = stopped = 0
    algebras = REGISTRY_ALGEBRAS + [a for a in _seeded_algebras(seed) if a.tau is not None]
    for prime in (linalg.PRIME, 3):
        monkeypatch.setattr(linalg, "PRIME", prime)
        for algebra in algebras:
            pi = linear_poisson(algebra)
            for invariant in (False, True)[:1 + schouten_bracket(rotation_field(), pi).is_zero()]:
                del passes[:]
                cohomology_table(pi, 10, invariant)
                carried = _carried(pi, invariant)  # d_0 ran no pass
                for n, (columns, skip, spare, kept, pivot_rows) in enumerate(passes):
                    if n % (4 - carried) + carried < 3:
                        assert mod_p_pass(columns, skip, spare) == (kept, pivot_rows)
                        checked += 1
                        stopped += pivot_rows is None
    assert checked and stopped


@pytest.mark.parametrize("seed", [7, 11])
def test_the_incoming_pivot_columns_change_no_exact_reduction(monkeypatch, seed):
    # the incoming image's pivots are free columns of d_q: emptying them
    # changes no rank, kernel row read off or image pivot.  A d_0 reduced on
    # some rows alone has d_0's rank and kernel, and every row lands.  Where
    # the positions odd under some sigma_k are left out (`_left_out`: so3,
    # sl2, euclidean, spiral), the skip holds them too and d_q is reduced as
    # with their columns emptied; the odd columns of d_{q-1} land only on
    # odd rows, so the skip is still the whole incoming image's pivots with
    # them, and the whole d_q, reduced with nothing left out, reads off the
    # same kernel rows
    checked = emptied = on_rows = split = 0
    for algebra in _seeded_algebras(seed):
        pi = linear_poisson(algebra)
        for incoming, whole, columns, skip, out, at, result, _ in _exact_reductions(
                monkeypatch, pi, 10):
            assert skip == set(linalg.rref(incoming)[0]) | out
            assert skip - out <= _free_columns(whole)
            assert all(columns[j] == {} for j in skip)
            expected = kernel_and_image(_emptied(whole, out), skip)
            assert kernel_and_image(whole, skip)[1:3] == expected[1:3]
            if at is None:
                assert result == expected
            else:
                assert incoming == [] and result == (*expected[:3], at)
                on_rows += 1
            checked += 1
            split += bool(out)
            emptied += sum(map(bool, (whole[j] for j in skip - out)))
    assert checked and emptied and on_rows and split


@pytest.mark.parametrize("kind, on_pivot_rows", [("sl2", True), ("so3", True),
                                                  ("euclidean", False), ("heisenberg", False)])
def test_d_0_is_reduced_on_its_pass_pivot_rows_where_d_1s_pass_certifies_cell_1(
        monkeypatch, kind, on_pivot_rows):
    # sl2 and so3 have no H^1: d_1's pass, run before d_0 is reduced,
    # certifies every cell 1, so d_0 of each H^0 cell is reduced on the rows
    # at which its own pass found pivots and on no other.  Euclidean keeps
    # classes in H^1, and d_0 is reduced on every row.  Heisenberg's z is a
    # Casimir: d_0 runs no pass, and is reduced on every row at every degree
    passes = _recorded_passes(monkeypatch)
    dmax = 10
    reductions = [(whole, at) for incoming, whole, _, _, _, at, *_ in _exact_reductions(
        monkeypatch, linear_poisson(kind), dmax) if incoming == []]
    carried = _carried(linear_poisson(kind))
    assert len(passes) == (4 - carried) * (dmax + 1) and reductions
    if carried:
        assert len(reductions) == dmax + 1
    for whole, at in reductions:
        d = [d for d in range(dmax + 1) if len(whole) == (d + 1) * (d + 2) // 2][0]
        assert at == (passes[4 * d][4] if on_pivot_rows else None)


def test_pivot_rows_that_miss_d_0s_row_space_fail_the_check(monkeypatch):
    # a pass that hands over d_0's pivot rows less the top one: those rows
    # do not span d_0's row space, so d_0 does not kill every kernel row
    # they leave, and the check raises at the first cell this reaches,
    # sl2's H^0 cell at d = 2, after one reduction of d_0 on those rows;
    # at d = 0 no pivot row is dropped, and d = 1 reduces no d_0
    pi = linear_poisson("sl2")
    expected = _table_fields([cohomology_table(pi, 1)])
    independent_columns_mod_p, rows = (linalg.independent_columns_mod_p,
                                       complexes_module.OperatorCell.rows)
    dropped, laid = [], []

    def dropping(cell, skip=(), spare=inf):
        kept, pivot_rows = independent_columns_mod_p(cell, skip, spare)
        if spare == inf and pivot_rows:  # d_0's pass
            pivot_rows = pivot_rows - {max(pivot_rows)}
            dropped.append(pivot_rows)
        return kept, pivot_rows

    def laying_out(cell, free=(), at=None, start=0):
        laid.append(at)
        return rows(cell, free, at, start)

    monkeypatch.setattr(linalg, "independent_columns_mod_p", dropping)
    monkeypatch.setattr(complexes_module.OperatorCell, "rows", laying_out)
    assert _table_fields([cohomology_table(pi, 1)]) == expected
    del laid[:]
    with pytest.raises(RuntimeError, match=r"cell \(0, 2\): d_0 does not kill the kernel "
                       "of its pass's pivot rows"):
        cohomology_table(pi, 8)
    assert laid[-1] == dropped[-1] and sum(map(bool, laid)) == 1


def test_d_1s_pass_that_stops_on_an_unlucky_rank_of_d_0_may_still_certify_cell_1(monkeypatch):
    # modulo 5, d_0 of this conjugate of spiral 5/2 at d = 2 has a rank below
    # its exact one, so d_1's pass, run on that rank, stops at its first
    # dependent column; the exact rank of d_0 still certifies cell 1, with
    # no pivot rows, and d_2's pass skips no column but those left out.
    # This conjugate's block field is X_x: every pass skips the positions
    # odd under sigma_x
    spiral = Algebra("spiral", Fraction(5, 2))
    pi = linear_poisson(conjugated_constants(structure_constants(spiral), random.Random(2)))
    assert cohomology_module._axes(cohomology_module._fields(pi)) == [0]
    left_out = cohomology_module._left_out([0], 4)
    expected = _table_fields([cohomology_table(pi, 4)])
    passes = _recorded_passes(monkeypatch)
    monkeypatch.setattr(linalg, "PRIME", 5)
    assert _table_fields([cohomology_table(pi, 4)]) == expected
    (_, _, _, _, d_0_rows), (_, d_1_skip, _, _, d_1_rows), (_, d_2_skip, *_) = passes[8:11]
    assert left_out(1, 2) <= d_1_skip
    assert (d_1_skip - left_out(1, 2), d_1_rows, d_2_skip) == (d_0_rows, None, left_out(2, 2))


@pytest.mark.parametrize("seed", [7, 11])
def test_solves_and_witnesses_still_find_every_coboundary(seed):
    # `solve_combination` skips columns it does not read off, which are not
    # free: it still finds every coboundary, and no class is one
    rng = random.Random(seed)
    for algebra in _seeded_algebras(seed):
        pi = linear_poisson(algebra)
        table = cohomology_table(pi, 5)
        with holding_stencils(pi):
            for d in range(6):
                for q in range(1, 4):
                    cell = differential_matrix(pi, q - 1, d)
                    vec = {j: rng.randint(-3, 3) for j in rng.sample(range(len(cell.columns)),
                                                                     min(3, len(cell.columns)))}
                    target = linalg.matvec(cell.columns, vec)
                    combo = linalg.solve_combination(cell.columns, target)
                    assert combo is not None
                    assert linalg.matvec(cell.columns, combo) == target
                    value = cell.source.reconstruct({j: Fraction(c) for j, c in vec.items()})
                    image = poisson_differential(pi, value)
                    witness = coboundary_witness(pi, image)
                    assert poisson_differential(pi, witness) == image
                    for rep in cell_multivectors(table.cell(q, d)):
                        assert coboundary_witness(pi, rep) is None


def test_euclidean_sends_fewer_nonzeros_into_rref(monkeypatch):
    # every exact reduction of d_q leaves out the columns at the incoming
    # image's pivots, and those odd under sigma_z: of 6,090 nonzeros of the
    # whole differentials, 4,598 lie outside the pivots' columns, all that
    # was sent when the whole complex was reduced, and 2,274 are sent
    reductions = _exact_reductions(monkeypatch, linear_poisson("euclidean"), 12)
    assert len(reductions) == 46
    whole = sum(len(col) for _, whole, *_ in reductions for col in whole)
    sent = sum(nnz for *_, nnz in reductions)
    assert sum(len(col) for _, _, columns, *_ in reductions for col in columns) == sent
    outside = sum(len(col) for incoming, whole, *_ in reductions
                  for j, col in enumerate(whole) if j not in set(linalg.rref(incoming)[0]))
    assert (whole, outside, sent) == (6090, 4598, 2274)


# the bivectors whose z is a Casimir and whose full complex is reduced: a
# table carries each degree's forward table to the next, abelian's too,
# whose pi is 0 and lays out no row at any degree, so it hands on nothing
CARRIED = ("heisenberg", "abelian", "x*dx^dy + z*dx^dy", "y*dx^dy + 3*z*dx^dy",
           "2*x*dx^dy - y*dx^dy + 5*z*dx^dy")


def _carried_bivector(name):
    return linear_poisson(name) if name in KINDS else parse_multivector(name)


def _rows_written(monkeypatch, pi, dmax):
    """(rows, nonzeros) `OperatorCell.rows` writes for `cohomology_table(pi, dmax)`."""
    written, rows = [0, 0], complexes_module.OperatorCell.rows

    def laying_out(cell, free=(), at=None, start=0):
        index, laid = rows(cell, free, at, start)
        written[0] += len(laid)
        written[1] += sum(map(len, laid))
        return index, laid

    with monkeypatch.context() as patch:
        patch.setattr(complexes_module.OperatorCell, "rows", laying_out)
        cohomology_table(pi, dmax)
    return tuple(written)


def test_a_casimir_z_is_read_off_x_z_and_keeps_every_row_of_a_block():
    # X_z = 0 picks the carried complexes; on their stencils no entry
    # depends on m_z and each lowers s = d - m_z by 0 or 1, so a row of
    # target block s holds the columns of source blocks s and s + 1 only
    detected = []
    for algebra in REGISTRY_ALGEBRAS:
        fields = cohomology_module._fields(linear_poisson(algebra))
        if not any(map(any, fields[2])) and cohomology_module._family(fields, True) is None:
            detected.append(algebra.name)
    assert detected == ["abelian", "heisenberg"]
    for name in CARRIED:
        pi = _carried_bivector(name)
        fields = cohomology_module._fields(pi)
        assert not any(map(any, fields[2])) and cohomology_module._family(fields, True) is None
        for q in range(3):
            stencil, _ = complexes_module.linear_stencil(pi, q)
            entries = [entry for component in stencil for entry in component]
            assert all(az == 0 and sz in (0, 1) for _, (_, _, sz), (_, _, az, _) in entries)


def test_where_z_is_a_casimir_z_to_the_d_is_a_class_and_d_0_runs_no_pass(monkeypatch):
    # x dx^dy + z dx^dy is off the registry: X_z = 0, and it has no weight
    # field and no block axis, so its table carries.  d_0(z^d) = d z^(d-1)
    # X_z = 0, so every cell (0, d) holds one class, z^d, which no pass
    # could certify, and its mod-p passes are d_1's, d_2's and d_3's at each
    # degree, none of d_0.  Its table is its single cells, and its (key,
    # dim H, kernel rows) hash as they did when d_0 ran a pass
    pi, dmax = parse_multivector("x*dx^dy + z*dx^dy"), 10
    fields = cohomology_module._fields(pi)
    assert not any(map(any, fields[2])) and _carried(pi)
    assert cohomology_module._weights(fields) is None and cohomology_module._axes(fields) == []
    passes = _recorded_passes(monkeypatch)
    table = cohomology_table(pi, dmax)
    assert [len(columns) for columns, *_ in passes] == [
        k * (d + 1) * (d + 2) // 2 for d in range(dmax + 1) for k in (3, 3, 1)]
    for d in range(dmax + 1):
        cell = table.cell(0, d)
        assert cell.dim_h == 1
        assert cell.kernel_rows == [{GradedBasis(0, d).position(0, (0, 0, d)): 1}]
    assert {key: _ordered_fields(cell) for key, cell in table.cells.items()} == {
        (q, d): _ordered_fields(cohomology_cell(pi, q, d))
        for d in range(dmax + 1) for q in range(4)}
    fields = repr([(key, cell.dim_h, cell.kernel_rows) for key, cell in sorted(table.cells.items())])
    assert hashlib.sha256(fields.encode()).hexdigest()[:16] == "0173ca4ab01f0568"


def _reference_kernel(columns):
    """{j: the kernel row led at free column j}, read off `reference_rref`
    of the rows, column j keyed ~j, as coprime ints positive at j."""
    rows = {}
    for j, col in enumerate(columns):
        for i, c in col.items():
            rows.setdefault(i, {})[~j] = c
    pivots, echelon = reference_rref(list(rows.values()))
    kernel = {j: {j: Fraction(1)} for j in range(len(columns)) if ~j not in pivots}
    for pivot, row in zip(pivots, echelon):
        for k, c in row.items():
            if k != pivot:
                kernel[~k][~pivot] = -c
    return {j: linalg.integer_normalize(vec) for j, vec in kernel.items()}


@pytest.mark.parametrize("name", CARRIED)
def test_carried_tables_are_the_cold_cells(monkeypatch, name):
    # each degree of a table resumes from the forward table the degree
    # before handed on: its tables, the one `verify` reads included, have
    # the cells, in key order, of single cells, which reduce their degree
    # from nothing, at the word prime and at small ones; back to back and
    # inside another bivector's hold too.  Up to d = 8 the representatives
    # are the canonical kernel rows of `reference_rref`, one per free
    # column outside the incoming image's pivots
    pi, dmax = _carried_bivector(name), 14
    cold = {(q, d): _ordered_fields(cohomology_cell(pi, q, d))
            for d in range(dmax + 1) for q in range(4)}
    for prime in (linalg.PRIME, 2, 3, 5):
        monkeypatch.setattr(linalg, "PRIME", prime)
        tables = [cohomology_table(pi, dmax), class_table(pi, dmax), cohomology_table(pi, dmax)]
        with holding_stencils(linear_poisson("sl2")):
            tables.append(cohomology_table(pi, dmax))
        for table in tables:
            assert {key: _ordered_fields(cell) for key, cell in table.cells.items()} == cold
        assert {(q, d): _ordered_fields(cohomology_cell(pi, q, d))
                for d in range(0, dmax + 1, 5) for q in range(4)} == {
            (q, d): cold[q, d] for d in range(0, dmax + 1, 5) for q in range(4)}
    with holding_stencils(pi):
        for d in range(9):
            columns = [differential_matrix(pi, q, d).columns for q in range(4)]
            for q in range(4):
                kernel = _reference_kernel(columns[q])
                incoming = set(reference_rref(columns[q - 1])[0]) if q else set()
                reps = tables[0].cell(q, d).kernel_rows
                assert [min(rep) for rep in reps] == sorted(kernel.keys() - incoming)
                assert all(kernel[min(rep)] == rep for rep in reps)


def test_a_zero_pi_is_carried_and_its_table_is_its_single_cells(monkeypatch):
    # abelian's X_z is 0, so its degrees get a carry, as heisenberg's do:
    # d_0 runs no pass, and pi = 0 lays out no row at any degree, so the
    # carry hands on nothing.  Each cell of the carried table is the single
    # cell, reduced alone, and the whole cochain space: dim H = dim C, its
    # kernel rows the unit vectors e_j
    degree_cells, carries = cohomology_module._degree_cells, []

    def recording(d, matrices, back=None, carry=None, *rest):
        carries.append(carry)
        return degree_cells(d, matrices, back, carry, *rest)

    monkeypatch.setattr(cohomology_module, "_degree_cells", recording)
    pi, dmax = linear_poisson("abelian"), 10
    table = cohomology_table(pi, dmax)
    assert len(carries) == dmax + 1 and all(carry is carries[0] for carry in carries)
    assert type(carries[0]) is dict
    assert _rows_written(monkeypatch, pi, dmax) == (0, 0)
    for (q, d), cell in table.cells.items():
        n = len(GradedBasis(q, d))
        assert (cell.dim_cochains, cell.rank_out, cell.rank_in, cell.dim_h) == (n, 0, 0, n)
        assert cell.kernel_rows == [{j: 1} for j in range(n)]
        assert _ordered_fields(cell) == _ordered_fields(cohomology_cell(pi, q, d))


def test_a_carry_resumes_only_from_the_degree_before(monkeypatch):
    # degrees reduced with gaps between them, as a single cell's is after
    # none: each after a gap lays out every row, and all give the cold cells
    pi = linear_poisson("heisenberg")
    laid = []
    rows = complexes_module.OperatorCell.rows
    monkeypatch.setattr(complexes_module.OperatorCell, "rows", lambda cell, free=(), at=None,
                        start=0: laid.append(start) or rows(cell, free, at, start))
    with holding_stencils(pi):
        degrees = list(cohomology_module._complex(pi, 12, False))
        for d in (0, 1, 2, 3, 5, 6, 7, 10, 12):
            expected = [_ordered_fields(cohomology_cell(pi, q, d)) for q in range(4)]
            del laid[:]
            assert [_ordered_fields(cell) for cell in degrees[d]()] == expected
            assert laid == [d - 2 if d in (3, 6, 7) else 0] * 4


def test_a_casimir_z_writes_only_each_degrees_border(monkeypatch):
    # heisenberg's table lays out only the rows of target blocks d - 2..d at
    # degree d (9,471 rows and 11,431 nonzeros when each degree wrote every
    # row) and still sends every row of every differential into `rref`, the
    # same 11,431 nonzeros, with each incoming pivot column emptied; the
    # complexes with no carry write what they wrote before, but where the
    # table leaves out the positions odd under some sigma_k, whose columns
    # write no row: sl2 wrote 516 rows and 952 nonzeros on its whole
    # complex, euclidean 2,445 and 4,598
    reductions = _exact_reductions(monkeypatch, linear_poisson("heisenberg"), 20)
    assert sum(nnz for *_, nnz in reductions) == 11431
    assert all(columns[j] == {} for _, _, columns, skip, *_ in reductions for j in skip)
    assert _rows_written(monkeypatch, linear_poisson("heisenberg"), 20) == (2631, 3451)
    for algebra, dmax, written in (("sl2", 16, (156, 312)), ("euclidean", 12, (1199, 2274)),
                                   (Algebra("book", Fraction(-2, 3)), 20, (82, 82))):
        assert _rows_written(monkeypatch, linear_poisson(algebra), dmax) == written


def test_no_pass_after_d_0_reads_past_its_first_dependent_column(monkeypatch):
    # every heisenberg cell keeps a class, and z^d is one of cell 0's, so
    # d_0 runs no pass (52 passes when it had one, which read all its 455
    # columns).  Each pass skips as many columns as rank_in: it stops at its
    # first dependent column, and reads 52 columns where passes run to the
    # end read 1,572
    leads = complexes_module.OperatorCell.leads
    reads = []

    def counting(cell, skip, p):
        reads.append(0)
        for pair in leads(cell, skip, p):
            reads[-1] += 1
            yield pair

    monkeypatch.setattr(complexes_module.OperatorCell, "leads", counting)
    passes = _recorded_passes(monkeypatch)
    cohomology_table(linear_poisson("heisenberg"), 12)
    assert len(reads) == len(passes) == 39
    reads = [(len(columns) - len(skip), read, len(kept), pivot_rows is not None)
             for read, (columns, skip, _, kept, pivot_rows) in zip(reads, passes)]
    for (size, read, found, whole), (*_, spare, _, _) in zip(reads, passes):
        assert spare == 0
        assert read == (found if whole else found + 1)
    assert (sum(r[0] for r in reads), sum(r[1] for r in reads)) == (1572, 52)


@pytest.mark.parametrize("algebra", REGISTRY_ALGEBRAS,
                         ids=lambda a: a.name if a.tau is None else "%s_%s" % (a.name, a.tau))
def test_single_cells_are_the_cells_of_the_table(algebra):
    # a single cell is read off the cells of its degree
    pi = linear_poisson(algebra)
    tables = {False: cohomology_table(pi, 6)}
    if schouten_bracket(rotation_field(), pi).is_zero():
        tables[True] = cohomology_table(pi, 6, invariant=True)
    for invariant, table in tables.items():
        single = invariant_cohomology if invariant else cohomology_cell
        for (q, d), cell in table.cells.items():
            assert _cell_fields(single(pi, q, d)) == _cell_fields(cell)


@pytest.mark.parametrize("algebra", REGISTRY_ALGEBRAS,
                         ids=lambda a: a.name if a.tau is None else "%s_%s" % (a.name, a.tau))
def test_a_single_cell_reduces_its_whole_degree_as_the_table_does(monkeypatch, algebra):
    # every cell of degree d, on its own, makes the mod-p passes and the
    # exact reductions that the table makes at d: four passes, of which
    # d_0's runs to the end, or, where z is a Casimir, three, as d_0 has none
    calls = _count_calls(monkeypatch, "kernel_and_image_of_rows")
    passes = _recorded_passes(monkeypatch)
    pi = linear_poisson(algebra)
    d = 5
    for invariant in (False, True)[:1 + schouten_bracket(rotation_field(), pi).is_zero()]:
        single = invariant_cohomology if invariant else cohomology_cell
        calls["kernel_and_image_of_rows"] = 0
        cohomology_table(pi, d - 1, invariant)
        below = calls["kernel_and_image_of_rows"]  # the reductions of degrees 0..d - 1
        calls["kernel_and_image_of_rows"] = 0
        del passes[:]
        cohomology_table(pi, d, invariant)
        n = 4 - _carried(pi, invariant)  # the passes of each degree
        assert len(passes) == n * (d + 1) and passes[-n][2] == (inf if n == 4 else 0)
        expected = (passes[-n:], calls["kernel_and_image_of_rows"] - below)
        for q in range(4):
            del passes[:]
            calls["kernel_and_image_of_rows"] = 0
            single(pi, q, d)
            assert (passes, calls["kernel_and_image_of_rows"]) == expected


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


# every registry table, and the invariant tables of the rotation-invariant kinds
FULL_AND_INVARIANT_TABLES = pytest.mark.parametrize("algebra, invariant", [
    *((algebra, False) for algebra in REGISTRY_ALGEBRAS),
    *((algebra, True) for algebra in ("euclidean", "so3", "heisenberg",
                                      Algebra("spiral", Fraction(1)))),
], ids=[*(a.name if a.tau is None else "%s_%s" % (a.name, a.tau) for a in REGISTRY_ALGEBRAS),
        "euclidean_invariant", "so3_invariant", "heisenberg_invariant",
        "spiral_1_invariant"])


@FULL_AND_INVARIANT_TABLES
def test_representatives_need_no_reduction_against_the_incoming_image(algebra, invariant):
    # the image of d_{q-1} lies in the kernel of d_q, so its echelon's pivots
    # are free columns of d_q; a kernel row led at another free column is
    # nonzero only there and at d_q's pivot columns, so it holds no pivot of
    # the image's echelon, and reducing it against the image, the step the
    # engine leaves out, changes nothing
    pi = linear_poisson(algebra)
    table = cohomology_table(pi, 8, invariant)
    checked = 0
    with holding_stencils(pi):
        for d in range(9):
            columns = [differential_matrix(pi, q, d).columns for q in range(4)]
            if invariant:
                vectors = [invariant_basis(q, d)[1] for q in range(4)] + [[]]
                columns = [[_invariant_coordinates(vectors[q + 1], linalg.matvec(cols, vec))
                            for vec in vectors[q]] for q, cols in enumerate(columns)]
            for q in range(1, 4):
                pivots = set(linalg.rref(columns[q - 1])[0])
                assert pivots <= _free_columns(columns[q])
                for rep in table.cell(q, d).representatives:
                    if invariant:
                        rep = _invariant_coordinates(vectors[q], rep)
                    assert not pivots & set(rep)
                    checked += 1
    assert checked


@pytest.mark.parametrize("algebra", REGISTRY_ALGEBRAS,
                         ids=lambda a: a.name if a.tau is None else "%s_%s" % (a.name, a.tau))
def test_representatives_are_the_canonical_kernel_rows_led_at_their_free_column(algebra):
    # the engine publishes kernel rows as they come out of
    # `kernel_and_image_of_rows`, with no normalisation of its own: each is
    # the kernel row led at its lowest index, a free column of d_q, and
    # already primitive and positive there
    pi = linear_poisson(algebra)
    table = cohomology_table(pi, 8)
    checked = 0
    with holding_stencils(pi):
        for d in range(9):
            for q in range(4):
                columns = differential_matrix(pi, q, d).columns
                _, pivots, echelon, _ = kernel_and_image(columns)
                kernel = dict(zip(pivots, echelon))
                for rep in table.cell(q, d).representatives:
                    assert all(type(c) is Fraction and c.denominator == 1 for c in rep.values())
                    assert linalg.integer_normalize(rep) == rep
                    assert kernel[min(rep)] == rep
                    checked += 1
    assert checked


@FULL_AND_INVARIANT_TABLES
def test_representatives_print_from_their_coordinates_as_from_their_multivectors(
        algebra, invariant):
    # the tables print each representative straight from its coordinates
    table = cohomology_table(linear_poisson(algebra), 8, invariant)
    printed = 0
    for (q, d), cell in sorted(table.cells.items()):
        expected = [format_multivector(v) for v in cell_multivectors(cell)]
        assert format_coordinates(GradedBasis(q, d), cell.representatives) == expected
        printed += len(expected)
    assert printed


@FULL_AND_INVARIANT_TABLES
def test_cells_keep_integer_kernel_rows_and_the_tables_print_from_them(
        monkeypatch, capsys, algebra, invariant):
    # a cell keeps its representatives as canonical int rows and boxes them
    # into Fractions only when they are read; the CLI prints from the rows
    algebra = Algebra(algebra) if isinstance(algebra, str) else algebra
    table = cohomology_table(linear_poisson(algebra), 6, invariant)
    rows = 0
    for cell in table.cells.values():
        assert cell.representatives == [{i: Fraction(c) for i, c in row.items()}
                                        for row in cell.kernel_rows]
        for row in cell.kernel_rows:
            assert all(type(c) is int and c for c in row.values())
            assert gcd(*row.values()) == 1 and row[min(row)] > 0
            rows += 1
    assert rows
    argv = ["invariant-cohomology" if invariant else "cohomology", "--algebra", algebra.name,
            *(() if algebra.tau is None else ("--tau", str(algebra.tau))), "--dmax", "6"]
    printed = []
    for fmt in ("text", "json", "csv"):
        assert cli.main(argv + ["--format", fmt]) == 0
        printed.append(capsys.readouterr().out)

    def unread(cell):
        raise AssertionError("a table verb read the boxed representatives")

    monkeypatch.setattr(CohomologyCell, "representatives", property(unread))
    for fmt, text in zip(("text", "json", "csv"), printed):
        assert cli.main(argv + ["--format", fmt]) == 0
        assert capsys.readouterr().out == text


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
    Algebra("spiral", Fraction(5, 2)),
], ids=["euclidean", "so3", "heisenberg", "spiral_tau_1", "spiral_tau_5/2"])
def test_invariant_table_matches_single_cells(algebra):
    # a table and a single cell run the same restriction over the degrees
    # up to theirs, and a cell reduces only its own degree; each kernel row
    # is mapped back by a sign alone, as each basis vector is +-1 at a top
    # no other touches, and comes out as `integer_normalize` would make it
    pi = linear_poisson(algebra)
    table = cohomology_table(pi, 24, invariant=True)
    assert sorted(table.cells) == [(q, d) for q in range(4) for d in range(25)]
    for (q, d), cell in table.cells.items():
        assert _cell_fields(cell) == _cell_fields(invariant_cohomology(pi, q, d))
        assert all(linalg.integer_normalize(row) == row for row in cell.kernel_rows)


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


def test_pi_is_checked_after_q_and_dmax_and_before_any_degree_is_built(monkeypatch):
    # pi is validated in one place, as `_complex` starts: a bad q or dmax is
    # reported first, then a pi that is not a bivector, then a bivector
    # that is not rotation invariant (with invariant=True), then one that is
    # not Poisson, before a family is chosen or a differential made
    pi, vector = mv("x*dy^dz + y*dx^dy"), mv("x*dx + y*dy")
    assert not schouten_bracket(pi, pi).is_zero()
    assert not schouten_bracket(rotation_field(), pi).is_zero()

    def built(*args):
        raise AssertionError("a degree was built before pi was checked")

    for name in ("_family", "_differentials", "_restricted_differentials"):
        monkeypatch.setattr(cohomology_module, name, built)
    for bad in (pi, vector):
        for call in (lambda: cohomology_cell(bad, 4, 1),
                     lambda: invariant_cohomology(bad, -1, 1)):
            with pytest.raises(ValueError, match="cochain degree"):
                call()
        for call in (lambda: cohomology_table(bad, -1), lambda: class_table(bad, -1),
                     lambda: cohomology_table(bad, -1, invariant=True)):
            with pytest.raises(ValueError, match="dmax must be nonnegative, got -1"):
                call()
    for call in (lambda: cohomology_cell(vector, 1, 1), lambda: cohomology_table(vector, 2),
                 lambda: class_table(vector, 2), lambda: invariant_cohomology(vector, 1, 1),
                 lambda: cohomology_table(vector, 2, invariant=True)):
        with pytest.raises(ValueError, match="differential needs a bivector, got degree 1"):
            call()
    for call in (lambda: invariant_cohomology(pi, 1, 1),
                 lambda: cohomology_table(pi, 2, invariant=True)):
        with pytest.raises(ValueError, match="bivector is not rotation invariant"):
            call()
    for call in (lambda: cohomology_cell(pi, 1, 1), lambda: cohomology_table(pi, 2),
                 lambda: class_table(pi, 2)):
        with pytest.raises(ValueError, match=r"bivector is not Poisson: \[pi, pi\] is not 0"):
            call()


def _entry_points(pi):
    """Every public function that takes pi, each at a small cell."""
    return [lambda: cohomology_table(pi, 2), lambda: class_table(pi, 2),
            lambda: cohomology_cell(pi, 1, 1), lambda: coboundary_witness(pi, MultiVector.zero(2)),
            lambda: coboundary_witness(pi, mv("x*dx^dy")),
            lambda: cohomology_table(pi, 2, invariant=True),  # the invariant ones last
            lambda: invariant_cohomology(pi, 1, 1)]


@pytest.mark.parametrize("text, error, message, invariant_message", [
    ("x*dx + y*dy", ValueError, "differential needs a bivector, got degree 1", None),
    ("z", ValueError, "differential needs a bivector, got degree 0", None),
    ("z*dx^dy^dz", ValueError, "differential needs a bivector, got degree 3", None),
    ("x*dx^dy + dx^dz", DegreeError, r"operator coefficient monomial \(0, 0, 0\) is not linear",
     None),
    ("x*dy^dz + y*dz^dx + z*dx^dy + x*dx^dy", ValueError,
     r"bivector is not Poisson: \[pi, pi\] is not 0", "bivector is not rotation invariant"),
])
def test_a_bad_pi_gets_one_message_at_every_entry_point(text, error, message,
                                                        invariant_message):
    # pi is checked before anything reads it (`_check_pi`): every entry
    # point, the witness's zero target included, gives the same error, a
    # non-bivector its degree, and none a KeyError or a message about an
    # operator's degree; with invariant cochains rotation invariance is
    # checked before [pi, pi]
    entry_points = _entry_points(parse_multivector(text))
    for k, call in enumerate(entry_points):
        invariant = k >= len(entry_points) - 2
        with pytest.raises(error, match=invariant and invariant_message or message) as raised:
            call()
        assert type(raised.value) is error
    for algebra in REGISTRY_ALGEBRAS:
        pi = linear_poisson(algebra)
        invariant = schouten_bracket(rotation_field(), pi).is_zero()
        for call in _entry_points(pi)[:None if invariant else -2]:
            call()


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


def test_tables_and_cells_check_pi_on_its_stencils_with_no_bracket():
    # pi is checked for [pi, pi] = 0, and for rotation invariance where the
    # invariant subcomplex is asked for, on the stencils its table or cell
    # holds: none of them makes a Schouten bracket
    invariant = []
    for algebra in REGISTRY_ALGEBRAS:
        pi = linear_poisson(algebra)
        assert bracket_calls(lambda: schouten_bracket(pi, pi)) == 1
        calls = [lambda: cohomology_table(pi, 4), lambda: class_table(pi, 4),
                 lambda: cohomology_cell(pi, 1, 3)]
        if schouten_bracket(rotation_field(), pi).is_zero():
            invariant.append(algebra.name)
            calls += [lambda: cohomology_table(pi, 4, invariant=True),
                      lambda: invariant_cohomology(pi, 1, 3)]
        for call in calls:
            assert bracket_calls(call) == 0, algebra
    assert invariant == ["abelian", "heisenberg", "euclidean", "spiral", "so3"]


def _rotation_invariant_bivectors():
    """Euclidean, so3, heisenberg, and spiral at tau = 1 and 3 seeded tau."""
    rng = random.Random(421)
    taus = [Fraction(1)] + [Fraction(rng.randint(1, 15), rng.randint(1, 9)) for _ in range(3)]
    return [linear_poisson(kind) for kind in ("euclidean", "so3", "heisenberg")] + [
        linear_poisson(Algebra("spiral", tau)) for tau in taus]


def test_support_columns_are_the_full_build_at_the_support():
    rng = random.Random(422)
    for pi in _rotation_invariant_bivectors():
        with holding_stencils(pi):
            for d in range(13):
                for q in range(3):
                    cell = differential_matrix(pi, q, d)
                    full = cell.columns
                    support = {j for vec in invariant_basis(q, d)[1] for j in vec}
                    some = set(rng.sample(range(len(full)), rng.randint(0, len(full))))
                    for j in support | some:
                        # `apply` writes the image of e_j with arithmetic of its own
                        assert cell.column(j) == full[j] == cell.apply({j: 1})[0]
    for j in (-1, 18):
        with pytest.raises(KeyError):
            differential_matrix(linear_poisson("so3"), 1, 2).column(j)
    with pytest.raises(ValueError, match="differential needs a bivector"):
        differential_matrix(rotation_field(), 1, 2).column(0)


def test_support_only_invariant_tables_match_the_full_build():
    for pi in _rotation_invariant_bivectors():
        table = cohomology_table(pi, 12, invariant=True)
        oracle = full_build_invariant_table(pi, 12)
        assert table.cells.keys() == oracle.cells.keys()
        for key, cell in table.cells.items():
            assert _cell_fields(cell) == _cell_fields(oracle.cells[key])


@pytest.mark.parametrize("seed", [420, 423, 426, 427])
def test_the_conjugating_matrices_are_unimodular(seed):
    # a shear adds one multiple of a column to another, so each move and
    # their product have determinant +-1; a multiplier drawn for each row
    # made a singular matrix for book -2/3 at seed 426, whose inverse then
    # divided by zero
    rng = random.Random(seed)
    assert all(determinant(unimodular_matrix(rng)) in (1, -1) for _ in range(50))
    book = Algebra("book", Fraction(-2, 3))
    pi = linear_poisson(conjugated_constants(structure_constants(book), random.Random(seed)))
    assert pi != linear_poisson(book)
    assert cohomology_table(pi, 6).totals == cohomology_table(linear_poisson(book), 6).totals


def test_conjugated_constants_keep_the_oracle_grid():
    # a GL3(Z) change of basis of the Lie algebra changes every matrix but
    # no dimension: each kind's table must still match its oracle grid
    rng = random.Random(423)
    dmax = 8
    moved = 0
    for kind in KINDS:
        tau = {"book": Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(9, 15)),
               "spiral": Fraction(rng.randint(1, 15), rng.randint(1, 9))}.get(kind)
        algebra = Algebra(kind, tau)
        constants = conjugated_constants(structure_constants(algebra), rng)
        moved += linear_poisson(constants) != linear_poisson(algebra)
        table = cohomology_table(linear_poisson(constants), dmax)
        grid = oracle_dimension_grid(algebra, dmax)
        assert {key: cell.dim_h for key, cell in table.cells.items()} == {
            (q, d): grid.get(q, {}).get(d, 0) for q in range(4) for d in range(dmax + 1)}, algebra
    assert moved >= len(KINDS) - 1  # the abelian bivector is 0 in every basis


# last, seeded taus: a book tau of each sign with a denominator up to 15 and
# a spiral tau, after the fixed ones so that those keep their `_ce_bases` seeds
_ce_rng = random.Random(50)
CE_ALGEBRAS = [Algebra(kind) for kind in KINDS if kind not in ("book", "spiral")] + [
    Algebra("book", Fraction(tau)) for tau in ("1", "1/3", "-2/3", "-1")] + [
    Algebra("spiral", Fraction(tau)) for tau in ("1", "5/2")] + [
    Algebra("book", sign * Fraction(_ce_rng.randint(1, 9), _ce_rng.randint(9, 15)))
    for sign in (1, -1)] + [
    Algebra("spiral", Fraction(_ce_rng.randint(1, 15), _ce_rng.randint(1, 9)))]
CE_IDS = [a.name if a.tau is None else "%s_%s" % (a.name, a.tau) for a in CE_ALGEBRAS]


def _ce_bases(algebra):
    """The algebra's constants in its registry basis and in one seeded GL3(Z)
    basis; the conjugation moves every algebra's constants but the abelian
    ones, which are all 0."""
    constants = structure_constants(algebra)
    conjugated = conjugated_constants(constants, random.Random(CE_ALGEBRAS.index(algebra)))
    assert (conjugated == constants) == (algebra.name == "abelian")
    return constants, conjugated


@pytest.mark.parametrize("algebra", CE_ALGEBRAS, ids=CE_IDS)
def test_tables_match_the_chevalley_eilenberg_oracle_in_two_bases(algebra):
    # for a linear pi on g*, H^(q, d) is H^q(g; S^d g): every cell's dims and
    # ranks at d <= 5 are the Chevalley-Eilenberg complex's, ranked by
    # `reference_rref`, in the registry basis and in a conjugated one, and
    # each representative at q <= 2, d <= 4 is a CE cocycle
    dmax = 5
    for constants in _ce_bases(algebra):
        table = cohomology_table(linear_poisson(constants), dmax)
        for d in range(dmax + 1):
            ce = [ce_differential(constants, q, d) for q in range(3)]
            ranks = [len(reference_rref(list(columns.values()))[0]) for columns in ce] + [0]
            for q in range(4):
                cell = table.cell(q, d)
                assert (cell.dim_cochains, cell.rank_out, cell.rank_in) == (
                    len(GradedBasis(q, d)), ranks[q], ranks[q - 1] if q else 0), (q, d)
                if q < 3 and d < dmax:
                    for row in cell.kernel_rows:
                        assert not linalg.matvec(ce[q], ce_coordinates(q, d, row)), (q, d, row)


@pytest.mark.parametrize("algebra", CE_ALGEBRAS, ids=CE_IDS)
def test_differentials_are_the_chevalley_eilenberg_differential(algebra):
    # under xi_idx -> sign * e*_I (`component_wedge`), each column of d_q,
    # over its den, is the CE differential's column of the same cochain,
    # with no overall sign, in the registry basis and in a conjugated one
    for constants in _ce_bases(algebra):
        pi = linear_poisson(constants)
        for d in range(4):
            for q in range(3):
                ce, cell = ce_differential(constants, q, d), differential_matrix(pi, q, d)
                assert len(ce) == len(cell)
                for j, col in enumerate(cell.columns):
                    ((key, sign),) = ce_coordinates(q, d, {j: 1}).items()
                    assert ce_coordinates(q + 1, d, {i: Fraction(c, cell.den)
                                                     for i, c in col.items()}) == {
                        i: sign * c for i, c in ce[key].items()}, (q, d, j)


@pytest.mark.parametrize("algebra", CE_ALGEBRAS, ids=CE_IDS)
def test_coboundary_witness_solves_each_chevalley_eilenberg_coboundary(algebra):
    # d_CE of a random cochain at q <= 2, d <= 3, in engine coordinates, has
    # a witness V with [pi, V] equal to it, in the registry basis and in a
    # conjugated one; with a representative of a nonzero class added, it
    # has none
    rng = random.Random(241 + CE_ALGEBRAS.index(algebra))
    for constants in _ce_bases(algebra):
        pi = linear_poisson(constants)
        table = cohomology_table(pi, 3)
        for d in range(4):
            for q in range(3):
                ce, target_basis = ce_differential(constants, q, d), GradedBasis(q + 1, d)
                engine = {}  # CE cochain key -> (position, sign) of the target basis
                for position in range(len(target_basis)):
                    ((key, sign),) = ce_coordinates(q + 1, d, {position: 1}).items()
                    engine[key] = position, sign
                cochain = {key: rng.randint(-3, 3) for key in ce if rng.random() < 0.6}
                image = linalg.matvec(ce, cochain)
                target = target_basis.reconstruct(
                    {engine[key][0]: engine[key][1] * c for key, c in image.items()})
                witness = coboundary_witness(pi, target)
                assert witness is not None and schouten_bracket(pi, witness) == target, (q, d)
                for rep in cell_multivectors(table.cell(q + 1, d)):
                    assert coboundary_witness(pi, target + rep) is None, (q, d)


# each solvable kind is g = Re + a, a a 2-dimensional abelian ideal: a and
# e as registry basis indices, where they are not <e1, e2> and e3; then 16
# seeded taus: 12 book taus with denominators up to 6, and so some resonant,
# and 4 spiral taus, whose tables at d <= 8 are the same for every tau > 0
HS_FRAMES = {"heisenberg": ((1, 2), 0), "aff_x_r": ((0, 2), 1)}
_hs_rng, _hs_taus = random.Random(52), {"book": set(), "spiral": set()}
while len(_hs_taus["book"]) < 12:
    _den = _hs_rng.randint(1, 6)
    _hs_taus["book"].add(Fraction(_hs_rng.choice((-1, 1)) * _hs_rng.randint(1, _den), _den))
    _hs_taus["spiral"].add(Fraction(_hs_rng.randint(1, 12), _hs_rng.randint(1, 4)))
HS_ALGEBRAS = [Algebra(kind) for kind in KINDS if kind not in ("book", "spiral", "sl2", "so3")] + [
    Algebra(kind, tau) for kind, count in (("book", 12), ("spiral", 4))
    for tau in sorted(_hs_taus[kind])[:count]]


@pytest.mark.parametrize("algebra", HS_ALGEBRAS,
                         ids=[a.name if a.tau is None else "%s_%s" % (a.name, a.tau)
                              for a in HS_ALGEBRAS])
def test_tables_match_the_hochschild_serre_dimensions_in_two_bases(algebra):
    # dim H^(q, d) is k_q + k_(q-1), read off the Koszul cohomology of the
    # ideal with no engine code (`hs_dimensions`), at d <= 8 in the registry
    # basis and in a conjugated one, where a and e are mapped by the same
    # matrix: old e_i is column i of its inverse in the new basis
    dmax = 8
    (i, j), k = HS_FRAMES.get(algebra.name, ((0, 1), 2))
    frame = [tuple(int(n == m) for n in range(3)) for m in (i, j, k)]
    seed = 300 + HS_ALGEBRAS.index(algebra)
    inverse = inverse_matrix(unimodular_matrix(random.Random(seed)))
    moved = [tuple(sum(inverse[a][b] * v[b] for b in range(3)) for a in range(3)) for v in frame]
    constants = structure_constants(algebra)
    for constants, (*ideal, e) in ((constants, frame),
                                   (conjugated_constants(constants, random.Random(seed)), moved)):
        table = cohomology_table(linear_poisson(constants), dmax)
        for d in range(dmax + 1):
            assert [table.cell(q, d).dim_h for q in range(4)] == hs_dimensions(
                constants, ideal, e, d), (constants, d)


def _ordered_fields(cell):
    """A cell's numbers and its kernel rows with their key order."""
    return (cell.q, cell.d, cell.dim_cochains, cell.rank_in, cell.rank_out,
            [list(row.items()) for row in cell.kernel_rows])


@pytest.mark.parametrize("seed", [31, 32])
def test_weight_zero_tables_are_the_full_complexs_cells(seed):
    # aff_x_r, semi_open_book and book at tau = 1, -1 and seeded rational
    # taus of both signs reduce only weight 0 and count the ranks off it:
    # every cell equals the full complex's, its kernel rows in their key
    # order, and a single cell is the table's
    rng = random.Random(seed)
    taus = [Fraction(1), Fraction(-1)] + [
        sign * Fraction(rng.randint(1, 9), rng.randint(10, 17)) for sign in (1, -1)]
    dmax = 24
    for algebra in [Algebra("aff_x_r"), Algebra("semi_open_book")] + [
            Algebra("book", tau) for tau in taus]:
        pi = linear_poisson(algebra)
        assert _family(pi, False) is not None
        table = cohomology_table(pi, dmax)
        with holding_stencils(pi):
            for d in range(dmax + 1):
                full = cohomology_module._degree_cells(d, *cohomology_module._differentials(pi, d))
                for q, cell in enumerate(full):
                    fields = _ordered_fields(cell)
                    assert _ordered_fields(table.cell(q, d)) == fields, (algebra, q, d)
                    assert _ordered_fields(cohomology_cell(pi, q, d)) == fields


def _weights(pi):
    """(k, D) of the first coordinate field of pi with weights, or None."""
    return cohomology_module._weights(cohomology_module._fields(pi))


def _family(pi, blocks):
    """`_family` of pi's fields' matrices, as `_complex` reads them."""
    return cohomology_module._family(cohomology_module._fields(pi), blocks)


def test_only_the_coordinate_kinds_have_weights():
    # [pi, x_k] acts on monomials by weights only for book and
    # semi_open_book (x_k = z) and aff_x_r (y); the rotations, sl2, spiral's
    # rotation part and a generic basis of book find none, and their tables,
    # read off the full complex, keep their oracle grids
    assert _weights(linear_poisson(Algebra("book", Fraction(-2, 3)))) == (2, [3, -2, 0])
    assert _weights(linear_poisson("semi_open_book")) == (2, [1, 1, 0])
    assert _weights(linear_poisson("aff_x_r")) == (1, [1, 0, 0])
    book = Algebra("book", Fraction(-2, 3))
    generic = conjugated_constants(structure_constants(book), random.Random(420))
    sources = [(Algebra(kind), linear_poisson(kind))
               for kind in ("abelian", "heisenberg", "euclidean", "so3", "sl2")] + [
        (Algebra("spiral", tau), linear_poisson(Algebra("spiral", tau)))
        for tau in (Fraction(1), Fraction(5, 2))] + [(book, linear_poisson(generic))]
    dmax = 8
    for algebra, pi in sources:
        assert _weights(pi) is None, algebra
        table = cohomology_table(pi, dmax)
        grid = oracle_dimension_grid(algebra, dmax)
        assert {key: cell.dim_h for key, cell in table.cells.items()} == {
            (q, d): grid.get(q, {}).get(d, 0) for q in range(4) for d in range(dmax + 1)}, algebra


def test_wrong_weights_raise_at_the_first_column_off_weight_0(monkeypatch):
    # aff_x_r's weights are (1, 0, 0); under (0, 1, 0) the weight-0 cochains
    # are no subcomplex, and d_1 of degree 0 already leaves them
    monkeypatch.setattr(cohomology_module, "_weights", lambda fields: (2, [0, 1, 0]))
    with pytest.raises(ValueError, match="d_1 leaves the subcomplex at degree 0"):
        cohomology_table(linear_poisson("aff_x_r"), 8)


def _restricted_kinds():
    """Euclidean, so3, heisenberg, and spiral at tau = 1, 5/2 and one seeded tau."""
    rng = random.Random(434)
    taus = [Fraction(1), Fraction(5, 2), Fraction(rng.randint(1, 15), rng.randint(1, 9))]
    return [linear_poisson(kind) for kind in ("euclidean", "so3", "heisenberg")] + [
        linear_poisson(Algebra("spiral", tau)) for tau in taus]


def _weight_zero_basis(pi, q, d):
    """The unit vectors of (q, d) at the basis cochains of weight 0, read off
    each element."""
    weights = _weights(pi)[1]
    basis = GradedBasis(q, d)
    return [{j: 1} for j in range(len(basis))
            if sum(w * m for w, m in zip(weights, basis.element(j)[1]))
            == sum(weights[s] for s in component_wedge(q, basis.element(j)[0])[0])]


def test_restriction_to_invariant_bases_solves_each_image():
    # each vector is restricted at the degree where it is new and the next,
    # and every later column is read off its line: each one equals the
    # direct restriction of the vector's image through the whole
    # differential, on the invariant bases and on the weight-0 ones of
    # aff_x_r, semi_open_book and book at a seeded tau of each sign
    rng = random.Random(435)
    weighted = [linear_poisson(kind) for kind in ("aff_x_r", "semi_open_book")] + [
        linear_poisson(Algebra("book", sign * Fraction(rng.randint(1, 9), rng.randint(10, 17))))
        for sign in (1, -1)]
    restrictions = [(pi, cohomology_module.new_invariant_vectors, 24,
                     lambda pi, q, d: invariant_basis(q, d)[1]) for pi in _restricted_kinds()] + [
        (pi, _family(pi, False), 16, _weight_zero_basis) for pi in weighted]
    for pi, new_vectors, dmax, basis in restrictions:
        with holding_stencils(pi):
            for d, (cells, vectors) in enumerate(
                    cohomology_module._restricted_differentials(pi, dmax, new_vectors)):
                assert vectors == [basis(pi, q, d) for q in range(4)]
                for q in range(3):
                    columns = differential_matrix(pi, q, d).columns
                    assert cells[q].columns == [
                        linalg.solve_combination(vectors[q + 1], linalg.matvec(columns, vec))
                        for vec in vectors[q]]
                assert cells[3].columns == [{} for _ in vectors[3]]
    with pytest.raises(ValueError, match="d_1 leaves the subcomplex at degree 1"):
        list(cohomology_module._restricted_differentials(
            linear_poisson("aff_x_r"), 2, cohomology_module.new_invariant_vectors))


def test_a_slope_off_the_subcomplex_is_caught_at_the_next_degree(monkeypatch):
    # a vector's slope is read off the tops and mapped back at e + 1, once
    # the target vectors new there exist: x dz, in no invariant vector,
    # added to the slope of euclidean's constant 1 at (0, 0), lets degree 0
    # through and stops degree 1
    pi = linear_poisson("euclidean")
    apply, off = OperatorCell.apply, GradedBasis(1, 1).position(2, (1, 0, 0))

    def skewed(cell, vector):
        image, slope = apply(cell, vector)
        if cell.source is not None and (cell.source.q, cell.source.d) == (0, 0):
            slope = {**slope, off: slope.get(off, 0) + 1}
        return image, slope

    monkeypatch.setattr(OperatorCell, "apply", skewed)
    with holding_stencils(pi):
        degrees = cohomology_module._restricted_differentials(
            pi, 3, cohomology_module.new_invariant_vectors)
        next(degrees)
        with pytest.raises(ValueError, match="^d_0 leaves the subcomplex at degree 1$"):
            next(degrees)


def test_weights_with_d_z_not_0_read_the_full_complex():
    # book -2/3 with x and z swapped has the weights (0, -2, 3): z moves a
    # weight and weight 0 has no z-stable basis, so its table and its cells
    # are the full complex's
    book = structure_constants(Algebra("book", Fraction(-2, 3)))
    swap = (2, 1, 0)
    pi = linear_poisson(StructureConstants({
        (a, b, c): book.get(swap[a], swap[b], swap[c])
        for a in range(3) for b in range(a + 1, 3) for c in range(3)}))
    assert _weights(pi) == (0, [0, -2, 3])
    assert _family(pi, True) is None
    dmax = 12
    table = cohomology_table(pi, dmax)
    for d in range(dmax + 1):
        full = cohomology_module._degree_cells(d, *cohomology_module._differentials(pi, d))
        for q, cell in enumerate(full):
            assert _ordered_fields(table.cell(q, d)) == _ordered_fields(cell), (q, d)
            assert _ordered_fields(cohomology_cell(pi, q, d)) == _ordered_fields(cell)


def _permuted(source, swap):
    """The structure constants of `source` with its coordinates permuted by
    `swap`, an involution: e_a of the new basis is e_swap[a] of the old."""
    constants = structure_constants(source)
    return StructureConstants({(a, b, c): constants.get(swap[a], swap[b], swap[c])
                               for a in range(3) for b in range(a + 1, 3) for c in range(3)})


# the split kinds, and euclidean and so3 with x and z swapped, whose block
# field is then X_x
SPLIT = [Algebra("euclidean"), Algebra("so3"), Algebra("sl2")] + [
    Algebra("spiral", tau) for tau in (Fraction(1), Fraction(5, 2), Fraction(1, 3))] + [
    _permuted(kind, (2, 1, 0)) for kind in ("euclidean", "so3")]


def test_the_block_test_finds_the_axes_of_the_split():
    # so3 and sl2 pass the block test on all three axes, euclidean and
    # spiral on z, euclidean with x and z swapped on x, and no other kind on
    # any; a kind with a weight-0 family takes that family instead
    found = [cohomology_module._axes(cohomology_module._fields(linear_poisson(source)))
             for source in SPLIT]
    assert found == [[2], [0, 1, 2], [0, 1, 2], [2], [2], [2], [0], [0, 1, 2]]
    for algebra in REGISTRY_ALGEBRAS + [Algebra("book", tau) for tau in (
            Fraction(1), Fraction(-1), Fraction(3, 5))]:
        axes = cohomology_module._axes(cohomology_module._fields(linear_poisson(algebra)))
        assert axes == ([2] if algebra.name in ("euclidean", "spiral") else
                        [0, 1, 2] if algebra.name in ("so3", "sl2") else []), algebra


@pytest.mark.parametrize("source", SPLIT, ids=["euclidean", "so3", "sl2", "spiral_1",
                                               "spiral_5/2", "spiral_1/3", "euclidean_xz",
                                               "so3_xz"])
def test_the_split_tables_are_the_whole_complexs_reduction(source):
    # the full table leaves out the positions odd under some sigma_k: each
    # left-out column of the bracket-built differential maps into left-out
    # rows and every other column outside them, so d is block diagonal.
    # Each cell's dims, ranks and kernel rows, in their key order, are those
    # of a reduction of the whole differentials that leaves nothing out
    # (`reference_rref`): the canonical rows led at the free columns outside
    # the incoming image's pivots, one per class, all in the even block
    pi = linear_poisson(source)
    left_out = _left_out_of(pi, 8)
    table = cohomology_table(pi, 8)
    for d in range(9):
        columns = [operator_matrix(pi, q, d).columns for q in range(3)]
        columns.append([{} for _ in range(len(GradedBasis(3, d)))])
        out = [left_out(q, d) for q in range(4)] + [set()]
        assert any(out)
        for q in range(4):
            for j, col in enumerate(columns[q]):
                assert (set(col) <= out[q + 1]) if j in out[q] else not set(col) & out[q + 1]
            kernel = _reference_kernel(columns[q])
            incoming = set(reference_rref(columns[q - 1])[0]) if q else set()
            cell = table.cell(q, d)
            assert (cell.dim_cochains, cell.rank_out, cell.rank_in) == (
                len(columns[q]), len(reference_rref(columns[q])[0]), len(incoming)), (q, d)
            assert [list(row.items()) for row in cell.kernel_rows] == [
                list(kernel[j].items()) for j in sorted(kernel.keys() - incoming)], (q, d)
            assert not any(set(row) & out[q] for row in cell.kernel_rows)


def _family_kinds(rng):
    """Every kind `class_table` restricts: euclidean, so3, spiral at tau = 1
    and a seeded tau, semi_open_book, aff_x_r and book at a seeded tau of
    each sign."""
    return [Algebra(kind) for kind in ("euclidean", "so3", "semi_open_book", "aff_x_r")] + [
        Algebra("spiral", tau) for tau in (Fraction(1), Fraction(rng.randint(1, 15),
                                                                  rng.randint(1, 9)))] + [
        Algebra("book", sign * Fraction(rng.randint(1, 9), rng.randint(10, 17)))
        for sign in (1, -1)]


def test_the_table_verify_reads_has_the_full_complexs_numbers_and_closed_classes():
    # each kind with a family reduces only the subcomplex that carries H, and
    # counts the ranks off it: every cell's numbers are the full table's, and
    # each representative is closed, by the Schouten bracket
    dmax = 32
    for algebra in _family_kinds(random.Random(36)):
        pi = linear_poisson(algebra)
        assert _family(pi, True) is not None, algebra
        full, table = cohomology_table(pi, dmax), class_table(pi, dmax)
        assert table.cells.keys() == full.cells.keys()
        for key, cell in table.cells.items():
            want = full.cell(*key)
            assert (cell.dim_cochains, cell.rank_in, cell.rank_out) == (
                want.dim_cochains, want.rank_in, want.rank_out), (algebra, key)
            for value in cell_multivectors(cell):
                assert poisson_differential(pi, value).is_zero(), (algebra, key)


def test_sl2s_class_table_is_its_cohomology_table():
    # sl2's X_z is a hyperbolic block, for which `_family` has no
    # subcomplex: the table `verify` reads reduces the parity-even block the
    # cohomology table does, and is that table cell for cell, its canonical
    # kernel rows in their key order included
    pi, dmax = linear_poisson("sl2"), 16
    assert _family(pi, True) is None
    table, full = class_table(pi, dmax), cohomology_table(pi, dmax)
    assert table.cells.keys() == full.cells.keys()
    for key, cell in table.cells.items():
        assert _ordered_fields(cell) == _ordered_fields(full.cell(*key)), key


def test_the_choice_function_finds_a_block_only_where_its_family_is_a_subcomplex():
    # the builder's check is a real one: the rotation family is no subcomplex
    # of sl2, and it raises at the first image that leaves it
    with pytest.raises(ValueError, match="d_[0-2] leaves the subcomplex"):
        list(cohomology_module._restricted_differentials(
            linear_poisson("sl2"), 6, complexes_module.new_invariant_vectors))
    # z is central for heisenberg and abelian, and sl2's X_z is a hyperbolic
    # block, no rotation.  so3 in the basis (2 e1, e2, e3) or in the seeded
    # bases below has an X_z that fixes z and is elliptic on (x, y), or that
    # moves z, but is no rotation of (x, y), so its invariants are no
    # family's.  A permuted so3 is +-so3, whose X_z is the rotation again
    so3 = structure_constants("so3")
    scale = (2, 1, 1)  # [f_a, f_b] = s_a s_b c^k_ab / s_k f_k
    rescaled = StructureConstants({(a, b, c): so3.get(a, b, c) * scale[a] * scale[b] / scale[c]
                                   for a in range(3) for b in range(a + 1, 3) for c in range(3)})
    sources = ["heisenberg", "abelian", "sl2", rescaled] + [
        conjugated_constants(so3, random.Random(seed)) for seed in (437, 438)]
    for source in sources:
        assert _family(linear_poisson(source), True) is None, source
    swap = (2, 1, 0)
    permuted = linear_poisson(StructureConstants({
        (a, b, c): so3.get(swap[a], swap[b], swap[c])
        for a in range(3) for b in range(a + 1, 3) for c in range(3)}))
    assert permuted == -linear_poisson("so3")
    assert _family(permuted, True)(1, 3) == (
        complexes_module.new_invariant_vectors(1, 3))


def test_twins_agree_in_every_cell():
    # the complexifications of euclidean and book -1, and of so3 and sl2, are
    # isomorphic, and ranks do not change under a field extension; each of
    # the four reduces a different subcomplex
    dmax = 28
    for first, second in [(Algebra("euclidean"), Algebra("book", Fraction(-1))),
                          (Algebra("so3"), Algebra("sl2"))]:
        tables = [class_table(linear_poisson(algebra), dmax) for algebra in (first, second)]
        assert {key: (cell.dim_h, cell.rank_out) for key, cell in tables[0].cells.items()} == {
            key: (cell.dim_h, cell.rank_out) for key, cell in tables[1].cells.items()}, first


def test_a_row_mapped_back_is_only_negated_to_be_positive_at_its_lowest_index():
    # d_0 = [1 1] has the kernel row (1, -1); mapped through a second basis
    # vector that reaches below the first, it leads negative, and only its
    # sign is fixed (no table of a `test_invariant_table_matches_single_cells`
    # kind needs that up to dmax 30)
    cells = [OperatorCell(None, None, [{0: 1}, {0: 1}], 1), OperatorCell(None, None, [{}], 1),
             OperatorCell(None, None, [], 1), OperatorCell(None, None, [], 1)]
    back = [[{3: 1}, {4: 1, 0: 2}], [{0: 1}], [], []]
    found = cohomology_module._degree_cells(0, cells, back)
    assert [cell.dim_h for cell in found] == [1, 0, 0, 0]
    assert found[0].kernel_rows == [{0: 2, 3: -1, 4: 1}]


def _unimodular(rng, n):
    """A random n x n integer matrix of determinant +-1 and its inverse, as rows."""
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    inverse = [row[:] for row in u]
    for _ in range(3 * n if n > 1 else 0):
        a, b = rng.sample(range(n), 2)
        if rng.random() < 0.3:  # P u, u^-1 P: swap rows a, b of u and columns of u^-1
            u[a], u[b] = u[b], u[a]
            for row in inverse:
                row[a], row[b] = row[b], row[a]
        c = rng.choice((-2, -1, 1, 2))  # E u, u^-1 E^-1, E = 1 + c e_a e_b^T
        u[a] = [x + c * y for x, y in zip(u[a], u[b])]
        for row in inverse:
            row[b] -= c * row[a]
    return u, inverse


def _split_complex(rng, h, r):
    """d_0..d_3 as list cells, for C_q = Z^{r_{q-1}} + Z^{h_q} + Z^{r_q}, with
    r_{-1} = r_3 = 0, where d_q maps the last block identically onto the first
    block of C_{q+1}, conjugated by random unimodular integer matrices."""
    r = (0, *r, 0)  # r[q + 1] is r_q
    sizes = [r[q] + h[q] + r[q + 1] for q in range(4)] + [0]
    changes = [_unimodular(rng, n) for n in sizes]
    cells = []
    for q in range(4):
        offset = r[q] + h[q]
        u, inverse = changes[q + 1][0], changes[q][1]  # u d_q inverse; d_q e_(offset+k) = e_k
        cells.append(OperatorCell(None, None, [
            {i: c for i in range(sizes[q + 1])
             if (c := sum(u[i][k] * inverse[offset + k][j] for k in range(r[q + 1])))}
            for j in range(sizes[q])], 1))
    return cells


@pytest.mark.parametrize("seed", [5, 6])
def test_the_degree_loop_reduces_hand_made_integer_complexes(monkeypatch, seed):
    # no bivector: `_degree_cells` gets list cells of a complex whose dim H
    # and ranks are known, and must find them on the certified, the exact
    # and the certified-feeds-exact paths; each exact reduction runs one
    # `rref`, and each certified-feeds-exact step one more, of the kept
    # columns, besides the one inside the read-off
    calls = _count_calls(monkeypatch, "kernel_and_image_of_rows", "rref")
    rng = random.Random(seed)
    shapes = [((0, 2, 0, 1), (2, 3, 1))] + [
        (tuple(rng.randint(0, 2) for _ in range(4)), tuple(rng.randint(0, 3) for _ in range(3)))
        for _ in range(12)]
    complexes = [_split_complex(rng, h, r) for h, r in shapes]
    found = [cohomology_module._degree_cells(0, cells) for cells in complexes]
    # certified-feeds-exact cells, other exact cells, and certified cells all
    # ran, counted before the checks below run `rank`, which runs `rref`
    exact = calls["kernel_and_image_of_rows"]
    assert 0 < calls["rref"] - exact < exact < 4 * len(shapes)
    for (h, r), cells, degree_cells in zip(shapes, complexes, found):
        for q, cell in enumerate(degree_cells):
            assert (cell.dim_h, cell.rank_out, cell.rank_in) == (h[q], (*r, 0)[q], (0, *r)[q])
            assert len(cell.representatives) == h[q]
            assert all(linalg.matvec(cells[q].columns, rep) == {} for rep in cell.representatives)
            image = cells[q - 1].columns if q else []
            assert rank(image + cell.representatives) == cell.rank_in + cell.dim_h


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


@pytest.mark.parametrize("n", range(1, 6))
def test_book_classes_are_the_families_of_its_oracle_grid(n):
    # the families named beside `_book_grid` at tau = 1/n, for d <= 6
    pi = linear_poisson(Algebra("book", Fraction(1, n)))
    table = cohomology_table(pi, 6)
    for d in range(7):
        families = {q: [] for q in range(4)}
        if d == 0:
            families[0].append("1")
            families[1].append("dz")
        if d == 1:
            families[1].append("y*dy")
            families[2].append("y*dy^dz")
        if d == n:
            families[1].append("y^%d*dx" % n)
            families[2].append("y^%d*dx^dz" % n)
        if d == n == 1:
            families[1].append("x*dy")
            families[2].append("x*dy^dz")
        for q, members in families.items():
            # closed, independent modulo the image and as many as dim H
            assert len(members) == table.dim_h(q, d), (q, d)
            assert _spans_same_classes(pi, table.cell(q, d), members)


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
