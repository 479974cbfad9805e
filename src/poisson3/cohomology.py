"""Cohomology of the graded complexes: ranks, dimensions, representatives.

Each (q, d) cell is closed under the differential of a linear bivector, so
its cohomology is kernel-modulo-image of two finite exact matrices.  One
loop reduces a whole coefficient degree d from the four `OperatorCell`s of
a complex it is handed, each reduced at most once
(`linalg.kernel_and_image_of_rows`): one elimination gives a
differential's rank, its kernel in reduced echelon form, and the pivots of
its image's echelon, all the next cell needs of its image.  A builder picks
the complex: the full one is `differential_matrix` at each q, built only as
far as it is read; the rotation-invariant subcomplex restricts d_0..d_2,
each read at the columns its invariant vectors touch, to the invariant
sub-bases, which map its representatives back.  The invariant builder keeps
one basis per q as a running list and adds at each degree only the vectors
new there (`complexes.new_invariant_vectors`): z times a vector of degree
d - 1 sits at its same positions at degree d, so every older vector stays
as it is.  Its restricted column is affine in d, so each vector is
restricted at the degree where it is new and the next, and every later
column is read off that line.  A single cell is read off the four cells of
its degree, as a table builds them; an invariant cell runs the same
restriction over the degrees up to its own.  A table or a cell reads each
of its bivector's stencils once (`complexes.holding_stencils`).  A bivector
with [pi, pi] != 0 has no complex, as d o d != 0, and is rejected.

For book, semi_open_book and aff_x_r the Hamiltonian field X = [pi, x_k]
of one coordinate acts on each basis cochain x^m xi_S by an integer weight,
up to a nilpotent part that keeps it.  L_X commutes with d and is
null-homotopic (graded Jacobi, with [x_k, .] as the homotopy), so it acts
as 0 on H: each weight other than 0 is an acyclic subcomplex, and H lives
in weight 0 (Lichnerowicz 1977; Vaisman 1994).  The full complex's table
and cells of such a bivector reduce only the weight-0 subcomplex, a
coordinate one whose positions are enumerated as resonances, and count
the rest: off weight 0, d_q's rank is dim C^q - dim C^(q-1) + ... +-
dim C^0 there.  The cells keep the full dimensions, so a cochain budget
still counts the full complex's cochains.

Most cells are acyclic, and those need no exact elimination.  Each
differential is first reduced modulo the constant prime `linalg.PRIME`, by
the leads of its columns, skipping those at the previous pass's pivot
rows: as d o d = 0, the others carry the whole rank mod p.  That rank is at
most the rank over Q, and d o d = 0 gives dim H >= 0.  So a cell whose dim
H mod p is 0 is proved acyclic, with both ranks exact and no
representative.  A pass stops as soon as it can no longer prove that, and
every cell it does not prove is reduced exactly, without the columns at
the incoming image's pivots, which are free.  Nothing here is
probabilistic: an unlucky prime only sends a cell down the exact path.

A cell 0 with a class, such as a Casimir's, reduces d_0 on only some of its
rows where the next cell has none (the semisimple kinds: McConnell,
Mehlhorn, Naeher and Schweitzer 2011 on certifying algorithms).  d_0's
pass keeps rank_p columns and finds their pivots at rows P, |P| = rank_p,
where the minor of d_0 is triangular mod p with units on its diagonal, so
nonsingular over Q.  d_1's pass then runs before d_0 is reduced, taking
rank_p as d_0's rank.  When it certifies cell 1, only the rows P of d_0
are reduced, and d_0 is checked exactly to kill each kernel row they
leave.  Their kernel holds d_0's, so the check proves the two kernels, and
with them the two row spaces and reduced echelon forms, equal: rank_Q(d_0)
= |P|, and the kernel rows read off are those of every row.  If the check
fails every row is reduced, as it is where cell 1 keeps a class.  d_1's
pass is that cell's only pass; at an unlucky prime, where rank_p is below
rank_Q, it may stop early and send the cell down the exact path.

The matrices are integer throughout.  Representatives are canonical: they
are the kernel rows whose leading coordinate is not a pivot of the image's
echelon, the only ones read off the reduction, which gives each one as
coprime integers positive at its lowest index, its free column.  A cell
keeps these integer rows, with only their sign fixed where the invariant
subcomplex maps them back to ambient coordinates, and boxes them into
Fractions when its representatives are read.  They are already reduced against the image:
the kernel row led at a free column j of d_q is nonzero only at j and at
d_q's pivot columns, and the image's pivots are free columns of d_q other
than j (the image lies in the kernel, as d o d = 0), so no image row could
change it.  Two runs over the same input produce byte-identical output.
"""

from fractions import Fraction
from math import ceil, floor, inf, lcm

from . import linalg
from .complexes import (
    GradedBasis,
    OperatorCell,
    differential_matrix,
    holding_stencils,
    linear_operator_matrix,
    new_invariant_vectors,
    rotation_field,
)
from .multivector import NCOMP, MultiVector, component_wedge, rational, schouten_bracket


class CohomologyCell:
    """One (q, d) slot: dimensions, ranks, canonical representatives.

    `kernel_rows` holds the representatives as {position: int} rows, each
    coprime and positive at its lowest index; `representatives` boxes them
    into Fractions each time it is read.
    """

    __slots__ = ("q", "d", "dim_cochains", "rank_out", "rank_in", "kernel_rows")

    def __init__(self, q, d, dim_cochains, rank_out, rank_in, kernel_rows):
        self.q = q
        self.d = d
        self.dim_cochains = dim_cochains
        self.rank_out = rank_out
        self.rank_in = rank_in
        self.kernel_rows = kernel_rows

    @property
    def representatives(self):
        return [{i: Fraction(c) for i, c in row.items()} for row in self.kernel_rows]

    @property
    def dim_h(self):
        return self.dim_cochains - self.rank_out - self.rank_in

    def __repr__(self):
        return "CohomologyCell(q=%d, d=%d, dim_h=%d)" % (self.q, self.d, self.dim_h)


def _check_rotation_invariant(pi):
    if not schouten_bracket(rotation_field(), pi).is_zero():
        raise ValueError("bivector is not rotation invariant")


def _check_poisson(pi):
    """Raise ValueError unless [pi, pi] = 0, which d o d = 0 needs.

    [pi, pi] is [pi, .] on the (2, 1) cell applied to pi's coordinates.  A
    bivector whose coefficients are not linear fails in the stencil, and
    anything but a bivector is left to `differential_matrix` to reject.
    """
    if pi.degree == 2:
        cell = linear_operator_matrix(pi, 2, 1)
        if linalg.matvec(cell.columns, cell.source.decompose(pi)):
            raise ValueError("bivector is not Poisson: [pi, pi] is not 0")


def _differentials(pi, d):
    """d_0..d_3 of degree d, built only as read, and no map back (they are ambient)."""
    return [differential_matrix(pi, q, d) for q in range(4)], None


def _invariant_differentials(pi, dmax):
    """Yield, for d = 0..dmax, d_0..d_3 of degree d restricted to the
    rotation-invariant sub-bases, and those bases (`invariant_basis`'s
    vectors at q = 0..3).

    Each basis is a running list, extended at each degree with the vectors
    new there (`new_invariant_vectors`), and so is the map from each
    vector's top coordinate (+-1, listed first, where no other vector is
    nonzero) to its index.  The vector z^(d - e) w, with w new at degree e,
    is w's own dict at degree d.  Raising m_z and d together leaves every
    row of `_column` in place and adds a_z to each value a . m + b, so the
    image of z^(d - e) w is D_e(w) + (d - e) K(w), and its restricted
    column is c0 + (d - e) c1, the target vectors keeping their indices:
    c0 is w's restricted image at e and c1 its image at e + 1 minus c0.  So
    d_q, q <= 2, is read only at the columns the vectors new at d and d - 1
    touch (`OperatorCell.columns_at`), each image's coefficients are read
    off the tops and checked by mapping them back, and every older column
    is read off its line.  An image at d > e + 1 is an affine combination
    of the two checked ones, so it lies in the invariant span too.  d_3 is
    0 and is not built.
    """
    vectors, tops = [[] for _ in range(4)], [{} for _ in range(4)]
    lines = [[] for _ in range(3)]  # (e, c0, c1) of each source vector, c1 None at d = e
    recent, new = [0] * 4, [0] * 4  # the first index new at d - 1, and at d
    for d in range(dmax + 1):
        for q in range(4):
            recent[q], new[q] = new[q], len(vectors[q])
            for vec in new_invariant_vectors(q, d):
                top = next(iter(vec))
                tops[q][top] = len(vectors[q]), vec[top]
                vectors[q].append(vec)
        cells = []
        for q in range(3):
            fresh = vectors[q][recent[q]:]
            columns = differential_matrix(pi, q, d).columns_at({j for v in fresh for j in v})
            for k, vec in enumerate(fresh, recent[q]):
                image, coeffs = linalg.matvec(columns, vec), {}
                for i, c in image.items():
                    if (found := tops[q + 1].get(i)) is not None:
                        coeffs[found[0]] = c * found[1]
                if linalg.matvec(vectors[q + 1], coeffs) != image:
                    raise ValueError("operator does not preserve the invariant subspace")
                if k < new[q]:  # new at d - 1: the slope of its line
                    e, c0, _ = lines[q][k]
                    lines[q][k] = e, c0, linalg.matvec((coeffs, c0), {0: 1, 1: -1})
                else:
                    lines[q].append((d, coeffs, None))
            cells.append(OperatorCell(None, None, [
                linalg.matvec((c0, c1), {0: 1, 1: d - e}) if c1 else c0
                for e, c0, c1 in lines[q]], 1))
        yield cells + [OperatorCell(None, None, [{} for _ in vectors[3]], 1)], vectors  # d_3 = 0


def _weights(pi):
    """(k, D) for the first x_k whose field [pi, x_k] acts on monomials by
    integer weights D, or None.

    The field's matrix M, x_j d_i at (i, j), is column x_k of d_0 on degree
    1.  It qualifies when D, its diagonal, is not 0, and its off-diagonal
    part N joins only coordinates of equal D and is nilpotent: then
    x^m xi_S has weight m . D - sum_S D_s, and N keeps each weight.
    """
    cell = linear_operator_matrix(pi, 0, 1)
    columns, unit = cell.columns, [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    for k in range(3):
        column = columns[cell.source.position(0, unit[k])]
        m = [[column.get(cell.target.position(i, unit[j]), 0) for j in range(3)] for i in range(3)]
        weights = [m[i][i] for i in range(3)]
        power = n = [[m[i][j] * (i != j) for j in range(3)] for i in range(3)]
        for _ in range(2):  # N^3
            power = [[sum(power[i][t] * n[t][j] for t in range(3)) for j in range(3)]
                     for i in range(3)]
        if any(weights) and not any(map(any, power)) and all(
                weights[i] == weights[j] for i in range(3) for j in range(3) if n[i][j]):
            return k, weights
    return None


def _weight_zero(pi, dmax):
    """The weight-0 basis cochains up to degree dmax of a bivector with weights
    (`_weights`), or None: ((a, b, k), [(idx, m_a, m_b), ...] for each q).

    x_k has weight 0, and x_a does not; m . D = sum_S D_s = c is a resonance
    D_a m_a + D_b m_b = c, with m_k = d - m_a - m_b.  Each m_b = j of
    `resonance_range` has the one integer m_a = (c - D_b j) / D_a.
    """
    found = _weights(pi)
    if found is None:
        return None
    k, weights = found
    a, b = sorted([i for i in range(3) if i != k], key=lambda i: not weights[i])
    da, db = weights[a], weights[b]
    tau, pairs = Fraction(db, da), []
    for q in range(4):
        pairs.append([])
        for idx in range(NCOMP[q]):
            c = sum(weights[s] for s in component_wedge(q, idx)[0])
            pairs[q] += [(idx, (c - db * j) // da, j)
                         for j in resonance_range(tau, Fraction(c, da), dmax)]
    return (a, b, k), pairs


def _weight_zero_differentials(pi, d, zero):
    """d_0..d_3 of degree d restricted to weight 0, and the ascending
    positions of its cochains, from `_weight_zero`.

    Each column of d_0..d_2 is read off `differential_matrix` alone, at the
    component and monomial of its cochain; one with an entry off weight 0
    means the weights were wrong, and raises ValueError.  d_3 is 0 and is
    not built.
    """
    (a, b, k), pairs = zero
    elements = []  # each q: (position, idx, monomial), by ascending position
    for q in range(4):
        basis, found = GradedBasis(q, d), []
        for idx, i, j in pairs[q]:
            if i + j <= d:
                mono = [0, 0, 0]
                mono[a], mono[b], mono[k] = i, j, d - i - j
                mono = tuple(mono)
                found.append((basis.position(idx, mono), idx, mono))
        elements.append(sorted(found))
    cells = []
    for q in range(3):
        cell = differential_matrix(pi, q, d)
        rows = {p: r for r, (p, _, _) in enumerate(elements[q + 1])}
        try:
            columns = [{rows[i]: c for i, c in cell.column_of(idx, mono).items()}
                       for _, idx, mono in elements[q]]
        except KeyError:
            raise ValueError("d_%d leaves weight 0 at degree %d" % (q, d)) from None
        cells.append(OperatorCell(None, None, columns, 1))
    cells.append(OperatorCell(None, None, [{} for _ in elements[3]], 1))  # d_3 = 0
    return cells, [[p for p, _, _ in found] for found in elements]


def _full_cells(pi, d, zero):
    """The four cells of degree d of the full complex of pi.

    With `zero` (`_weight_zero`) only weight 0 is reduced.  Off it the
    complex is acyclic, so d_q's rank there is sum_{k<=q} (-1)^(q-k)
    (dim C^k - dim C_0^k), with C_0 the weight-0 cochains.  A kernel row's
    index k is the k-th weight-0 position, and they ascend, so the row
    stays positive at its lowest index.
    """
    if zero is None:
        return _degree_cells(d, *_differentials(pi, d))
    matrices, positions = _weight_zero_differentials(pi, d, zero)
    cells, rest = [], 0  # rest: the rank of d_{q-1} off weight 0
    for cell, at in zip(_degree_cells(d, matrices), positions):
        size = len(GradedBasis(cell.q, d))
        incoming, rest = rest, size - cell.dim_cochains - rest
        kernel = [{at[k]: c for k, c in row.items()} for row in cell.kernel_rows]
        cells.append(CohomologyCell(cell.q, d, size, cell.rank_out + rest,
                                    cell.rank_in + incoming, kernel))
    return cells


def _degree_cells(d, matrices, back=None):
    """The cells q = 0..3 of coefficient degree d, from its four differentials.

    `matrices` holds d_0..d_3 as `OperatorCell`s of a complex, and `back`,
    if not None, the basis of each cochain space as ambient (q, d) vectors.
    Each differential is reduced mod p once, by a pass that builds a column
    only where its lead collides.  Each cell passes the next (rank_in,
    pivots): d_q's exact rank and the pivots of its image's echelon.  When
    the rank mod p of d_q leaves cell q no room for a class, the cell is
    certified acyclic, and the columns the pass kept, which are independent
    over Q and as many as the exact rank, span cell q + 1's image: they are
    built in one walk (`OperatorCell.columns_at`), and their `rref` gives
    its pivots, only when cell q + 1 is reduced exactly.
    After d_0 a pass stops once its dependent columns outnumber rank_in
    minus the columns it skips, as it can then certify nothing, and the next
    pass skips the exact image pivots in place of its pivot rows.  d_0's
    pass runs to the end: its pivot rows are the skip that keeps d_1's pass,
    the largest, small.

    When cell 0 is not certified, d_1's pass runs at once, with d_0's rank
    mod p as rank_in.  If it certifies cell 1, d_0 is reduced on the rows
    at d_0's pass's pivots alone (`OperatorCell.rows`), and kept only if
    d_0 kills each kernel row they give: then rank and kernel are those of
    every row (see the module notes).  Those rows all land, but not where
    d_0's image echelon leads, so the columns d_0's pass kept, as many as
    its exact rank, stand for its image as after a certified cell.
    Otherwise every row is reduced.  Either way d_1's pass is not run again.

    Otherwise d_q is reduced exactly, and that one reduction gives cell q
    its rank and the kernel rows led outside the incoming image's pivots,
    and cell q + 1 its pivots.  The image lies in the kernel, so its
    pivots are free columns of d_q: they are left out of the rows d_q lays
    out for the reduction (`OperatorCell.rows`), which changes no rank,
    pivot, kernel row read off or row that lands, and the rows led at the
    other free columns, one per class, are all that is read off.  The
    kernel rows come out primitive and positive at their free column, so
    the cell keeps them as they are.  With `back` they are first mapped to
    ambient coordinates: each vector of `back` is +-1 at a top coordinate
    no other touches, so a mapped row holds +-rep[k] at the k-th top and
    stays primitive, and only its sign is fixed (`_positive`).
    """
    cells = []
    rank_in, pivots = 0, set()  # d_{q-1}'s rank and image pivots, None until needed
    skip = set()  # columns of d_q that carry none of its image
    ahead = None  # d_1's pass, when it ran before d_0 was reduced

    def mod_p_pass(q, skip, rank_in):
        spare = rank_in - len(skip) if q else inf  # inf: run to the end
        return linalg.independent_columns_mod_p(matrices[q], skip, spare)

    for q, matrix in enumerate(matrices):
        size = len(matrix)
        (independent, pass_pivots), ahead = ahead or mod_p_pass(q, skip, rank_in), None
        if size == len(independent) + rank_in:
            # rank_p <= rank_Q and dim H >= 0: both ranks are exact, H = 0
            cells.append(CohomologyCell(q, d, size, len(independent), rank_in, []))
            rank_in, pivots, skip = len(independent), None, pass_pivots
            certified = matrix, independent
            continue
        if pivots is None:  # d_{q-1} was certified: the columns it kept span its image
            incoming, kept = certified
            pivots = set(linalg.rref(list(incoming.columns_at(set(kept)).values()))[0])
        at = None  # the rows of d_q that are reduced, None for all
        if q == 0:  # d_0's pass ran to the end, and d_1's pass runs now
            ahead = mod_p_pass(1, pass_pivots, len(independent))
            if len(matrices[1]) == len(ahead[0]) + len(independent):
                at = pass_pivots  # rank_Q(d_0) = rank_p(d_0): its pivot rows span
        rank, _, kernel, image_pivots = linalg.kernel_and_image_of_rows(  # the pivots' columns
            size, matrix.rows(pivots, at), pivots)  # are free, and left out
        if at is not None:  # the kernel of rows P holds d_0's: equal when d_0 kills it
            columns = matrix.columns_at(set().union(*kernel))
            if any(linalg.matvec(columns, row) for row in kernel):
                at = None  # rows P miss part of the row space: reduce them all
                rank, _, kernel, image_pivots = linalg.kernel_and_image_of_rows(
                    size, matrix.rows(pivots), pivots)
        if rank < len(independent):
            raise RuntimeError(
                "cell (%d, %d): exact rank %d is below the rank %d mod p"
                % (q, d, rank, len(independent)))
        dim_h = size - rank - rank_in
        if dim_h != len(kernel):  # one kernel row per class, each zero at the image's pivots
            raise RuntimeError(
                "cell (%d, %d): dim H is %d but %d representatives were found"
                % (q, d, dim_h, len(kernel)))
        if back is not None:  # +-rep[k] at back[q][k]'s top, which no other touches
            kernel = [_positive(linalg.matvec(back[q], rep)) for rep in kernel]
        cells.append(CohomologyCell(q, d, size, rank, rank_in, kernel))
        if at is None:
            rank_in, pivots = rank, image_pivots
        else:  # rows P land where they are, not where d_0's image echelon leads
            rank_in, pivots, certified = rank, None, (matrix, independent)
        skip = image_pivots if pass_pivots is None else pass_pivots
    return cells


def _positive(row):
    """A nonzero int row times the sign that makes it positive at its lowest index."""
    return row if row[min(row)] > 0 else {i: -c for i, c in row.items()}


def cohomology_cell(pi, q, d):
    """Cohomology of the (q, d) cell of the complex of pi.

    Representatives are returned as coordinate vectors; use
    `cell_multivectors` or the table interface for multivector form.
    """
    GradedBasis(q, d)
    with holding_stencils(pi):
        _check_poisson(pi)
        return _full_cells(pi, d, _weight_zero(pi, d))[q]


def invariant_cohomology(pi, q, d):
    """Cohomology of the rotation-invariant subcomplex at (q, d).

    Only defined when the bivector itself is rotation invariant; anything
    else is rejected since the subspaces would not form a complex.
    Representatives come back in ambient (q, d) coordinates.
    """
    GradedBasis(q, d)
    _check_rotation_invariant(pi)
    with holding_stencils(pi):
        _check_poisson(pi)
        for matrices, vectors in _invariant_differentials(pi, d):
            pass  # the restriction runs over the degrees up to d; only degree d is reduced
        return _degree_cells(d, matrices, vectors)[q]


def cell_multivectors(cell):
    """Canonical representatives of a cell as multivectors."""
    basis = GradedBasis(cell.q, cell.d)
    return [basis.reconstruct(v) for v in cell.representatives]


class CohomologyTable:
    """All cells with q = 0..3 and d = 0..dmax for one bivector."""

    __slots__ = ("dmax", "cells")

    def __init__(self, dmax, cells):
        self.dmax = dmax
        self.cells = cells

    def cell(self, q, d):
        return self.cells[(q, d)]

    def dim_h(self, q, d):
        return self.cells[(q, d)].dim_h

    def total(self, q):
        return sum(cell.dim_h for (cq, _), cell in self.cells.items() if cq == q)

    @property
    def totals(self):
        return {q: self.total(q) for q in range(4)}

    @property
    def stable(self):
        """True when the top three coefficient degrees carry no cohomology."""
        if self.dmax < 2:
            return False
        return all(
            cell.dim_h == 0
            for (_, d), cell in self.cells.items()
            if d >= self.dmax - 2
        )


def cohomology_table(pi, dmax, invariant=False):
    """Cohomology of every (q, d) cell with d <= dmax.

    With invariant=True the table is that of the rotation-invariant
    subcomplex, which needs a rotation-invariant bivector.
    """
    if dmax < 0:
        raise ValueError("dmax must be nonnegative, got %r" % (dmax,))
    if invariant:
        _check_rotation_invariant(pi)
    with holding_stencils(pi):
        _check_poisson(pi)
        if invariant:
            degrees = (_degree_cells(d, matrices, vectors) for d, (matrices, vectors)
                       in enumerate(_invariant_differentials(pi, dmax)))
        else:
            zero = _weight_zero(pi, dmax)
            degrees = (_full_cells(pi, d, zero) for d in range(dmax + 1))
        cells = {(cell.q, cell.d): cell for found in degrees for cell in found}
    return CohomologyTable(dmax, cells)


def coboundary_witness(pi, target):
    """A multivector V with [pi, V] == target, or None.

    The target must have homogeneous coefficients (each graded cell is
    searched exactly, nothing is approximated).
    """
    if target.is_zero():
        return MultiVector.zero(max(target.degree - 1, 0))
    d = target.coefficient_degree()
    if not target.is_coefficient_homogeneous(d):
        raise ValueError("witness search needs homogeneous coefficients")
    if target.degree == 0:
        return None
    cell = differential_matrix(pi, target.degree - 1, d)
    coords = cell.target.decompose(target)
    # the columns are den * d: columns * y = scale * target means d(y den / scale) = target
    scale = lcm(*(c.denominator for c in coords.values()))
    combo = linalg.solve_combination(cell.columns, {i: int(c * scale) for i, c in coords.items()})
    if combo is None:
        return None
    return cell.source.reconstruct({j: c * cell.den / scale for j, c in combo.items()})


def resonance_range(tau, c, dmax):
    """The j of the pairs of `resonances(tau, c, dmax)`, as a range.

    It also enumerates the weight-0 cochains of a table whose bivector has
    coordinate weights (`_weight_zero`), once per component.  For each j
    there is at most one i, c - tau*j, which is an integer only on one
    residue class of j modulo the denominator of tau; the bounds i >= 0 and
    i + j <= dmax are linear in j and confine it to an interval.  Its len()
    counts the pairs before any is built.
    """
    if dmax < 0:
        raise ValueError("dmax must be nonnegative, got %r" % (dmax,))
    tau, c = rational(tau), rational(c)
    p, q = tau.numerator, tau.denominator
    if (c * q).denominator != 1:
        return range(0)
    lo, hi = 0, dmax
    for slope, bound in ((tau, c), (1 - tau, dmax - c)):  # slope * j <= bound
        if slope > 0:
            hi = min(hi, floor(bound / slope))
        elif slope < 0:
            lo = max(lo, ceil(bound / slope))
        elif bound < 0:
            return range(0)
    lo += (int(c * q) * pow(p, -1, q) - lo) % q
    return range(lo, hi + 1, q)


def resonances(tau, c, dmax):
    """Exponent pairs (i, j) with i + tau*j == c and i + j <= dmax.

    i, j are nonnegative integers; pairs are listed by increasing j, which
    runs over `resonance_range`, so only the pairs themselves are visited.
    """
    tau, c = rational(tau), rational(c)
    return [(int(c - tau * j), j) for j in resonance_range(tau, c, dmax)]
