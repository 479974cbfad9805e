"""Cohomology of the graded complexes: ranks, dimensions, representatives.

Each (q, d) cell is closed under the differential of a linear bivector, so
its cohomology is kernel-modulo-image of two finite exact matrices.  One
loop reduces a whole coefficient degree d from the four `OperatorCell`s of
a complex it is handed, each reduced at most once
(`linalg.kernel_and_image_of_rows`): one elimination gives a
differential's rank, its kernel in reduced echelon form, and the pivots of
its image's echelon, all the next cell needs of its image.  A builder picks
the complex: the full one is `differential_matrix` at each q, built only as
far as it is read; a subcomplex with a z-stable basis, the
rotation-invariant one or one that carries H (below), restricts d_0..d_2 to
that basis, which maps its representatives back.  One builder does both,
handed the closed form of the basis vectors new at each degree: it keeps
one basis per q as a running list, since z times a vector of degree d - 1
sits at its same positions at degree d, so every older vector stays as it
is.  A restricted
column is affine in d, so each vector is restricted at the degree where it
is new and the next, and every later column is read off that line.  A
single cell is read off the four cells of its degree, as a table builds
them; a subcomplex's cell runs the same restriction over the degrees up to
its own.  A table or a cell reads each of its bivector's stencils once
(`complexes.holding_stencils`), and checks pi on the stencils it holds,
with no bracket: a bivector with [pi, pi] != 0 has no complex, as d o d !=
0, and is rejected, and so is one with [pi, R] != 0 for the rotation R,
whose rotation-invariant cochains are asked for.

A Hamiltonian field X = [pi, f] of a linear f acts as 0 on H (Lichnerowicz
1977; Vaisman 1994): L_X commutes with d, as X is Poisson, and is
null-homotopic, with [f, .] as the homotopy (graded Jacobi).  On the
cochains of degree d let C_0 = ker L_X^N and C_1 = im L_X^N, N large, so
C = C_0 + C_1.  Both are subcomplexes, as L_X commutes with d, and L_X is
invertible on C_1, so it is invertible on H(C_1).  H(C_1) is a summand of
H, where L_X is 0, so H(C_1) = 0.  So a table or a cell need only reduce a
subcomplex with a z-stable basis that holds C_0 and has an acyclic
complement; off it d_q's rank is dim C^q - dim C^(q-1) + ... +- dim C^0
there (`_full_cells`).  The cells keep the full dimensions, so a cochain
budget still counts the full complex's cochains.  `_family` picks the
subcomplex off the fields' matrices, column x_k of d_0 on degree 1, read
once:

- Weights (book and semi_open_book with X_z, aff_x_r with X_y): X acts on
  each basis cochain x^m xi_S by an integer weight m . D - sum_S D_s, up
  to a nilpotent part that keeps it, so C_0 is weight 0, spanned by basis
  cochains.
- A rotation block: X_z fixes z and is lambda E + mu R on (x, y), mu != 0,
  with E = x d_x + y d_y and R = x d_y - y d_x (euclidean and so3, lambda
  = 0; spiral, lambda = tau mu).  Over C, L_E and L_R commute and are
  semisimple, with joint eigenvalues (w, ik), w and k integers, and
  L_X's eigenvalue there, lambda w + i mu k, gives k.  So d keeps each k,
  the rotation-invariant cochains (k = 0) are a subcomplex that holds C_0,
  and L_X is invertible on their complement (k != 0), which is acyclic by
  the argument above.  For euclidean and so3 they are C_0.
- A hyperbolic block: X_z fixes z and is mu (y d_x + x d_y) on (x, y) (sl2).
  L_X is semisimple over Q, with eigenvectors x + y and x - y, and C_0 is
  its kernel, the rotation family with x^2 - y^2 for x^2 + y^2.

The two block families (`new_invariant_vectors` with sign 1 and -1) are
not spanned by basis cochains, so the kernel rows they give, mapped back,
are *a* basis of each H, not the full complex's canonical representatives.
Only `class_table`, which `verify` reads, restricts to them; the tables and
cells of these kinds reduce the full complex, and the weight-0 unit
vectors, whose rows mapped back are the canonical ones, serve every table
and cell.

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
keeps these integer rows, with only their sign fixed where a subcomplex
maps them back to ambient coordinates, and boxes them into Fractions when
its representatives are read.  They are already reduced against the image:
the kernel row led at a free column j of d_q is nonzero only at j and at
d_q's pivot columns, and the image's pivots are free columns of d_q other
than j (the image lies in the kernel, as d o d = 0), so no image row could
change it.  Two runs over the same input produce byte-identical output.
"""

from fractions import Fraction
from functools import partial
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
from .multivector import NCOMP, MultiVector, component_wedge, rational


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


def _check_kills(pi, v, message):
    """Raise ValueError(message) unless [pi, v] = 0, for a v with linear
    coefficients: [pi, .] on the (v.degree, 1) cell, read off pi's held
    stencil, applied to v's coordinates (`OperatorCell.kills`).  A pi whose
    coefficients are not linear fails in the stencil with DegreeError."""
    cell = linear_operator_matrix(pi, v.degree, 1)
    if not cell.kills(cell.source.decompose(v)):
        raise ValueError(message)


def _differentials(pi, d):
    """d_0..d_3 of degree d, built only as read, and no map back (they are ambient)."""
    return [differential_matrix(pi, q, d) for q in range(4)], None


def _restricted_differentials(pi, dmax, new_vectors):
    """Yield, for d = 0..dmax, d_0..d_3 of degree d restricted to a subcomplex
    with a z-stable basis, and that basis at q = 0..3.

    `new_vectors(q, d)` gives the basis vectors new at degree d, sorted by
    their top coordinate (+-1, listed first, where no other vector is
    nonzero), all at s = d: the rotation-invariant ones
    (`new_invariant_vectors`) or the weight-0 unit vectors (`_weight_zero`).
    Each basis is a running list, extended at each degree with the vectors
    new there, and so is the map from each vector's top to its index.  The
    vector z^(d - e) w, with w new at degree e, is w's own dict at degree d.
    Raising m_z and d together leaves every row of `_column` in place and
    adds a_z to each value a . m + b, so the image of z^(d - e) w is D_e(w) +
    (d - e) K(w), and its restricted column is c0 + (d - e) c1, the target
    vectors keeping their indices: c0 is w's restricted image at e and c1
    its image at e + 1 minus c0.  So d_q, q <= 2, is read only at the
    columns the vectors new at d and d - 1 touch (`OperatorCell.columns_at`),
    each image's coefficients are read off the tops and checked by mapping
    them back, and every older column is read off its line.  An image at d
    > e + 1 is an affine combination of the two checked ones, so it lies in
    the subcomplex too.  d_3 is 0 and is not built.
    """
    vectors, tops = [[] for _ in range(4)], [{} for _ in range(4)]
    lines = [[] for _ in range(3)]  # (e, c0, c1) of each source vector, c1 None at d = e
    recent, new = [0] * 4, [0] * 4  # the first index new at d - 1, and at d
    for d in range(dmax + 1):
        for q in range(4):
            recent[q], new[q] = new[q], len(vectors[q])
            for vec in new_vectors(q, d):
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
                    raise ValueError("d_%d leaves the subcomplex at degree %d" % (q, d))
                if k < new[q]:  # new at d - 1: the slope of its line
                    e, c0, _ = lines[q][k]
                    lines[q][k] = e, c0, linalg.matvec((coeffs, c0), {0: 1, 1: -1})
                else:
                    lines[q].append((d, coeffs, None))
            cells.append(OperatorCell(None, None, [
                linalg.matvec((c0, c1), {0: 1, 1: d - e}) if c1 else c0
                for e, c0, c1 in lines[q]], 1))
        yield cells + [OperatorCell(None, None, [{} for _ in vectors[3]], 1)], vectors  # d_3 = 0


def _fields(pi):
    """The matrix M_k of each Hamiltonian field X_k = [pi, x_k], x_j d_i at
    (i, j): column x_k of d_0 on degree 1, read once."""
    cell = linear_operator_matrix(pi, 0, 1)
    columns, unit = cell.columns, [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    return [[[columns[cell.source.position(0, unit[k])].get(cell.target.position(i, unit[j]), 0)
              for j in range(3)] for i in range(3)] for k in range(3)]


def _weights(fields):
    """(k, D) for the first x_k whose field acts on monomials by integer
    weights D, or None, from the fields' matrices (`_fields`).

    M_k qualifies when D, its diagonal, is not 0, and its off-diagonal part
    N joins only coordinates of equal D and is nilpotent: then x^m xi_S has
    weight m . D - sum_S D_s, and N keeps each weight.
    """
    for k, m in enumerate(fields):
        weights = [m[i][i] for i in range(3)]
        if not any(weights):
            continue
        power = n = [[m[i][j] * (i != j) for j in range(3)] for i in range(3)]
        for _ in range(2):  # N^3
            power = [[sum(power[i][t] * n[t][j] for t in range(3)) for j in range(3)]
                     for i in range(3)]
        if not any(map(any, power)) and all(
                weights[i] == weights[j] for i in range(3) for j in range(3) if n[i][j]):
            return k, weights
    return None


def _weight_zero(weights):
    """The weight-0 unit vectors new at degree d, as a function of (q, d), of
    a bivector with weights D (`_weights`) and D_z = 0.

    z x^m xi_S then has x^m xi_S's weight, and sits at its position at degree
    d + 1 (`GradedBasis.position`), so the weight-0 cochains are a z-stable
    basis of unit vectors, and those new at d have m_z = 0: e_j at x^(m_x)
    y^(d - m_x) xi_idx with D_x m_x + D_y (d - m_x) = sum_S D_s, by ascending
    j.
    """
    sums = [[sum(weights[s] for s in component_wedge(q, idx)[0]) for idx in range(NCOMP[q])]
            for q in range(4)]

    def new_vectors(q, d):
        basis = GradedBasis(q, d)
        return [{basis.position(idx, (mx, d - mx, 0)): 1} for mx in range(d + 1)
                for idx, c in enumerate(sums[q]) if weights[0] * mx + weights[1] * (d - mx) == c]
    return new_vectors


def _family(pi, blocks):
    """The closed form of the vectors new at each degree (a function of (q,
    d)) of the subcomplex of pi's full complex that carries H, or None for
    the whole complex; the module notes give the argument.

    Read off the fields' matrices once (`_fields`).  Weights with D_z = 0
    give the weight-0 unit vectors (`_weight_zero`); D_z != 0 only where the
    coordinates were permuted, and gives None.  With blocks=True, a field
    X_z that fixes z and acts on (x, y) by lambda + mu J, mu != 0, gives
    the kernel of L_J (`new_invariant_vectors`, sign 1 for the rotation J,
    -1 for the hyperbolic one, whose lambda must be 0).
    """
    fields = _fields(pi)
    found = _weights(fields)
    if found is not None:
        return None if found[1][2] else _weight_zero(found[1])
    (xx, xy, xz), (yx, yy, yz), z_row = fields[2]
    if (not blocks or any(z_row) or xz or yz or not yx or xx != yy
            or xy not in (yx, -yx) or (xx and xy == yx)):
        return None
    sign = -xy // yx
    return lambda q, d: new_invariant_vectors(q, d, sign)


def _full_cells(d, matrices, vectors):
    """The four cells of degree d of the full complex, from d_0..d_3
    restricted to the subcomplex that carries H (`_family`) and its basis.

    Only that subcomplex C_0 is reduced.  Its complement is acyclic, so d_q's
    rank there is sum_{k<=q} (-1)^(q-k) (dim C^k - dim C_0^k).
    """
    cells, rest = [], 0  # rest: the rank of d_{q-1} off C_0
    for cell in _degree_cells(d, matrices, vectors):
        size = len(GradedBasis(cell.q, d))
        incoming, rest = rest, size - cell.dim_cochains - rest
        cells.append(CohomologyCell(cell.q, d, size, cell.rank_out + rest,
                                    cell.rank_in + incoming, cell.kernel_rows))
    return cells


def _complex(pi, dmax, invariant, blocks=False):
    """Yield, for d = 0..dmax, a function that reduces degree d to its four
    cells: those of the rotation-invariant subcomplex with invariant=True,
    and otherwise the full complex's, restricted to the subcomplex that
    carries H where `_family` finds one.  A restriction runs as the degrees
    are yielded, and the full complex's differentials are made only when
    their degree is reduced.  pi is checked first, when the first degree is
    asked for: rotation invariant with invariant=True ([pi, R] = -[R, pi]),
    then Poisson if a bivector; `differential_matrix` rejects the rest."""
    if invariant:
        _check_kills(pi, rotation_field(), "bivector is not rotation invariant")
    if pi.degree == 2:
        _check_kills(pi, pi, "bivector is not Poisson: [pi, pi] is not 0")
    new_vectors = new_invariant_vectors if invariant else _family(pi, blocks)
    if new_vectors is None:
        for d in range(dmax + 1):
            yield lambda d=d: _degree_cells(d, *_differentials(pi, d))
        return
    reduce = _degree_cells if invariant else _full_cells
    for d, (matrices, vectors) in enumerate(
            _restricted_differentials(pi, dmax, new_vectors)):
        yield partial(reduce, d, matrices, vectors)


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


def _single_cell(pi, q, d, invariant):
    """Cell (q, d) of a complex (`_complex`): a restriction runs over the
    degrees up to d, and only degree d is reduced, all of it."""
    GradedBasis(q, d)
    with holding_stencils(pi):
        for cells in _complex(pi, d, invariant):
            pass
        return cells()[q]


def cohomology_cell(pi, q, d):
    """Cohomology of the (q, d) cell of the complex of pi.

    Representatives are returned as coordinate vectors; use
    `cell_multivectors` or the table interface for multivector form.
    """
    return _single_cell(pi, q, d, False)


def invariant_cohomology(pi, q, d):
    """Cohomology of the rotation-invariant subcomplex at (q, d).

    Only defined when the bivector itself is rotation invariant; anything
    else is rejected since the subspaces would not form a complex.
    Representatives come back in ambient (q, d) coordinates.
    """
    return _single_cell(pi, q, d, True)


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
    return _table(pi, dmax, invariant)


def class_table(pi, dmax):
    """The table of `cohomology_table(pi, dmax)` with the same numbers in
    every cell, but *a* basis of each H in place of the canonical one.

    Where the field X_z fixes z and acts on (x, y) by a rotation or a
    hyperbolic block (euclidean, so3, spiral, sl2), only the subcomplex that
    carries H is reduced (`_family`), and its kernel rows are mapped back to
    ambient coordinates: each is closed and the rows are independent modulo
    the exact cochains, but they are not the reduced echelon rows of the
    full complex.  `verify`, which compares spans, reads it; it is not part
    of the package's exported names.
    """
    return _table(pi, dmax, False, blocks=True)


def _table(pi, dmax, invariant, blocks=False):
    """Every cell of the complex `_complex` builds, as a `CohomologyTable`."""
    if dmax < 0:
        raise ValueError("dmax must be nonnegative, got %r" % (dmax,))
    with holding_stencils(pi):
        cells = {(cell.q, cell.d): cell for cells in _complex(pi, dmax, invariant, blocks)
                 for cell in cells()}
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

    For each j
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
