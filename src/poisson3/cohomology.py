"""Cohomology of the graded complexes: ranks, dimensions, representatives.

Each (q, d) cell is closed under the differential of a linear bivector, so
its cohomology is kernel-modulo-image of two finite exact matrices.  One
loop reduces a whole coefficient degree d from its differentials, each an
`OperatorCell` from `differential_matrix`, built only as far as it is read
and reduced at most once (`linalg.kernel_and_image_of_rows`): one
elimination gives a differential's rank, its kernel in reduced echelon
form, and the pivots of its image's echelon, all the next cell needs of
its image.  A single cell is read off the four cells of its degree, as a
table builds them.  The rotation-invariant subcomplex goes through the
same loop on the same differentials, each of d_0..d_2 read only at the
columns its invariant vectors touch (`OperatorCell.columns_at`) and
restricted to the invariant sub-bases.  A bivector with [pi, pi] != 0
has no complex, as d o d != 0, and is rejected.

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

The matrices are integer throughout.  Representatives are canonical: they
are the kernel rows whose leading coordinate is not a pivot of the image's
echelon, the only ones read off the reduction, which gives each one as
coprime integers positive at its lowest index, its free column.  It is
published as Fractions with no normalisation of its own; only the
invariant path normalises, once a row is mapped back to ambient
coordinates.  They are already reduced against the image: the kernel row
led at a free column j of d_q is nonzero only at j and at d_q's pivot
columns, and the image's pivots are free columns of d_q other than j (the
image lies in the kernel, as d o d = 0), so no image row could change it.
Two runs over the same input produce byte-identical output.
"""

from fractions import Fraction
from math import ceil, floor, inf, lcm

from . import linalg
from .complexes import (
    GradedBasis,
    OperatorCell,
    differential_matrix,
    invariant_basis,
    linear_operator_matrix,
    rotation_field,
)
from .multivector import MultiVector, rational, schouten_bracket


class CohomologyCell:
    """One (q, d) slot: dimensions, ranks, canonical representatives."""

    __slots__ = ("q", "d", "dim_cochains", "rank_out", "rank_in", "representatives")

    def __init__(self, q, d, dim_cochains, rank_out, rank_in, representatives):
        self.q = q
        self.d = d
        self.dim_cochains = dim_cochains
        self.rank_out = rank_out
        self.rank_in = rank_in
        self.representatives = representatives

    @property
    def dim_h(self):
        return self.dim_cochains - self.rank_out - self.rank_in

    def __repr__(self):
        return "CohomologyCell(q=%d, d=%d, dim_h=%d)" % (self.q, self.d, self.dim_h)


def _restrict(columns, source_vectors, target_vectors):
    """Matrix of a map restricted to invariant sub-bases on both sides.

    `columns` maps each position in the source vectors' support to its
    column.  Each target vector from `invariant_basis` is the only one that
    is nonzero at its highest coordinate, where its entry is +-1: an
    image's coefficients are read off those coordinates, then checked by
    mapping them back.
    """
    tops = [(max(vec), vec[max(vec)]) for vec in target_vectors]
    out = []
    for vec in source_vectors:
        image = linalg.matvec(columns, vec)
        coeffs = {k: image[top] * lead for k, (top, lead) in enumerate(tops) if top in image}
        if linalg.matvec(target_vectors, coeffs) != image:
            raise ValueError("operator does not preserve the invariant subspace")
        out.append(coeffs)
    return out


def _check_cochain_degree(q):
    if q not in (0, 1, 2, 3):
        raise ValueError("cochain degree must be 0..3, got %r" % (q,))


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


def _degree_cells(pi, d, invariant):
    """The cells q = 0..3 of coefficient degree d.

    Each differential out of degree d is reduced mod p once, by a pass that
    builds a column only where its lead collides.  Each cell passes the next
    (rank_in, pivots): d_q's exact rank and the pivots of its image's
    echelon.  When the rank mod p of d_q leaves cell q no room for a class,
    the cell is certified acyclic, and the columns the pass kept, which are
    independent over Q and as many as the exact rank, span cell q + 1's
    image: they are built, and their `rref` gives its pivots, only when cell
    q + 1 is reduced exactly.
    After d_0 a pass stops once its dependent columns outnumber rank_in
    minus the columns it skips, as it can then certify nothing, and the next
    pass skips the exact image pivots in place of its pivot rows.  d_0's
    pass runs to the end: its pivot rows are the skip that keeps d_1's pass,
    the largest, small.

    Otherwise d_q is reduced exactly, and that one reduction gives cell q
    its rank and the kernel rows led outside the incoming image's pivots,
    and cell q + 1 its pivots.  The image lies in the kernel, so its
    pivots are free columns of d_q: they are left out of the rows d_q lays
    out for the reduction (`OperatorCell.rows`), which changes no rank,
    pivot, kernel row read off or row that lands, and the rows led at the
    other free columns, one per class, are all that is read off.  The
    kernel rows come out primitive and positive at their free column, so on
    the full complex they are boxed into Fractions as they are.  On the
    invariant subcomplex (d_3 is 0 there) they are mapped back to ambient
    (q, d) coordinates and normalised again before they are boxed.
    """
    if invariant:
        vectors = [invariant_basis(q, d)[1] for q in range(4)]
        matrices = [OperatorCell(None, None, _restrict(
            differential_matrix(pi, q, d).columns_at({j for v in vectors[q] for j in v}),
            vectors[q], vectors[q + 1]), 1) for q in range(3)]
        matrices.append(OperatorCell(None, None, [{} for _ in vectors[3]], 1))  # d_3 = 0
    else:
        matrices = [differential_matrix(pi, q, d) for q in range(4)]
    cells = []
    rank_in, pivots = 0, set()  # d_{q-1}'s rank and image pivots, None until needed
    skip = set()  # columns of d_q that carry none of its image
    for q, matrix in enumerate(matrices):
        size = len(matrix)
        spare = rank_in - len(skip) if q else inf  # inf: run to the end
        independent, pass_pivots = linalg.independent_columns_mod_p(matrix, skip, spare)
        if size == len(independent) + rank_in:
            # rank_p <= rank_Q and dim H >= 0: both ranks are exact, H = 0
            cells.append(CohomologyCell(q, d, size, len(independent), rank_in, []))
            rank_in, pivots, skip = len(independent), None, pass_pivots
            certified = matrix, independent
            continue
        if pivots is None:  # d_{q-1} was certified: the columns it kept span its image
            incoming, kept = certified
            pivots = set(linalg.rref([incoming.column(j) for j in kept])[0])
        rank, _, kernel, image_pivots = linalg.kernel_and_image_of_rows(  # the pivots' columns
            size, matrix.rows(pivots), pivots)  # are free, and left out
        if rank < len(independent):
            raise RuntimeError(
                "cell (%d, %d): exact rank %d is below the rank %d mod p"
                % (q, d, rank, len(independent)))
        dim_h = size - rank - rank_in
        if dim_h != len(kernel):  # one kernel row per class, each zero at the image's pivots
            raise RuntimeError(
                "cell (%d, %d): dim H is %d but %d representatives were found"
                % (q, d, dim_h, len(kernel)))
        if invariant:  # back to ambient coordinates, where the canonical form is redone
            kernel = [linalg.integer_normalize(linalg.matvec(vectors[q], rep)) for rep in kernel]
        reps = [{i: Fraction(c) for i, c in rep.items()} for rep in kernel]
        cells.append(CohomologyCell(q, d, size, rank, rank_in, reps))
        rank_in, pivots = rank, image_pivots
        skip = image_pivots if pass_pivots is None else pass_pivots
    return cells


def cohomology_cell(pi, q, d):
    """Cohomology of the (q, d) cell of the complex of pi.

    Representatives are returned as coordinate vectors; use
    `cell_multivectors` or the table interface for multivector form.
    """
    _check_cochain_degree(q)
    _check_poisson(pi)
    return _degree_cells(pi, d, False)[q]


def invariant_cohomology(pi, q, d):
    """Cohomology of the rotation-invariant subcomplex at (q, d).

    Only defined when the bivector itself is rotation invariant; anything
    else is rejected since the subspaces would not form a complex.
    Representatives come back in ambient (q, d) coordinates.
    """
    _check_cochain_degree(q)
    _check_rotation_invariant(pi)
    _check_poisson(pi)
    return _degree_cells(pi, d, True)[q]


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
    _check_poisson(pi)
    cells = {}
    for d in range(dmax + 1):
        for cell in _degree_cells(pi, d, invariant):
            cells[(cell.q, d)] = cell
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

    For each j there is at most one i, c - tau*j, which is an integer only on
    one residue class of j modulo the denominator of tau; the bounds i >= 0
    and i + j <= dmax are linear in j and confine it to an interval.  Its
    len() counts the pairs before any is built.
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
