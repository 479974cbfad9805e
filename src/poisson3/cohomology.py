"""Cohomology of the graded complexes: ranks, dimensions, representatives.

Each (q, d) cell is closed under the differential of a linear bivector, so
its cohomology is kernel-modulo-image of two finite exact matrices.  One
loop reduces a whole coefficient degree d from the four `OperatorCell`s of
a complex it is handed, each reduced at most once
(`linalg.kernel_and_image_of_rows`): one forward elimination gives a
differential's rank and the pivots of its image's echelon, all the next
cell needs of its image, and a back-solve of its rows the kernel vectors
read, in reduced echelon form.  A builder
picks the complex: the full one is `differential_matrix` at each q, built
only as far as it is read; a subcomplex with a z-stable basis, the
rotation-invariant one or one that carries H (below), restricts d_0..d_2
to that basis, which maps its representatives back.  One builder does
both, handed the closed form of the basis vectors new at each degree: it
keeps one basis per q as a running list, since z times a vector of degree
d - 1 sits at its same positions at degree d, so every older vector stays
as it is.  A restricted column is affine in d, so each vector is applied
once, at the degree where it is new, whose image and slope
(`OperatorCell.apply`) give that line, and every later column is read off
it.  A single cell is read off the four cells of its degree, as a table
builds them; a subcomplex's cell runs the same restriction over the
degrees up to its own.  A table or a cell reads each of its bivector's
stencils once (`complexes.holding_stencils`), and checks pi before
anything else reads it: its degree, then, on the stencils it holds, with
no bracket, [pi, pi] = 0, as a bivector without it has no complex (d o d
!= 0), and [pi, R] = 0 for the rotation R where rotation-invariant
cochains are asked for.

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

The rotation family (`new_invariant_vectors`) is not spanned by basis
cochains, so the kernel rows it gives, mapped back, are *a* basis of each
H, not the full complex's canonical representatives.  Only `class_table`,
which `verify` reads, restricts to it; the weight-0 unit vectors, whose
rows mapped back are the canonical ones, serve every table and cell, and
the other tables and cells of the block kinds, sl2's class table among
them, reduce a block of the full complex that is spanned by basis cochains:

- The block test (`_block`) asks whether X_k fixes x_k and acts on the
  coordinates (x_a, x_b) other than x_k by a rotation block, as above, or
  by a hyperbolic one, mu (x_b d_a + x_a d_b) (sl2's X_z), whose L_X is
  semisimple over Q with eigenvectors x_a + x_b and x_a - x_b: so3 and sl2
  pass it on all three axes, euclidean and spiral on z.  Where it holds,
  sigma_k, which negates x_a and x_b, is a Lie algebra automorphism:
  Jacobi leaves [x_a, x_b] in the span of x_k, and [x_a, x_k], [x_b, x_k]
  lie in that of x_a, x_b.  So d commutes with sigma_k and keeps its +1
  and -1 parts, each spanned by basis cochains: x^m xi_S is sigma_k-odd
  when the exponents of x_a, x_b and its generators among them add up to
  an odd number.  That number has the parity of the weight k of L_{X_k} above
  (the rotation's k, or the count of x_a + x_b less that of x_a - x_b),
  so on the sigma_k-odd part every weight is odd and not 0, L_{X_k} is
  invertible, and that part is acyclic.
- The sigma_k of the passing axes commute, so the complex is the direct
  sum of their joint +-1 parts, and each part but the one even under
  every sigma_k is a direct summand of some sigma_k-odd part.  A direct
  summand of an acyclic complex is acyclic, so H lies in the even part.
  A table or a cell reduces only that part (`_left_out` gives the rest),
  and counts the ranks off it as above (`_full_cells`).  d is block
  diagonal in the basis cochains, and the reduced echelon rows of a
  direct sum are the union of each summand's, so every kernel row and
  representative is the whole complex's: the acyclic parts hold no class.

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
pass keeps rank_p columns, whose minor at their pivot rows P is triangular
mod p with units on its diagonal, so nonsingular over Q.  d_1's pass runs
next, skipping the columns at P.  If it certifies cell 1, every other
column of d_1 is independent mod p, and as d_1 d_0 = 0, rank_p(d_1) + |P|
= dim C^1 >= rank_Q(d_1) + rank_Q(d_0) >= rank_p(d_1) + |P|.  So
rank_Q(d_0) = |P|, the rows P are a basis of d_0's row space at any prime,
and only they are reduced; d_0 is checked to kill each kernel row they
give, which only a wrong pass fails (RuntimeError).  d_1's pass is that
cell's only pass; at an unlucky prime, where rank_p is below rank_Q, it
may stop early: the cell then goes down the exact path unless its kept
columns and d_0's exact rank still fill C^1, leaving no pivot rows to skip.

Where z is a Casimir (X_z = [pi, z] = 0: heisenberg, abelian, any (ax +
by + cz) dx^dy), no stencil entry depends on m_z and each lowers s = d -
m_z by 0 or 1.  So d_q at degree d is the first columns of one fixed
matrix, and with column j keyed ~j (`linalg.lay_out`) a row of target
block s (the positions with d - m_z = s) is the same at every degree from
s + 1 on; its left-out columns, the incoming pivots at source blocks s and
s + 1, are final from s + 2 on, as the rows of d_(q-1) that decide them
are then whole.  So degree d's forward table of the rows of blocks <= d - 2
is degree d + 1's: each degree resumes `rref` from the table its
predecessor handed on, lays out only the rows of blocks d - 2..d
(`OperatorCell.rows` from block d - 2) and hands on the table after block
d - 2 (`_complex`'s carry).  A degree gap or a certified cell leaves that
q's carry behind: the next degree lays out every row.  No cell changes,
only the work.  d_0(z^d) = d z^(d-1) X_z = 0: cell 0 holds a class no
pass could certify, so d_0 runs no pass and is reduced at once, and d_1's
pass skips its image pivots, as after any exact cell.

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

from bisect import bisect_left
from fractions import Fraction
from functools import partial
from itertools import compress
from math import ceil, floor, inf, lcm

from . import linalg
from .complexes import (
    GradedBasis,
    OperatorCell,
    check_bivector,
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


def _check_pi(pi, invariant=False):
    """Raise ValueError unless pi is a bivector with [pi, pi] = 0, and with
    invariant=True, first, [pi, R] = 0 for the rotation R: `OperatorCell.kills`
    on pi's held stencil (DegreeError if pi's coefficients are not linear)."""
    check_bivector(pi)
    checks = [(pi, "bivector is not Poisson: [pi, pi] is not 0")]
    if invariant:
        checks.insert(0, (rotation_field(), "bivector is not rotation invariant"))
    for v, message in checks:
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
    vector z^(d - e) w, with w new at degree e, is w's own dict at degree d,
    and d_q maps it to D_e(w) + (d - e) K(w), the image and slope of w at e
    (`OperatorCell.apply`).  So each vector is applied once, at the degree
    where it is new, and its restricted column is c0 + (d - e) c1, the target
    vectors keeping their indices: c0 and c1 are the image's and the slope's
    coefficients, read off the tops and checked by mapping them back, c0 at
    e and c1 at e + 1, once the target vectors new there exist, as an entry
    that raises s puts the slope in block e + 1.  The image at d > e is then
    an affine combination of checked vectors, so it lies in the subcomplex
    too.  d_3 is 0 and is not built.
    """
    vectors, tops = [[] for _ in range(4)], [{} for _ in range(4)]
    lines = [[] for _ in range(3)]  # (e, c0, c1) of each source vector, c1 None until e + 1
    slopes = [[] for _ in range(3)]  # the slope of each vector new at d - 1

    def restricted(vector, q, d):  # the coefficients of an image in the basis of q + 1
        coeffs = {}
        for i, c in vector.items():
            if (found := tops[q + 1].get(i)) is not None:
                coeffs[found[0]] = c * found[1]
        if linalg.matvec(vectors[q + 1], coeffs) != vector:
            raise ValueError("d_%d leaves the subcomplex at degree %d" % (q, d))
        return coeffs

    for d in range(dmax + 1):
        new = [len(basis) for basis in vectors]
        for q in range(4):
            for vec in new_vectors(q, d):
                top = next(iter(vec))
                tops[q][top] = len(vectors[q]), vec[top]
                vectors[q].append(vec)
        cells = []
        for q in range(3):
            for k, slope in enumerate(slopes[q], new[q] - len(slopes[q])):
                e, c0, _ = lines[q][k]
                lines[q][k] = e, c0, restricted(slope, q, d)
            cell = differential_matrix(pi, q, d)
            slopes[q] = []
            for vec in vectors[q][new[q]:]:
                image, slope = cell.apply(vec)
                lines[q].append((d, restricted(image, q, d), None))
                slopes[q].append(slope)
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


def _block(fields, k):
    """1 or -1 where X_k = [pi, x_k] fixes x_k and acts on the coordinates
    (x_a, x_b) after it by lambda + mu J, mu != 0, with J a rotation or a
    hyperbolic block (lambda = 0), else None (module notes; `_fields`)."""
    a, b = (k + 1) % 3, (k + 2) % 3
    m = fields[k]
    ab, ba = m[a][b], m[b][a]
    if (any(m[k]) or m[a][k] or m[b][k] or not ba or m[a][a] != m[b][b]
            or ab not in (ba, -ba) or (m[a][a] and ab == ba)):
        return None
    return -ab // ba


def _axes(fields):
    """The axes k whose field X_k passes the block test (`_block`)."""
    return [k for k in range(3) if _block(fields, k) is not None]


def _family(fields, blocks):
    """The closed form of the vectors new at each degree (a function of (q,
    d)) of the subcomplex of pi's full complex that carries H, or None for
    the whole complex; the module notes give the argument.

    Read off the fields' matrices (`_fields`).  Weights with D_z = 0
    give the weight-0 unit vectors (`_weight_zero`); D_z != 0 only where the
    coordinates were permuted, and gives None.  With blocks=True, a field
    X_z that acts on (x, y) by a rotation block (`_block` 1: euclidean,
    so3, spiral) gives the rotation-invariant subcomplex
    (`new_invariant_vectors`).  Where it returns None, the full complex
    still splits: wherever X_k passes the block test, sigma_k is a Lie
    algebra automorphism (`_block`), so d keeps its +-1 parts, and L_{X_k}
    has only odd weights, none of them 0, on the sigma_k-odd part, which is
    therefore acyclic, as is each direct summand of it; `_complex` reduces
    only the cochains even under every such sigma_k (`_left_out`).
    """
    found = _weights(fields)
    if found is not None:
        return None if found[1][2] else _weight_zero(found[1])
    return new_invariant_vectors if blocks and _block(fields, 2) == 1 else None


def _left_out(axes, dmax):
    """A function that gives a new set of the positions of (q, d), d <=
    dmax, odd under some sigma_k, k in `axes`: x^m xi_S is sigma_k-odd
    when m_k + [k in S] + d + q is odd.  That depends on the parities of d,
    s = d - m_z and m_x and on idx, so the flags repeat with period 2
    binom(3, q) in each s block, and one flag string per (q, d mod 2)
    holds every degree's; the sets share one int object per position.
    """
    flags = {}
    for q in range(4):
        n = NCOMP[q]
        gens = [component_wedge(q, idx)[0] for idx in range(n)]
        for dp in (0, 1):
            period = [bytes(any(((mx, sp - mx, dp - sp)[k] + (k in g) + dp + q) % 2
                                for k in axes) for mx in (0, 1) for g in gens) for sp in (0, 1)]
            flags[q, dp] = b"".join((period[s % 2] * (s // 2 + 1))[:(s + 1) * n]
                                    for s in range(dmax + 1))
    numbers = list(range(len(flags[1, 0])))

    def left_out(q, d):
        return set(compress(numbers, flags[q, d % 2][:NCOMP[q] * (d + 1) * (d + 2) // 2]))
    return left_out


def _full_cells(d, matrices, back, carry=None, out=None):
    """The four cells of degree d of the full complex, from the differentials
    of a subcomplex that carries H and has an acyclic complement: d_0..d_3
    restricted to the subcomplex `_family` gives and its basis `back`, or
    the full d_0..d_3 with the positions `out` left out (`_left_out`), or
    with none left out and `carry` handed on (`_degree_cells`).

    Only that subcomplex C_0 is reduced.  Its complement is acyclic, so d_q's
    rank there is sum_{k<=q} (-1)^(q-k) (dim C^k - dim C_0^k), with dim C^k
    = binom(3, k) (d + 1)(d + 2)/2; where nothing is left out the cells are
    the complex's as they are.
    """
    cells = _degree_cells(d, matrices, back, carry, out)
    if back is None and out is None:
        return cells
    rest = 0  # the rank of d_{q-1} off C_0
    for cell in cells:
        size = NCOMP[cell.q] * (d + 1) * (d + 2) // 2
        incoming, rest = rest, size - cell.dim_cochains - rest
        cell.dim_cochains, cell.rank_out, cell.rank_in = (
            size, cell.rank_out + rest, cell.rank_in + incoming)
    return cells


def _complex(pi, dmax, invariant, blocks=False):
    """Yield, for d = 0..dmax, a function that reduces degree d to its four
    cells: those of the rotation-invariant subcomplex with invariant=True,
    else the full complex's, restricted to the subcomplex that carries H
    where `_family` finds one.  Elsewhere the full differentials are made
    as their degree is reduced, and all of them go through one loop
    (`_full_cells`): for the axes whose X_k passes the block test
    (`_block`), sigma_k is an automorphism, L_{X_k} has only odd, nonzero
    weights on its odd part, which is acyclic, as is each direct summand of
    it, so only the cochains even under every such sigma_k are reduced
    (`_left_out`; module notes); where X_z = 0 one carry runs between the
    degrees (`_degree_cells`).  A restriction runs as the degrees are
    yielded.  pi is checked first (`_check_pi`), as the first degree is
    asked for."""
    _check_pi(pi, invariant)
    fields = None if invariant else _fields(pi)
    new_vectors = new_invariant_vectors if invariant else _family(fields, blocks)
    if new_vectors is not None:
        reduce = _degree_cells if invariant else _full_cells
        for d, (matrices, vectors) in enumerate(
                _restricted_differentials(pi, dmax, new_vectors)):
            yield partial(reduce, d, matrices, vectors)
        return
    if axes := _axes(fields):
        left_out = _left_out(axes, dmax)
    carry = None if any(map(any, fields[2])) else {}  # X_z = 0: the module notes
    for d in range(dmax + 1):
        yield lambda d=d: _full_cells(d, *_differentials(pi, d), carry,
                                      [left_out(q, d) for q in range(4)] if axes else None)


def _degree_cells(d, matrices, back=None, carry=None, out=None):
    """The cells q = 0..3 of coefficient degree d, from its four differentials.

    `matrices` holds d_0..d_3 as `OperatorCell`s of a complex, and `back`,
    if not None, the basis of each cochain space as ambient (q, d) vectors.
    Each differential is reduced mod p once, by a pass that builds a column
    only where its lead collides.  Each cell passes the next (rank_in,
    pivots): d_q's exact rank and the pivots of its image's echelon.  When
    the rank mod p of d_q leaves cell q no room for a class, the cell is
    certified acyclic, and the columns the pass kept, which are independent
    over Q and as many as the exact rank, span cell q + 1's image: each is
    built alone (`OperatorCell.column`), by ascending position, and their
    `echelon` gives its pivots, only when cell q + 1 is reduced exactly.
    After d_0 a pass stops once its dependent columns outnumber rank_in
    minus the columns it skips, as it can then certify nothing, and the next
    pass skips the exact image pivots in place of its pivot rows.  d_0's
    pass, which a `carry` drops (module notes), runs to the end: its pivot
    rows are the skip that keeps d_1's pass, the largest, small.

    When cell 0 is not certified, d_1's pass runs at once, with d_0's rank
    mod p as rank_in, and is not run again.  If it certifies cell 1, the
    rows at d_0's pass's pivots are a basis of d_0's row space (see the
    module notes): d_0 is reduced on them alone (`OperatorCell.rows`) and
    checked to kill each kernel row (`OperatorCell.kills`).  Those rows all
    land, but not where d_0's image echelon leads, so the columns d_0's
    pass kept, as many as its exact rank, stand for its image as after a
    certified cell.

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

    `carry`, a dict that `_complex` makes for a full complex where z is a
    Casimir and `_full_cells` passes on, holds per q the degree, rows, row
    indices and forward table that d_q's last exact reduction handed on;
    one at degree d - 1 is resumed, and each exact reduction hands one on.

    `out`, which `_full_cells` passes, holds per q a set of positions whose
    basis cochains span an acyclic subcomplex, and whose other basis
    cochains span a subcomplex too (`_left_out`): each d_q maps the columns
    in out[q] into the rows in out[q + 1] and the others outside them.
    Only the others are reduced, and the cells are theirs: out[q] joins
    every pass's `skip` and the columns left out of the layout and of the
    kernel read off, and `spare` and the sizes count only the others.
    """
    cells = []
    sizes = [len(m) - len(o) for m, o in zip(matrices, out)] if out else list(map(len, matrices))
    rank_in, pivots = 0, set()  # d_{q-1}'s rank and image pivots, None until needed
    skip = set()  # columns of d_q that carry none of its image
    ahead = None  # d_1's pass, when it ran before d_0 was reduced

    def mod_p_pass(q, skip, rank_in):
        if q == 0 and carry is not None:  # z^d is in ker d_0: no pass could certify cell 0
            return (), None
        spare = rank_in - len(skip) if q else inf  # inf: run to the end
        return linalg.independent_columns_mod_p(matrices[q], skip | out[q] if out else skip, spare)

    for q, matrix in enumerate(matrices):
        size = sizes[q]
        (independent, pass_pivots), ahead = ahead or mod_p_pass(q, skip, rank_in), None
        if size == len(independent) + rank_in:
            # rank_p <= rank_Q and dim H >= 0: both ranks are exact, H = 0
            cells.append(CohomologyCell(q, d, size, len(independent), rank_in, []))
            # d_1's pass may stop on rank_p(d_0) < rank_Q(d_0) and still certify: no pivot rows
            rank_in, pivots, skip = len(independent), None, pass_pivots or set()
            certified = matrix, independent
            continue
        if pivots is None:  # d_{q-1} was certified: the columns it kept span its image
            incoming, kept = certified
            pivots = set(linalg.echelon([incoming.column(j) for j in kept]))
        at = None  # the rows of d_q that are reduced, None for all
        if q == 0 and carry is None:  # d_0's pass ran to the end, and d_1's pass runs now
            ahead = mod_p_pass(1, pass_pivots, len(independent))
            if sizes[1] == len(ahead[0]) + len(independent):
                at = pass_pivots  # rank_Q(d_0) = rank_p(d_0): its pivot rows span
        held = hand_at = None  # the table degree d - 1 handed on, and where to hand one on
        start = 0
        if carry is not None:
            last, *handed = carry.get(q, (None,))
            index, rows, held = handed if last == d - 1 else ([], [], [])
            start = max(d - 2, 0) if held else 0  # resume after block d - 3
        free = pivots | out[q] if out else pivots
        laid = matrix.rows(free, at, start)  # `free` is left out: the pivots' columns are free
        if held is not None:
            hand_at = len(index) + bisect_left(laid[0], NCOMP[matrix.target.q] * d * (d - 1) // 2)
            laid = index + laid[0], rows + laid[1]
        rank, _, kernel, image_pivots = linalg.kernel_and_image_of_rows(
            len(matrix), laid, free, held, hand_at)
        if held is not None:  # rows of blocks <= d - 2 are final: the next degree's too
            carry[q] = d, laid[0][:hand_at], laid[1][:hand_at], held
        if at is not None and not all(matrix.kills(row) for row in kernel):  # a wrong pass
            raise RuntimeError("cell (%d, %d): d_0 does not kill the kernel of its pass's "
                               "pivot rows" % (q, d))
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

    Where the field X_z fixes z and acts on (x, y) by a rotation block
    (euclidean, so3, spiral), only the rotation-invariant subcomplex is
    reduced (`_family`), and its kernel rows are mapped back to ambient
    coordinates: each is closed and the rows are independent modulo the
    exact cochains, but they are not the reduced echelon rows of the full
    complex.  Every other table, sl2's among them, is `cohomology_table`'s,
    cell for cell.  `verify`, which compares spans, reads it; it is not
    part of the package's exported names.
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
    searched exactly, nothing is approximated), and pi must be Poisson.
    """
    _check_pi(pi)
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
