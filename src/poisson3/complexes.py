"""Graded cochain complexes of polynomial multivector fields.

A linear bivector preserves the polynomial coefficient degree, so for each
multivector degree q and coefficient degree d the span of basis cochains
(monomial times wedge generator) is finite and the differential restricts to
a map between neighbouring q at fixed d.  This module enumerates those bases
and builds the exact matrices of the differential and of Lie-derivative
operators; the cohomology module reduces them.

Matrices and invariant sub-bases are read off closed forms (monomial order,
basis positions, an integer stencil of the operator, invariant generators)
with no bracket or elimination.  Raising the z exponent and the degree
together keeps a basis position, so z times an invariant vector of degree
d - 1 is the same {position: coefficient} dict at degree d: an invariant
basis is the vectors new at each degree up to d (`new_invariant_vectors`),
each degree's after every lower one's, and a table extends one running
list per q.

`differential_matrix` is the one source of a differential, for the full
complex and its subcomplexes alike, and builds only as it is read,
keeping nothing (`OperatorCell`): a mod-p pass reads the columns' leads
and builds one only where its lead collides, an exact reduction gets its
rows straight from the stencil, and a subcomplex's restriction and a
certified cell build only the columns they name (`columns_at`), in a walk
from the lowest to the highest.  A table holds its bivector's stencils
while it is built (`holding_stencils`), so each q's is derived once; the
hold is the one stencil cache, and a nested hold of one object shares the
outermost's.  The tests hold the independent route the stencil is checked
against, a Schouten bracket per column.
"""

from contextlib import contextmanager
from math import comb, isqrt

from . import linalg
from .multivector import (
    DegreeError,
    MultiVector,
    NCOMP,
    Polynomial,
    linear_stencil,
    schouten_bracket,
    wedge,
)


def monomials(degree):
    """Exponent triples (i, j, k) of total degree d, leading monomial first.

    Leading first is `monomial_key` descending: the z exponent k runs from d
    down to 0 and, within it, the y exponent j from d - k down to 0.
    """
    return [(degree - k - j, j, k)
            for k in range(degree, -1, -1) for j in range(degree - k, -1, -1)]


class GradedBasis:
    """Ordered basis of the (q, d) cochain space.

    Elements are (component index, monomial) pairs, ordered by monomial
    (leading first, as in `monomials`) and then by component index; the size
    binom(3, q) * (d+1)(d+2)/2, `position` and its inverse `element` are
    closed forms, and no element list is built or kept.
    """

    __slots__ = ("q", "d")

    def __init__(self, q, d):
        if q not in (0, 1, 2, 3):
            raise ValueError("cochain degree must be 0..3, got %r" % (q,))
        if d < 0:
            raise ValueError("coefficient degree must be >= 0, got %r" % (d,))
        self.q = q
        self.d = d

    def __len__(self):
        return NCOMP[self.q] * (self.d + 1) * (self.d + 2) // 2

    def position(self, idx, mono):
        """Index of x^mono xi_idx: ((d - k)(d - k + 1)/2 + i) * binom(3, q) + idx.

        Raises KeyError outside the basis: idx out of range, a negative
        exponent or a total degree other than d.
        """
        i, j, k = mono
        if not (0 <= idx < NCOMP[self.q] and min(mono) >= 0 and i + j + k == self.d):
            raise KeyError((idx, mono))
        s = self.d - k
        return (s * (s + 1) // 2 + i) * NCOMP[self.q] + idx

    def element(self, position):
        """(component index, monomial) at a position, the inverse of `position`.

        With r = position // binom(3, q) = T(s) + i, where T(s) = s(s + 1)/2
        and s = d - k, s is the largest integer with T(s) <= r.  Raises
        KeyError for a position outside 0..len - 1.
        """
        if not 0 <= position < len(self):
            raise KeyError(position)
        r, idx = divmod(position, NCOMP[self.q])
        s = (isqrt(8 * r + 1) - 1) // 2
        i = r - s * (s + 1) // 2
        return idx, (i, s - i, self.d - s)

    def decompose(self, value):
        """Coordinates of a multivector in this basis (sparse dict).

        Raises DegreeError if a coefficient monomial falls outside degree d
        and ValueError on a multivector degree mismatch.
        """
        if value.is_zero():
            return {}
        if value.degree != self.q:
            raise ValueError("expected degree %d, got %d" % (self.q, value.degree))
        coords = {}
        for idx, poly in value.components.items():
            for mono, coeff in poly.terms.items():
                if sum(mono) != self.d:
                    raise DegreeError(
                        "monomial %r has degree %d, expected %d" % (mono, sum(mono), self.d)
                    )
                coords[self.position(idx, mono)] = coeff
        return coords

    def reconstruct(self, coords):
        """Multivector with the given sparse coordinates.

        Raises KeyError for a position outside 0..len - 1.
        """
        comps = {}
        for position, coeff in coords.items():
            idx, mono = self.element(position)
            comps.setdefault(idx, {})[mono] = coeff
        return MultiVector(self.q, {idx: Polynomial(terms) for idx, terms in comps.items()})


class OperatorCell:
    """Matrix of a graded operator on one (q, d) cochain space.

    The matrix is columns / den, with int columns.  A cell read off the
    stencil of a linear operator builds only what is read, as its reader
    reads it, and keeps nothing: all `columns`, one `column(j)`, only the
    `columns_at(positions)`, and `leads(skip, p)` or `rows(free, at)` with
    no column built.  Its stencil is `linear_stencil`'s list of each source
    component's entries, highest row first.  A cell made with a list of
    columns reads it the same ways; on other bases its source and target
    are None.
    """

    __slots__ = ("source", "target", "den", "_columns", "_stencil")

    def __init__(self, source, target, columns, den, stencil=None):
        self.source, self.target, self.den = source, target, den
        self._columns = columns
        self._stencil = stencil  # the entries of each source component, or None

    def __len__(self):
        return len(self._columns) if self._stencil is None else len(self.source)

    @property
    def columns(self):
        if self._stencil is None:
            return self._columns
        return list(self._built(range(len(self))).values())

    def column(self, j):
        """Column j; a cell read off a stencil builds it alone (`_column`), from
        the component and monomial of source element j."""
        if self._stencil is None:
            return self._columns[j]
        idx, (mx, my, mz) = self.source.element(j)
        return _column(self._stencil[idx], self.source.d - mz, mx, my, mz, NCOMP[self.target.q])

    def columns_at(self, positions):
        """{j: column j} for the positions in the set `positions`, by ascending
        j; no other column is built.  A cell read off a stencil walks its
        monomials only from the s block of the lowest position to the
        highest (`_built`): a restriction's positions lie at s = d - 1 and d.
        Raises KeyError for a position outside the source basis."""
        columns = ({j: col for j, col in enumerate(self._columns) if j in positions}
                   if self._stencil is None else self._built(positions))
        if len(columns) != len(positions):
            raise KeyError(sorted(set(positions) - columns.keys()))
        return columns

    def kills(self, vector):
        """True when the cell maps the coordinate vector `vector` ({position:
        coefficient}) to 0; only the columns at its support are built
        (`columns_at`).  On the q = 3 cell of `differential_matrix`, whose
        columns are all 0, every vector is killed."""
        return not linalg.matvec(self.columns_at(set(vector)), vector)

    def leads(self, skip, p):
        """(j, the highest row at which column j is nonzero mod p, or None)
        for each position j not in `skip`, last first.  Off a stencil no
        column is built: the lead is `_column`'s row of the first entry (the
        stencil holds them highest row first) whose form a . m + b is
        nonzero mod p."""
        if self._stencil is None:
            for j in range(len(self) - 1, -1, -1):
                if j not in skip:
                    col = self._columns[j]
                    lead = max(col, default=None)
                    if lead is not None and not col[lead] % p:
                        lead = max((i for i, c in col.items() if c % p), default=None)
                    yield j, lead
            return
        d, ncomp, stencil, j = self.source.d, NCOMP[self.target.q], self._stencil[::-1], len(self)
        for s in range(d, -1, -1):
            mz = d - s
            for mx in range(s, -1, -1):
                my = s - mx
                for entries in stencil:
                    j -= 1
                    if j in skip:
                        continue
                    lead = None
                    for t, (sx, _, sz), (ax, ay, az, b) in entries:
                        if (ax * mx + ay * my + az * mz + b) % p:
                            r = s - sz
                            lead = (r * (r + 1) // 2 + mx + sx) * ncomp + t
                            break
                    yield j, lead

    def rows(self, free=(), at=None, start=0):
        """`linalg.lay_out` of the columns with those in `free` left out, and
        only its rows at the row indices in `at` when `at` is not None; a
        cell read off a stencil writes them with no column built, and writes
        no other row, and a stencil with no entry (d_3, or pi = 0) walks no
        position.  Off a stencil whose entries lower s = d - m_z by 0 or
        1 (where z is a Casimir), the rows of the target blocks s >= `start`
        are kept, written by a walk of the source blocks from `start` on; an
        entry that raises s would write into block `start` from the block
        below, which the walk leaves out, so with start > 0 such a stencil
        raises ValueError."""
        if start and any(sz < 0 for entries in self._stencil or ()
                         for _, (_, _, sz), _ in entries):
            raise ValueError("rows from block %d would drop the entries that raise s "
                             "into it" % (start,))
        if self._stencil is None:
            index, rows = linalg.lay_out(self._columns, free)
            if at is None:
                return index, rows
            kept = [k for k, i in enumerate(index) if i in at]
            return [index[k] for k in kept], [rows[k] for k in kept]
        if not any(self._stencil):
            return [], []
        rows = {} if at is None else {i: {} for i in at}  # `at`: no row is added
        # `_column`'s arithmetic in basis order, each entry written into its row
        d, ncomp, per = self.source.d, NCOMP[self.target.q], len(self._stencil)
        j = start * (start + 1) // 2 * per - 1
        for s in range(start, d + 1):
            mz = d - s
            for mx in range(s + 1):
                my = s - mx
                for entries in self._stencil:
                    j += 1
                    if j in free:
                        continue
                    k = ~j
                    for t, (sx, _, sz), (ax, ay, az, b) in entries:
                        if c := ax * mx + ay * my + az * mz + b:
                            r = s - sz
                            i = (r * (r + 1) // 2 + mx + sx) * ncomp + t
                            if (row := rows.get(i)) is not None:
                                row[k] = c
                            elif at is None:
                                rows[i] = {k: c}
        first = start * (start + 1) // 2 * ncomp  # the first row of target block `start`
        index = sorted(i for i, row in rows.items() if row and i >= first)
        return index, [rows[i] for i in index]

    def _built(self, positions):
        """{j: column j} for the source positions j in `positions`, by ascending j.

        The walk starts at the s block of the lowest position, T(s) *
        binom(3, q) with s read off it as in `GradedBasis.element`, and stops
        after the monomial of the highest."""
        if not positions:
            return {}
        d, ncomp, per, columns = self.source.d, NCOMP[self.target.q], len(self._stencil), {}
        first, last = max(min(positions), 0), max(positions)
        start = (isqrt(8 * (first // per) + 1) - 1) // 2
        j = start * (start + 1) // 2 * per - 1
        for s in range(start, d + 1):
            for mx in range(s + 1):
                for entries in self._stencil:
                    j += 1
                    if j in positions:
                        columns[j] = _column(entries, s, mx, s - mx, d - s, ncomp)
                if j >= last:
                    return columns
        return columns


def _column(entries, s, mx, my, mz, ncomp):
    """Column (T(s) + m_x) * binom(3, q) + idx, of x^m xi_idx, s = d - m_z and
    T(s) = s(s + 1)/2: a . m + b, if not 0, for each stencil entry (t, shift,
    (a, b)) of idx, at x^(m + shift) xi_t, row (T(s - shift_z) + m_x + shift_x)
    * binom(3, out_q) + t, where the stencil was checked to keep it."""
    col = {}
    for t, (sx, _, sz), (ax, ay, az, b) in entries:
        if c := ax * mx + ay * my + az * mz + b:
            r = s - sz
            col[(r * (r + 1) // 2 + mx + sx) * ncomp + t] = c
    return col


def linear_operator_matrix(operator, q, d):
    """Matrix of V -> [operator, V] on the (q, d) basis, for a linear operator.

    Read off `linear_stencil` as the cell is read; within
    `holding_stencils` of the operator, the stencil derived the first time
    is kept for every later cell.  Raises DegreeError
    unless the operator's coefficients are all homogeneous linear; the zero
    operator is.
    """
    source = GradedBasis(q, d)
    out_q = q + operator.degree - 1
    if not 0 <= out_q <= 3:
        raise ValueError("operator maps degree %d outside 0..3" % (q,))
    stencil, den = _read_stencil(operator, q)
    return OperatorCell(source, GradedBasis(out_q, d), None, den, stencil)


_HELD = []  # (operator, {q: (stencil, den)}) of each hold, innermost last


@contextmanager
def holding_stencils(operator):
    """Within it, `linear_operator_matrix` reads each stencil of this operator
    object once, where `linear_stencil` derives and checks it on every call.
    It is the one stencil cache: a table, or `verify`, builds cells at every
    (q, d) of one bivector, which nothing changes while it is held; a nested
    hold of the same object shares the outermost's stencils, and a later
    hold derives them again from the value.
    """
    _HELD.append((operator, {}))
    try:
        yield
    finally:
        _HELD.pop()


def _read_stencil(operator, q):
    """`linear_stencil(operator, q)`, read once for each q while the operator
    is held."""
    for held, stencils in _HELD:
        if held is operator:
            if q not in stencils:
                stencils[q] = linear_stencil(operator, q)
            return stencils[q]
    return linear_stencil(operator, q)


def check_bivector(pi):
    if pi.degree != 2:
        raise ValueError("differential needs a bivector, got degree %d" % (pi.degree,))


def differential_matrix(pi, q, d):
    """Matrix of the complex differential [pi, .] : (q, d) -> (q+1, d).

    For q = 3 the target space is taken at degree 3 and the stencil is
    empty, so every column is zero and chaining q and q+1 stays uniform
    for the rank bookkeeping upstream.
    """
    check_bivector(pi)
    if q == 3:
        basis = GradedBasis(3, d)
        return OperatorCell(basis, basis, None, 1, [[]])
    return linear_operator_matrix(pi, q, d)


def poisson_differential(pi, value):
    """The differential applied to one multivector: [pi, value]."""
    check_bivector(pi)
    return schouten_bracket(pi, value)


def closed_form_differential(pi, value):
    """Differential computed from closed-form component formulas.

    Only valid for bivectors pi = (P dx + Q dy) ^ dz with P, Q independent
    of z.  This is a deliberately independent route from the bracket
    machinery; tests compare the two on random inputs.
    """
    if pi.degree != 2 or pi.component(2):
        raise ValueError("closed form needs a bivector with no dx^dy part")
    p = -pi.component(1)
    q = pi.component(0)
    if p.diff(2) or q.diff(2):
        raise ValueError("closed form needs z-independent coefficients")

    def along(h):  # directional derivative along P dx + Q dy
        return p * h.diff(0) + q * h.diff(1)

    if value.degree == 0:
        g = value.component(0)
        gz = g.diff(2)
        return MultiVector.vector(gz * p, gz * q, -along(g))
    if value.degree == 1:
        a, b, c = (value.component(i) for i in range(3))
        wx = along(b) - a * q.diff(0) - b * q.diff(1) + q * c.diff(2)
        wy = -along(a) + a * p.diff(0) + b * p.diff(1) - p * c.diff(2)
        wz = p * b.diff(2) - q * a.diff(2)
        return MultiVector.bivector(wx, wy, wz)
    if value.degree == 2:
        wx, wy, wz = (value.component(i) for i in range(3))
        coeff = p * wx.diff(2) + q * wy.diff(2) + (p.diff(0) + q.diff(1)) * wz - along(wz)
        return MultiVector.trivector(coeff)
    return MultiVector.zero(3)


def rotation_field():
    """Infinitesimal rotation of the (x, y)-plane: -y dx + x dy."""
    return MultiVector.vector(
        Polynomial.monomial((0, 1, 0), -1), Polynomial.variable("x"), Polynomial.zero()
    )


def _invariant_generators(sign):
    """Terms (idx, exponents, int coefficient) of the generators of each q,
    with R = -sign y dx + x dy."""
    dx, dy, dz = (MultiVector.basis(1, axis) for axis in range(3))
    x, y = Polynomial.variable("x"), Polynomial.variable("y")
    euler, rotation = dx * x + dy * y, dy * x - dx * y * sign
    return tuple([[(idx, mono, int(c)) for idx, poly in g.components.items()
                   for mono, c in poly.terms.items()] for g in generators]
                 for generators in ([MultiVector.scalar(1)], [euler, rotation, dz],
                                    [wedge(dx, dy), wedge(euler, dz), wedge(rotation, dz)],
                                    [wedge(wedge(dx, dy), dz)]))


_INVARIANT_GENERATORS = {sign: _invariant_generators(sign) for sign in (1, -1)}
_NEW_INVARIANT_VECTORS = {}  # (q, d, sign): the vectors new at d, a tuple no caller changes


def new_invariant_vectors(q, d, sign=1):
    """The rotation-invariant vectors of (q, d) that no lower degree holds,
    or with sign=-1 those the hyperbolic field y dx + x dy kills.

    The kernel of the rotation Lie derivative on (q, d) is free over
    Q[x^2 + y^2, z] on 1; E = x dx + y dy, R = `rotation_field`, dz;
    dx^dy, E^dz, R^dz; dx^dy^dz, and none of these generators g holds z.
    That of the hyperbolic field, whose eigenvectors are x + y and x - y,
    is the same family with x^2 - y^2 for x^2 + y^2 and R = y dx + x dy:
    (x^2 + sign y^2)^a has coefficient comb(a, t) sign^(a - t) at x^(2t)
    y^(2(a - t)).
    z times a vector of degree d - 1 sits at the same positions of
    GradedBasis(q, d) (`GradedBasis.position`: raising the z exponent k
    and d together keeps s = d - k), so (x^2 +- y^2)^a z^b g of degree d is
    the vector (x^2 +- y^2)^a g of degree d - b.  The vectors new at degree
    d are those with b = 0: one for each generator with d - deg g even, at
    a = (d - deg g) / 2, all at s = d, the positions |C_(d-1)|..|C_d| - 1
    after every older vector.  Each is +-1 at its top coordinate (listed
    first), where no other is nonzero, and they are sorted by it.  The
    generators' coefficients are +-1 and comb(a, a) is 1, so each vector is
    already primitive; only its sign is fixed, to make it positive at its
    lowest coordinate.  Each (q, d, sign) is built once, and the same tuple
    is returned every time after.
    """
    key = q, d, sign
    if (found := _NEW_INVARIANT_VECTORS.get(key)) is not None:
        return found
    basis = GradedBasis(q, d)
    vectors = []
    for terms in _INVARIANT_GENERATORS[sign][q]:
        a, odd = divmod(d - sum(terms[0][1]), 2)
        if a < 0 or odd:
            continue
        entries = []
        for idx, (i, j, k), c in terms:
            entries += [(basis.position(idx, (i + 2 * t, j + 2 * (a - t), k)),
                         c * comb(a, t) * sign ** (a - t)) for t in range(a + 1)]
        entries.sort()
        positive = -1 if entries[0][1] < 0 else 1
        top = entries.pop()
        vectors.append((top[0], {j: positive * c for j, c in [top] + entries}))
    found = _NEW_INVARIANT_VECTORS[key] = tuple(vec for _, vec in sorted(vectors))
    return found


def invariant_basis(q, d):
    """Canonical basis of the rotation-invariant subspace of (q, d).

    Returns (basis, vectors): the ambient GradedBasis and a list of sparse
    int vectors spanning the kernel of the rotation Lie derivative, the
    products (x^2 + y^2)^a z^b g of degree d of its generators g.  They are
    the `new_invariant_vectors` of each degree e <= d, in turn: z^(d - e)
    times a vector new at e has its positions at degree d, and those of
    each e lie after every lower e's.  So they are sorted by their top
    coordinate, +-1 and listed first, where no other is nonzero: the
    reduced kernel basis an elimination would give.
    """
    return GradedBasis(q, d), [dict(vec) for e in range(d + 1)
                               for vec in new_invariant_vectors(q, e)]
