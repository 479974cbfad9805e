"""Graded cochain complexes of polynomial multivector fields.

A linear bivector preserves the polynomial coefficient degree, so for each
multivector degree q and coefficient degree d the span of basis cochains
(monomial times wedge generator) is finite and the differential restricts to
a map between neighbouring q at fixed d.  This module enumerates those bases
and builds the exact matrices of the differential and of Lie-derivative
operators; the cohomology module reduces them.

Matrices and invariant sub-bases are read off closed forms (monomial order,
basis positions, an integer stencil of the operator, invariant generators)
with no bracket or elimination; a subspace that needs only some columns of
a differential builds only those, in the same loop.  The tests hold the
independent route the stencil is checked against, a Schouten bracket per
column.
"""

from math import comb, isqrt

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
    closed forms.  `elements` and iteration enumerate `monomials(d)` on each
    call and keep nothing.
    """

    __slots__ = ("q", "d")

    def __init__(self, q, d):
        if q not in (0, 1, 2, 3):
            raise ValueError("cochain degree must be 0..3, got %r" % (q,))
        if d < 0:
            raise ValueError("coefficient degree must be >= 0, got %r" % (d,))
        self.q = q
        self.d = d

    @property
    def elements(self):
        return list(self)

    def __len__(self):
        return NCOMP[self.q] * (self.d + 1) * (self.d + 2) // 2

    def __iter__(self):
        return ((idx, mono) for mono in monomials(self.d) for idx in range(NCOMP[self.q]))

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

    The matrix is columns / den, with int columns.
    """

    __slots__ = ("source", "target", "columns", "den")

    def __init__(self, source, target, columns, den):
        self.source = source
        self.target = target
        self.columns = columns
        self.den = den


def linear_operator_matrix(operator, q, d):
    """Matrix of V -> [operator, V] on the (q, d) basis, for a linear operator.

    Read off `linear_stencil` by `_stencil_columns`.  Raises DegreeError
    unless the operator's coefficients are all homogeneous linear; the zero
    operator is.
    """
    source = GradedBasis(q, d)
    out_q = q + operator.degree - 1
    if not 0 <= out_q <= 3:
        raise ValueError("operator maps degree %d outside 0..3" % (q,))
    table, den = linear_stencil(operator, q)
    return OperatorCell(source, GradedBasis(out_q, d),
                        _stencil_columns(table, q, d, out_q, None), den)


def _stencil_columns(table, q, d, out_q, support):
    """The columns of a stencil's (q, d) matrix, at the source positions in
    `support` only (all of them when it is None), in basis order.

    The column of x^m xi_idx holds the int a . m + b (over the stencil's
    den) at row x^(m + shift) xi_t for each stencil entry (t, shift,
    (a, b)), skipped where that value is 0.  With s = d - m_z and
    T(s) = s(s + 1)/2, that row is (T(s - shift_z) + m_x + shift_x) *
    binom(3, out_q) + t, the position of x^(m + shift) xi_t in the target
    basis; the stencil was checked, when it was derived, to keep every such
    entry in that basis.
    """
    ncomp = NCOMP[out_q]
    stencil = [table[idx] for idx in range(NCOMP[q])]
    columns = []
    position = -1
    for s in range(d + 1):  # the source monomials in basis order: z^(d - s), then x^i
        mz = d - s
        for mx in range(s + 1):
            my = s - mx
            for entries in stencil:
                position += 1
                if support is not None and position not in support:
                    continue
                col = {}
                for t, (sx, _, sz), (ax, ay, az, b) in entries:
                    c = ax * mx + ay * my + az * mz + b
                    if c:
                        r = s - sz
                        col[(r * (r + 1) // 2 + mx + sx) * ncomp + t] = c
                columns.append(col)
    return columns


def _check_bivector(pi):
    if pi.degree != 2:
        raise ValueError("differential needs a bivector, got degree %d" % (pi.degree,))


def differential_matrix(pi, q, d):
    """Matrix of the complex differential [pi, .] : (q, d) -> (q+1, d).

    For q = 3 the target space is taken at degree 3 with zero columns, so
    chaining q and q+1 stays uniform for the rank bookkeeping upstream.
    """
    _check_bivector(pi)
    if q == 3:
        basis = GradedBasis(3, d)
        return OperatorCell(basis, basis, [{} for _ in range(len(basis))], den=1)
    return linear_operator_matrix(pi, q, d)


def differential_columns(pi, q, d, support):
    """The columns of `differential_matrix(pi, q, d)`, q <= 2, at the source
    positions in the set `support` only, keyed by position.

    No other column is built: a subcomplex whose vectors touch few
    coordinates pays only for those.  Raises KeyError for a position
    outside the (q, d) basis.
    """
    _check_bivector(pi)
    columns = _stencil_columns(linear_stencil(pi, q)[0], q, d, q + 1, support)
    if len(columns) != len(support):
        raise KeyError(sorted(support))
    return dict(zip(sorted(support), columns))


def poisson_differential(pi, value):
    """The differential applied to one multivector: [pi, value]."""
    _check_bivector(pi)
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


def _invariant_generators():
    """Terms (idx, exponents, int coefficient) of the generators of each q."""
    dx, dy, dz = (MultiVector.basis(1, axis) for axis in range(3))
    euler, rotation = dx * Polynomial.variable("x") + dy * Polynomial.variable("y"), rotation_field()
    return tuple([[(idx, mono, int(c)) for idx, poly in g.components.items()
                   for mono, c in poly.terms.items()] for g in generators]
                 for generators in ([MultiVector.scalar(1)], [euler, rotation, dz],
                                    [wedge(dx, dy), wedge(euler, dz), wedge(rotation, dz)],
                                    [wedge(wedge(dx, dy), dz)]))


_INVARIANT_GENERATORS = _invariant_generators()


def invariant_basis(q, d):
    """Canonical basis of the rotation-invariant subspace of (q, d).

    Returns (basis, vectors): the ambient GradedBasis and a list of sparse
    int vectors spanning the kernel of the rotation Lie derivative, which is
    free over Q[x^2 + y^2, z] on 1; E = x dx + y dy, R = `rotation_field`,
    dz; dx^dy, E^dz, R^dz; dx^dy^dz.  The vectors are the products
    (x^2 + y^2)^a z^b g of degree d, each +-1 at its top coordinate (listed
    first), where no other is nonzero: sorted by it, they are the reduced
    kernel basis an elimination would give.  Each entry sits at the closed
    form of `GradedBasis.position`.  The generators' coefficients are +-1
    and comb(a, 0) is 1, so each vector is already primitive; only its sign
    is fixed, to make it positive at its lowest coordinate.
    """
    basis = GradedBasis(q, d)
    ncomp = NCOMP[q]
    vectors = []
    for terms in _INVARIANT_GENERATORS[q]:
        e = sum(terms[0][1])
        for a in range((d - e) // 2 + 1):
            entries = []
            for idx, (i, _, k), c in terms:
                s = e - k + 2 * a  # d less the z exponent k + d - e - 2a of the product
                entries += [((s * (s + 1) // 2 + i + 2 * t) * ncomp + idx, c * comb(a, t))
                            for t in range(a + 1)]
            entries.sort()
            sign = -1 if entries[0][1] < 0 else 1
            top = entries.pop()
            vectors.append((top[0], {j: sign * c for j, c in [top] + entries}))
    return basis, [vec for _, vec in sorted(vectors)]
