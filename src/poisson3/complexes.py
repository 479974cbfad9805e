"""Graded cochain complexes of polynomial multivector fields.

A linear bivector preserves the polynomial coefficient degree, so for each
multivector degree q and coefficient degree d the span of basis cochains
(monomial times wedge generator) is finite and the differential restricts to
a map between neighbouring q at fixed d.  This module enumerates those bases
and builds the exact matrices of the differential and of Lie-derivative
operators; the cohomology module reduces them.

Matrices and invariant sub-bases are read off closed forms (monomial order,
basis positions, an integer stencil of the operator, invariant generators)
with no bracket or elimination.  `operator_matrix`, a Schouten bracket per
column, is kept as the independent route the stencil is tested against.
"""

from math import comb

from .linalg import integer_normalize
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
    binom(3, q) * (d+1)(d+2)/2 is a closed form.  The element list is built on
    first use of `elements`, iteration or `reconstruct`, so a basis that only
    sizes a matrix or maps positions never builds it.
    """

    __slots__ = ("q", "d", "_elements")

    def __init__(self, q, d):
        if q not in (0, 1, 2, 3):
            raise ValueError("cochain degree must be 0..3, got %r" % (q,))
        if d < 0:
            raise ValueError("coefficient degree must be >= 0, got %r" % (d,))
        self.q = q
        self.d = d
        self._elements = None

    @property
    def elements(self):
        if self._elements is None:
            self._elements = [
                (idx, mono) for mono in monomials(self.d) for idx in range(NCOMP[self.q])
            ]
        return self._elements

    def __len__(self):
        return NCOMP[self.q] * (self.d + 1) * (self.d + 2) // 2

    def __iter__(self):
        return iter(self.elements)

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
            if not 0 <= position < len(self):
                raise KeyError(position)
            idx, mono = self.elements[position]
            comps.setdefault(idx, {})[mono] = coeff
        return MultiVector(self.q, {idx: Polynomial(terms) for idx, terms in comps.items()})


class OperatorCell:
    """Matrix of a graded operator on one (q, d) cochain space.

    The matrix is columns / den: int columns for the stencil-built cells,
    Fraction columns and den 1 for the `operator_matrix` oracle.
    """

    __slots__ = ("source", "target", "columns", "den")

    def __init__(self, source, target, columns, den):
        self.source = source
        self.target = target
        self.columns = columns
        self.den = den


def operator_matrix(operator, q, d):
    """Matrix of V -> [operator, V] on the (q, d) basis.

    The bracket lowers the total coefficient degree by one, so the operator
    preserves the grading exactly when its own coefficients are homogeneous
    linear.  Any violation surfaces as a DegreeError when an image is
    decomposed in the target basis.
    """
    source = GradedBasis(q, d)
    out_q = q + operator.degree - 1
    if not 0 <= out_q <= 3:
        raise ValueError("operator maps degree %d outside 0..3" % (q,))
    target = GradedBasis(out_q, d)
    columns = []
    for position in range(len(source)):
        image = schouten_bracket(operator, source.reconstruct({position: 1}))
        columns.append(target.decompose(image))
    return OperatorCell(source, target, columns, den=1)


_CHECKED = {}  # out_q -> the last stencil table `_check_stencil` passed


def _check_stencil(table, out_q):
    """Raise ValueError if a kept stencil entry could leave the target basis.

    An entry (t, shift, form) stays in the degree-out_q basis at every
    source monomial when component t exists there, the shift sums to 0 (the
    total degree is kept) and each axis a it lowers is lowered by one and
    carries the form c m_a, with no other axis and no constant: the value
    is then 0, and the entry skipped, wherever m_a = 0.  Stencils are never
    written, so the last table passed for each out_q is not checked again.
    """
    if _CHECKED.get(out_q) is table:
        return
    for idx, entries in table.items():
        for t, shift, form in entries:
            if not (0 <= t < NCOMP[out_q] and sum(shift) == 0 and all(
                    shift[a] == -1 and not any(form[:a] + form[a + 1:])
                    for a in range(3) if shift[a] < 0)):
                raise ValueError("stencil entry %r of component %d leaves the degree-%d basis"
                                 % ((t, shift, form), idx, out_q))
    _CHECKED[out_q] = table


def linear_operator_matrix(operator, q, d):
    """Matrix of V -> [operator, V] on the (q, d) basis, for a linear operator.

    The same matrix as `operator_matrix`, read off `linear_stencil`: the
    column of x^m xi_idx holds the int a . m + b (over the cell's den) at row
    x^(m + shift) xi_t for each stencil entry (t, shift, (a, b)), skipped
    where that value is 0.  With s = d - m_z and T(s) = s(s + 1)/2, that row
    is (T(s - shift_z) + m_x + shift_x) * binom(3, out_q) + t, the position
    of x^(m + shift) xi_t in the target basis.  `_check_stencil` makes sure
    once per stencil, before any column, that every kept entry lands in that
    basis.  Raises DegreeError unless the operator's coefficients are all
    homogeneous linear; the zero operator is.
    """
    source = GradedBasis(q, d)
    out_q = q + operator.degree - 1
    if not 0 <= out_q <= 3:
        raise ValueError("operator maps degree %d outside 0..3" % (q,))
    target = GradedBasis(out_q, d)
    table, den = linear_stencil(operator, q)
    _check_stencil(table, out_q)
    ncomp = NCOMP[out_q]
    stencil = [table[idx] for idx in range(NCOMP[q])]
    columns = []
    for s in range(d + 1):  # the source monomials in basis order: z^(d - s), then x^i
        mz = d - s
        for mx in range(s + 1):
            my = s - mx
            for entries in stencil:
                col = {}
                for t, (sx, _, sz), (ax, ay, az, b) in entries:
                    c = ax * mx + ay * my + az * mz + b
                    if c:
                        r = s - sz
                        col[(r * (r + 1) // 2 + mx + sx) * ncomp + t] = c
                columns.append(col)
    return OperatorCell(source, target, columns, den)


def differential_matrix(pi, q, d):
    """Matrix of the complex differential [pi, .] : (q, d) -> (q+1, d).

    For q = 3 the target space is taken at degree 3 with zero columns, so
    chaining q and q+1 stays uniform for the rank bookkeeping upstream.
    """
    if pi.degree != 2:
        raise ValueError("differential needs a bivector, got degree %d" % (pi.degree,))
    if q == 3:
        basis = GradedBasis(3, d)
        return OperatorCell(basis, basis, [{} for _ in range(len(basis))], den=1)
    return linear_operator_matrix(pi, q, d)


def poisson_differential(pi, value):
    """The differential applied to one multivector: [pi, value]."""
    if pi.degree != 2:
        raise ValueError("differential needs a bivector, got degree %d" % (pi.degree,))
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
    kernel basis an elimination would give.
    """
    basis = GradedBasis(q, d)
    vectors = []
    for terms in _INVARIANT_GENERATORS[q]:
        e = sum(terms[0][1])
        for a in range((d - e) // 2 + 1):
            entries = sorted(
                (basis.position(idx, (i + 2 * t, j + 2 * (a - t), k + d - e - 2 * a)), c * comb(a, t))
                for idx, (i, j, k), c in terms for t in range(a + 1))
            vectors.append(integer_normalize(dict(entries[-1:] + entries[:-1])))
    return basis, sorted(vectors, key=max)


def invariant_multivectors(q, d):
    """The invariant sub-basis as multivectors."""
    basis, vectors = invariant_basis(q, d)
    return [basis.reconstruct(v) for v in vectors]
