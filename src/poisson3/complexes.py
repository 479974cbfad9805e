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

from math import comb, lcm

from .linalg import integer_normalize
from .multivector import (
    MultiVector,
    NCOMP,
    Polynomial,
    _FROM_SUBSET,
    _TO_SUBSET,
    _merge_subsets,
    _right_derivatives,
    schouten_bracket,
    wedge,
)


class DegreeError(ValueError):
    """An operator failed to preserve the coefficient grading."""


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
    (leading first, as in `monomials`) and then by component index; size is
    binom(3, q) * (d+1)(d+2)/2.
    """

    __slots__ = ("q", "d", "elements")

    def __init__(self, q, d):
        if q not in (0, 1, 2, 3):
            raise ValueError("cochain degree must be 0..3, got %r" % (q,))
        if d < 0:
            raise ValueError("coefficient degree must be >= 0, got %r" % (d,))
        self.q = q
        self.d = d
        self.elements = [
            (idx, mono) for mono in monomials(d) for idx in range(NCOMP[q])
        ]

    def __len__(self):
        return len(self.elements)

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
            if not 0 <= position < len(self.elements):
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


def _stencil(operator, q):
    """Closed form of V -> [operator, V] on the degree-q components.

    The operator is a sum of terms c x_k xi_S over anticommuting symbols,
    and [A, B] = A*B - (-1)^((a-1)(b-1)) B*A with A*B as in `multivector`.
    On B = x^m xi_T, the A*B part strips xi_i from S and differentiates
    x^m, a term at x^(m + e_k - e_i) with coefficient linear in m_i; the B*A
    part strips xi_i from T and differentiates x_k, a constant at x^m when
    i == k.  Summed per (target component, monomial shift), each coefficient
    is an affine form a . m + b.

    Returns ({source idx: [(target idx, shift, (ax, ay, az, b))]}, den): den
    is the lcm of the operator's coefficient denominators and the forms are
    ints over it.  Raises DegreeError unless every coefficient of the
    operator is homogeneous linear.
    """
    den = lcm(*(c.denominator for poly in operator.components.values()
                for c in poly.terms.values()))
    terms = []  # (symbol subset, k, int coefficient of x_k xi_subset)
    for idx, poly in operator.components.items():
        subset, sign = _TO_SUBSET[(operator.degree, idx)]
        for mono, coeff in poly.terms.items():
            if sum(mono) != 1:
                raise DegreeError(
                    "operator coefficient monomial %r is not linear" % (mono,))
            terms.append((subset, mono.index(1), sign * coeff.numerator * den // coeff.denominator))
    b_sign = 1 if (operator.degree - 1) * (q - 1) % 2 else -1
    forms = {}  # (source idx, target idx, shift) -> [ax, ay, az, b]

    def add(idx, left, right, coeff, shift, slot):
        merged = _merge_subsets(left, right)
        if merged is not None:
            subset, merge_sign = merged
            _, target_idx, target_sign = _FROM_SUBSET[subset]
            form = forms.setdefault((idx, target_idx, shift), [0, 0, 0, 0])
            form[slot] += merge_sign * target_sign * coeff

    for idx in range(NCOMP[q]):
        source, source_sign = _TO_SUBSET[(q, idx)]
        for subset, k, c in terms:
            c *= source_sign
            for i, rest, sign in _right_derivatives(subset):  # A*B
                add(idx, rest, source, sign * c, tuple((j == k) - (j == i) for j in range(3)), i)
            for i, rest, sign in _right_derivatives(source):  # B*A
                if i == k:
                    add(idx, rest, subset, b_sign * sign * c, (0, 0, 0), 3)
    table = {idx: [] for idx in range(NCOMP[q])}
    for (idx, target_idx, shift), form in forms.items():
        if any(form):
            table[idx].append((target_idx, shift, tuple(form)))
    return table, den


def linear_operator_matrix(operator, q, d):
    """Matrix of V -> [operator, V] on the (q, d) basis, for a linear operator.

    The same matrix as `operator_matrix`, read off `_stencil`: the column of
    x^m xi_idx holds the int a . m + b (over the cell's den) at row
    x^(m + shift) xi_target for each stencil entry, skipped where that value
    is 0 (which includes every shift that would lower a zero exponent).
    Raises DegreeError unless the operator's coefficients are all
    homogeneous linear; the zero operator is.
    """
    source = GradedBasis(q, d)
    out_q = q + operator.degree - 1
    if not 0 <= out_q <= 3:
        raise ValueError("operator maps degree %d outside 0..3" % (q,))
    target = GradedBasis(out_q, d)
    table, den = _stencil(operator, q)
    row = target.position
    columns = []
    for idx, (mx, my, mz) in source.elements:
        col = {}
        for target_idx, (sx, sy, sz), (ax, ay, az, b) in table[idx]:
            c = ax * mx + ay * my + az * mz + b
            if c:
                col[row(target_idx, (mx + sx, my + sy, mz + sz))] = c
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
    euler = MultiVector.vector(Polynomial.variable("x"), Polynomial.variable("y"), Polynomial.zero())
    rotation, dz = rotation_field(), MultiVector.basis(1, 2)
    return tuple([[(idx, mono, int(c)) for idx, poly in g.components.items()
                   for mono, c in poly.terms.items()] for g in generators]
                 for generators in ([MultiVector.basis(0, 0)], [euler, rotation, dz],
                                    [MultiVector.basis(2, 2), wedge(euler, dz), wedge(rotation, dz)],
                                    [MultiVector.basis(3, 0)]))


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
