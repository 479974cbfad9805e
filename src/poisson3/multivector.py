"""Exact multivector calculus on R^3 with polynomial coefficients.

Scalars are rational (fractions.Fraction), so every computation downstream is
exact: no tolerances anywhere.  A multivector of degree q is a polynomial
combination of wedge products of the coordinate vector fields dx, dy, dz.
Components are stored against a fixed basis per degree:

    degree 0:  1
    degree 1:  dx, dy, dz
    degree 2:  dy^dz, dz^dx, dx^dy      (cyclic order)
    degree 3:  dx^dy^dz

The graded bracket is computed through an odd-coordinate representation:
dx, dy, dz become anticommuting symbols, and

    [A, B] = A*B - (-1)^((a-1)(b-1)) B*A,
    A*B    = sum_i (right derivative of A by symbol i) ^ (d/dx_i B).

With this convention the bracket of two vector fields is the usual Lie
bracket and [P, f] for a bivector P is the Hamiltonian field pairing used
throughout the package.  `linear_stencil` is the same bracket specialised to
an operator with linear coefficients, in closed form.

This module is the only one that maps component indices to wedge generators
and signs, through sign tables built once at import; other modules build
fields with `wedge` or `wedge_component` and read them through
`component_wedge` or `MultiVector.wedge_terms`.
"""

from fractions import Fraction
from itertools import permutations
from math import lcm

VAR_NAMES = ("x", "y", "z")
VAR_INDEX = {"x": 0, "y": 1, "z": 2}

# component index <-> anticommuting-symbol subset, with conversion sign
_TO_SUBSET = {
    (0, 0): ((), 1),
    (1, 0): ((0,), 1),
    (1, 1): ((1,), 1),
    (1, 2): ((2,), 1),
    (2, 0): ((1, 2), 1),   # dy^dz
    (2, 1): ((0, 2), -1),  # dz^dx = -dx^dz
    (2, 2): ((0, 1), 1),   # dx^dy
    (3, 0): ((0, 1, 2), 1),
}
# the wedge of each sequence of distinct symbols, in its order, as (idx, sign):
# sign times component idx of the degree of its length, the sign of the
# sorting permutation (one swap per inversion) times the component's
_COMPONENT = {gens: (idx, sign * (-1) ** sum(a > b for pos, a in enumerate(gens)
                                            for b in gens[pos + 1:]))
              for (_, idx), (subset, sign) in _TO_SUBSET.items() for gens in permutations(subset)}
# (symbol, remaining subset, sign) for each symbol stripped from the right of a subset
_RIGHT_DERIVATIVES = {subset: [
    (i, subset[:pos] + subset[pos + 1:], (-1) ** (len(subset) - 1 - pos))
    for pos, i in enumerate(subset)] for subset, _ in _TO_SUBSET.values()}

NCOMP = (1, 3, 3, 1)


def component_wedge(degree, idx):
    """(generators, sign) of component idx of the basis of that degree.

    generators is the ascending tuple of axes (0, 1, 2 for dx, dy, dz), and
    the component is sign times their wedge: dz^dx is -(dx^dz).
    """
    return _TO_SUBSET[(degree, idx)]


def wedge_component(gens):
    """(idx, sign) with the wedge of the generators, in their order, equal to
    sign times component idx of degree len(gens); None if a generator repeats.

    The inverse of `component_wedge`: dx^dz is -(dz^dx), so (0, 2) gives (1, -1).
    """
    return _COMPONENT.get(tuple(gens))


class DegreeError(ValueError):
    """An operator failed to preserve the coefficient grading."""


def rational(value):
    """value as an exact Fraction: an int, a Fraction or a str.

    Anything else, a float included, raises TypeError: a float is a binary
    approximation and would silently change the exact answer.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError("expected a rational scalar, got %r" % (value,))


def _var_index(var):
    if var in VAR_INDEX:
        return VAR_INDEX[var]
    if var in (0, 1, 2):
        return var
    raise ValueError("unknown variable %r" % (var,))


def monomial_key(mono):
    """Sort key putting the leading monomial last under ascending sort.

    Graded order first (total degree), then z before y before x.  Callers
    that want the leading term first sort with reverse=True.
    """
    i, j, k = mono
    return (i + j + k, k, j, i)


class Polynomial:
    """Polynomial in x, y, z over the rationals.

    Terms live in a dict mapping exponent triples to nonzero coefficients:

    >>> x = Polynomial.variable("x")
    >>> y = Polynomial.variable("y")
    >>> (x + y) * (x - y) == x**2 - y**2
    True
    >>> (x + y) + (x - y) == 2 * x
    True
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        data = {}
        if terms:
            for mono, coeff in terms.items():
                coeff = rational(coeff)
                if not coeff:
                    continue
                exponents = (int(mono[0]), int(mono[1]), int(mono[2]))
                if exponents != tuple(mono):
                    raise ValueError("non-integral exponent in %r" % (mono,))
                mono = exponents
                if min(mono) < 0:
                    raise ValueError("negative exponent in %r" % (mono,))
                data[mono] = data.get(mono, Fraction(0)) + coeff
                if not data[mono]:
                    del data[mono]
        self.terms = data

    @classmethod
    def _of(cls, terms):
        """The polynomial of `terms`, kept as handed: exact values the
        package built, int exponent triples on nonzero Fractions.  Input from
        outside the package goes through `__init__`, which checks it."""
        out = cls.__new__(cls)
        out.terms = terms
        return out

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def one(cls):
        return cls({(0, 0, 0): 1})

    @classmethod
    def constant(cls, value):
        return cls({(0, 0, 0): rational(value)})

    @classmethod
    def variable(cls, var):
        mono = [0, 0, 0]
        mono[_var_index(var)] = 1
        return cls({tuple(mono): 1})

    @classmethod
    def monomial(cls, mono, coeff=1):
        return cls({tuple(mono): coeff})

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.terms == other.terms

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        data = dict(self.terms)
        for mono, coeff in other.terms.items():
            total = data.get(mono, Fraction(0)) + coeff
            if total:
                data[mono] = total
            elif mono in data:
                del data[mono]
        return Polynomial._of(data)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial._of({mono: -coeff for mono, coeff in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            coeff = rational(other)
            if not coeff:
                return Polynomial.zero()
            return Polynomial._of({mono: c * coeff for mono, c in self.terms.items()})
        if not isinstance(other, Polynomial):
            return NotImplemented
        data = {}
        for (a, b, c), ca in self.terms.items():
            for (d, e, f), cb in other.terms.items():
                mono = (a + d, b + e, c + f)
                total = data.get(mono, Fraction(0)) + ca * cb
                if total:
                    data[mono] = total
                elif mono in data:
                    del data[mono]
        return Polynomial._of(data)

    __rmul__ = __mul__

    def __pow__(self, exponent):
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("polynomial powers must be nonnegative integers")
        out = Polynomial.one()
        for _ in range(exponent):
            out = out * self
        return out

    def diff(self, var):
        """Partial derivative.

        >>> p = Polynomial.variable("x")**2 * Polynomial.variable("y")
        >>> p.diff("x") == 2 * Polynomial.variable("x") * Polynomial.variable("y")
        True
        """
        axis = _var_index(var)
        data = {}
        for mono, coeff in self.terms.items():
            e = mono[axis]
            if e == 0:
                continue
            lowered = list(mono)
            lowered[axis] = e - 1
            data[tuple(lowered)] = coeff * e
        return Polynomial._of(data)

    def evaluate(self, point):
        """Value at a rational point (x, y, z)."""
        px, py, pz = (rational(c) for c in point)
        total = Fraction(0)
        for (i, j, k), coeff in self.terms.items():
            total += coeff * px**i * py**j * pz**k
        return total

    def degree(self):
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(i + j + k for (i, j, k) in self.terms)

    def is_homogeneous(self, degree=None):
        degrees = {i + j + k for (i, j, k) in self.terms}
        if degree is None:
            return len(degrees) <= 1
        return degrees <= {degree}

    def __repr__(self):
        return "Polynomial(%r)" % (self.terms,)


def _coerce_poly(value):
    if isinstance(value, Polynomial):
        return value
    return Polynomial.constant(value)


class MultiVector:
    """Multivector field of fixed degree with Polynomial components."""

    __slots__ = ("degree", "components")

    def __init__(self, degree, components=None):
        if degree not in (0, 1, 2, 3):
            raise ValueError("degree must be 0..3, got %r" % (degree,))
        self.degree = degree
        data = {}
        if components is not None:
            if isinstance(components, dict):
                items = components.items()
            else:
                items = enumerate(components)
            for idx, poly in items:
                if not 0 <= idx < NCOMP[degree]:
                    raise ValueError("component index %r out of range for degree %d" % (idx, degree))
                poly = _coerce_poly(poly)
                if poly:
                    data[idx] = poly
        self.components = data

    @classmethod
    def _of(cls, degree, components):
        """The multivector of degree 0..3 with `components`, kept as handed:
        exact values the package built, nonzero Polynomials at valid indices.
        Input from outside the package goes through `__init__`, which checks
        it."""
        out = cls.__new__(cls)
        out.degree = degree
        out.components = components
        return out

    @classmethod
    def zero(cls, degree=0):
        return cls(degree)

    @classmethod
    def scalar(cls, poly):
        return cls(0, {0: poly})

    @classmethod
    def vector(cls, cx, cy, cz):
        return cls(1, {0: cx, 1: cy, 2: cz})

    @classmethod
    def bivector(cls, c_yz, c_zx, c_xy):
        return cls(2, {0: c_yz, 1: c_zx, 2: c_xy})

    @classmethod
    def trivector(cls, poly):
        return cls(3, {0: poly})

    @classmethod
    def basis(cls, degree, idx):
        return cls(degree, {idx: Polynomial.one()})

    def component(self, idx):
        return self.components.get(idx, Polynomial.zero())

    def is_zero(self):
        return not self.components

    def __bool__(self):
        return bool(self.components)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)) and other == 0:
            return self.is_zero()
        if not isinstance(other, MultiVector):
            return NotImplemented
        if self.is_zero() and other.is_zero():
            return True
        return self.degree == other.degree and self.components == other.components

    def _check_degree(self, other):
        if self.is_zero():
            return other.degree
        if other.is_zero():
            return self.degree
        if self.degree != other.degree:
            raise ValueError("degree mismatch: %d vs %d" % (self.degree, other.degree))
        return self.degree

    def __add__(self, other):
        if not isinstance(other, MultiVector):
            return NotImplemented
        degree = self._check_degree(other)
        data = dict(self.components)
        for idx, poly in other.components.items():
            total = data.get(idx, Polynomial.zero()) + poly
            if total:
                data[idx] = total
            elif idx in data:
                del data[idx]
        return MultiVector._of(degree, data)

    def __neg__(self):
        return MultiVector._of(self.degree, {idx: -poly for idx, poly in self.components.items()})

    def __sub__(self, other):
        if not isinstance(other, MultiVector):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        """Multiplication by a scalar or a Polynomial (degree unchanged)."""
        if isinstance(other, (int, Fraction, Polynomial)):
            factor = other if isinstance(other, Polynomial) else Polynomial.constant(other)
            data = {}
            for idx, poly in self.components.items():
                product = poly * factor
                if product:
                    data[idx] = product
            return MultiVector._of(self.degree, data)
        return NotImplemented

    __rmul__ = __mul__

    def diff(self, var):
        data = {}
        for idx, poly in self.components.items():
            d = poly.diff(var)
            if d:
                data[idx] = d
        return MultiVector._of(self.degree, data)

    def evaluate(self, point):
        """Tuple of component values at a rational point."""
        return tuple(self.component(i).evaluate(point) for i in range(NCOMP[self.degree]))

    def coefficient_degree(self):
        """Max total degree over all coefficient polynomials; -1 if zero."""
        if not self.components:
            return -1
        return max(poly.degree() for poly in self.components.values())

    def is_coefficient_homogeneous(self, degree):
        return all(poly.is_homogeneous(degree) for poly in self.components.values())

    def wedge_terms(self):
        """[(component index, generators, Polynomial)], one per component.

        generators is the ascending tuple of axes (0, 1, 2 for dx, dy, dz)
        of the wedge product, and the Polynomial is its coefficient, the
        component's sign folded in: dz^dx reads as -(dx^dz).
        """
        out = []
        for idx, poly in self.components.items():
            subset, sign = _TO_SUBSET[self.degree, idx]
            out.append((idx, subset, poly if sign == 1 else -poly))
        return out

    def __repr__(self):
        return "MultiVector(%d, %r)" % (self.degree, self.components)


def wedge(a, b):
    """Exterior product.

    >>> dx = MultiVector.basis(1, 0)
    >>> wedge(dx, dx).is_zero()
    True
    """
    if a.degree + b.degree > 3:
        return MultiVector.zero(3)
    out = {}
    for _, sa, pa in a.wedge_terms():
        for _, sb, pb in b.wedge_terms():
            found = _COMPONENT.get(sa + sb)
            if found is not None:
                idx, sign = found
                term = (pa * pb) * sign if sign != 1 else pa * pb
                out[idx] = out.get(idx, Polynomial.zero()) + term
    return MultiVector._of(a.degree + b.degree, {idx: p for idx, p in out.items() if p})


def _interior_sum(p_terms, q_terms, out, sign):
    # out accumulates sign times sum_i (right strip of symbol i from P) ^ (d/dx_i Q)
    for _, sp, fp in p_terms:
        for i, stripped, strip_sign in _RIGHT_DERIVATIVES[sp]:
            for _, sq, fq in q_terms:
                dq = fq.diff(i)
                found = _COMPONENT.get(stripped + sq) if dq else None
                if found is not None:
                    idx, term_sign = found
                    term_sign *= strip_sign * sign
                    term = (fp * dq) * term_sign if term_sign != 1 else fp * dq
                    out[idx] = out.get(idx, Polynomial.zero()) + term


def schouten_bracket(a, b):
    """Graded bracket of multivectors; degree of the result is deg a + deg b - 1.

    Vector fields recover the Lie bracket, and for a bivector P the map
    V |-> schouten_bracket(P, V) is the complex differential used downstream.
    """
    if a.degree == 0 and b.degree == 0:
        return MultiVector.zero(0)
    if a.degree + b.degree - 1 > 3:
        # every 4-vector on a 3-dimensional space vanishes
        return MultiVector.zero(3)
    a_terms = a.wedge_terms()
    b_terms = b.wedge_terms()
    out = {}
    _interior_sum(a_terms, b_terms, out, 1)
    _interior_sum(b_terms, a_terms, out, 1 if (a.degree - 1) * (b.degree - 1) % 2 else -1)
    return MultiVector._of(a.degree + b.degree - 1, {idx: p for idx, p in out.items() if p})


def linear_stencil(operator, q):
    """Closed form of V -> [operator, V] on the degree-q components.

    The operator is a sum of terms c x_k xi_S over anticommuting symbols,
    and [A, B] = A*B - (-1)^((a-1)(b-1)) B*A with A*B as above.
    On B = x^m xi_T, the A*B part strips xi_i from S and differentiates
    x^m, a term at x^(m + e_k - e_i) with coefficient linear in m_i; the B*A
    part strips xi_i from T and differentiates x_k, a constant at x^m when
    i == k.  Summed per (target component, monomial shift), each coefficient
    is an affine form a . m + b.

    Returns (stencil, den): stencil[idx] is the list of (target idx, shift,
    (ax, ay, az, b)) entries of source component idx, by ascending
    `monomial_key` of the shift, then descending target idx, which is the
    order of the rows they reach, highest first; den is the lcm of the
    operator's coefficient denominators and the forms are ints over it.
    Raises DegreeError unless every coefficient of the operator is
    homogeneous linear.  Every entry is checked by `_check_stencil` to stay
    in the target basis.  The stencil depends only on the operator's value
    and q, whatever the order of its components and terms.
    """
    degree = operator.degree
    den = lcm(*(coeff.denominator for poly in operator.components.values()
                for coeff in poly.terms.values()))
    terms = []  # (symbol subset, k, int coefficient of x_k xi_subset)
    for idx, poly in operator.components.items():
        subset, sign = _TO_SUBSET[(degree, idx)]
        for mono, coeff in poly.terms.items():
            if sum(mono) != 1:
                raise DegreeError(
                    "operator coefficient monomial %r is not linear" % (mono,))
            terms.append((subset, mono.index(1), sign * coeff.numerator * den // coeff.denominator))
    b_sign = 1 if (degree - 1) * (q - 1) % 2 else -1
    forms = {}  # (source idx, target idx, shift) -> [ax, ay, az, b]

    def add(idx, left, right, coeff, shift, slot):
        found = _COMPONENT.get(left + right)
        if found is not None:
            form = forms.setdefault((idx, found[0], shift), [0, 0, 0, 0])
            form[slot] += found[1] * coeff

    for idx in range(NCOMP[q]):
        source, source_sign = _TO_SUBSET[(q, idx)]
        for subset, k, c in terms:
            c *= source_sign
            for i, rest, sign in _RIGHT_DERIVATIVES[subset]:  # A*B
                add(idx, rest, source, sign * c, tuple((j == k) - (j == i) for j in range(3)), i)
            for i, rest, sign in _RIGHT_DERIVATIVES[source]:  # B*A
                if i == k:
                    add(idx, rest, subset, b_sign * sign * c, (0, 0, 0), 3)
    stencil = [[] for _ in range(NCOMP[q])]
    for (idx, target_idx, shift), form in sorted(
            forms.items(), key=lambda item: (monomial_key(item[0][2]), -item[0][1])):
        if any(form):
            stencil[idx].append((target_idx, shift, tuple(form)))
    _check_stencil(stencil, q + degree - 1)
    return stencil, den


def _check_stencil(stencil, out_q):
    """Raise ValueError if a stencil entry could leave the degree-out_q basis.

    An entry (t, shift, form) stays in the degree-out_q basis at every
    source monomial when component t exists there, the shift sums to 0 (the
    total degree is kept) and each axis a it lowers is lowered by one and
    carries the form c m_a, with no other axis and no constant: the value
    is then 0, and the entry skipped, wherever m_a = 0.  A stencil whose
    out_q lies outside 0..3 must be empty: the bracket is 0 there.
    """
    for idx, entries in enumerate(stencil):
        for t, shift, form in entries:
            if not (0 <= out_q <= 3 and 0 <= t < NCOMP[out_q] and sum(shift) == 0 and all(
                    shift[a] == -1 and not any(form[:a] + form[a + 1:])
                    for a in range(3) if shift[a] < 0)):
                raise ValueError("stencil entry %r of component %d leaves the degree-%d basis"
                                 % ((t, shift, form), idx, out_q))


def divergence(field):
    """Divergence of a vector field.

    >>> euler = MultiVector.vector(Polynomial.variable("x"),
    ...                            Polynomial.variable("y"),
    ...                            Polynomial.variable("z"))
    >>> divergence(euler) == 3
    True
    """
    if field.degree != 1:
        raise ValueError("divergence expects a vector field")
    total = Polynomial.zero()
    for i in range(3):
        total = total + field.component(i).diff(i)
    return total


def modular_vector_field(w):
    """Divergence-type vector field of a bivector.

    Component k collects d_j w^kj over j > k minus d_i w^ik over i < k,
    where w^ij is the dx_i^dx_j coefficient.  For a Poisson bivector this
    measures the failure of coordinate Hamiltonian flows to preserve the
    standard volume; it vanishes exactly for the unimodular structures.
    """
    if w.degree != 2:
        raise ValueError("modular_vector_field expects a bivector")
    w01 = w.component(2)        # dx^dy
    w02 = -w.component(1)       # dx^dz = -(dz^dx)
    w12 = w.component(0)        # dy^dz
    comps = {
        0: w01.diff(1) + w02.diff(2),
        1: -w01.diff(0) + w12.diff(2),
        2: -w02.diff(0) - w12.diff(1),
    }
    return MultiVector._of(1, {k: p for k, p in comps.items() if p})
