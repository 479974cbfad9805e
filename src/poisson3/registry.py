"""Registry of the three-dimensional Lie algebras and their linear bivectors.

Every entry fixes a basis e1, e2, e3 (dual coordinates x, y, z) through its
structure constants [e_i, e_j] = sum_k c^k_ij e_k, and the associated linear
bivector on the dual space is

    sum_{i<j} (sum_k c^k_ij x_k) dx_i ^ dx_j.

Two families carry a rational parameter tau: `book` (0 < |tau| <= 1, the
negative range being the hyperbolic regime) and `spiral` (tau > 0).
"""

from fractions import Fraction

from .multivector import MultiVector, Polynomial, rational, schouten_bracket, wedge_component

KINDS = (
    "abelian",
    "heisenberg",
    "aff_x_r",
    "euclidean",
    "book",
    "semi_open_book",
    "spiral",
    "sl2",
    "so3",
)

_PARAMETRIC = {"book", "spiral"}


class StructureConstants:
    """Antisymmetric structure constants, stored as c[(i, j, k)] for i < j.

    Indices run 0, 1, 2 for the basis dual to x, y, z.
    """

    __slots__ = ("c",)

    def __init__(self, entries):
        self.c = {}
        for (i, j, k), value in entries.items():
            if not (0 <= i < j <= 2 and 0 <= k <= 2):
                raise ValueError("bad structure constant index %r" % ((i, j, k),))
            value = rational(value)
            if value:
                self.c[(i, j, k)] = value

    def get(self, i, j, k):
        """c^k_ij for any i, j (antisymmetric in i, j)."""
        if i == j:
            return Fraction(0)
        if i < j:
            return self.c.get((i, j, k), Fraction(0))
        return -self.c.get((j, i, k), Fraction(0))

    def bracket(self, u, v):
        """Lie bracket of coefficient triples u, v (tuples of rationals)."""
        out = [Fraction(0)] * 3
        for i in range(3):
            if not u[i]:
                continue
            for j in range(3):
                if not v[j]:
                    continue
                for k in range(3):
                    out[k] += u[i] * v[j] * self.get(i, j, k)
        return tuple(out)

    def __eq__(self, other):
        if not isinstance(other, StructureConstants):
            return NotImplemented
        return self.c == other.c

    def __repr__(self):
        return "StructureConstants(%r)" % (self.c,)


class Algebra:
    """A registry kind plus (for book/spiral) its rational parameter."""

    __slots__ = ("name", "tau")

    def __init__(self, name, tau=None):
        if name not in KINDS:
            raise ValueError("unknown algebra %r (expected one of %s)" % (name, ", ".join(KINDS)))
        if name in _PARAMETRIC:
            if tau is None:
                raise ValueError("algebra %r needs a tau parameter" % (name,))
            tau = rational(tau)
            if name == "book" and not 0 < abs(tau) <= 1:
                raise ValueError("book parameter must satisfy 0 < |tau| <= 1, got %s" % (tau,))
            if name == "spiral" and tau <= 0:
                raise ValueError("spiral parameter must be positive, got %s" % (tau,))
        elif tau is not None:
            raise ValueError("algebra %r takes no tau parameter" % (name,))
        self.name = name
        self.tau = tau

    def __eq__(self, other):
        if not isinstance(other, Algebra):
            return NotImplemented
        return self.name == other.name and self.tau == other.tau

    def __repr__(self):
        if self.tau is None:
            return "Algebra(%r)" % (self.name,)
        return "Algebra(%r, tau=%s)" % (self.name, self.tau)


def structure_constants(algebra):
    """Structure constants of a registry algebra (indices 0,1,2 for x,y,z)."""
    if isinstance(algebra, str):
        algebra = Algebra(algebra)
    name, tau = algebra.name, algebra.tau
    if name == "abelian":
        return StructureConstants({})
    if name == "heisenberg":
        # [e1,e2] = e3
        return StructureConstants({(0, 1, 2): 1})
    if name == "aff_x_r":
        # [e1,e2] = e1
        return StructureConstants({(0, 1, 0): 1})
    if name == "euclidean":
        # [e1,e3] = -e2, [e2,e3] = e1
        return StructureConstants({(0, 2, 1): -1, (1, 2, 0): 1})
    if name == "book":
        # [e1,e3] = e1, [e2,e3] = tau e2
        return StructureConstants({(0, 2, 0): 1, (1, 2, 1): tau})
    if name == "semi_open_book":
        # [e1,e3] = e1, [e2,e3] = e1 + e2
        return StructureConstants({(0, 2, 0): 1, (1, 2, 0): 1, (1, 2, 1): 1})
    if name == "spiral":
        # [e1,e3] = tau e1 - e2, [e2,e3] = e1 + tau e2
        return StructureConstants({(0, 2, 0): tau, (0, 2, 1): -1, (1, 2, 0): 1, (1, 2, 1): tau})
    if name == "sl2":
        # [e1,e2] = e3, [e2,e3] = e1, [e3,e1] = -e2
        return StructureConstants({(0, 1, 2): 1, (1, 2, 0): 1, (0, 2, 1): 1})
    if name == "so3":
        # [e1,e2] = e3, [e2,e3] = e1, [e3,e1] = e2
        return StructureConstants({(0, 1, 2): 1, (1, 2, 0): 1, (0, 2, 1): -1})
    raise ValueError("unknown algebra %r" % (name,))


def linear_poisson(source):
    """Linear bivector of an Algebra or StructureConstants, built from the constants.

    >>> linear_poisson("heisenberg") == MultiVector.bivector(0, 0, Polynomial.variable("z"))
    True
    """
    if isinstance(source, (str, Algebra)):
        source = structure_constants(source)
    components = {}  # each (i, j, k) is its own (component, monomial)
    for (i, j, k), value in source.c.items():
        idx, sign = wedge_component((i, j))
        components.setdefault(idx, {})[tuple(int(axis == k) for axis in range(3))] = sign * value
    return MultiVector._of(2, {idx: Polynomial._of(poly) for idx, poly in components.items()})


def jacobi_defect(source):
    """Self-bracket of the linear bivector; zero exactly for Lie algebras.

    A trivector with linear coefficient measuring the failure of the Jacobi
    identity for the given constants.
    """
    pi = linear_poisson(source)
    return schouten_bracket(pi, pi)
