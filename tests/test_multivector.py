"""Exact polynomial arithmetic and the graded bracket on multivector fields."""

import itertools
import random
from fractions import Fraction

import pytest

from helpers import lie_bracket, random_multivector, random_point, random_polynomial
from poisson3 import multivector
from poisson3.multivector import NCOMP, component_wedge, wedge_component
from poisson3 import (
    MultiVector,
    Polynomial,
    divergence,
    modular_vector_field,
    schouten_bracket,
    wedge,
)

X = Polynomial.variable(0)
Y = Polynomial.variable(1)
Z = Polynomial.variable(2)


def mv(text):
    from poisson3 import parse_multivector

    return parse_multivector(text)


# ---------------------------------------------------------------- polynomials


def test_polynomial_ring_basics():
    p = (X + Y) ** 2
    assert p == X * X + X * Y * 2 + Y * Y
    assert p.degree() == 2
    assert p.diff(0) == X * 2 + Y * 2
    assert (X * Y * Z).diff(2) == X * Y
    assert Polynomial.zero().is_zero()
    assert not (X - X + Polynomial.one()).is_zero()


def test_polynomial_exact_fractions():
    p = Polynomial.monomial((1, 0, 0), Fraction(1, 3))
    q = Polynomial.monomial((1, 0, 0), Fraction(2, 3))
    assert p + q == X
    assert (p - p).is_zero()


def test_polynomial_rejects_inexact_scalars_and_exponents():
    with pytest.raises(TypeError, match="expected a rational scalar, got 0.5"):
        Polynomial.constant(0.5)
    with pytest.raises(ValueError, match="non-integral exponent"):
        Polynomial({(1.5, 0, 0): 1})
    with pytest.raises(ValueError, match="non-integral exponent"):
        Polynomial.monomial((0.5, 0, 0))
    assert Polynomial({(2, 0, 0): "1/2"}) == X * X * Fraction(1, 2)


def test_polynomial_evaluation_is_ring_homomorphism():
    rng = random.Random(11)
    for _ in range(25):
        p = random_polynomial(rng, 4)
        q = random_polynomial(rng, 4)
        pt = random_point(rng)
        assert (p + q).evaluate(pt) == p.evaluate(pt) + q.evaluate(pt)
        assert (p * q).evaluate(pt) == p.evaluate(pt) * q.evaluate(pt)


def test_polynomial_homogeneity_flags():
    assert (X * Y + Z * Z).is_homogeneous(2)
    assert not (X + Z * Z).is_homogeneous(2)
    # zero is homogeneous in every degree
    assert Polynomial.zero().is_homogeneous(7)


# ---------------------------------------------------------------- wedge


def test_wedge_antisymmetry_on_generators():
    dx = MultiVector.basis(1, 0)
    dy = MultiVector.basis(1, 1)
    assert wedge(dx, dx).is_zero()
    assert wedge(dy, dx) == -wedge(dx, dy)


def test_wedge_matches_component_conventions():
    dx, dy, dz = (MultiVector.basis(1, i) for i in range(3))
    # bivector components are listed against (dy^dz, dz^dx, dx^dy)
    assert wedge(dy, dz) == MultiVector.bivector(
        Polynomial.one(), Polynomial.zero(), Polynomial.zero())
    assert wedge(dz, dx) == MultiVector.bivector(
        Polynomial.zero(), Polynomial.one(), Polynomial.zero())
    assert wedge(dx, dy) == MultiVector.bivector(
        Polynomial.zero(), Polynomial.zero(), Polynomial.one())
    assert wedge(wedge(dx, dy), dz) == MultiVector.trivector(Polynomial.one())


def _bubble_sorted(gens):
    """(ascending list, number of adjacent swaps) of a bubble sort of gens."""
    gens, swaps = list(gens), 0
    for end in range(len(gens) - 1, 0, -1):
        for i in range(end):
            if gens[i] > gens[i + 1]:
                gens[i], gens[i + 1] = gens[i + 1], gens[i]
                swaps += 1
    return gens, swaps


def _swap_counted_component(gens):
    """(idx, sign) of the wedge of gens, in their order, found by sorting
    them with a bubble sort (one sign flip per swap); None on a repeat."""
    ordered, swaps = _bubble_sorted(gens)
    if len(set(ordered)) < len(ordered):
        return None
    q = len(ordered)
    for idx in range(NCOMP[q]):
        subset, sign = component_wedge(q, idx)
        if list(subset) == ordered:
            return idx, sign * (-1) ** swaps
    raise AssertionError(ordered)


SUBSETS = [component_wedge(q, idx)[0] for q in range(4) for idx in range(NCOMP[q])]


def test_product_sign_table_counts_swaps_for_every_pair_of_subsets():
    assert len(set(SUBSETS)) == 8
    found = {(left, right): multivector._COMPONENT.get(left + right)
             for left in SUBSETS for right in SUBSETS}
    assert found == {(left, right): _swap_counted_component(left + right)
                     for left in SUBSETS for right in SUBSETS}
    assert sum(value is None for value in found.values()) == 64 - 27


def test_right_derivative_table_counts_swaps_for_every_subset():
    for subset in SUBSETS:
        expected = []
        for pos, symbol in enumerate(subset):
            # the symbol moved to the right end, then stripped: as many swaps
            # as sorting it back in from there
            rest = subset[:pos] + subset[pos + 1:]
            expected.append((symbol, rest, (-1) ** _bubble_sorted(rest + (symbol,))[1]))
        assert multivector._RIGHT_DERIVATIVES[subset] == expected


def test_wedge_component_counts_swaps_for_every_sequence_of_generators():
    sequences = [gens for n in range(4) for gens in itertools.product(range(3), repeat=n)]
    assert len(sequences) == 40
    for gens in sequences:
        assert wedge_component(gens) == wedge_component(list(gens)) == _swap_counted_component(
            gens), gens
    # the inverse of component_wedge
    for q in range(4):
        for idx in range(NCOMP[q]):
            subset, sign = component_wedge(q, idx)
            assert wedge_component(subset) == (idx, sign)


def test_symbol_tables_put_every_product_at_its_degree():
    # products reach MultiVector through these tables with no degree check,
    # and degrees 1 and 2 share indices 0..2, so q symbols must name a
    # component of degree q
    for q in range(4):
        for idx in range(NCOMP[q]):
            assert len(component_wedge(q, idx)[0]) == q
    for gens, (idx, _) in multivector._COMPONENT.items():
        assert component_wedge(len(gens), idx)[0] == tuple(sorted(gens)), gens
    for subset, strips in multivector._RIGHT_DERIVATIVES.items():
        assert [symbol for symbol, _, _ in strips] == list(subset)
        for symbol, rest, _ in strips:
            assert len(rest) == len(subset) - 1 and symbol not in rest
            assert component_wedge(len(rest), wedge_component(rest)[0])[0] == rest
    # every pair of basis fields, with coefficients the bracket does not kill
    fields = [(q, idx, MultiVector.basis(q, idx) * Polynomial.monomial((1, 1, 1)))
              for q in range(4) for idx in range(NCOMP[q])]
    for qa, ia, a in fields:
        for qb, ib, b in fields:
            product = wedge(a, b)
            assert schouten_bracket(a, b).degree == min(max(qa + qb - 1, 0), 3)
            if qa + qb > 3:
                assert product.degree == 3 and product.is_zero()
                continue
            assert product.degree == qa + qb
            (sa, sign_a), (sb, sign_b) = component_wedge(qa, ia), component_wedge(qb, ib)
            found = _swap_counted_component(sa + sb)
            expected = {} if found is None else {
                found[0]: Polynomial.monomial((2, 2, 2), sign_a * sign_b * found[1])}
            assert product.components == expected, (qa, ia, qb, ib)


def test_wedge_beyond_top_degree_vanishes():
    rng = random.Random(23)
    two = random_multivector(rng, 2, 2)
    one = random_multivector(rng, 1, 2)
    assert wedge(two, two).is_zero()
    assert wedge(wedge(two, one), one).is_zero()


def test_wedge_graded_commutativity_random():
    rng = random.Random(31)
    for _ in range(30):
        p = rng.randint(0, 3)
        q = rng.randint(0, 3 - p)
        a = random_multivector(rng, p, 3)
        b = random_multivector(rng, q, 3)
        sign = -1 if (p * q) % 2 else 1
        assert wedge(a, b) == wedge(b, a) * sign


# ---------------------------------------------------------------- bracket


def test_bracket_bivector_with_function():
    # hamiltonian vector field of x under z dx^dy points along -z dy
    assert schouten_bracket(mv("z*dx^dy"), mv("x")) == mv("-1*z*dy")
    assert schouten_bracket(mv("z*dx^dy"), mv("y")) == mv("z*dx")
    assert schouten_bracket(mv("z*dx^dy"), mv("z")).is_zero()


def test_bracket_degree_one_agrees_with_vector_field_commutator():
    rng = random.Random(47)
    for _ in range(30):
        a = random_multivector(rng, 1, 3)
        b = random_multivector(rng, 1, 3)
        assert schouten_bracket(a, b) == lie_bracket(a, b)


def test_bracket_graded_antisymmetry_random():
    rng = random.Random(59)
    for _ in range(60):
        p = rng.randint(0, 3)
        q = rng.randint(0, 3)
        a = random_multivector(rng, p, 4)
        b = random_multivector(rng, q, 4)
        sign = -1 if ((p - 1) * (q - 1)) % 2 else 1
        assert schouten_bracket(a, b) == schouten_bracket(b, a) * (-sign)


def test_bracket_graded_jacobi_random():
    rng = random.Random(61)
    for _ in range(40):
        p = rng.randint(0, 2)
        q = rng.randint(0, 2)
        r = rng.randint(0, 2)
        a = random_multivector(rng, p, 3)
        b = random_multivector(rng, q, 3)
        c = random_multivector(rng, r, 3)
        s1 = -1 if ((p - 1) * (r - 1)) % 2 else 1
        s2 = -1 if ((q - 1) * (p - 1)) % 2 else 1
        s3 = -1 if ((r - 1) * (q - 1)) % 2 else 1
        total = (
            schouten_bracket(a, schouten_bracket(b, c)) * s1
            + schouten_bracket(b, schouten_bracket(c, a)) * s2
            + schouten_bracket(c, schouten_bracket(a, b)) * s3)
        assert total.is_zero()


def test_bracket_leibniz_over_wedge_random():
    rng = random.Random(67)
    for _ in range(40):
        p = rng.randint(1, 2)
        q = rng.randint(0, 1)
        r = rng.randint(0, 3 - q)
        a = random_multivector(rng, p, 3)
        b = random_multivector(rng, q, 3)
        c = random_multivector(rng, r, 3)
        sign = -1 if ((p - 1) * q) % 2 else 1
        lhs = schouten_bracket(a, wedge(b, c))
        rhs = wedge(schouten_bracket(a, b), c) + wedge(b, schouten_bracket(a, c)) * sign
        assert lhs == rhs


def test_bracket_output_beyond_top_degree_is_zero():
    rng = random.Random(71)
    for _ in range(10):
        a = random_multivector(rng, 3, 3)
        b = random_multivector(rng, 3, 3)
        c = random_multivector(rng, 2, 3)
        assert schouten_bracket(a, b).is_zero()
        assert schouten_bracket(a, c).degree == 3 or schouten_bracket(a, c).is_zero()


def test_bracket_of_functions_vanishes():
    assert schouten_bracket(mv("x^2 + y"), mv("z^3")).is_zero()


# regression: the full euler field is not a symmetry of z dx^dy, but the
# (x, z) weighted euler field is
def test_euler_fields_against_plane_structure():
    pi = mv("z*dx^dy")
    full_euler = mv("x*dx + y*dy + z*dz")
    weighted = mv("x*dx + z*dz")
    assert schouten_bracket(pi, full_euler) == pi
    assert schouten_bracket(pi, weighted).is_zero()


def test_quadratic_deformation_self_bracket():
    # w = z dx^dy + d(x^2 y^2 dz) has self bracket 8 x y dx^dy^dz
    w = mv("z*dx^dy") + schouten_bracket(mv("x^2*dz + z*y^2*dz"), mv("dx^dy"))
    assert schouten_bracket(w, w) == mv("8*x*y*dx^dy^dz")


# ---------------------------------------------------------------- divergence


def test_divergence_examples():
    assert divergence(mv("x*dx + y*dy + z*dz")) == Polynomial.one() * 3
    assert divergence(mv("-1*y*dx + x*dy")).is_zero()
    assert divergence(mv("x^2*dz")).is_zero()


def test_modular_field_of_plane_and_book_structures():
    assert modular_vector_field(mv("z*dx^dy")).is_zero()
    assert modular_vector_field(mv("x*dx^dy")) == mv("-1*dy")
    tau = Fraction(1, 3)
    w = mv("x*dx^dz") * tau + mv("y*dy^dz") + mv("x*dy^dz") * 0
    expected = MultiVector.vector(
        Polynomial.zero(), Polynomial.zero(),
        Polynomial.monomial((0, 0, 0), -(1 + tau)))
    assert modular_vector_field(w) == expected


def test_modular_field_is_divergence_of_hamiltonian_fields():
    # pairing convention: <mod(w), df> == -div [w, f] for every function f
    rng = random.Random(73)
    for _ in range(15):
        w = random_multivector(rng, 2, 3)
        f = random_polynomial(rng, 3)
        ham = schouten_bracket(w, MultiVector.basis(0, 0) * f)
        field = modular_vector_field(w)
        pairing = sum(
            (field.component(i) * f.diff(i) for i in range(3)),
            Polynomial.zero())
        assert divergence(ham) == -pairing


# ---------------------------------------------------------------- structure


def test_multivector_component_access_and_grading():
    v = mv("3*x*dy^dz + z*dx^dy")
    assert v.degree == 2
    assert v.component(0) == X * 3
    assert v.component(1).is_zero()
    assert v.component(2) == Z
    assert v.coefficient_degree() == 1
    assert v.is_coefficient_homogeneous(1)
    assert not mv("x*dx + dz").is_coefficient_homogeneous(1)


def test_multivector_addition_requires_matching_degree():
    with pytest.raises(ValueError):
        mv("dx") + mv("dx^dy")


def test_multivector_evaluation_random():
    rng = random.Random(79)
    for _ in range(15):
        a = random_multivector(rng, 2, 3)
        b = random_multivector(rng, 2, 3)
        pt = random_point(rng)
        lhs = (a + b).evaluate(pt)
        rhs = tuple(x + y for x, y in zip(a.evaluate(pt), b.evaluate(pt)))
        assert tuple(lhs) == rhs
