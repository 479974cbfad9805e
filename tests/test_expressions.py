"""Round-trip tests for the multivector expression grammar and printer."""

import hashlib
import random
from fractions import Fraction

import pytest

from helpers import expression_corpus, random_multivector
from poisson3 import (
    ExpressionError,
    MultiVector,
    Polynomial,
    format_multivector,
    parse_multivector,
    wedge,
)


def test_parse_examples():
    assert parse_multivector("z*dx^dy") == MultiVector.bivector(
        Polynomial.zero(), Polynomial.zero(), Polynomial.variable(2))
    t = parse_multivector("-1*y*dx + x*dy")
    assert t == MultiVector.vector(
        Polynomial.monomial((0, 1, 0), -1), Polynomial.variable(0),
        Polynomial.zero())
    v = parse_multivector("3/2*x^2*dx^dz")
    # dx^dz = -(dz^dx), stored in the cyclic component basis
    assert v.component(1) == Polynomial.monomial((2, 0, 0), Fraction(-3, 2))
    assert parse_multivector("5").component(0) == Polynomial.monomial(
        (0, 0, 0), 5)
    assert parse_multivector("x^2 + y^2").degree == 0


def test_parse_is_whitespace_insensitive():
    assert parse_multivector(" z * dx ^ dy ") == parse_multivector("z*dx^dy")


def test_parse_normalizes_wedge_order_and_cancellation():
    assert parse_multivector("dy^dx") == -parse_multivector("dx^dy")
    assert parse_multivector("dx^dx").is_zero()
    assert parse_multivector("x - x").is_zero()


def test_format_examples():
    t = MultiVector.vector(
        Polynomial.monomial((0, 1, 0), -1), Polynomial.variable(0),
        Polynomial.zero())
    assert format_multivector(t) == "-1*y*dx + x*dy"
    assert format_multivector(MultiVector.zero(2)) == "0"
    assert format_multivector(MultiVector.zero(0)) == "0"
    dydx = wedge(MultiVector.basis(1, 1), MultiVector.basis(1, 0))
    assert format_multivector(dydx) == "-1*dx^dy"
    assert format_multivector(parse_multivector("-2/4*dz")) == "-1/2*dz"


def test_format_orders_terms_deterministically():
    one = format_multivector(parse_multivector("x*dy + z*dx + y*dz"))
    two = format_multivector(parse_multivector("y*dz + x*dy + z*dx"))
    assert one == two


def test_round_trip_on_random_multivectors():
    rng = random.Random(401)
    for _ in range(200):
        degree = rng.randint(0, 3)
        value = random_multivector(rng, degree, 5)
        text = format_multivector(value)
        again = parse_multivector(text)
        assert again == value
        # canonical text is a fixed point of the round trip
        assert format_multivector(again) == text


def test_round_trip_preserves_exact_fractions():
    value = parse_multivector("22/7*x^3*dy^dz - 1/6*z*dy^dz")
    assert parse_multivector(format_multivector(value)) == value


def test_parse_errors_carry_positions():
    with pytest.raises(ExpressionError, match="position 4"):
        parse_multivector("x + + y")
    with pytest.raises(ExpressionError, match="position 0"):
        parse_multivector("w")
    with pytest.raises(ExpressionError, match="position 2"):
        parse_multivector("x**2")
    # a digit to str.isdigit, but not a decimal one
    with pytest.raises(ExpressionError, match="unexpected character '²' .at position 2"):
        parse_multivector("x^²")


def test_parse_rejects_mixed_degrees():
    with pytest.raises(ExpressionError, match="mixed"):
        parse_multivector("x + dx")
    with pytest.raises(ExpressionError, match="mixed"):
        parse_multivector("dx^dy + dz")


def test_parse_rejects_structural_misuse():
    with pytest.raises(ExpressionError, match="one wedge block"):
        parse_multivector("dx*dy")
    with pytest.raises(ExpressionError, match="longer than 3"):
        parse_multivector("dx^dy^dz^dx")
    with pytest.raises(ExpressionError, match="zero denominator"):
        parse_multivector("1/0")
    with pytest.raises(ExpressionError, match="empty"):
        parse_multivector("")


def test_expression_error_is_a_value_error():
    assert issubclass(ExpressionError, ValueError)


def test_parser_matches_its_golden_corpus():
    # every outcome over 20,390 strings: value or exception, message, position
    outcomes = []
    for text in expression_corpus():
        try:
            value = parse_multivector(text)
        except Exception as exc:
            outcomes.append((type(exc).__name__, str(exc)))
        else:
            outcomes.append(("ok", value.degree, format_multivector(value)))
    assert len(outcomes) == 20390
    assert sum(outcome[0] == "ok" for outcome in outcomes) == 1906
    digest = hashlib.sha256(repr(outcomes).encode()).hexdigest()
    assert digest == "d79e4e82481affa0be51cc75d8c7cf99cefa8e85360b8bc9c455e9b10fcbf289"
