"""Round-trip tests for the multivector expression grammar and printer."""

import hashlib
import random
import sys
from fractions import Fraction

import pytest

from helpers import expression_corpus, random_multivector, wedge_built
from poisson3 import (
    ExpressionError,
    GradedBasis,
    MultiVector,
    Polynomial,
    format_coordinates,
    format_multivector,
    monomials,
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


def _random_term_text(rng, coeff, mono, gens):
    """One way to write the term: factors in any order, the coefficient
    split in two or left out when 1, each exponent split over factors."""
    factors = []
    if abs(coeff) != 1 or rng.random() < 0.5:
        split = Fraction(rng.randint(1, 4), rng.randint(1, 4)) if rng.random() < 0.3 else 1
        factors += [str(abs(coeff) / split)] + ([str(split)] if split != 1 else [])
    for axis, power in enumerate(mono):
        while power or rng.random() < 0.1:  # "x^0" now and then
            part = rng.randint(1, power) if power else 0
            factors.append("xyz"[axis] if part == 1 and rng.random() < 0.5
                           else "%s^%d" % ("xyz"[axis], part))
            power -= part
    if gens:
        factors.append("^".join("d" + "xyz"[gen] for gen in gens))
    rng.shuffle(factors)
    return "*".join(factors) or "1"


def _random_expression(rng, degree):
    """(text, terms) of a random expression of that degree, with (coeff,
    mono, gens) terms: generators in any order, now and then a repeated
    generator, a zero coefficient or a term cancelling an earlier one."""
    terms = []
    for _ in range(rng.randint(1, 5)):
        if terms and rng.random() < 0.2:
            coeff, mono, gens = rng.choice(terms)
            terms.append((-coeff, mono, gens))
            continue
        coeff = Fraction(rng.randint(0, 12) if rng.random() < 0.9 else 0, rng.randint(1, 6))
        gens = rng.sample(range(3), degree)
        if degree > 1 and rng.random() < 0.2:
            gens[0] = gens[-1]
        terms.append((coeff * rng.choice((1, -1)), tuple(rng.randint(0, 3) for _ in range(3)),
                      tuple(gens)))
    text = ""
    for n, (coeff, mono, gens) in enumerate(terms):
        sign = "-" if coeff < 0 else rng.choice(("+", "")) if n == 0 else "+"
        text += "%s %s " % (sign, _random_term_text(rng, coeff, mono, gens))
    return text, terms


def test_parse_matches_the_term_by_term_build():
    # the oracle wedges each term's scalar with its generators one at a time
    # and sums the terms: same value and same degree, zero or not
    rng = random.Random(3001)
    seen = {"repeat": 0, "zero": 0, "fraction": 0, "unsorted": 0, "cancel": 0}
    for degree in range(4):
        for _ in range(200):
            text, terms = _random_expression(rng, degree)
            value, expected = parse_multivector(text), wedge_built(degree, terms)
            assert value == expected and value.degree == expected.degree == degree, text
            seen["zero"] += value.is_zero()
            seen["repeat"] += any(len(set(gens)) < degree for _, _, gens in terms)
            seen["fraction"] += any(coeff.denominator > 1 for coeff, _, _ in terms)
            seen["unsorted"] += any(list(gens) != sorted(set(gens)) for _, _, gens in terms)
            seen["cancel"] += any(c and (-c, m, g) in terms for c, m, g in terms)
    assert min(seen.values()) > 20, seen


def test_parse_builds_one_multivector_and_calls_no_wedge():
    # the parsed sums are exact, so the one multivector is kept as built
    # (`MultiVector._of`) and neither validating constructor runs
    calls = []

    def profile(frame, event, arg):
        if event == "call":
            calls.append(frame.f_code)

    text = "3/2*x^2*dz^dx - y*dx^dz + dy^dy + 0*z*dx^dy - 1/2*x^2*dz^dx"
    sys.setprofile(profile)
    try:
        value = parse_multivector(text)
    finally:
        sys.setprofile(None)
    x_squared_plus_y = Polynomial.monomial((2, 0, 0), 1) + Polynomial.variable("y")
    assert value == MultiVector.bivector(0, x_squared_plus_y, 0) and value.degree == 2
    assert calls.count(MultiVector._of.__code__) == 1
    assert MultiVector.__init__.__code__ not in calls and Polynomial.__init__.__code__ not in calls
    assert wedge.__code__ not in calls and MultiVector.__add__.__code__ not in calls


def test_format_coordinates_examples():
    # x*dx is position 6 of the (1, 1) basis: monomials z, y, x, each times dx, dy, dz
    assert format_coordinates(GradedBasis(1, 1), [{6: Fraction(-1)}, {}, {6: 0, 0: 2}]) == [
        "-1*x*dx", "0", "2*z*dx"]
    # the dz^dx component prints as -(dx^dz), and a leading -1 keeps its "-1*"
    assert format_coordinates(GradedBasis(2, 0), [{1: Fraction(1)}]) == ["-1*dx^dz"]
    assert format_coordinates(GradedBasis(0, 2), []) == []
    for position in (-1, 6):
        with pytest.raises(KeyError):
            format_coordinates(GradedBasis(0, 2), [{position: Fraction(1)}])


def test_format_coordinates_prints_what_format_multivector_prints():
    # random vectors at every (q, d <= 4) that hold every component, with
    # negative and non-integer coefficients and, for some, a leading -1
    rng = random.Random(409)
    leading_minus_one = dz_dx = 0
    for q in range(4):
        for d in range(5):
            basis = GradedBasis(q, d)
            ncomp = len(basis) // len(monomials(d))
            vectors = []
            for trial in range(12):
                positions = {rng.randrange(len(monomials(d))) * ncomp + idx
                             for idx in range(ncomp)}
                positions |= set(rng.sample(range(len(basis)), rng.randint(0, len(basis) // 2)))
                vec = {p: Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.choice((1, 2, 3, 7)))
                       for p in positions}
                if trial % 3 == 0:
                    vec[min(vec)] = Fraction(-1)
                vectors.append(vec)
            printed = format_coordinates(basis, vectors)
            assert printed == [format_multivector(basis.reconstruct(v)) for v in vectors]
            leading_minus_one += sum(text.startswith("-1*") for text in printed)
            dz_dx += sum("dx^dz" in text for text in printed)
    assert leading_minus_one and dz_dx


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
    # int() converts at most 4,300 digits
    with pytest.raises(ExpressionError, match="5000 digits is too long .at position 0"):
        parse_multivector("1" * 5000)
    with pytest.raises(ExpressionError, match="4400 digits is too long .at position 2"):
        parse_multivector("x^" + "9" * 4400)
    assert parse_multivector("1" * 4300) == MultiVector.scalar(int("1" * 4300))


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
