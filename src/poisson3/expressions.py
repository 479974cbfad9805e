"""Text syntax for multivectors: parsing and canonical formatting.

Grammar (whitespace ignored):

    expr       := ["+"|"-"] term (("+"|"-") term)*
    term       := factor ("*" factor)*
    factor     := rational | monomial | wedgeblock
    rational   := integer ("/" integer)?
    monomial   := ("x"|"y"|"z") ("^" integer)?
    wedgeblock := gen ("^" gen)*
    gen        := "dx" | "dy" | "dz"

At most one wedge block per term, and all terms of an expression must have
the same wedge length (no mixed cochain degrees).  The formatter emits a
canonical form: terms sorted by leading monomial (graded, z before y before
x) then by wedge component, fractions reduced, wedge generators ascending
with the sign normalized, unit coefficients dropped except a leading -1,
which prints as "-1*" (`format_multivector(parse_multivector("-x*dx"))` is
"-1*x*dx"; the published tables pin these bytes).  parse(format(v))
round-trips exactly.

One term joiner prints every expression, from two entry points:
`format_multivector` for a multivector and `format_coordinates` for
coordinate vectors over a `GradedBasis`, whose ascending positions are
already the print order.
"""

import re
import sys
from fractions import Fraction

from .multivector import (
    NCOMP,
    VAR_NAMES,
    MultiVector,
    Polynomial,
    component_wedge,
    monomial_key,
    wedge_component,
)

# whitespace, then one group per token kind; "bad" catches any other character
_TOKEN = re.compile(r"\s+|(?P<int>\d+)|d(?P<gen>[xyz])|(?P<var>[xyz])|(?P<op>[-+*^/])|(?P<bad>.)")

# the "^int", "/int" or "^gen"s a factor may carry: (link, operand kind)
_OPERAND = {"int": ("/", "int"), "var": ("^", "int"), "gen": ("^", "gen")}


class ExpressionError(ValueError):
    """Syntax or structure error in a multivector expression."""

    def __init__(self, message, position=None):
        if position is not None:
            message = "%s (at position %d)" % (message, position)
        super().__init__(message)
        self.position = position


def _term(tokens, at, sign):
    """Read the product of factors at tokens[at], times sign.

    Returns the index after it and the term (degree, idx, mono, coeff): the
    coefficient of monomial mono in component idx of the given degree, the
    length of the wedge block.  A repeated generator makes the coefficient 0.
    """
    num, den = sign, 1  # the coefficient, boxed once at the end
    exponents = [0, 0, 0]
    gens = []
    while True:
        kind, value, pos = tokens[at]
        if kind == "gen" and gens:
            raise ExpressionError("at most one wedge block per term", pos)
        if kind not in _OPERAND:
            raise ExpressionError("expected a factor", pos)
        # an int takes one "/int", a variable one "^int", a generator any "^gen"s
        link, want = _OPERAND[kind]
        operands = [value]
        at += 1
        while tokens[at][0] == link and (kind == "gen" or len(operands) == 1):
            got, operand, pos = tokens[at + 1]
            if got != want:
                raise ExpressionError("expected %s" % (want,), pos)
            operands.append(operand)
            at += 2
        if kind == "gen":
            gens = operands
        elif kind == "var":
            exponents[value] += operands[-1] if len(operands) == 2 else 1
        elif len(operands) == 2 and operands[1] == 0:  # pos is the denominator's
            raise ExpressionError("zero denominator", pos)
        else:
            num *= operands[0]
            den *= operands[1] if len(operands) == 2 else 1
        if tokens[at][0] != "*":
            break
        at += 1
    if len(gens) > 3:
        raise ExpressionError("wedge block longer than 3 generators")
    idx, wedge_sign = wedge_component(gens) or (0, 0)
    return at, (len(gens), idx, tuple(exponents), Fraction(num * wedge_sign, den))


def parse_multivector(text):
    """Parse an expression into a MultiVector, built once from its summed terms.

    >>> parse_multivector("-1*y*dx + x*dy") == MultiVector.vector(
    ...     Polynomial.monomial((0, 1, 0), -1), Polynomial.variable("x"),
    ...     Polynomial.zero())
    True
    """
    if not text or not text.strip():
        raise ExpressionError("empty expression")
    tokens = []
    for match in _TOKEN.finditer(text):
        kind, pos = match.lastgroup, match.start()
        if kind is None:
            continue
        lexeme = match[kind]
        if kind == "bad":
            if lexeme == "d":
                raise ExpressionError("expected dx, dy or dz", pos)
            raise ExpressionError("unexpected character %r" % (lexeme,), pos)
        if kind == "op":
            tokens.append((lexeme, None, pos))
        elif kind != "int":
            tokens.append((kind, VAR_NAMES.index(lexeme), pos))
        else:
            try:
                tokens.append((kind, int(lexeme), pos))
            except ValueError:  # past the interpreter's int string limit
                raise ExpressionError(
                    "integer literal of %d digits is too long" % (len(lexeme),), pos) from None
    tokens.append(("end", None, len(text)))
    degrees, components = set(), {}  # idx -> {mono: summed coeff}
    at = 0
    while not degrees or tokens[at][0] != "end":
        kind, _, pos = tokens[at]
        if kind in ("+", "-"):
            at += 1
        elif degrees:
            raise ExpressionError("expected + or - between terms", pos)
        at, (degree, idx, mono, coeff) = _term(tokens, at, -1 if kind == "-" else 1)
        degrees.add(degree)
        poly = components.setdefault(idx, {})
        poly[mono] = poly[mono] + coeff if mono in poly else coeff
    if len(degrees) > 1:
        raise ExpressionError("mixed cochain degrees %s in one expression" % (sorted(degrees),))
    # the sums are exact Fractions on int exponents: only the zeros are dropped
    polys = {idx: Polynomial._of({mono: c for mono, c in poly.items() if c})
             for idx, poly in components.items()}
    return MultiVector._of(degrees.pop(), {idx: poly for idx, poly in polys.items() if poly})


def _render_term(coeff, mono, gens):
    parts = []
    if coeff != 1 or (not any(mono) and not gens):
        try:
            parts.append(str(coeff))
        except ValueError:  # past the interpreter's int string limit
            raise ValueError(
                "a coefficient has more than %d digits, the limit for printing an integer"
                % (sys.get_int_max_str_digits(),)) from None
    for axis, power in enumerate(mono):
        if power == 0:
            continue
        parts.append(VAR_NAMES[axis] if power == 1 else "%s^%d" % (VAR_NAMES[axis], power))
    if gens:
        parts.append("^".join("d" + VAR_NAMES[g] for g in gens))
    return "*".join(parts)


def _join_terms(terms):
    """Text of (monomial, coefficient, generators) terms given in print order."""
    if not terms:
        return "0"
    mono, coeff, gens = terms[0]
    pieces = [_render_term(coeff, mono, gens)]
    for mono, coeff, gens in terms[1:]:
        if coeff > 0:
            pieces.append(" + " + _render_term(coeff, mono, gens))
        else:
            pieces.append(" - " + _render_term(-coeff, mono, gens))
    return "".join(pieces)


def format_multivector(value):
    """Canonical text form; parse_multivector round-trips it exactly.

    >>> format_multivector(MultiVector.zero(2))
    '0'
    """
    entries = []
    for idx, gens, poly in value.wedge_terms():
        for mono, coeff in poly.terms.items():
            entries.append((mono, idx, coeff, gens))
    entries.sort(key=lambda e: (tuple(-k for k in monomial_key(e[0])), e[1]))
    return _join_terms([(mono, coeff, gens) for mono, _, coeff, gens in entries])


def format_coordinates(basis, vectors):
    """The canonical text of each coordinate vector over a GradedBasis.

    Each string is `format_multivector(basis.reconstruct(vec))`, printed
    with no multivector: the basis lists the leading monomial first and
    then the component, the print order, so the terms are the nonzero
    coordinates by ascending position.  Raises KeyError for a position
    outside 0..len - 1.
    """
    if not vectors:  # most cells of a table have no class
        return []
    wedges = [component_wedge(basis.q, idx) for idx in range(NCOMP[basis.q])]
    out = []
    for vec in vectors:
        terms = []
        for position in sorted(vec):
            idx, mono = basis.element(position)
            gens, sign = wedges[idx]
            coeff = vec[position]
            if coeff:
                terms.append((mono, coeff if sign == 1 else -coeff, gens))
        out.append(_join_terms(terms))
    return out
