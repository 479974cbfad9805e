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
with the sign normalized, unit coefficients dropped.  parse(format(v))
round-trips exactly.
"""

import re
from fractions import Fraction

from .multivector import VAR_NAMES, MultiVector, Polynomial, monomial_key, wedge

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

    Returns the index after it and its value, a multivector whose degree is
    the length of its wedge block.
    """
    coeff = Fraction(sign)
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
            coeff *= Fraction(*operands)
        if tokens[at][0] != "*":
            break
        at += 1
    if len(gens) > 3:
        raise ExpressionError("wedge block longer than 3 generators")
    value = MultiVector.scalar(Polynomial.monomial(tuple(exponents), coeff))
    for gen in gens:
        value = wedge(value, MultiVector.basis(1, gen))
    return at, value


def parse_multivector(text):
    """Parse an expression into a MultiVector.

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
    terms = []
    at = 0
    while not terms or tokens[at][0] != "end":
        kind, _, pos = tokens[at]
        if kind in ("+", "-"):
            at += 1
        elif terms:
            raise ExpressionError("expected + or - between terms", pos)
        at, value = _term(tokens, at, -1 if kind == "-" else 1)
        terms.append(value)
    degrees = sorted({value.degree for value in terms})
    if len(degrees) > 1:
        raise ExpressionError("mixed cochain degrees %s in one expression" % (degrees,))
    return sum(terms, MultiVector.zero(degrees[0]))


def _render_term(coeff, mono, gens):
    parts = []
    if coeff != 1 or (not any(mono) and not gens):
        parts.append(str(coeff))
    for axis, power in enumerate(mono):
        if power == 0:
            continue
        parts.append(VAR_NAMES[axis] if power == 1 else "%s^%d" % (VAR_NAMES[axis], power))
    if gens:
        parts.append("^".join("d" + VAR_NAMES[g] for g in gens))
    return "*".join(parts)


def format_multivector(value):
    """Canonical text form; parse_multivector round-trips it exactly.

    >>> format_multivector(MultiVector.zero(2))
    '0'
    """
    entries = []
    for idx, gens, poly in value.wedge_terms():
        for mono, coeff in poly.terms.items():
            entries.append((mono, idx, coeff, gens))
    if not entries:
        return "0"
    entries.sort(key=lambda e: (tuple(-k for k in monomial_key(e[0])), e[1]))
    pieces = [_render_term(entries[0][2], entries[0][0], entries[0][3])]
    for mono, _, coeff, gens in entries[1:]:
        if coeff > 0:
            pieces.append(" + " + _render_term(coeff, mono, gens))
        else:
            pieces.append(" - " + _render_term(-coeff, mono, gens))
    return "".join(pieces)
