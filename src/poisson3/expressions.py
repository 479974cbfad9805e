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

from fractions import Fraction

from .multivector import MultiVector, Polynomial, _TO_SUBSET, monomial_key, wedge

_GEN_NAMES = ("dx", "dy", "dz")
_VARS = ("x", "y", "z")


class ExpressionError(ValueError):
    """Syntax or structure error in a multivector expression."""

    def __init__(self, message, position=None):
        if position is not None:
            message = "%s (at position %d)" % (message, position)
        super().__init__(message)
        self.position = position


def _tokenize(text):
    tokens = []
    pos = 0
    n = len(text)
    while pos < n:
        ch = text[pos]
        if ch.isspace():
            pos += 1
            continue
        if ch in "+-*^/":
            tokens.append((ch, None, pos))
            pos += 1
            continue
        if ch.isdigit():
            start = pos
            while pos < n and text[pos].isdigit():
                pos += 1
            tokens.append(("int", int(text[start:pos]), start))
            continue
        if ch == "d":
            if pos + 1 < n and text[pos + 1] in "xyz":
                tokens.append(("gen", "xyz".index(text[pos + 1]), pos))
                pos += 2
                continue
            raise ExpressionError("expected dx, dy or dz", pos)
        if ch in "xyz":
            tokens.append(("var", "xyz".index(ch), pos))
            pos += 1
            continue
        raise ExpressionError("unexpected character %r" % (ch,), pos)
    tokens.append(("end", None, n))
    return tokens


class _Parser:
    def __init__(self, text):
        self.text = text
        self.tokens = _tokenize(text)
        self.at = 0

    def peek(self):
        return self.tokens[self.at]

    def take(self, kind=None):
        token = self.tokens[self.at]
        if kind is not None and token[0] != kind:
            raise ExpressionError("expected %s" % (kind,), token[2])
        self.at += 1
        return token

    def parse(self):
        terms = []
        sign = 1
        kind, _, _ = self.peek()
        if kind in "+-":
            sign = -1 if kind == "-" else 1
            self.take()
        terms.append(self.term(sign))
        while True:
            kind, _, pos = self.peek()
            if kind == "end":
                break
            if kind not in "+-":
                raise ExpressionError("expected + or - between terms", pos)
            self.take()
            terms.append(self.term(-1 if kind == "-" else 1))
        degrees = {wedge_len for (wedge_len, _) in terms}
        if len(degrees) > 1:
            raise ExpressionError(
                "mixed cochain degrees %s in one expression" % (sorted(degrees),)
            )
        degree = degrees.pop()
        total = MultiVector.zero(degree)
        for _, value in terms:
            total = total + value
        return total

    def term(self, sign):
        coeff = Fraction(sign)
        exponents = [0, 0, 0]
        wedge = None
        while True:
            coeff, exponents, wedge = self.factor(coeff, exponents, wedge)
            kind, _, _ = self.peek()
            if kind != "*":
                break
            self.take()
        wedge_len = len(wedge) if wedge is not None else 0
        if wedge_len > 3:
            raise ExpressionError("wedge block longer than 3 generators")
        mono = Polynomial.monomial(tuple(exponents), coeff)
        if wedge_len == 0:
            return 0, MultiVector.scalar(mono)
        value = _wedge_term(mono, wedge)
        return wedge_len, value

    def factor(self, coeff, exponents, wedge):
        kind, value, pos = self.peek()
        if kind == "int":
            self.take()
            nxt, denom, dpos = self.peek()
            if nxt == "/":
                self.take()
                _, denom, dpos = self.take("int")
                if denom == 0:
                    raise ExpressionError("zero denominator", dpos)
                coeff = coeff * Fraction(value, denom)
            else:
                coeff = coeff * value
            return coeff, exponents, wedge
        if kind == "var":
            self.take()
            power = 1
            if self.peek()[0] == "^":
                self.take()
                _, power, _ = self.take("int")
            exponents = list(exponents)
            exponents[value] += power
            return coeff, exponents, wedge
        if kind == "gen":
            if wedge is not None:
                raise ExpressionError("at most one wedge block per term", pos)
            wedge = [value]
            self.take()
            while self.peek()[0] == "^":
                self.take()
                _, gen, _ = self.take("gen")
                wedge.append(gen)
            return coeff, exponents, wedge
        raise ExpressionError("expected a factor", pos)


def _wedge_term(poly, gens):
    """Multivector poly * (gens[0] ^ gens[1] ^ ...)."""
    value = MultiVector.scalar(poly)
    for gen in gens:
        value = wedge(value, MultiVector.basis(1, gen))
    return value


def parse_multivector(text):
    """Parse an expression into a MultiVector.

    >>> parse_multivector("-1*y*dx + x*dy") == MultiVector.vector(
    ...     Polynomial.monomial((0, 1, 0), -1), Polynomial.variable("x"),
    ...     Polynomial.zero())
    True
    """
    if not text or not text.strip():
        raise ExpressionError("empty expression")
    return _Parser(text).parse()


def _render_term(coeff, mono, gens):
    parts = []
    if coeff != 1 or (not any(mono) and not gens):
        parts.append(str(coeff))
    for axis, power in enumerate(mono):
        if power == 0:
            continue
        parts.append(_VARS[axis] if power == 1 else "%s^%d" % (_VARS[axis], power))
    if gens:
        parts.append("^".join(_GEN_NAMES[g] for g in gens))
    return "*".join(parts)


def format_multivector(value):
    """Canonical text form; parse_multivector round-trips it exactly.

    >>> format_multivector(MultiVector.zero(2))
    '0'
    """
    entries = []
    for idx, poly in value.components.items():
        gens, sign = _TO_SUBSET[(value.degree, idx)]
        for mono, coeff in poly.terms.items():
            entries.append((mono, idx, coeff * sign, gens))
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
