"""Shared helpers for the test suite: seeded random tensors over Q."""

from fractions import Fraction

from poisson3 import MultiVector, Polynomial


def random_polynomial(rng, max_degree, terms=3):
    """Random polynomial with small integer coefficients, degree <= max_degree."""
    poly = Polynomial.zero()
    for _ in range(terms):
        total = rng.randint(0, max_degree)
        i = rng.randint(0, total)
        j = rng.randint(0, total - i)
        k = total - i - j
        coeff = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        poly = poly + Polynomial.monomial((i, j, k), coeff)
    return poly


def random_homogeneous_polynomial(rng, degree):
    """Random polynomial whose monomials all have total degree == degree."""
    poly = Polynomial.zero()
    for _ in range(3):
        i = rng.randint(0, degree)
        j = rng.randint(0, degree - i)
        k = degree - i - j
        poly = poly + Polynomial.monomial((i, j, k), Fraction(rng.randint(-3, 3)))
    return poly


def random_multivector(rng, degree, max_coeff_degree):
    """Random multivector of the given exterior degree."""
    ncomp = {0: 1, 1: 3, 2: 3, 3: 1}[degree]
    comps = [random_polynomial(rng, max_coeff_degree) for _ in range(ncomp)]
    if degree == 0:
        return MultiVector.basis(0, 0) * comps[0]
    if degree == 1:
        return MultiVector.vector(*comps)
    if degree == 2:
        return MultiVector.bivector(*comps)
    return MultiVector.trivector(comps[0])


def random_point(rng):
    return tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(3))


def reference_rref(rows):
    """Plain Fraction Gauss-Jordan elimination, an oracle for `linalg.rref`.

    Returns (pivots, echelon_rows) in the same form: pivots increasing, each
    row scaled to 1 at its pivot, zero rows dropped.
    """
    work = [{i: Fraction(c) for i, c in r.items() if c} for r in rows]
    work = [r for r in work if r]
    pivots = []
    echelon = []
    while work:
        col = min(min(r) for r in work)
        pick = next(i for i, r in enumerate(work) if min(r) == col)
        row = work.pop(pick)
        inv = Fraction(1) / row[col]
        row = {i: c * inv for i, c in row.items()}
        for other in work + echelon:
            factor = other.get(col)
            if factor:
                for i, c in row.items():
                    val = other.get(i, Fraction(0)) - factor * c
                    if val:
                        other[i] = val
                    elif i in other:
                        del other[i]
        work = [r for r in work if r]
        pivots.append(col)
        echelon.append(row)
    order = sorted(range(len(pivots)), key=lambda r: pivots[r])
    return [pivots[r] for r in order], [echelon[r] for r in order]
