"""Shared helpers for the test suite: seeded random tensors over Q."""

import copy
import json
import random
from fractions import Fraction
from importlib import resources
from math import inf, lcm
from unittest import mock

from poisson3 import (
    GradedBasis, MultiVector, OperatorCell, Polynomial, StructureConstants, cohomology_table,
    format_multivector, invariant_basis, rotation_field, schouten_bracket, wedge)
from poisson3.complexes import linear_operator_matrix
from poisson3 import linalg
from poisson3.linalg import (
    independent_columns_mod_p, integer_normalize, kernel_and_image, matvec, rref)


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


def wedge_built(degree, terms):
    """The multivector of degree `degree` summing (coeff, mono, gens) terms,
    each built term by term: the scalar coeff*x^mono wedged with the basis
    vector field of each generator axis in turn (a repeat gives 0), then all
    added up from the zero of that degree."""
    values = []
    for coeff, mono, gens in terms:
        value = MultiVector.scalar(Polynomial.monomial(mono, coeff))
        for gen in gens:
            value = wedge(value, MultiVector.basis(1, gen))
        values.append(value)
    return sum(values, MultiVector.zero(degree))


def integer_rows(rows):
    """Each rational row times the lcm of its denominators: the same row space."""
    out = []
    for row in rows:
        scale = lcm(*(Fraction(c).denominator for c in row.values()))
        out.append({i: int(c * scale) for i, c in row.items()})
    return out


def integer_matrix(columns):
    """A rational matrix times one lcm of all its denominators: the same kernel,
    and the same solutions when a target is scaled with it."""
    scale = lcm(*(Fraction(c).denominator for col in columns for c in col.values()))
    return [{i: int(c * scale) for i, c in col.items()} for col in columns]


def exact_columns(cell):
    """The rational matrix of an OperatorCell: its columns over its den."""
    return [{i: Fraction(c, cell.den) for i, c in col.items()} for col in cell.columns]


def rank(columns):
    """Rank of a matrix given as a list of sparse rational columns."""
    pivots, _ = rref(integer_rows(columns))
    return len(pivots)


def compose(outer_columns, inner_columns):
    """Columns of outer @ inner (columns of inner mapped through outer)."""
    return [matvec(outer_columns, col) for col in inner_columns]


def kernel_basis(columns):
    """Canonical basis of {v : sum_j v[j] columns[j] = 0}.

    The kernel of `kernel_and_image` run on the columns in reverse order,
    which reduces the rows in their own column order: one vector per free
    column, the only basis vector nonzero at its highest coordinate, as
    coprime ints with positive leading entry.  (rank, basis) is returned;
    rank + len(basis) == len(columns).
    """
    last = len(columns) - 1
    rk, _, kernel, _ = kernel_and_image(columns[::-1])
    basis = [integer_normalize({last - j: c for j, c in vec.items()})
             for vec in reversed(kernel)]
    return rk, basis


def mod_p_pass(columns, skip, spare=inf):
    """The mod-p pass on built columns, an oracle for `independent_columns_mod_p`.

    The columns outside `skip` are read last first, each reduced mod
    `linalg.PRIME` from its highest entry, an entry that is 0 mod p dropped;
    a vector that lands on a new pivot is stored as it is, and normalised
    the first time another one is reduced against it.  Once more than
    `spare` columns have reduced to 0 the pass stops.  Returns (kept
    positions in ascending order, pivot rows, or None for a pass that
    stopped).  The columns are never written.
    """
    p = linalg.PRIME
    table, stored, found = {}, {}, {}  # pivot -> normalised vector, landed vector, position
    for j in range(len(columns) - 1, -1, -1):
        if j in skip:
            continue
        vec = dict(columns[j])
        while vec:
            col = max(vec)
            b = vec[col] % p
            if not b:
                del vec[col]
                continue
            pivot_vec = table.get(col)
            if pivot_vec is None:
                if col not in stored:
                    stored[col], found[col] = vec, j
                    break
                pivot_vec = stored.pop(col)
                inverse = pow(pivot_vec[col], -1, p)
                table[col] = pivot_vec = {
                    i: r for i, c in pivot_vec.items() if (r := c * inverse % p)}
            for i, c in pivot_vec.items():
                val = (vec.get(i, 0) - b * c) % p
                if val:
                    vec[i] = val
                else:
                    del vec[i]
        else:
            spare -= 1
            if spare < 0:
                return sorted(found.values()), None
    return sorted(found.values()), set(found)


def cell_pass(columns, skip, spare=inf):
    """`independent_columns_mod_p` on a cell that holds the columns, checked
    against `mod_p_pass`: (kept positions in ascending order, pivot_rows)."""
    snapshot = copy.deepcopy(columns)
    result = independent_columns_mod_p(OperatorCell(None, None, columns, 1), skip, spare)
    assert columns == snapshot and result == mod_p_pass(columns, skip, spare)
    return result


def rotation_matrix(q, d):
    """Matrix of the Lie derivative along the rotation field on (q, d)."""
    return linear_operator_matrix(rotation_field(), q, d)


def operator_matrix(operator, q, d):
    """Matrix of V -> [operator, V] on the (q, d) basis, one Schouten bracket per column.

    The independent route `linear_operator_matrix` is checked against: its
    columns are Fractions and its den is 1.  The bracket lowers the total
    coefficient degree by one, so the operator preserves the grading exactly
    when its own coefficients are homogeneous linear.  Any violation
    surfaces as a DegreeError when an image is decomposed in the target
    basis.
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


def unimodular_matrix(rng):
    """A random product of six integer column moves on the 3x3 identity: a
    shear (column j plus one multiple of column i), a sign flip or a swap.
    Each has determinant +-1, so the product lies in GL3(Z)."""
    p = [[int(i == j) for j in range(3)] for i in range(3)]
    for _ in range(6):
        i, j = rng.sample(range(3), 2)
        move = rng.choice(("shear", "flip", "swap"))
        factor = rng.choice((-2, -1, 1, 2)) if move == "shear" else None
        for row in p:
            if move == "shear":
                row[j] += factor * row[i]
            elif move == "flip":
                row[j] = -row[j]
            else:
                row[i], row[j] = row[j], row[i]
    return p


def determinant(p):
    """The determinant of a 3x3 matrix, by cofactors along its first row."""
    return sum(p[0][j] * (p[1][(j + 1) % 3] * p[2][(j + 2) % 3]
                          - p[1][(j + 2) % 3] * p[2][(j + 1) % 3]) for j in range(3))


def conjugated_constants(constants, rng):
    """Constants of the same algebra in the basis f_a = sum_i P[i][a] e_i.

    P is `unimodular_matrix(rng)`, in GL3(Z), so the new constants are
    integer combinations of the old.
    """
    p = unimodular_matrix(rng)
    det = determinant(p)
    # inverse through the adjugate; det is +-1
    inverse = [[Fraction(p[(j + 1) % 3][(i + 1) % 3] * p[(j + 2) % 3][(i + 2) % 3]
                         - p[(j + 1) % 3][(i + 2) % 3] * p[(j + 2) % 3][(i + 1) % 3], det)
                for j in range(3)] for i in range(3)]
    assert all(sum(p[i][k] * inverse[k][j] for k in range(3)) == (i == j)
               for i in range(3) for j in range(3))
    entries = {}
    for a in range(3):
        for b in range(a + 1, 3):
            for c in range(3):
                entries[(a, b, c)] = sum(
                    inverse[c][k] * p[i][a] * p[j][b] * constants.get(i, j, k)
                    for i in range(3) for j in range(3) for k in range(3))
    return StructureConstants(entries)


def full_build_invariant_table(pi, dmax):
    """`cohomology_table(pi, dmax, invariant=True)` by the route the engine
    took before it built only the supported columns: every column of each
    d_q, then the restriction to the invariant sub-bases.  A list cell, as
    the restricted ones are, reads its columns as it does unpatched."""
    columns_at = OperatorCell.columns_at

    def every_column(cell, positions):
        if cell._stencil is None:
            return columns_at(cell, positions)
        return dict(enumerate(cell.columns))

    with mock.patch.object(OperatorCell, "columns_at", every_column):
        return cohomology_table(pi, dmax, invariant=True)


def invariant_multivectors(q, d):
    """The rotation-invariant sub-basis of (q, d) as multivectors."""
    basis, vectors = invariant_basis(q, d)
    return [basis.reconstruct(v) for v in vectors]


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


def expression_corpus():
    """Inputs for the parser's golden test, in a fixed order.

    Every fixture expression, 300 canonical random multivectors, then 20,000
    short strings over the grammar's alphabet and a few characters outside it.
    """
    corpus = []
    fixtures = resources.files("poisson3") / "fixtures"
    for entry in sorted(fixtures.iterdir(), key=lambda path: path.name):
        if not entry.name.endswith(".json"):
            continue
        raw = json.loads(entry.read_text())
        for generator in raw["generators"]:
            corpus.extend(generator["exprs"])
        corpus.extend(check["expr"] for check in raw["checks"]["exact"])
    rng = random.Random(2024)
    for _ in range(300):
        corpus.append(format_multivector(random_multivector(rng, rng.randint(0, 3), 5)))
    alphabet = "xyzd+-*^/ 0123w()"
    for _ in range(20000):
        corpus.append("".join(rng.choice(alphabet) for _ in range(rng.randint(0, 8))))
    return corpus
