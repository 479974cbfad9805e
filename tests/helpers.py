"""Shared helpers for the test suite: seeded random tensors over Q, and the
reference implementations the engine is checked against."""

import copy
import functools
import json
import random
import sys
from fractions import Fraction
from importlib import resources
from itertools import combinations
from math import inf, lcm
from unittest import mock

from poisson3 import (
    GradedBasis, MultiVector, OperatorCell, Polynomial, StructureConstants, cohomology_table,
    format_multivector, rotation_field, schouten_bracket, wedge)
from poisson3.complexes import linear_operator_matrix, new_invariant_vectors
from poisson3 import linalg
from poisson3.multivector import component_wedge
from poisson3.linalg import (
    independent_columns_mod_p, integer_normalize, kernel_and_image_of_rows, lay_out, matvec,
    rref)


def bracket_calls(call):
    """How many times `call()` enters `schouten_bracket`."""
    calls = []

    def profile(frame, event, arg):
        if event == "call":
            calls.append(frame.f_code)

    sys.setprofile(profile)
    try:
        call()
    finally:
        sys.setprofile(None)
    return calls.count(schouten_bracket.__code__)


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


def kernel_and_image(columns, skip=()):
    """`kernel_and_image_of_rows` of a list of columns, laid out by `lay_out`."""
    return kernel_and_image_of_rows(len(columns), lay_out(columns), skip)


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


ROTATION = rotation_field()  # one object, so a loop over (q, d) can hold its stencils


def rotation_matrix(q, d):
    """Matrix of the Lie derivative along the rotation field on (q, d)."""
    return linear_operator_matrix(ROTATION, q, d)


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


def lie_bracket(a, b):
    """Commutator of two vector fields, computed componentwise.

    Independent of the graded bracket machinery on purpose: the two routes
    are compared in tests.
    """
    if a.degree != 1 or b.degree != 1:
        raise ValueError("lie_bracket expects vector fields")
    comps = {}
    for k in range(3):
        total = Polynomial.zero()
        for i in range(3):
            total = total + a.component(i) * b.component(k).diff(i)
            total = total - b.component(i) * a.component(k).diff(i)
        if total:
            comps[k] = total
    return MultiVector(1, comps)


def closed_form_differential(pi, value):
    """Differential computed from closed-form component formulas.

    Only valid for bivectors pi = (P dx + Q dy) ^ dz with P, Q independent
    of z.  This is a deliberately independent route from the bracket
    machinery; tests compare the two on random inputs.
    """
    if pi.degree != 2 or pi.component(2):
        raise ValueError("closed form needs a bivector with no dx^dy part")
    p = -pi.component(1)
    q = pi.component(0)
    if p.diff(2) or q.diff(2):
        raise ValueError("closed form needs z-independent coefficients")

    def along(h):  # directional derivative along P dx + Q dy
        return p * h.diff(0) + q * h.diff(1)

    if value.degree == 0:
        g = value.component(0)
        gz = g.diff(2)
        return MultiVector.vector(gz * p, gz * q, -along(g))
    if value.degree == 1:
        a, b, c = (value.component(i) for i in range(3))
        wx = along(b) - a * q.diff(0) - b * q.diff(1) + q * c.diff(2)
        wy = -along(a) + a * p.diff(0) + b * p.diff(1) - p * c.diff(2)
        wz = p * b.diff(2) - q * a.diff(2)
        return MultiVector.bivector(wx, wy, wz)
    if value.degree == 2:
        wx, wy, wz = (value.component(i) for i in range(3))
        coeff = p * wx.diff(2) + q * wy.diff(2) + (p.diff(0) + q.diff(1)) * wz - along(wz)
        return MultiVector.trivector(coeff)
    return MultiVector.zero(3)


def invariant_basis(q, d):
    """Canonical basis of the rotation-invariant subspace of (q, d).

    Returns (basis, vectors): the ambient GradedBasis and a list of sparse
    int vectors spanning the kernel of the rotation Lie derivative, the
    products (x^2 + y^2)^a z^b g of degree d of its generators g.  They are
    the `new_invariant_vectors` of each degree e <= d, in turn: z^(d - e)
    times a vector new at e has its positions at degree d, and those of
    each e lie after every lower e's.  So they are sorted by their top
    coordinate, +-1 and listed first, where no other is nonzero: the
    reduced kernel basis an elimination would give.
    """
    return GradedBasis(q, d), [dict(vec) for e in range(d + 1)
                               for vec in new_invariant_vectors(q, e)]


def ce_differential(constants, q, d):
    """The Chevalley-Eilenberg differential of g on Hom(Lambda^q g, S^d g),
    from the structure constants alone (`StructureConstants.get`).

    For a linear pi on g*, [pi, .] on the (q, d) cochains is this map.  A
    basis cochain (I, m) sends e_I, I an increasing index tuple, to x^m, a
    monomial of degree d in the basis x_0, x_1, x_2 of g, and every other
    increasing tuple to 0.  Returns {(I, m): column}, each column
    {(J, m'): Fraction} of

        (d w)(X_0..X_q) = sum_i (-1)^i X_i . w(..^X_i..)
                          + sum_(i<j) (-1)^(i+j) w([X_i, X_j], ..^X_i..^X_j..),

    where e_i acts on S(g) as the derivation x_j -> sum_k c^k_ij x_k.
    """
    def act(i, mono):  # e_i . x^mono
        out = {}
        for j in range(3):
            for k in range(3):
                if mono[j] and (c := constants.get(i, j, k)):
                    m = tuple(e - (a == j) + (a == k) for a, e in enumerate(mono))
                    out[m] = out.get(m, 0) + mono[j] * c
        return out

    columns = {}
    for source in combinations(range(3), q):
        for mono in [(i, j, d - i - j) for i in range(d + 1) for j in range(d + 1 - i)]:
            col = {}
            for target in combinations(range(3), q + 1):
                for i in range(q + 1):  # X_i . w(..^X_i..)
                    if target[:i] + target[i + 1:] == source:
                        for m, c in act(target[i], mono).items():
                            col[target, m] = col.get((target, m), 0) + (-1) ** i * c
                for i, j in combinations(range(q + 1), 2):  # w([X_i, X_j], ..)
                    rest = target[:i] + target[i + 1:j] + target[j + 1:]
                    if set(rest) <= set(source):
                        (k,) = set(source) - set(rest)
                        # e_k moved past the indices of rest below it
                        sign = (-1) ** (i + j + sum(r < k for r in rest))
                        c = sign * constants.get(target[i], target[j], k)
                        col[target, mono] = col.get((target, mono), 0) + c
            columns[source, mono] = {key: c for key, c in col.items() if c}
    return columns


def ce_coordinates(q, d, coords):
    """Coordinates {position: c} on the (q, d) basis as a Chevalley-Eilenberg
    cochain {(I, m): c} of `ce_differential`: x^m xi_idx is sign * e*_I,
    with (I, sign) = `component_wedge(q, idx)`."""
    basis, out = GradedBasis(q, d), {}
    for position, c in coords.items():
        idx, mono = basis.element(position)
        gens, sign = component_wedge(q, idx)
        out[gens, mono] = sign * c
    return out


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


def inverse_matrix(p):
    """The inverse of an invertible 3x3 matrix, through its adjugate, as Fractions."""
    det = determinant(p)
    inverse = [[Fraction(p[(j + 1) % 3][(i + 1) % 3] * p[(j + 2) % 3][(i + 2) % 3]
                         - p[(j + 1) % 3][(i + 2) % 3] * p[(j + 2) % 3][(i + 1) % 3], det)
                for j in range(3)] for i in range(3)]
    assert all(sum(p[i][k] * inverse[k][j] for k in range(3)) == (i == j)
               for i in range(3) for j in range(3))
    return inverse


def constants_in_basis(constants, p):
    """Constants of the same algebra in the basis f_a = sum_i P[i][a] e_i, P invertible."""
    inverse = inverse_matrix(p)
    entries = {}
    for a in range(3):
        for b in range(a + 1, 3):
            for c in range(3):
                entries[(a, b, c)] = sum(
                    inverse[c][k] * (p[i][a] * p[j][b] - p[j][a] * p[i][b]) * value
                    for (i, j, k), value in constants.c.items())
    return StructureConstants(entries)


def conjugated_constants(constants, rng):
    """Constants of the same algebra in the basis f_a = sum_i P[i][a] e_i.

    P is `unimodular_matrix(rng)`, in GL3(Z), so the new constants are
    integer combinations of the old.
    """
    return constants_in_basis(constants, unimodular_matrix(rng))


def full_build_invariant_table(pi, dmax):
    """`cohomology_table(pi, dmax, invariant=True)` with each vector applied
    through every column of the cells that hold it: its image is the
    product with the columns of d_q at its degree d, and its slope the
    product with those of the same stencil at d + 1 less that image.  A
    list cell, as the restricted ones are, applies as it does unpatched."""
    apply = OperatorCell.apply

    def every_column(cell, vector):
        if cell._stencil is None:
            return apply(cell, vector)
        source, target = (GradedBasis(basis.q, basis.d + 1) for basis in (cell.source, cell.target))
        above = OperatorCell(source, target, None, cell.den, cell._stencil)
        image = matvec(cell.columns, vector)
        return image, matvec((matvec(above.columns, vector), image), {0: 1, 1: -1})

    with mock.patch.object(OperatorCell, "apply", every_column):
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


def hs_dimensions(constants, ideal, e, d):
    """dim H^{q,d}, q = 0..3, of the linear Poisson structure of a solvable
    g = Re + a, by the Hochschild-Serre spectral sequence; no engine code.

    `ideal` is two coordinate vectors spanning a 2-dimensional abelian
    ideal a of g, `e` a vector outside it, all in the basis of `constants`.
    In the basis (a_1, a_2, e), with M = ad e on a, a acts on V = S^d g by
    rho(a_i) = -(M a_i) d/de and e by the derivation a_i -> M a_i.  H(a; V)
    is the Koszul cohomology of rho(a_1), rho(a_2), and g/a = Re has two
    columns, so dim H^q(g; V) = k_q + k_(q-1), where k_n = dim ker(e on
    H^n(a; V)).  Scaling e scales M and changes no kernel, so M is made
    integral first.
    """
    frame = [[*(vector[i] for vector in ideal), e[i]] for i in range(3)]
    c = constants_in_basis(constants, frame)
    assert not any(c.get(0, 1, k) or c.get(i, 2, 2) for i in (0, 1) for k in range(3)), \
        "not an abelian ideal"
    m = [[c.get(2, i, j) for i in (0, 1)] for j in (0, 1)]  # [e, a_i] = sum_j m[j][i] a_j
    scale = lcm(*(v.denominator for row in m for v in row))
    k = _koszul_counts(tuple(tuple(int(v * scale) for v in row) for row in m), d)
    return [k[0], k[1] + k[0], k[2] + k[1], k[2]]


@functools.cache  # a table in another basis with the same frame constants asks again
def _koszul_counts(m, d):
    """(k_0, k_1, k_2) of `hs_dimensions` for M = m, an integer 2x2 matrix.

    A class of H^n(a; V) that e kills is a cocycle z with e z = d c.  The
    pairs (z, c) with d z = 0 and e z = d c, the kernel of (z, c) ->
    (d z, e z - d c) on C^n + C^(n-1), map onto those z, with the pairs
    (0, c), d c = 0, as kernel; so k_n = dim of those z - dim B^n is dim
    C^n less the rank of that map, as dim Z^(n-1) + dim B^n = dim C^(n-1).
    The rank is a Fraction rank through `reference_rref`.  rho(a_i) lowers
    the power of e by one and e keeps it, so each power of e is counted on
    its own.  A cochain of C^1 is (f_1, f_2), f_i its value at a_i, keyed
    (i - 1, m).
    """
    trace = m[0][0] + m[1][1]

    def moved(mono, source, target):
        return tuple(n - (k == source) + (k == target) for k, n in enumerate(mono))

    def rho(i, mono):  # -(M a_i) d/de
        return {moved(mono, 2, j): -m[j][i] * mono[2] for j in (0, 1) if m[j][i] and mono[2]}

    def rho_e(mono):  # sum_i (M a_i) d/da_i
        out = {}
        for i in (0, 1):
            for j in (0, 1):
                if m[j][i] and mono[i]:
                    key = moved(mono, i, j)
                    out[key] = out.get(key, 0) + m[j][i] * mono[i]
        return out

    def d_0(mono):
        return {(i, key): v for i in (0, 1) for key, v in rho(i, mono).items()}

    def d_1(slot_mono):  # (f_1, f_2) -> rho(a_1) f_2 - rho(a_2) f_1
        slot, mono = slot_mono
        return rho(0, mono) if slot else {key: -v for key, v in rho(1, mono).items()}

    def e_1(slot_mono):  # (e w)(a_i) = e w(a_i) - w([e, a_i])
        slot, mono = slot_mono
        out = {(slot, key): v for key, v in rho_e(mono).items()}
        for i in (0, 1):
            out[i, mono] = out.get((i, mono), 0) - m[slot][i]
        return out

    def e_2(mono):  # (e w)(a_1, a_2) = e w(a_1, a_2) - tr(M) w(a_1, a_2)
        out = rho_e(mono)
        out[mono] = out.get(mono, 0) - trace
        return out

    steps = ((d_0, rho_e, None), (d_1, e_1, d_0), (lambda cochain: {}, e_2, d_1))
    k = [0, 0, 0]
    for power in range(d + 1):  # the cochains at e^power, and those at e^(power + 1)
        monos, above = ([(i, d - p - i, p) for i in range(d - p + 1)] for p in (power, power + 1))
        cochains = (monos, [(slot, mono) for slot in (0, 1) for mono in monos], monos)
        before = ((), above, [(slot, mono) for slot in (0, 1) for mono in above])
        for n, (d_n, e_n, d_before) in enumerate(steps):
            vectors = [{**{(0, key): v for key, v in d_n(z).items()},
                        **{(1, key): v for key, v in e_n(z).items()}} for z in cochains[n]]
            vectors += [{(1, key): -v for key, v in d_before(c).items()} for c in before[n]]
            k[n] += len(cochains[n]) - len(reference_rref(vectors)[0])
    return tuple(k)


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
