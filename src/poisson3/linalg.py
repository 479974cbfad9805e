"""Exact sparse linear algebra over the integers.

Vectors are dicts {index: nonzero int}; matrices are lists of such column
dicts (rational data enters scaled by a common denominator, which changes
no rank, kernel or span).  Every exact result comes from one canonical
routine, fraction-free elimination whose rows are primitive, positive at
their pivot and zero at the other pivots: a form as unique as the reduced
row echelon form, so ranks, kernels, and cohomology representatives
downstream are deterministic.  Because the form is unique, the elimination
does only the work it must: a row that lands with one entry is the pivot
{col: 1}, and eliminating against it is a delete; a row is made primitive
once when it lands and once after its back-substitution, not at every
step.  `kernel_and_image` gets the rank, the reduced kernel and the pivots
of the image's echelon (the rows `rref` reports as `landed`) of a map from
one such elimination, and reads off only the kernel vectors its caller
asks for; solves are read off that same routine.  Only
`solve_combination` returns Fractions.

`independent_columns_mod_p` runs the same elimination in word-size
arithmetic modulo `PRIME`, a constant rather than an option, on the columns
of a map of a complex but those at the pivot rows of the previous map's
pass, or at its image's exact pivots.  It reduces an entry mod p only where
it is read, normalises a pivot the first time another vector is reduced
against it, never writes the input vectors, and stops once more columns
than its caller can spare are dependent.  Its rank mod p is a lower bound
for the rank over Q (a minor that is nonzero mod p is a nonzero integer),
so the columns it returns are independent over Q too: enough to certify a
rank that cannot be larger.
"""

from fractions import Fraction
from math import gcd, lcm

PRIME = 2**30 - 35  # below 2**30: each residue is one CPython digit, the fast path


def _primitive(row):
    """Divide an integer row by the gcd of its entries."""
    g = gcd(*row.values())
    if g == 1:
        return row
    return {i: c // g for i, c in row.items()}


def _eliminate(row, pivot_row, col):
    """An integer combination of row and pivot_row that is 0 at col, not made primitive.

    `row` is written in place, so the caller must own it.  A one-entry
    pivot row is e_col, and eliminating against it is a delete.  Otherwise
    row is scaled by a = pivot_row[col] / gcd(pivot_row[col], row[col]),
    which is positive since pivot rows are positive at their pivot: the
    result is a positive multiple of the row that a gcd at every step would
    give, so one gcd of the finished row gives the same row.
    """
    if len(pivot_row) == 1:
        del row[col]
        return row
    a = pivot_row[col]
    b = row[col]
    g = gcd(a, b)
    a //= g
    b //= g
    if a != 1:
        row = {i: a * c for i, c in row.items()}
    for i, c in pivot_row.items():
        val = row.get(i, 0) - b * c
        if val:
            row[i] = val
        else:
            del row[i]
    return row


def rref(rows, landed=None):
    """Integer reduced row echelon form of a list of sparse integer rows.

    Returns (pivots, echelon_rows) where pivots[r] is the leading index of
    echelon_rows[r], in increasing order; each row is primitive, positive at
    its pivot and zero at the other pivots.  Zero rows are dropped.  Each
    row is copied and reduced against the pivots already found, with no
    gcd until it lands on a new pivot: then it is made primitive and
    positive there, and a row that lands with one entry is stored as
    {pivot: 1} with no arithmetic at all.  Back-substitution runs from the
    last pivot down, and each row is made primitive once, after its last
    step.  Such a form is unique, so no order of these steps changes it.

    The rows are inserted in the order given, and the table spans the rows
    inserted so far, so a row lands on a new pivot exactly when it is
    independent of the rows before it.  When `landed` is a list, the
    position of each such row is appended to it, in order.
    """
    table = {}
    for k, row in enumerate(rows):
        row = {i: c for i, c in row.items() if c}
        while row:
            col = min(row)
            pivot_row = table.get(col)
            if pivot_row is None:
                if landed is not None:
                    landed.append(k)
                if len(row) == 1:
                    table[col] = {col: 1}
                    break
                if row[col] < 0:
                    row = {i: -c for i, c in row.items()}
                table[col] = _primitive(row)
                break
            row = _eliminate(row, pivot_row, col)
    pivots = sorted(table)
    echelon = []
    for col in reversed(pivots):
        row = table[col]
        # the rows of the later pivots are already reduced, so clearing one
        # of their pivots puts nothing back at another
        others = [i for i in row if i != col and i in table]
        if others:
            for other in others:
                row = _eliminate(row, table[other], other)
            table[col] = row = _primitive(row)
        echelon.append(row)
    echelon.reverse()
    return pivots, echelon


def reduce_against(table, vec):
    """Primitive multiple of vec with the pivots of `table` eliminated, {} on the span.

    `table` is {pivot: row} from `rref`; each row is zero at the other
    pivots, so only the pivots vec holds are visited.  vec is copied before
    `_eliminate` writes it, and the table is only read.
    """
    row = {i: c for i, c in vec.items() if c}
    for pivot in [i for i in row if i in table]:
        row = _eliminate(row, table[pivot], pivot)
    return _primitive(row)


def _rows(columns):
    """The nonzero rows of a matrix given by its columns, column j placed at n-1-j.

    Returns (index, rows): the row indices in ascending order and the rows
    in that order, so that `rref` inserts row index[k] k-th.  This is the
    only place where columns become rows.
    """
    last = len(columns) - 1
    rows = {}
    for j, col in enumerate(columns):
        for i, c in col.items():
            rows.setdefault(i, {})[last - j] = c
    index = sorted(rows)
    return index, [rows[i] for i in index]


def _echelon_mod_p(vectors, spare):
    """{pivot: k} for the vectors k independent mod `PRIME` of those before them.

    Each vector is reduced at its highest index first, where an entry that
    is 0 mod p is dropped, so a pivot vector is 0 above its pivot.  Only
    arithmetic that is used is paid for: a vector that lands on an unused
    pivot is stored as it is, and a pivot vector is reduced mod p and scaled
    to 1 at its pivot the first time another vector is reduced against it.
    A vector is copied just before its first write, so the input vectors
    are never written.  Once more than `spare` vectors have reduced to 0,
    the pass stops: it returns (found, False), found holding the vectors
    before the one that stopped it, and (found, True) after the last vector.
    """
    p = PRIME
    table = {}  # pivot -> vector reduced mod p, 1 at the pivot
    stored = {}  # pivot -> vector as it landed, until first used
    found = {}
    for k, vec in enumerate(vectors):
        copied = False
        while vec:
            col = max(vec)
            b = vec[col] % p
            if b:
                pivot_vec = table.get(col)
                if pivot_vec is None:
                    pivot_vec = stored.pop(col, None)
                    if pivot_vec is None:
                        stored[col] = vec
                        found[col] = k
                        break
                    inverse = pow(pivot_vec[col], -1, p)
                    table[col] = pivot_vec = {
                        i: r for i, c in pivot_vec.items() if (r := c * inverse % p)}
            if not copied:
                vec = dict(vec)
                copied = True
            if not b:
                del vec[col]
                continue
            for i, c in pivot_vec.items():
                val = (vec.get(i, 0) - b * c) % p
                if val:
                    vec[i] = val
                else:
                    del vec[i]
        else:  # reduced to 0
            spare -= 1
            if spare < 0:
                return found, False
    return found, True


def independent_columns_mod_p(columns, skip, spare=None):
    """Columns outside `skip` independent modulo `PRIME`, and the rows they lead at.

    The columns j not in `skip` are reduced last first.  Returns (kept,
    pivot_rows): the sorted indices of those independent mod p of the later
    ones, and the set of rows at which their reduced vectors lead.  The
    kept columns are independent over Q as well.  When `skip` is the
    pivot_rows of a matrix A and this matrix times A is 0, A's reduced
    vectors and the unit vectors e_j, j not in `skip`, form a triangular
    basis on whose first part this matrix is 0: the columns outside `skip`
    then carry its whole image, and their count is its full rank mod p.
    The same holds when `skip` holds the rows at which A's image echelon
    leads, over Q and so for all but unlucky primes.

    With `spare` a count, the pass stops at the first dependent column
    past `spare`: kept holds the columns found before it, still
    independent over Q, and pivot_rows is None.
    """
    order = [j for j in range(len(columns) - 1, -1, -1) if j not in skip]
    found, whole = _echelon_mod_p([columns[j] for j in order],
                                  len(order) if spare is None else spare)
    return sorted(order[k] for k in found.values()), set(found) if whole else None


def kernel_and_image(columns, skip=()):
    """Rank, reduced kernel and the image's pivots of a matrix from one `rref`.

    This is where a kernel is read off an echelon.  The rows are reduced
    with column j placed at n-1-j (`_rows`), so each echelon row
    leads at its highest original column.  The kernel then comes out in the
    echelon form of `rref`: one vector per free column j, led at j by the
    lcm of the pivot entries of the rows that touch j, with the scaled and
    negated row entries at the pivot columns, which all lie above j.  Only
    the vectors led at free columns outside `skip` are read off, so a
    caller that needs some of the kernel pays for no other vector.

    The rows go in by ascending row index, so those that land on a new
    pivot, independent of the rows before them, are the pivots of the
    image's echelon as `rref` of the image columns would give them.  A
    free column is in the span of the columns after it, so emptying it
    changes none of this: a caller may leave out columns it knows to be free.

    Returns (rank, kernel_pivots, kernel_echelon, image_pivots), the
    kernel restricted to the free columns outside `skip`, and the image's
    pivots as a set of row indices.
    """
    last = len(columns) - 1
    index, rows = _rows(columns)
    landed = []
    pivots, echelon = rref(rows, landed)
    bound = {last - p for p in pivots}
    entries = {j: [] for j in range(len(columns)) if j not in bound and j not in skip}
    for pivot, row in zip(pivots, echelon):
        lead = row[pivot]
        for k, c in row.items():
            terms = entries.get(last - k)  # None at the pivot itself
            if terms is not None:
                terms.append((last - pivot, -c, lead))
    kernel = []
    for j, terms in entries.items():
        scale = lcm(*(lead for _, _, lead in terms))
        kernel.append(_primitive({j: scale, **{i: c * (scale // lead) for i, c, lead in terms}}))
    return len(pivots), list(entries), kernel, {index[k] for k in landed}


def integer_normalize(vec):
    """Scale a rational vector to coprime ints, positive at the lowest index.

    A vector with no nonzero entry gives {}.
    """
    scale = lcm(*(c.denominator for c in vec.values()))
    row = {i: c.numerator * (scale // c.denominator) for i, c in vec.items() if c}
    if not row:
        return {}
    row = _primitive(row)
    sign = -1 if row[min(row)] < 0 else 1
    return {i: sign * c for i, c in row.items()}


def matvec(columns, vec):
    """Matrix times sparse vector: sum_j vec[j] * columns[j]."""
    out = {}
    for j, factor in vec.items():
        if not factor:
            continue
        for i, c in columns[j].items():
            val = out.get(i, 0) + factor * c
            if val:
                out[i] = val
            elif i in out:
                del out[i]
    return out


def solve_combination(columns, target):
    """Coefficients expressing target as a combination of columns, or None.

    `kernel_and_image` of the target followed by the columns in reverse
    order reduces the rows [columns | target]: the target lies in the span
    exactly when its column is free, and the kernel vector led there,
    negated and divided by its lead, holds the coefficients as Fractions
    (zero at the free columns).  No other kernel vector is read off.  When
    the columns are linearly independent the solution is unique.
    """
    last = len(columns)
    _, kernel_pivots, kernel, _ = kernel_and_image([target, *columns[::-1]], range(1, last + 1))
    if not kernel_pivots:
        return None  # inconsistent system
    lead = kernel[0][0]
    return {last - j: Fraction(-c, lead) for j, c in kernel[0].items() if j}
