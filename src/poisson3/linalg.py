"""Exact sparse linear algebra over the integers.

Vectors are dicts {index: nonzero int}; matrices are lists of such column
dicts (rational data enters scaled by a common denominator, which changes
no rank, kernel or span).  Every exact result comes from one canonical
routine, fraction-free elimination whose rows are primitive, positive at
their pivot and zero at the other pivots: a form as unique as the reduced
row echelon form, so ranks, kernels, and cohomology representatives
downstream are deterministic, and the elimination does only the work it
must (`rref`).  A map goes in as rows, column j placed at n-1-j
(`lay_out`), and `kernel_and_image_of_rows` gets its rank, its reduced
kernel and the pivots of its image's echelon from one such elimination,
reading off only the kernel vectors its caller asks for; solves are read
off that same routine.  Span and membership questions read the rows that
land in one `rref` (its `landed` list): a row lands exactly when it is
independent of the rows before it, so no exact reduction runs outside
`rref`.  Only `solve_combination` returns Fractions.

`independent_columns_mod_p` runs the same elimination in word-size
arithmetic modulo `PRIME`, a constant rather than an option, on a cell of
a complex, and stops once more of its columns than its caller can spare
are dependent.  It reads each column's lead, its highest row that is
nonzero mod p, and builds a column only when that row is a pivot already.
Its rank mod p is a lower bound for the rank over Q (a minor that is
nonzero mod p is a nonzero integer), so the columns it keeps are
independent over Q too: enough to certify a rank that cannot be larger.
"""

from fractions import Fraction
from math import gcd, inf, lcm

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
    its pivot and zero at the other pivots.  Zero rows and zero entries
    are dropped.  A row with one nonzero entry, at col, takes no loop: it
    is stored as {col: 1} when col is a new pivot and dropped when col's
    pivot row is {col: 1}.  Any other row is copied, just before its first
    write, and reduced against the pivots already found, with no gcd until
    it lands on a new pivot: then it is made primitive and positive there,
    and a row that lands with one entry is stored as {pivot: 1}.  The input
    rows are never written, and no echelon row is one of them.
    Back-substitution runs from the last pivot down, passes over the
    {pivot: 1} rows, which hold no other pivot, and makes each other row
    primitive once, after its last step.  Such a form is unique, so no
    order of these steps changes it.

    The rows are inserted in the order given, and the table spans the rows
    inserted so far, so a row lands on a new pivot exactly when it is
    independent of the rows before it.  When `landed` is a list, the
    position of each such row is appended to it, in order.
    """
    table = {}
    for k, row in enumerate(rows):
        if len(row) == 1:
            [col] = row
            if not row[col]:
                continue
            pivot_row = table.get(col)
            if pivot_row is None:
                table[col] = {col: 1}
                if landed is not None:
                    landed.append(k)
                continue
            if len(pivot_row) == 1:
                continue
        row = {i: c for i, c in row.items() if c}  # just before the first write
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
        # a {col: 1} row holds no other pivot; the rows of the later pivots
        # are already reduced, so clearing one of their pivots puts nothing
        # back at another
        if len(row) > 1 and (others := [i for i in row if i != col and i in table]):
            for other in others:
                row = _eliminate(row, table[other], other)
            table[col] = row = _primitive(row)
        echelon.append(row)
    echelon.reverse()
    return pivots, echelon


def lay_out(columns, free=()):
    """The nonzero rows of a matrix given by its columns, column j placed at
    n-1-j, with the columns in `free` left out.

    Returns (index, rows): the row indices in ascending order and the rows
    in that order, so that `rref` inserts row index[k] k-th.  A cell built
    off a stencil writes the same layout with no column (`OperatorCell.rows`).
    """
    last = len(columns) - 1
    rows = {}
    for j, col in enumerate(columns):
        if j in free:
            continue
        k = last - j
        for i, c in col.items():
            row = rows.get(i)
            if row is None:
                rows[i] = {k: c}
            else:
                row[k] = c
    index = sorted(rows)
    return index, [rows[i] for i in index]


def independent_columns_mod_p(cell, skip=(), spare=inf):
    """Columns of a cell independent mod `PRIME` of the later ones, and their rows.

    The columns outside `skip` are read last first by their leads
    (`OperatorCell.leads`), no further than the pass goes.  Returns (kept,
    pivot_rows): the positions of the independent ones in ascending order,
    which are independent over Q too, and the rows at which their reduced
    vectors lead.  When `skip` is the pivot_rows of a matrix A and this
    matrix times A is 0, A's reduced vectors and the unit vectors e_j, j not
    in `skip`, form a triangular basis on whose first part this matrix is
    0: the columns outside `skip` then carry its whole image, and their
    count is its full rank mod p.  The same holds when `skip` holds the rows
    at which A's image echelon leads, over Q and so for all but unlucky
    primes.

    Each vector is reduced at its highest index first, where an entry that
    is 0 mod p is dropped, so a pivot vector is 0 above its pivot.  Only
    work that is used is paid for: a column whose lead is no pivot yet
    lands there unbuilt.  A column is built (`OperatorCell.column`), and
    copied, only when its lead is a pivot already, and a pivot's column when
    another is first reduced against it; it is then reduced mod p and
    scaled to 1 at its pivot.  Once more than `spare` columns have reduced
    to 0, the pass stops: kept holds the columns found before the one that
    stopped it, still independent over Q, and pivot_rows is None.
    """
    p = PRIME
    kept = {}  # pivot -> the position of the column that landed there
    landed = {}  # pivot -> the vector that landed there after a reduction, until first used
    table = {}  # pivot -> vector reduced mod p, 1 at the pivot, once used
    for j, lead in cell.leads(skip, p):
        if lead is not None and lead not in kept:
            kept[lead] = j
            continue
        vec = {} if lead is None else dict(cell.column(j))
        while vec:
            col = max(vec)
            b = vec[col] % p
            if not b:
                del vec[col]
                continue
            pivot_vec = table.get(col)
            if pivot_vec is None:
                if col not in kept:
                    kept[col], landed[col] = j, vec
                    break
                pivot_vec = landed.pop(col, None) or cell.column(kept[col])
                inverse = pow(pivot_vec[col], -1, p)
                table[col] = pivot_vec = {
                    i: r for i, c in pivot_vec.items() if (r := c * inverse % p)}
                if max(pivot_vec) != col:  # a lead read wrong: no reduction would end
                    raise RuntimeError("pivot %d of column %d is not its lead" % (col, kept[col]))
            for i, c in pivot_vec.items():
                val = (vec.get(i, 0) - b * c) % p
                if val:
                    vec[i] = val
                else:
                    del vec[i]
        else:  # reduced to 0
            spare -= 1
            if spare < 0:
                return sorted(kept.values()), None
    return sorted(kept.values()), set(kept)


def kernel_and_image(columns, skip=()):
    """`kernel_and_image_of_rows` of a list of columns, laid out by `lay_out`."""
    return kernel_and_image_of_rows(len(columns), lay_out(columns), skip)


def kernel_and_image_of_rows(size, laid_out, skip=()):
    """Rank, reduced kernel and the image's pivots of a matrix from one `rref`.

    This is where a kernel is read off an echelon.  `laid_out` is (index,
    rows) for a matrix of `size` columns, column j placed at n-1-j (`lay_out`,
    `OperatorCell.rows`), so each echelon row leads at its highest original
    column.  The kernel then comes out in the echelon form of `rref`: one
    vector per free column j, led at j by the lcm of the pivot entries of
    the rows that touch j, with the scaled and negated row entries at the
    pivot columns, which all lie above j; a {pivot: 1} row touches no free
    column, and a free column no row touches gives e_j, {j: 1}, with no
    lcm or gcd.  Only the vectors led at free columns outside `skip` are
    read off.

    The rows go in by ascending row index, so those that land on a new
    pivot are the pivots of the image's echelon as `rref` of the image
    columns would give them.  A free column is in the span of the columns
    after it, so a caller may leave out columns it knows to be free.

    Returns (rank, kernel_pivots, kernel_echelon, image_pivots), the
    kernel restricted to the free columns outside `skip`, and the image's
    pivots as a set of row indices.
    """
    last = size - 1
    index, rows = laid_out
    landed = []
    pivots, echelon = rref(rows, landed)
    bound = {last - p for p in pivots}
    entries = {j: [] for j in range(size) if j not in bound and j not in skip}
    for pivot, row in zip(pivots, echelon):
        if len(row) == 1:  # {pivot: 1} touches no free column
            continue
        lead = row[pivot]
        for k, c in row.items():
            terms = entries.get(last - k)  # None at the pivot itself
            if terms is not None:
                terms.append((last - pivot, -c, lead))
    kernel = []
    for j, terms in entries.items():
        if not terms:  # no echelon row touches j: e_j
            kernel.append({j: 1})
            continue
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
