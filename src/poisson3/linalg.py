"""Exact sparse linear algebra over the integers.

Vectors are dicts {index: nonzero int}; matrices are lists of such column
dicts (rational data enters scaled by a common denominator, which changes
no rank, kernel or span).  Every exact result comes from one routine,
fraction-free forward elimination whose rows are primitive and positive at
their pivot, their lowest index (`rref`), and the elimination does only
the work it must.  A map goes in as rows, column j keyed ~j = -1 - j,
which sorts like n - 1 - j but does not move with n (`lay_out`), and
`kernel_and_image_of_rows` gets its rank, its reduced kernel and the pivots
of its image's echelon from one such elimination.  It back-solves the
forward rows for only the kernel vectors its caller asks for, each the
unique one that is 1 at its free column and 0 at the others, so kernels
and cohomology representatives downstream are as canonical as a reduced
row echelon form would make them; solves are read off that same routine.
An elimination can resume from the forward table an earlier one handed on
for the same first rows, and insert only the rows after them.  `rref` is
that insertion (`echelon`); callers that read only pivots or landed rows
run `echelon` alone (`cohomology`'s certified image pivots, `verify`'s
span check: a row lands exactly when it is independent of the rows before
it), and no exact reduction runs outside the two.  Only
`solve_combination` returns Fractions.

`independent_columns_mod_p` runs the same elimination in word-size
arithmetic modulo `PRIME`, a constant rather than an option, on a cell of
a complex, and stops once more of its columns than its caller can spare
are dependent.  It reads each column's lead, its highest row that is
nonzero mod p, and builds a column only when that row is a pivot already.
Its rank mod p is a lower bound for the rank over Q (a minor that is
nonzero mod p is a nonzero integer), so the columns it keeps are
independent over Q too: enough to certify a rank that cannot be larger.
"""

from bisect import bisect_left, insort
from fractions import Fraction
from itertools import islice
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


def echelon(rows, landed=None, held=None, hand_at=None):
    """The forward table of a list of sparse integer rows, with no
    back-substitution: {pivot: row} in the order the rows landed, each row
    primitive and positive at its pivot, its lowest index.  A row with one
    nonzero entry, at col, takes no loop: it is stored as {col: 1} when col
    is a new pivot and dropped when col's pivot row is {col: 1}.  Any other
    row is copied, just before its first write, and reduced against the
    pivots already found, with no gcd until it lands on a new pivot: then
    it is made primitive and positive there, and a row that lands with one
    entry is stored as {pivot: 1}.  The input rows are never written, and
    no table row is one of them.

    The rows are inserted in the order given, and the table spans the rows
    inserted so far, so a row lands on a new pivot exactly when it is
    independent of the rows before it.  When `landed` is a list, the
    position of each such row is appended to it, in order.

    `held` is a list: empty, or [n, table, landed] as an earlier call
    handed it for the same rows[:n], their forward table and landed
    positions; only rows n and later are then inserted.  With `hand_at` m
    >= n, the table as it stood after row m and the positions below m
    replace `held`'s items.  No row of a held table is written.
    """
    landed = [] if landed is None else landed
    table, start = {}, 0
    if held:
        start, table, before = held
        table = dict(table)
        landed += before
    for k in range(start, len(rows)):
        row = rows[k]
        if len(row) == 1:
            [col] = row
            if not row[col]:
                continue
            pivot_row = table.get(col)
            if pivot_row is None:
                table[col] = {col: 1}
                landed.append(k)
                continue
            if len(pivot_row) == 1:
                continue
        row = {i: c for i, c in row.items() if c}  # just before the first write
        while row:
            col = min(row)
            pivot_row = table.get(col)
            if pivot_row is None:
                landed.append(k)
                if len(row) == 1:
                    table[col] = {col: 1}
                    break
                if row[col] < 0:
                    row = {i: -c for i, c in row.items()}
                table[col] = _primitive(row)
                break
            row = _eliminate(row, pivot_row, col)
    if hand_at is not None:  # the pivots in landing order: those of rows before m come first
        count = bisect_left(landed, hand_at)
        held[:] = hand_at, dict(islice(table.items(), count)), landed[:count]
    return table


def rref(rows, landed=None, held=None, hand_at=None):
    """The exact elimination of a list of sparse integer rows whose kernel
    is read, the entry point of every such reduction.

    Returns (pivots, echelon_rows), the forward table `echelon` leaves, in
    the order the rows landed: each row primitive, positive at its pivot,
    its lowest index, and never written again.  No row is back-substituted:
    `kernel_and_image_of_rows` reads each kernel vector it needs off these
    rows by a sparse back-solve.  `landed`, `held` and `hand_at` go to
    `echelon`.
    """
    table = echelon(rows, landed, held, hand_at)
    return list(table), list(table.values())


def lay_out(columns, free=()):
    """The nonzero rows of a matrix given by its columns, column j keyed ~j,
    with the columns in `free` left out.

    Returns (index, rows): the row indices in ascending order and the rows
    in that order, so that `rref` inserts row index[k] k-th.  A cell built
    off a stencil writes the same layout with no column (`OperatorCell.rows`).
    """
    rows = {}
    for j, col in enumerate(columns):
        if j in free:
            continue
        k = ~j
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


def kernel_and_image_of_rows(size, laid_out, skip=(), held=None, hand_at=None):
    """Rank, reduced kernel and the image's pivots of a matrix from one `rref`.

    This is where a kernel is read off an echelon.  `laid_out` is (index,
    rows) for a matrix of `size` columns, column j keyed ~j (`lay_out`,
    `OperatorCell.rows`), so each row of the forward table leads at its
    highest original column.  The kernel comes out in reduced echelon form:
    one vector v_j per free column j, the unique kernel vector that is 1 at
    j and 0 at the other free columns, as coprime ints positive at j and
    keyed j first, then the pivot columns in descending order.  Only the
    vectors at free columns outside `skip` are read off, each by a sparse
    back-solve of the forward rows (Gilbert and Peierls 1988): the pivots
    are visited in ascending column order from j, each reached through a
    column its row holds off the pivot where v_j is already nonzero, and a
    pivot whose row sums to 0 there is 0 in v_j and reaches nothing.  The
    solve is fraction-free: v_j is rescaled only where a pivot's lead does
    not divide its row's sum, and made primitive once, at the end.  A free
    column that no row of several entries holds gives e_j, {j: 1}, with no
    gcd.  A {pivot: 1} row holds nothing off its pivot, which is 0 in every
    v_j.  `held` and `hand_at` go to `rref`: the elimination may resume
    from a forward table of the first rows, and hand one on.

    The rows go in by ascending row index, so those that land on a new
    pivot are the pivots of the image's echelon as `rref` of the image
    columns would give them.  A free column is in the span of the columns
    after it, so a caller may leave out columns it knows to be free.

    Returns (rank, kernel_pivots, kernel_echelon, image_pivots), the
    kernel restricted to the free columns outside `skip`, and the image's
    pivots as a set of row indices.
    """
    index, rows = laid_out
    landed = []
    pivots, forward = rref(rows, landed, held, hand_at)
    bound = {~p for p in pivots}
    free = [j for j in range(size) if j not in bound and j not in skip]
    holders = {}  # column key -> [(pivot, row)] of the rows that hold it off their pivot
    if free:
        top = ~free[0]  # no vector read is nonzero at a key above it
        for pivot, row in zip(pivots, forward):
            if pivot < top and len(row) > 1:
                for k in row:
                    if pivot < k <= top:
                        if k in holders:
                            holders[k].append((pivot, row))
                        else:
                            holders[k] = [(pivot, row)]
    kernel = []
    for j in free:
        first = holders.get(~j)
        if first is None:
            kernel.append({j: 1})
            continue
        values = {~j: 1}  # v_j times a positive scale, keyed like the rows, nonzero only
        reached = dict(first)
        pending = sorted(reached)  # ascending keys: the next pivot, by column, is last
        solved = []
        while pending:
            pivot = pending.pop()
            row = reached[pivot]
            total = 0
            for k, c in row.items():
                if k in values:
                    total += c * values[k]
            if not total:
                continue
            lead = row[pivot]
            if total % lead:
                g = gcd(lead, total)
                for k in values:
                    values[k] *= lead // g
                lead = g
            values[pivot] = -(total // lead)
            solved.append(pivot)
            for below, below_row in holders.get(pivot, ()):
                if below not in reached:
                    reached[below] = below_row
                    insort(pending, below)
        vec = {j: values[~j]}
        for pivot in reversed(solved):
            vec[~pivot] = values[pivot]
        kernel.append(_primitive(vec))
    return len(pivots), free, kernel, {index[k] for k in landed}


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
