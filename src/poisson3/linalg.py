"""Exact sparse linear algebra over the integers.

Vectors are dicts {index: nonzero int}; matrices are lists of such column
dicts (rational data enters scaled by a common denominator, which changes
no rank, kernel or span).  Everything reduces to one canonical routine,
fraction-free elimination whose rows are primitive, positive at their
pivot and zero at the other pivots: a form as unique as the reduced row
echelon form, so ranks, kernels, and cohomology representatives downstream
are deterministic.  `kernel_and_image` gets the rank, the reduced kernel and
a basis of the image of a map from one such elimination; solves are read
off that same routine.  Only `solve_combination` returns Fractions.
"""

from fractions import Fraction
from math import gcd, lcm


def _primitive(row):
    """Divide an integer row by the gcd of its entries."""
    g = gcd(*row.values())
    if g == 1:
        return row
    return {i: c // g for i, c in row.items()}


def _eliminate(row, pivot_row, col):
    """Primitive integer combination of row and pivot_row that is 0 at col."""
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
    return _primitive(row)


def rref(rows):
    """Integer reduced row echelon form of a list of sparse integer rows.

    Returns (pivots, echelon_rows) where pivots[r] is the leading index of
    echelon_rows[r], in increasing order; each row is primitive, positive at
    its pivot and zero at the other pivots.  Zero rows are dropped.  Each
    row is copied and reduced against the pivots already found;
    back-substitution runs from the last pivot down.
    """
    table = {}
    for row in rows:
        row = {i: c for i, c in row.items() if c}
        while row:
            col = min(row)
            pivot_row = table.get(col)
            if pivot_row is None:
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
        for other in [i for i in row if i != col and i in table]:
            row = _eliminate(row, table[other], other)
        table[col] = row
        echelon.append(row)
    echelon.reverse()
    return pivots, echelon


def reduce_against(pivots, echelon, vec):
    """Primitive multiple of vec with the pivot coordinates eliminated, {} on the span."""
    row = {i: c for i, c in vec.items() if c}
    for pivot, pivot_row in zip(pivots, echelon):
        if pivot in row:
            row = _eliminate(row, pivot_row, pivot)
    return _primitive(row)


def kernel_and_image(columns):
    """Rank, reduced kernel and image basis of a matrix from one `rref`.

    This is where columns become rows and a kernel is read off an echelon.
    The rows are reduced with column j placed at n-1-j, so each echelon row
    leads at its highest original column.  The kernel then comes out in the
    echelon form of `rref`: one vector per free column j, led at j by the
    lcm of the pivot entries of the rows that touch j, with the scaled and
    negated row entries at the pivot columns, which all lie above j.  The
    pivot columns themselves are independent and span the image.

    Returns (rank, kernel_pivots, kernel_echelon, image_columns).
    """
    last = len(columns) - 1
    rows = {}
    for j, col in enumerate(columns):
        for i, c in col.items():
            rows.setdefault(i, {})[last - j] = c
    pivots, echelon = rref(rows.values())
    pivot_columns = sorted(last - p for p in pivots)
    entries = {j: [] for j in range(len(columns))}
    for j in pivot_columns:
        del entries[j]
    for pivot, row in zip(pivots, echelon):
        for k, c in row.items():
            if k != pivot:
                entries[last - k].append((last - pivot, -c, row[pivot]))
    kernel = []
    for j, terms in entries.items():
        scale = lcm(*(lead for _, _, lead in terms))
        kernel.append(_primitive({j: scale, **{i: c * (scale // lead) for i, c, lead in terms}}))
    return (len(pivots), list(entries), kernel,
            [columns[j] for j in pivot_columns])


def integer_normalize(vec):
    """Scale a rational vector to coprime ints, positive at the lowest index."""
    if not vec:
        return {}
    scale = lcm(*(c.denominator for c in vec.values()))
    row = _primitive({i: c.numerator * (scale // c.denominator)
                      for i, c in vec.items() if c})
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
    (zero at the free columns).  When the columns are linearly independent
    the solution is unique.
    """
    last = len(columns)
    _, kernel_pivots, kernel, _ = kernel_and_image([target, *columns[::-1]])
    if not kernel_pivots or kernel_pivots[0]:
        return None  # inconsistent system
    lead = kernel[0][0]
    return {last - j: Fraction(-c, lead) for j, c in kernel[0].items() if j}
