"""Exact sparse linear algebra over the rationals.

Vectors are dicts {index: nonzero Fraction}; matrices are lists of such
column dicts.  Everything reduces to one canonical routine: reduced row
echelon form, whose output is unique for a given row space, so ranks,
kernels, and cohomology representatives downstream are deterministic.

The elimination itself is fraction-free: rows are scaled to integers, kept
primitive by their gcd, and divided by their pivot only when the echelon is
returned.  `kernel_and_image` gets the rank, the reduced kernel and a basis
of the image of a map from one such elimination; kernel bases and solves
are read off that same routine.
"""

from fractions import Fraction
from math import gcd, lcm


def _clean(vec):
    return {i: c for i, c in vec.items() if c}


def _integer_row(row):
    """Row scaled by the lcm of its denominators, as {index: nonzero int}."""
    scale = lcm(*(c.denominator for c in row.values()))
    return {i: c.numerator * (scale // c.denominator) for i, c in row.items() if c}


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
    """Reduced row echelon form of a list of sparse row vectors.

    Returns (pivots, echelon_rows) where pivots[r] is the leading index of
    echelon_rows[r], in increasing order.  Zero rows are dropped.  Each row
    is inserted as integers and reduced against the pivots already found;
    back-substitution runs from the last pivot down, and every row is
    divided by its pivot entry at the end.
    """
    table = {}
    for row in rows:
        row = _integer_row(row)
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
        lead = row[col]
        echelon.append({i: Fraction(c, lead) for i, c in row.items()})
    echelon.reverse()
    return pivots, echelon


def reduce_against(pivots, echelon, vec):
    """Subtract echelon rows to zero out the pivot coordinates of vec."""
    out = dict(vec)
    for pivot, row in zip(pivots, echelon):
        factor = out.get(pivot)
        if factor:
            for i, c in row.items():
                val = out.get(i, Fraction(0)) - factor * c
                if val:
                    out[i] = val
                elif i in out:
                    del out[i]
    return _clean(out)


def kernel_basis(columns):
    """Canonical basis of {v : sum_j v[j] columns[j] = 0}.

    The kernel of `kernel_and_image` run on the columns in reverse order,
    which reduces the rows in their own column order: one vector per free
    column, the only basis vector nonzero at its highest coordinate, scaled
    to coprime integers with positive leading entry.  (rank, basis) is
    returned; rank + len(basis) == len(columns).
    """
    last = len(columns) - 1
    rk, _, kernel, _ = kernel_and_image(columns[::-1])
    basis = [integer_normalize({last - j: c for j, c in vec.items()})
             for vec in reversed(kernel)]
    return rk, basis


def kernel_and_image(columns):
    """Rank, reduced kernel and image basis of a matrix from one `rref`.

    This is where columns become rows and a kernel is read off an echelon.
    The rows are reduced with column j placed at n-1-j, so each echelon row
    leads at its highest original column.  The kernel then comes out in
    reduced echelon form: one vector per free column j, 1 at j and the
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
    kernel = {j: {j: Fraction(1)} for j in range(len(columns))}
    for j in pivot_columns:
        del kernel[j]
    for pivot, row in zip(pivots, echelon):
        for k, c in row.items():
            if k != pivot:
                kernel[last - k][last - pivot] = -c
    return (len(pivots), list(kernel), list(kernel.values()),
            [columns[j] for j in pivot_columns])


def integer_normalize(vec):
    """Scale to coprime integer entries, positive at the lowest index."""
    if not vec:
        return {}
    row = _primitive(_integer_row(vec))
    sign = -1 if row[min(row)] < 0 else 1
    return {i: Fraction(sign * c) for i, c in row.items()}


def matvec(columns, vec):
    """Matrix times sparse vector: sum_j vec[j] * columns[j]."""
    out = {}
    for j, factor in vec.items():
        if not factor:
            continue
        for i, c in columns[j].items():
            val = out.get(i, Fraction(0)) + factor * c
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
    negated, holds the coefficients (zero at the free columns).  When the
    columns are linearly independent the solution is unique.
    """
    last = len(columns)
    _, kernel_pivots, kernel, _ = kernel_and_image([target, *columns[::-1]])
    if not kernel_pivots or kernel_pivots[0]:
        return None  # inconsistent system
    return {last - j: -c for j, c in kernel[0].items() if j}
