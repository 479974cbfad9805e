"""Exact sparse linear algebra over the rationals.

Vectors are dicts {index: nonzero Fraction}; matrices are lists of such
column dicts.  Everything reduces to one canonical routine: reduced row
echelon form, whose output is unique for a given row space, so ranks,
kernels, and cohomology representatives downstream are deterministic.

The elimination itself is fraction-free: rows are scaled to integers, kept
primitive by their gcd, and divided by their pivot only when the echelon is
returned.  `kernel_and_image` gets the rank, the reduced kernel and a basis
of the image of a map from one such elimination.
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


def rank(columns):
    """Rank of a matrix given as a list of sparse columns."""
    pivots, _ = rref(columns)
    return len(pivots)


def kernel_basis(columns, ncols):
    """Canonical basis of {v : sum_j v[j] columns[j] = 0}.

    Built from the reduced echelon form of the rows of the matrix, one vector
    per free column, normalized to coprime integers with positive leading
    entry.  (rank, basis) is returned; rank + len(basis) == ncols.
    """
    rows = {}
    for j, col in enumerate(columns):
        for i, c in col.items():
            rows.setdefault(i, {})[j] = c
    pivots, echelon = rref(rows.values())
    pivot_set = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        vec = {free: Fraction(1)}
        for pivot, row in zip(pivots, echelon):
            coeff = row.get(free)
            if coeff:
                vec[pivot] = -coeff
        basis.append(integer_normalize(vec))
    return len(pivots), basis


def kernel_and_image(columns):
    """Rank, reduced kernel and image basis of a matrix from one `rref`.

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
    """Scale to coprime integer entries with a positive leading coefficient."""
    if not vec:
        return {}
    lead = min(vec)
    denom_lcm = 1
    for c in vec.values():
        denom_lcm = denom_lcm * c.denominator // gcd(denom_lcm, c.denominator)
    scaled = {i: c * denom_lcm for i, c in vec.items()}
    num_gcd = 0
    for c in scaled.values():
        num_gcd = gcd(num_gcd, abs(c.numerator))
    sign = -1 if scaled[lead] < 0 else 1
    factor = Fraction(sign, num_gcd) if num_gcd else Fraction(sign)
    return {i: c * factor for i, c in scaled.items()}


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


def compose(outer_columns, inner_columns):
    """Columns of outer @ inner (columns of inner mapped through outer)."""
    return [matvec(outer_columns, col) for col in inner_columns]


def solve_combination(columns, target):
    """Coefficients expressing target as a combination of columns, or None.

    When the columns are linearly independent the solution is unique.
    """
    rows = {}
    for j, col in enumerate(columns):
        for i, c in col.items():
            rows.setdefault(i, {})[j] = c
    rhs_col = len(columns)
    for i, c in target.items():
        if c:
            rows.setdefault(i, {})[rhs_col] = c
    pivots, echelon = rref(rows.values())
    coeffs = {}
    for pivot, row in zip(pivots, echelon):
        if pivot == rhs_col:
            return None  # inconsistent system
        value = row.get(rhs_col)
        if value:
            coeffs[pivot] = value
    # back-substitution is already done by rref; free columns get zero
    return coeffs
