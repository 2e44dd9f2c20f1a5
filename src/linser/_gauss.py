"""Exact Gauss–Jordan elimination over a field tower.

Scalars are FieldElements of one tower.  The pivot row is scaled by
1 / pivot and the pivot column cleared in every other row, skipping zeros.
A matrix over QQ is reduced on integer rows instead (fraction-free, as in
Bareiss's elimination): each row is kept primitive, and the pivot rows are
divided by their pivots once at the end.  The reduced form is unique, so
both give the same elements.  That integer elimination, integer_rref, also
gives the rank over QQ, as its pivot count, and inverts field elements:
numfield solves x * y = 1 with it.
"""

from __future__ import annotations

from math import gcd

from .numfield import integer_row, rational_row


def rref(rows):
    """Reduced row echelon form.  Returns (nonzero rows, pivot columns)."""
    rows = [list(r) for r in rows]
    if _over_qq(rows):
        return _rref_rational(rows)
    n = len(rows[0]) if rows else 0
    pivots = []
    for c in range(n):
        r = len(pivots)
        pr = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        prow = rows[r]
        inv = 1 / prow[c]
        # entries left of c are zero in every row from r down
        nz = [j for j in range(c, n) if prow[j]]
        for j in nz:
            prow[j] = prow[j] * inv
        for i, row in enumerate(rows):
            f = row[c]
            if f and i != r:
                for j in nz:
                    row[j] = row[j] - f * prow[j]
        pivots.append(c)
    return rows[: len(pivots)], pivots


def _over_qq(rows) -> bool:
    return bool(rows and rows[0] and rows[0][0].tower.degree() == 1)


def _rref_rational(rows):
    """rref of a matrix over QQ, on primitive integer rows."""
    tower = rows[0][0].tower
    rows = [integer_row(r) for r in rows]
    pivots = integer_rref(rows)
    return [rational_row(tower, rows[i], rows[i][c]) for i, c in enumerate(pivots)], pivots


def integer_rref(rows) -> list[int]:
    """Reduce integer rows in place, fraction-free; returns the pivot columns.

    Afterwards row i, for i < len(pivots), has its first nonzero entry at
    pivots[i] and zeros in the other pivot columns, and the rows below are
    zero.  Each row changed is primitive, so row i divided by its pivot is
    the reduced row echelon form."""
    n = len(rows[0]) if rows else 0
    pivots = []
    for c in range(n):
        r = len(pivots)
        pr = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        prow = rows[r]
        pivot = prow[c]
        nz = [j for j in range(c, n) if prow[j]]
        for i, row in enumerate(rows):
            b = row[c]
            if b and i != r:
                # row <- a*row - b*prow, with a, b the pivot and the entry
                # over their gcd, then divided by its content
                g = gcd(pivot, b)
                a, b = pivot // g, b // g
                if a != 1:
                    row = [a * x for x in row]
                for j in nz:
                    row[j] -= b * prow[j]
                g = gcd(*row)
                rows[i] = [x // g for x in row] if g > 1 else row
        pivots.append(c)
    return pivots


def rank(rows) -> int:
    """The number of pivots; over QQ those of integer_rref on the cleared
    rows, without building the reduced rational rows."""
    if _over_qq(rows):
        return len(integer_rref([integer_row(r) for r in rows]))
    return len(rref(rows)[1])


def kernel(rows, ncols: int, zero, one):
    """Basis of the right kernel, in its unique reduced row echelon form.

    Reduced with its columns reversed, the matrix gives for each free
    column j the vector with 1 at j, 0 at the other free columns and minus
    the reduced column at the pivots, all right of j in the original order.
    """
    reduced, pivots = rref([r[::-1] for r in rows])
    pivset = set(pivots)
    vecs = []
    for j in range(ncols - 1, -1, -1):
        if j in pivset:
            continue
        v = [zero] * ncols
        v[j] = one
        for i, c in enumerate(pivots):
            val = reduced[i][j]
            if val:
                v[c] = -val
        vecs.append(v[::-1])
    return vecs
