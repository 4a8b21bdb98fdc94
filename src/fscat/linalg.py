"""Dense exact matrices of Cyc values (lists of lists, treated immutably)."""

from __future__ import annotations

from .cyclo import Cyc

ZERO = Cyc.zero()
ONE = Cyc.one()


def zeros(rows: int, cols: int):
    return [[ZERO] * cols for _ in range(rows)]


def eye(n: int):
    return [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]


def mat_mul(a, b):
    rows = len(a)
    inner = len(b)
    cols = len(b[0]) if b else 0
    if a and len(a[0]) != inner:
        raise ValueError("matrix shape mismatch")
    out = zeros(rows, cols)
    for i in range(rows):
        ai = a[i]
        oi = out[i]
        for k in range(inner):
            x = ai[k]
            if x:
                bk = b[k]
                for j in range(cols):
                    if bk[j]:
                        oi[j] = oi[j] + x * bk[j]
    return out


def mat_vec(a, v):
    return [sum((x * y for x, y in zip(row, v) if x and y), ZERO) for row in a]


def mat_trace(a):
    return sum((a[i][i] for i in range(len(a))), ZERO)


def mat_equal(a, b):
    if len(a) != len(b):
        return False
    return all(len(ra) == len(rb) and all(x == y for x, y in zip(ra, rb))
               for ra, rb in zip(a, b))


def is_identity(a):
    n = len(a)
    if any(len(row) != n for row in a):
        return False
    return all(a[i][j] == (1 if i == j else 0) for i in range(n) for j in range(n))


def mat_inv(a):
    """Exact inverse by Gauss-Jordan elimination; raises on singular input."""
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("inverse needs a square matrix")
    work = [list(row) + irow for row, irow in zip(a, eye(n))]
    for col in range(n):
        piv = next((r for r in range(col, n) if work[r][col]), None)
        if piv is None:
            raise ValueError("singular matrix")
        work[col], work[piv] = work[piv], work[col]
        inv = work[col][col].inverse()
        work[col] = [x * inv for x in work[col]]
        for r in range(n):
            if r != col and work[r][col]:
                f = work[r][col]
                work[r] = [x - f * y for x, y in zip(work[r], work[col])]
    return [row[n:] for row in work]
