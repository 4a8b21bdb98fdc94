"""Exact matrices of Cyc values, dense or by columns, treated immutably.

A dense matrix is a list of rows.  The column form ``(rows, columns)`` keeps
only the nonzeros: ``columns[j]`` is a tuple of the ``(row, coeff)`` pairs of
column j with coeff != 0.  The path-move builders of ``homcalc`` make their
matrices column by column, and nearly all of them are applied to one
vector, so they return the column form; whatever multiplies or inverts
whole matrices converts once with ``dense``.

``mat_mul`` multiplies whole matrices on Python integers by Kronecker
substitution, the packed layout ANTIC and FLINT use for number-field
polynomials (``cyclo`` owns the layout):

* Scan: one pass over each operand finds its common denominator and the
  product's conductor N, the lcm of the irrational entries' conductors.
* Pack: each nonzero entry, coerced to N and scaled to its operand's
  denominator, becomes its numerator vector evaluated at z = 2^s.  The slot
  width s obeys inner * phi(N) * h_A * h_B < 2^(s-1), with h_A and h_B the
  largest scaled numerators, so every unreduced coefficient of a dot
  product fits a signed slot.  Each row of B then packs its entries
  w = (2 phi(N) - 1) s bits apart.
* Multiply: row i of the product is one big-integer sum of a_ik times
  packed row k of B; a zero a_ik costs one multiplication by 0.
* Unpack: the row splits into signed w-bit dot products, and each of those
  into 2 phi(N) - 1 signed slots folded mod Phi_N.  A rational result comes
  back at conductor 1, so the rational fast paths of ``Cyc`` still apply
  downstream.

Products of fewer than ``_PACK_MIN`` multiply-adds (rows * inner * cols)
keep the entrywise ``Cyc`` loop: for them the scan and the packing cost
more than the loop saves (square products at conductors 1, 5, 8 and 12
broke even between 27 and 64 multiply-adds).

The keyed form is a column form whose rows and columns are named by keys
instead of positions: a dict from each source key to its column, a tuple
of the ``(target key, coeff)`` pairs with coeff != 0.  ``homcalc`` builds
its local moves in this form over the paths a vector holds, so no whole
path basis is listed, and a keyed vector is the dict of its nonzero
coordinates.

``mat_vec`` applies either form to a vector of the same kind and does one
multiply-add per stored nonzero that meets a nonzero coordinate of the
vector: the path-move matrices it is applied to are sparse, and so are the
vectors they move.  In keyed form it reads the vector's keys only, so a
zero coordinate is never visited.  ``vec_mat`` is its transpose partner: a
keyed row vector times the keyed form, one dot product per stored column
over the row's nonzeros, for the row functionals that are pulled back
through a chain of moves.
``col_mul`` multiplies two column forms the same way, one multiply-add per
pair of stored nonzeros that meet, unless that count reaches
``_PACK_FRACTION`` of rows * inner * cols: then it converts both with
``dense`` and runs ``mat_mul``; ``is_identity_product`` reads its
result.  On random square operands of width 8 to 64 at conductors 1, 5, 8
and 12, the summed time of both routes was least with the switch at 0.015
to 0.025 (the packed product wins from about 0.15 at width 8, 0.05 at 16
and 0.01 at 64).

``int_det`` is the one helper on plain integers: ``category.validate``
takes the determinants of F-blocks' residues with it.
"""

from __future__ import annotations

from operator import itemgetter, mul

from .cyclo import Cyc, kron_operands, kron_pack, signed_slots

ZERO = Cyc.zero()
ONE = Cyc.one()
_coeff = itemgetter(1)  # of a (key, coeff) pair


def zeros(rows: int, cols: int):
    return [[ZERO] * cols for _ in range(rows)]


def eye(n: int):
    return [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]


# rows * inner * cols from which a product runs on packed integers
_PACK_MIN = 64
# multiply-adds over the nonzeros, as a fraction of rows * inner * cols, from
# which a product of column forms runs on packed integers (``_packs``)
_PACK_FRACTION = 0.02


def mat_mul(a, b):
    rows = len(a)
    inner = len(b)
    cols = len(b[0]) if b else 0
    if a and len(a[0]) != inner:
        raise ValueError("matrix shape mismatch")
    if rows * inner * cols >= _PACK_MIN:
        unpack, w, packed_a, packed_b = kron_operands(a, b, inner)
        b_rows = [kron_pack(row, w) for row in packed_b]
        return [[unpack[v] for v in signed_slots(sum(map(mul, xs, b_rows)), w, cols)]
                for xs in packed_a]
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


def dense(a):
    """The dense rows of the column form ``a``."""
    rows, cols = a
    out = zeros(rows, len(cols))
    for j, col in enumerate(cols):
        for i, x in col:
            out[i][j] = x
    return out


def mat_vec(a, v):
    """a v, over the nonzeros of a and of v only.

    In column form v is a list, and so is a v.  In keyed form v is a dict
    {key: coeff} of nonzero coordinates, every key of which has a column in
    ``a``; a v is the dict of its nonzero coordinates, and sums that cancel
    are dropped.
    """
    if isinstance(v, dict):
        out = {}
        for key, y in v.items():
            for q, x in a[key]:
                out[q] = out[q] + x * y if q in out else x * y
        return dict(filter(_coeff, out.items()))
    rows, cols = a
    if len(cols) != len(v):
        raise ValueError("matrix shape mismatch")
    out = [ZERO] * rows
    for col, y in zip(cols, v):
        if y:
            for i, x in col:
                out[i] = out[i] + x * y
    return out


def vec_mat(phi, a):
    """The row vector phi a for ``a`` in keyed form: one dot product per
    stored column, over the nonzeros of phi only; ``mat_vec``'s transpose.
    phi is a dict {key: coeff} of nonzero coordinates, and so is phi a."""
    out = {}
    for key, col in a.items():
        acc = None
        for q, x in col:
            y = phi.get(q)
            if y is not None:
                acc = y * x if acc is None else acc + y * x
        if acc:
            out[key] = acc
    return out


def _packs(a, b):
    """Whether the product a b of column forms goes to the packed
    ``mat_mul``: when its multiply-adds over the nonzeros reach
    ``_PACK_FRACTION`` of the dense count, which is at least ``_PACK_MIN``."""
    (rows, a_cols), (inner, b_cols) = a, b
    size = rows * inner * len(b_cols)
    work = sum(len(a_cols[k]) for col in b_cols for k, _ in col)
    return 0 < work and size >= _PACK_MIN and work >= _PACK_FRACTION * size


def col_mul(a, b):
    """a b in column form, for a and b in column form.

    Column j of a b is a applied to column j of b, formed over the nonzeros
    of both, unless the product is dense enough to pack (``_packs``)."""
    (rows, a_cols), (inner, b_cols) = a, b
    if len(a_cols) != inner:
        raise ValueError("matrix shape mismatch")
    if _packs(a, b):
        out = mat_mul(dense(a), dense(b))
        return rows, tuple(tuple((i, row[j]) for i, row in enumerate(out)
                                 if row[j]) for j in range(len(b_cols)))
    cols = []
    for col in b_cols:
        acc = {}
        for k, y in col:
            for i, x in a_cols[k]:
                acc[i] = acc[i] + x * y if i in acc else x * y
        cols.append(tuple((i, x) for i, x in acc.items() if x))
    return rows, tuple(cols)


def is_identity_product(a, b):
    """Whether a b is the identity, for a and b in column form: column j of
    the product ``col_mul`` forms must be e_j exactly.  For monomial
    factors this is O(n)."""
    rows, cols = col_mul(a, b)
    return rows == len(cols) and all(col == ((j, 1),)
                                     for j, col in enumerate(cols))


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


def int_det(a):
    """Determinant of a square matrix of Python integers, by fraction-free
    (Bareiss) elimination: every division is exact, and each entry stays a
    minor of ``a``, so its size grows only linearly with the step."""
    work = [list(row) for row in a]
    n = len(work)
    sign, prev = 1, 1
    for k in range(n - 1):
        if not work[k][k]:
            swap = next((r for r in range(k + 1, n) if work[r][k]), None)
            if swap is None:
                return 0
            work[k], work[swap] = work[swap], work[k]
            sign = -sign
        pivot, row_k = work[k][k], work[k]
        for r in range(k + 1, n):
            row, lead = work[r], work[r][k]
            for j in range(k + 1, n):
                row[j] = (row[j] * pivot - lead * row_k[j]) // prev
        prev = pivot
    return sign * work[-1][-1] if n else 1
