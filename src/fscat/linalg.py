"""Exact matrices of Cyc values, dense or sparse, treated immutably.

A dense matrix is a list of rows.  The one sparse form, the keyed form,
keeps only the nonzeros and names rows and columns by keys: a dict from
each source key to its column, a tuple of the ``(target key, coeff)``
pairs with coeff != 0.  The local moves and the bends of ``homcalc`` are
built in it, keyed by path, and a keyed vector is the dict of its nonzero
coordinates.  Whatever multiplies or inverts whole matrices converts once
with ``dense``, which takes the rows' positions from a row index and the
columns' from the key order.

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

``mat_vec`` applies the keyed form to a keyed vector and does one
multiply-add per stored nonzero of each column the vector's keys name: the
path-move matrices it is applied to are sparse, and so are the vectors
they move, and a zero coordinate is never visited.  ``vec_mat`` is its
transpose partner: a keyed row vector times the keyed form, one dot
product per stored column over the row's nonzeros, for the row
functionals that are pulled back through a chain of moves.
``col_mul`` multiplies two keyed forms the same way, one multiply-add per
pair of stored nonzeros that meet, unless that count reaches
``_PACK_FRACTION`` of rows * inner * cols: then it numbers a's keys and
its distinct targets, converts both with ``dense`` and runs ``mat_mul``;
``is_identity_product`` reads its result.  On random square operands of
width 8 to 64 at conductors 1, 5, 8 and 12, the summed time of both routes
was least with the switch at 0.015 to 0.025 (the packed product wins from
about 0.15 at width 8, 0.05 at 16 and 0.01 at 64).

Two helpers run on plain integers: ``category.validate`` takes the
determinants of F-blocks' residues with ``int_det``, and ``mat_inv``
inverts a matrix of rationals (every entry at conductor 1) by the same
fraction-free elimination, carried on to Gauss-Jordan form
(``_rational_inv``); only a matrix with an entry at a larger conductor
runs Gauss-Jordan on ``Cyc`` values.
"""

from __future__ import annotations

import math
from operator import itemgetter, mul

from .cyclo import Cyc, _make, kron_operands, kron_pack, signed_slots

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
# which a product of keyed forms runs on packed integers (``_packs``)
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


def dense(a, index):
    """The dense rows of the keyed form ``a``: column j is a's j-th column,
    in key order, and target key q lands in row index[q]."""
    out = zeros(len(index), len(a))
    for j, col in enumerate(a.values()):
        for q, x in col:
            out[index[q]][j] = x
    return out


def mat_vec(a, v):
    """a v for ``a`` in keyed form, over the nonzeros of a and of v only.

    v is a dict {key: coeff} of nonzero coordinates, every key of which has
    a column in ``a`` (a KeyError otherwise); a v is the dict of its
    nonzero coordinates, and sums that cancel are dropped.
    """
    out = {}
    for key, y in v.items():
        for q, x in a[key]:
            out[q] = out[q] + x * y if q in out else x * y
    return dict(filter(_coeff, out.items()))


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
    """Whether the product a b of keyed forms goes to the packed
    ``mat_mul``: when its multiply-adds over the nonzeros reach
    ``_PACK_FRACTION`` of the dense count, which is at least ``_PACK_MIN``.
    a is taken as square, as a rotation keeps the hom dimension."""
    size = len(a) ** 2 * len(b)
    work = sum(len(a[k]) for col in b.values() for k, _ in col)
    return 0 < work and size >= _PACK_MIN and work >= _PACK_FRACTION * size


def col_mul(a, b):
    """a b in keyed form, for a and b in keyed form: every target of b is
    a key of a (a KeyError otherwise).

    Column j of a b is a applied to column j of b, formed over the nonzeros
    of both, unless the product is dense enough to pack (``_packs``): then
    a's keys are numbered as the inner dimension and its distinct targets
    as the rows."""
    if _packs(a, b):
        rows = list(dict.fromkeys(q for col in a.values() for q, _ in col))
        out = mat_mul(dense(a, {q: i for i, q in enumerate(rows)}),
                      dense(b, {k: i for i, k in enumerate(a)}))
        return {key: tuple((q, row[j]) for q, row in zip(rows, out) if row[j])
                for j, key in enumerate(b)}
    out = {}
    for key, col in b.items():
        acc = {}
        for k, y in col:
            for q, x in a[k]:
                acc[q] = acc[q] + x * y if q in acc else x * y
        out[key] = tuple(filter(_coeff, acc.items()))
    return out


def is_identity_product(a, b):
    """Whether a b is the identity, for a and b in keyed form.  A keyed
    form does not record its rows, so a is taken as square, as in
    ``_packs``: b must have as many columns as a has keys, and each column
    k of the product ``col_mul`` forms must be ((k, 1),) exactly.  For
    monomial factors this is O(n)."""
    return len(a) == len(b) and all(col == ((k, 1),)
                                    for k, col in col_mul(a, b).items())


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
    """Exact inverse by Gauss-Jordan elimination; raises on singular input.

    A matrix whose entries all have conductor 1 is inverted on Python
    integers (``_rational_inv``), any other on ``Cyc`` values."""
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("inverse needs a square matrix")
    if all(x.conductor == 1 for row in a for x in row):
        return _rational_inv(a)
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


def _rational_inv(a):
    """The inverse of a square matrix of rationals at conductor 1, by
    fraction-free (Bareiss) Gauss-Jordan elimination of [D a | I], D the
    lcm of the denominators.  After the step on column k every entry is,
    up to sign, a minor of order k + 1 of the row-swapped [D a | I], so each
    division by the previous pivot is exact; the last pivot p leaves
    [p I | p (D a)^-1], and a^-1 = D (D a)^-1."""
    n = len(a)
    den = math.lcm(*(x.den for row in a for x in row))
    work = [[x.num[0] * (den // x.den) for x in row]
            + [int(i == j) for j in range(n)] for i, row in enumerate(a)]
    prev = 1
    for k in range(n):
        piv = next((r for r in range(k, n) if work[r][k]), None)
        if piv is None:
            raise ValueError("singular matrix")
        work[k], work[piv] = work[piv], work[k]
        row_k = work[k]
        pivot = row_k[k]
        for r in range(n):
            if r != k:
                lead = work[r][k]
                work[r] = [(x * pivot - lead * y) // prev
                           for x, y in zip(work[r], row_k)]
        prev = pivot
    if prev < 0:
        prev, den = -prev, -den
    return [[_make(1, [den * x], prev) for x in row[n:]] for row in work]


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
