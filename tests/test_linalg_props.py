"""Property tests of ``linalg`` products against plain loops.

The reference below multiplies entry by entry with ``Cyc`` arithmetic (which
``test_cyclo_props`` pins to an independent Fraction reference), so any
difference comes from the packed integer kernel: its scan, slot width,
signed unpacking, folding mod Phi_N or denominators.  Each property runs
both through the module's size selection and forced through the packed
kernel.  The keyed form names rows and columns by keys (``keyed`` below
turns dense rows into it, and ``linalg.dense`` must turn it back), and
vectors over it are the dicts of their nonzero coordinates (``named``):
there ``mat_vec`` must equal the reference loop, which runs over the dense
rows and visits every coordinate, and the product ``col_mul`` with the
vector as its one column, and must refuse a coordinate with no column;
its transpose partner ``vec_mat`` must equal the dense loop and
``mat_vec`` through (phi a) v = phi (a v).  The product of two keyed
forms, ``col_mul``, and ``is_identity_product`` must agree with the dense
product and the identity on the measured packed switch and forced to
either side of it, and must refuse a target with no column.  The integer
determinant ``int_det`` must agree with the Leibniz expansion.
"""

import itertools
import math
from contextlib import contextmanager
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fscat import linalg
from fscat.cyclo import Cyc, euler_phi, root_of_unity

CONDUCTOR_PAIRS = ((1, 1), (3, 3), (4, 4), (5, 5), (8, 8), (12, 12), (24, 24),
                   (1, 8), (5, 1), (3, 4), (8, 12), (24, 3))


def triple_loop(a, b):
    cols = len(b[0]) if b else 0
    return [[sum((a[i][k] * b[k][j] for k in range(len(b))), Cyc.zero())
             for j in range(cols)] for i in range(len(a))]


def packed_mat_mul(a, b):
    """mat_mul with the product forced through the packed kernel."""
    saved = linalg._PACK_MIN
    linalg._PACK_MIN = 0
    try:
        return linalg.mat_mul(a, b)
    finally:
        linalg._PACK_MIN = saved


def check_product(a, b):
    want = triple_loop(a, b)
    size = len(a) * len(b) * (len(b[0]) if b else 0)
    for got, packed in ((linalg.mat_mul(a, b), size >= linalg._PACK_MIN),
                        (packed_mat_mul(a, b), True)):
        assert got == want
        for row in got:
            for x in row:
                assert x.den > 0 and math.gcd(x.den, *x.num) == 1
                assert len(x.num) == euler_phi(x.conductor)
                if packed and x.is_rational():
                    assert x.conductor == 1, x


# -- strategies -------------------------------------------------------------

coordinates = st.one_of(
    st.just(0),
    st.integers(-9, 9),
    st.fractions(min_value=-4, max_value=4, max_denominator=6),
    # wide numerators and denominators need wide slots
    st.builds(Fraction, st.integers(-2 ** 80, 2 ** 80), st.integers(1, 2 ** 40)),
)


@st.composite
def entries(draw, n):
    kind = draw(st.sampled_from(("zero", "rational", "rational at n", "field")))
    phi = euler_phi(n)
    if kind == "zero":
        return Cyc.zero()
    if kind == "field":
        return Cyc(n, draw(st.lists(coordinates, min_size=phi, max_size=phi)))
    q = draw(coordinates)
    if kind == "rational":
        return Cyc.rational(q)
    return Cyc(n, [q] + [0] * (phi - 1))


@st.composite
def matrices(draw, rows, cols, n):
    m = [[draw(entries(n)) for _ in range(cols)] for _ in range(rows)]
    if rows and cols and draw(st.booleans()):
        m[draw(st.integers(0, rows - 1))] = [Cyc.zero()] * cols
    if rows and cols and draw(st.booleans()):
        j = draw(st.integers(0, cols - 1))
        for row in m:
            row[j] = Cyc.zero()
    return m


@st.composite
def operands(draw, conductors):
    na, nb = conductors
    rows, inner, cols = (draw(st.integers(0, 5)) for _ in range(3))
    return (draw(matrices(rows, inner, na)), draw(matrices(inner, cols, nb)))


# -- properties -------------------------------------------------------------


@pytest.mark.parametrize("conductors", CONDUCTOR_PAIRS,
                         ids=[f"{a}x{b}" for a, b in CONDUCTOR_PAIRS])
@given(data=st.data())
def test_product_matches_triple_loop(conductors, data):
    a, b = data.draw(operands(conductors))
    check_product(a, b)


@pytest.mark.parametrize("shape", [(0, 3, 4), (3, 0, 4), (3, 4, 0), (0, 0, 0),
                                   (1, 1, 1), (4, 4, 4), (64, 1, 1)])
def test_empty_and_edge_shapes(shape):
    rows, inner, cols = shape
    z = root_of_unity(8, 3)
    a = [[z + k for k in range(inner)] for _ in range(rows)]
    b = [[z * j - k for j in range(cols)] for k in range(inner)]
    check_product(a, b)
    assert linalg.mat_mul(a, [[Cyc.zero()] * cols] * inner) == \
        [[0] * (cols if inner else 0)] * rows


@given(st.sampled_from((3, 4, 5, 8, 12, 24)), st.integers(1, 8),
       st.integers(1, 2 ** 64), st.integers(1, 2 ** 64))
def test_slots_hold_the_worst_case(n, inner, ha, hb):
    # every coordinate at the height, one sign: the middle unreduced
    # coefficient of each entry is exactly inner * phi * ha * hb
    phi = euler_phi(n)
    a = [[Cyc(n, [ha] * phi)] * inner for _ in range(8)]
    b = [[Cyc(n, [hb] * phi)] * 8 for _ in range(inner)]
    assert linalg.mat_mul(a, b) == triple_loop(a, b)


@pytest.mark.parametrize("n", (3, 4, 5, 8, 12, 24))
def test_rational_results_come_back_at_conductor_one(n):
    # (a b)[i][j] = sum_k z^(i+k) z^-(k+j) = 6 z^(i-j): rational on the diagonal
    z = root_of_unity
    a = [[z(n, i + k) for k in range(6)] for i in range(6)]
    b = [[z(n, -k - j) for j in range(6)] for k in range(6)]
    out = linalg.mat_mul(a, b)
    assert out == triple_loop(a, b)
    for i in range(6):
        assert out[i][i].conductor == 1 and out[i][i] == 6


# -- mat_vec, on the keyed form -----------------------------------------------


def reference_mat_vec(a, v):
    return [sum((row[j] * v[j] for j in range(len(v))), Cyc.zero()) for row in a]


def keyed(a, width, src="col", tgt="row"):
    """The keyed form of the dense rows ``a``, ``width`` columns wide:
    column j under the key (src, j), its nonzeros under (tgt, i); a ragged
    row is a shape mismatch."""
    if any(len(row) != width for row in a):
        raise ValueError("matrix shape mismatch")
    return {(src, j): tuple(((tgt, i), row[j]) for i, row in enumerate(a)
                            if row[j])
            for j in range(width)}


def index(tag, n):
    """The row index {(tag, i): i} of n rows."""
    return {(tag, i): i for i in range(n)}


def named(vec, tag):
    """The nonzero coordinates of the list ``vec``, under (tag, i)."""
    return {(tag, i): x for i, x in enumerate(vec) if x}


@st.composite
def mat_vec_operands(draw, conductors):
    na, nv = conductors
    rows, cols = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    if draw(st.booleans()):  # zero-heavy, like the path-move matrices
        cell = st.one_of(st.just(Cyc.zero()), st.just(Cyc.zero()),
                         st.just(Cyc.zero()), entries(na))
    else:
        cell = entries(na)
    a = [[draw(cell) for _ in range(cols)] for _ in range(rows)]
    return a, draw(vectors(cols, nv))


@st.composite
def vectors(draw, size, n):
    """``size`` coordinates at conductor n: any, all zero, or one nonzero."""
    kind = draw(st.sampled_from(("any", "zero", "one nonzero")))
    v = [Cyc.zero()] * size
    if kind == "any":
        v = [draw(entries(n)) for _ in range(size)]
    elif kind == "one nonzero" and size:
        v[draw(st.integers(0, size - 1))] = draw(entries(n).filter(bool))
    return v


@pytest.mark.parametrize("conductors", CONDUCTOR_PAIRS,
                         ids=[f"{a}x{b}" for a, b in CONDUCTOR_PAIRS])
@given(data=st.data())
def test_mat_vec_matches_reference_loop(conductors, data):
    a, v = data.draw(mat_vec_operands(conductors))
    assert linalg.dense(keyed(a, len(v)), index("row", len(a))) == a
    assert linalg.mat_vec(keyed(a, len(v)), named(v, "col")) == \
        named(reference_mat_vec(a, v), "row")


def test_mat_vec_reads_every_nonzero_coordinate():
    a = [[root_of_unity(5, i + 2 * j) for j in range(4)] for i in range(3)]
    for j in range(4):
        v = [Cyc.zero()] * 4
        v[j] = root_of_unity(8, j) + 2
        assert linalg.mat_vec(keyed(a, 4), named(v, "col")) == \
            named(reference_mat_vec(a, v), "row")
    v = [root_of_unity(8, j) + 2 for j in range(4)]
    assert linalg.mat_vec(keyed(a, 4), named(v, "col")) == \
        named(reference_mat_vec(a, v), "row")


@pytest.mark.parametrize("rows, cols", [(0, 0), (0, 3), (3, 0)])
def test_mat_vec_empty_shapes(rows, cols):
    a = [[root_of_unity(8, 1)] * cols for _ in range(rows)]
    assert linalg.mat_vec(keyed(a, cols), named([Cyc.one()] * cols, "col")) \
        == {}


@pytest.mark.parametrize("conductors", CONDUCTOR_PAIRS,
                         ids=[f"{a}x{b}" for a, b in CONDUCTOR_PAIRS])
@given(data=st.data())
def test_keyed_mat_vec_matches_the_column_form(conductors, data):
    # by keys, mat_vec takes and gives only nonzero coordinates, equal to
    # the product of columns col_mul with v as its one column
    a, v = data.draw(mat_vec_operands(conductors))
    (col,) = linalg.col_mul(keyed(a, len(v)),
                            keyed([[y] for y in v], 1, "v", "col")).values()
    assert linalg.mat_vec(keyed(a, len(v)), named(v, "col")) == dict(col)


@pytest.mark.parametrize("a, v", [([[1, 1]], [1, 1, 1]), ([[1]], [1, 1]),
                                  ([], [1])])
def test_mat_vec_rejects_shape_mismatch(a, v):
    # a coordinate with no column in the keyed form is refused, not dropped
    with pytest.raises(KeyError):
        linalg.mat_vec(keyed(a, len(a[0]) if a else 0), named(v, "col"))


# -- vec_mat ------------------------------------------------------------------


def reference_vec_mat(phi, a, width):
    return [sum((phi[i] * a[i][j] for i in range(len(a))), Cyc.zero())
            for j in range(width)]


def dot(x, y):
    return sum((p * q for p, q in zip(x, y)), Cyc.zero())


@pytest.mark.parametrize("conductors", CONDUCTOR_PAIRS,
                         ids=[f"{a}x{b}" for a, b in CONDUCTOR_PAIRS])
@given(data=st.data())
def test_vec_mat_matches_reference_loop(conductors, data):
    # a row vector of the second conductor times a matrix of the first, by
    # keys, against the dense loop; then (phi a) v = phi (a v) with mat_vec
    a, v = data.draw(mat_vec_operands(conductors))
    phi = data.draw(vectors(len(a), conductors[1]))
    row = linalg.vec_mat(named(phi, "row"), keyed(a, len(v)))
    assert row == named(reference_vec_mat(phi, a, len(v)), "col")
    av = linalg.mat_vec(keyed(a, len(v)), named(v, "col"))
    assert dot([row.get(("col", j), 0) for j in range(len(v))], v) == \
        dot(phi, [av.get(("row", i), 0) for i in range(len(a))])


@pytest.mark.parametrize("rows, cols", [(0, 0), (0, 3), (3, 0)])
def test_vec_mat_empty_shapes(rows, cols):
    a = [[root_of_unity(8, 1)] * cols for _ in range(rows)]
    assert linalg.vec_mat(named([Cyc.one()] * rows, "row"),
                          keyed(a, cols)) == {}


# -- products of keyed forms -------------------------------------------------


@contextmanager
def pack_switch(packed):
    """Force products of keyed forms through the packed ``mat_mul``
    (whenever they have a multiply-add) or over their nonzeros."""
    saved = linalg._PACK_FRACTION, linalg._PACK_MIN
    linalg._PACK_FRACTION, linalg._PACK_MIN = (0, 0) if packed else (math.inf, 0)
    try:
        yield
    finally:
        linalg._PACK_FRACTION, linalg._PACK_MIN = saved


def check_column_product(a, b, inner, cols):
    """col_mul and is_identity_product of the keyed forms of the dense
    ``a`` (rows x inner) and ``b`` (inner x cols) against the dense loop,
    on the measured switch and forced to either side of it.  a's targets
    and b's keys share the tag "out", so a b is the identity when it is
    square and each column ("out", j) is ((("out", j), 1),).  A keyed form
    does not record its rows, and both ``_packs`` and the identity verdict
    read a square a's rows off its keys, so they are checked where
    rows == inner, as every bend is."""
    rows = len(a)
    want = [[sum((a[i][k] * b[k][j] for k in range(inner)), Cyc.zero())
             for j in range(cols)] for i in range(rows)]
    want_identity = len(a) == cols and linalg.is_identity(want)
    ka, kb = keyed(a, inner, "mid", "out"), keyed(b, cols, "out", "mid")
    work = sum(len(ka[k]) for col in kb.values() for k, _ in col)
    size = rows * inner * cols
    square = rows == inner
    if square:  # the switch counts the dense product of a square a
        assert linalg._packs(ka, kb) == (
            0 < work and size >= linalg._PACK_MIN
            and work >= linalg._PACK_FRACTION * size)
    for packed in (None, False, True):
        if packed is None:  # the measured switch
            got = linalg.col_mul(ka, kb), linalg.is_identity_product(ka, kb)
        else:
            with pack_switch(packed):
                assert linalg._packs(ka, kb) == (packed and work > 0)
                got = linalg.col_mul(ka, kb), linalg.is_identity_product(ka, kb)
        product, identity = got
        assert list(product) == list(kb)
        assert linalg.dense(product, index("out", rows)) == want
        assert all(x for col in product.values() for _, x in col)
        if square:
            assert identity == want_identity


@st.composite
def monomial(draw, d, n):
    perm = draw(st.permutations(range(d)))
    return [[draw(entries(n).filter(bool)) if perm[i] == j else Cyc.zero()
             for j in range(d)] for i in range(d)]


@st.composite
def column_operands(draw, conductors):
    """(a, b, inner, cols): monomial, dense or empty-column operands, b
    often a's inverse, sometimes with one entry moved off it."""
    na, nb = conductors
    kind = draw(st.sampled_from(("monomial", "dense", "empty columns")))
    if kind == "empty columns":
        rows, inner, cols = (draw(st.integers(0, 6)) for _ in range(3))
        a, b = draw(matrices(rows, inner, na)), draw(matrices(inner, cols, nb))
        for m, width in ((a, inner), (b, cols)):
            for j in draw(st.sets(st.integers(0, width - 1))) if width else ():
                for row in m:
                    row[j] = Cyc.zero()
        return a, b, inner, cols
    d = draw(st.integers(0, 6))
    a = draw(monomial(d, na) if kind == "monomial" else matrices(d, d, na))
    try:
        b = linalg.mat_inv(a) if draw(st.booleans()) else None
    except ValueError:  # singular
        b = None
    if b is None:
        b = draw(monomial(d, nb) if kind == "monomial" else matrices(d, d, nb))
    if d and draw(st.booleans()):
        i, j = draw(st.integers(0, d - 1)), draw(st.integers(0, d - 1))
        b[i][j] = b[i][j] + 1
    return a, b, d, d


@pytest.mark.parametrize("conductors", CONDUCTOR_PAIRS,
                         ids=[f"{a}x{b}" for a, b in CONDUCTOR_PAIRS])
@given(data=st.data())
def test_column_product_matches_mat_mul(conductors, data):
    check_column_product(*data.draw(column_operands(conductors)))


@pytest.mark.parametrize("shape", [(0, 0, 0), (0, 3, 0), (3, 0, 3), (0, 3, 4),
                                   (4, 3, 0), (1, 1, 1), (8, 8, 8)])
def test_column_product_edge_shapes(shape):
    rows, inner, cols = shape
    z = root_of_unity(8, 3)
    a = [[z + k for k in range(inner)] for _ in range(rows)]
    b = [[z * j - k for j in range(cols)] for k in range(inner)]
    check_column_product(a, b, inner, cols)
    eye = linalg.eye(rows)
    check_column_product(eye, eye, rows, rows)
    # a cyclic permutation: every column one entry 1, off the diagonal
    check_column_product([row[1:] + row[:1] for row in eye], eye, rows, rows)
    if rows:  # [I; 0], every column a unit one, is no identity
        check_column_product(eye, [row[:-1] for row in eye], rows, rows - 1)
    for packed in (False, True):
        with pack_switch(packed):
            assert linalg.col_mul({}, {}) == {}
            assert linalg.is_identity_product({}, {})


@pytest.mark.parametrize("packed", (False, True))
def test_column_product_refuses_a_target_with_no_column(packed):
    # as in mat_vec, a target of b that is no key of a is refused, not
    # dropped, on both sides of the switch
    z = root_of_unity(8, 3)
    a = keyed([[z, 1], [2, z]], 2, "mid", "out")
    b = {("out", 0): ((("mid", 0), z), (("mid", 2), Cyc.one())),
         ("out", 1): ((("mid", 1), Cyc.one()),)}
    with pack_switch(packed):
        for product in (linalg.col_mul, linalg.is_identity_product):
            with pytest.raises(KeyError):
                product(a, b)


# -- integer determinants ---------------------------------------------------


def leibniz(a):
    """det a as the signed sum over all permutations."""
    n = len(a)
    total = 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j]
                         for i in range(n) for j in range(i + 1, n))
        total += (-1) ** inversions * math.prod(a[i][perm[i]] for i in range(n))
    return total


@given(data=st.data())
def test_int_det_matches_leibniz(data):
    n = data.draw(st.integers(0, 5))
    entry = st.one_of(st.just(0), st.integers(-3, 3),
                      st.integers(-2 ** 80, 2 ** 80))
    a = data.draw(st.lists(st.lists(entry, min_size=n, max_size=n),
                           min_size=n, max_size=n))
    # zero the first columns of the leading rows, so pivots are missing
    for i in range(data.draw(st.integers(0, n))):
        for j in range(data.draw(st.integers(0, n))):
            a[i][j] = 0
    before = [list(row) for row in a]
    assert linalg.int_det(a) == leibniz(a)
    assert a == before


@pytest.mark.parametrize("a, det", [
    ([], 1), ([[0]], 0), ([[0, 1], [1, 0]], -1),
    ([[0, 0, 1], [0, 1, 0], [1, 0, 0]], -1),
    # the pivot of the second step vanishes only after the first step
    ([[1, 1, 0], [1, 1, 1], [0, 1, 1]], -1),
    ([[1, 2], [2, 4]], 0)])
def test_int_det_swaps_rows_for_missing_pivots(a, det):
    assert linalg.int_det(a) == det == leibniz(a)


# -- inverses ---------------------------------------------------------------


def inverse_or_error(a):
    try:
        return linalg.mat_inv(a)
    except ValueError as exc:
        return str(exc)


@given(data=st.data())
def test_rational_inverse_matches_the_cyc_elimination(data):
    # the same matrix lifted to conductor 4 takes the Cyc Gauss-Jordan path
    n = data.draw(st.integers(0, 5))
    entry = st.one_of(st.just(0), st.integers(-3, 3),
                      st.fractions(min_value=-4, max_value=4,
                                   max_denominator=6),
                      st.integers(-2 ** 70, 2 ** 70))
    rows = data.draw(st.lists(st.lists(entry, min_size=n, max_size=n),
                              min_size=n, max_size=n))
    # zero leading columns, so pivots are missing, or repeat a row scaled,
    # so the matrix is singular
    for i in range(data.draw(st.integers(0, n))):
        for j in range(data.draw(st.integers(0, n))):
            rows[i][j] = 0
    if n > 1 and data.draw(st.booleans()):
        i, j = data.draw(st.permutations(range(n)))[:2]
        q = data.draw(st.fractions(min_value=-3, max_value=3,
                                   max_denominator=4))
        rows[j] = [q * x for x in rows[i]]
    a = [[Cyc.rational(Fraction(x)) for x in row] for row in rows]
    got = inverse_or_error(a)
    assert got == inverse_or_error([[x.at_conductor(4) for x in row]
                                    for row in a])
    if got == "singular matrix":
        return
    assert all(x.conductor == 1 and x.den > 0
               and math.gcd(x.den, x.num[0]) == 1 for row in got for x in row)
    assert linalg.is_identity(linalg.mat_mul(a, got))
