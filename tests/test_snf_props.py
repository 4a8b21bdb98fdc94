"""Property tests of ``snf.diagonalize`` on small integer matrices.

Pivotal enumeration solves its multiplicative relations through this
diagonalization: u carries the right-hand sides into the diagonal basis,
the diagonal entries fix the degrees of the roots taken there, and v
carries the roots back.  So u and v must be unimodular, d diagonal with a
nonnegative diagonal, and u a v = d exactly, on every shape the relations
can take: empty, zero, square, wide, tall and rank-deficient.  The entries
lie in -3..3, a little wider than the relation exponents (-1..2).  The
elimination reduces the unfinished block to half-pivot remainders as it
goes, so the transforms stay small too: a seeded test runs dense 6 x 6
matrices with entries in -9..9, on which the transforms once reached 10^5
digits, and bounds the bits of every entry of u, d and v.
"""

import copy
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from fscat.linalg import int_det
from fscat.snf import diagonalize


def product(a, b, inner):
    cols = len(b[0]) if b else 0
    return [[sum(a[i][k] * b[k][j] for k in range(inner)) for j in range(cols)]
            for i in range(len(a))]


ENTRIES = st.integers(-3, 3)


@st.composite
def matrices(draw):
    rows = draw(st.integers(0, 6))
    cols = draw(st.integers(0, 6)) if rows else 0
    kind = draw(st.sampled_from(("entries", "zero", "low rank")))
    if kind == "zero":
        return [[0] * cols for _ in range(rows)], cols
    if kind == "entries":
        return draw(st.lists(st.lists(ENTRIES, min_size=cols, max_size=cols),
                             min_size=rows, max_size=rows)), cols
    # signed copies of k rows, k < min(rows, cols) wherever the shape allows
    k = draw(st.integers(1, max(min(rows, cols) - 1, 1)))
    base = draw(st.lists(st.lists(ENTRIES, min_size=cols, max_size=cols),
                         min_size=k, max_size=k))
    picks = draw(st.lists(st.tuples(st.integers(0, k - 1), st.sampled_from((1, -1))),
                          min_size=rows, max_size=rows))
    return [[s * x for x in base[i]] for i, s in picks], cols


@settings(max_examples=300)
@given(matrices())
def test_diagonalize_is_a_unimodular_diagonalization(case):
    a, cols = case
    before = copy.deepcopy(a)
    u, d, v = diagonalize(a)
    rows = len(a)
    assert a == before, "the input was mutated"
    assert len(u) == rows and all(len(r) == rows for r in u)
    assert len(v) == cols and all(len(r) == cols for r in v)
    assert product(product(u, a, rows), v, cols) == d
    assert len(d) == rows and all(len(r) == cols for r in d)
    for i, row in enumerate(d):
        for j, x in enumerate(row):
            assert x == 0 if i != j else x >= 0, (i, j, d)
    assert abs(int_det(u)) == 1
    assert abs(int_det(v)) == 1


def test_diagonalize_on_the_degenerate_shapes():
    assert diagonalize([]) == ([], [], [])
    assert diagonalize([[], []]) == ([[1, 0], [0, 1]], [[], []], [])
    assert diagonalize([[0, 0]]) == ([[1]], [[0, 0]], [[1, 0], [0, 1]])


def test_diagonalize_keeps_entries_small_on_dense_matrices():
    # 200 seeded dense 6 x 6 matrices with entries in -9..9; |det| is below
    # 2^28 (Hadamard), and no entry of u, d or v may pass 96 bits (5,000
    # such draws stayed under 64)
    rng = random.Random(20261020)
    widest = 0
    for _ in range(200):
        a = [[rng.randint(-9, 9) for _ in range(6)] for _ in range(6)]
        u, d, v = diagonalize(a)
        assert product(product(u, a, 6), v, 6) == d
        widest = max(widest, max(abs(x).bit_length()
                                 for m in (u, d, v) for row in m for x in row))
    assert widest <= 96, widest
