import ast
import collections
import glob
import inspect
import itertools
import json
import math
import os
import sys
from fractions import Fraction

import pytest

import fscat
import references
from conftest import ALL_BUNDLED, PSEUDO_UNITARY, bundled, random_gauge
from references import (attach_pair_matrix, closed_loop_trace, col_dense,
                        col_vec, compose, db_vector, dual_morphism,
                        graft_path_matrix, grafted_closing_functional,
                        s3_table, spliced_db_prime_vector,
                        spliced_e_map_matrix, term_vector, unshared_fs_blocks,
                        whole_basis)

from fscat.category import (RING_KINDS, Category, FusionRing,
                            MissingPivotalError, ObjectExpr, gauge_transform,
                            memoised, reverse_category, validate)
from fscat.cli import SplitMix64
from fscat.cyclo import Cyc, galois_conjugate, root_of_unity
from fscat.homcalc import (LinMap, db_prime_vector, insert_vector_matrix,
                           path_counts, pivotal_dimension, pivotal_trace,
                           splice_host_matrix, split_step_matrix)
from fscat.homcalc import (_bend_columns, _bend_entries, _graft_coeffs,
                           _path_index, paths)
from fscat import indicators
from fscat.indicators import (WALK_MAX_N, DimensionGuardError, _bend_value,
                              _factors, _fs_blocks, _prefix_product,
                              _right_block, check_fs_theorems,
                              check_power_identity, check_reversal_symmetry,
                              e_map, e_map_matrix, fs_scalar, indicator,
                              indicator_report, is_spherical, qn_distance,
                              rotation_operator)
from fscat.linalg import (_packs, dense, eye, is_identity, mat_mul, mat_trace,
                          zeros)
from fscat.oracles import char_indicator, d4_table, q8_table
from fscat.pivotal import attach_pivotal, enumerate_pivotal_structures
from fscat.specio import load_bundled


def test_e_map_examples():
    v2 = bundled("vec_z2")
    m = e_map(v2, ("g", "g"), 1)
    assert m.block(v2.unit) == [[Cyc.one()]]
    fib = bundled("fibonacci")
    m = e_map(fib, ("t", "t", "t"), 1).block(fib.unit)
    assert len(m) == 1
    cube = m[0][0] ** 3
    assert cube == 1
    with pytest.raises(ValueError):
        e_map(fib, ("t",), 1)  # no valid split position on one letter
    with pytest.raises(ValueError):
        e_map(fib, ("t", "t"), 2)


def _bend_words(cat, nmax):
    """Every word of every simple and every two-term sum, 2 <= n <= nmax."""
    objs = [ObjectExpr.simple(a) for a in cat.labels]
    objs += [ObjectExpr({a: 1, b: 1})
             for a, b in itertools.combinations(cat.labels, 2)]
    return sorted({w for obj in objs for n in range(2, nmax + 1)
                   for w in rotation_operator(cat, obj, n).words})


def _root_gauge(cat, seed, order=None):
    """A seeded gauge by order-th roots of unity (default: the conductor)."""
    rng = SplitMix64(seed)
    order = order or cat.conductor
    return gauge_transform(cat, {
        (a, b, c): root_of_unity(order, rng.next() % order)
        for (a, b, c) in cat.ring.admissible_triples()
        if cat.unit not in (a, b)})


# the oracle builds the whole spliced word of n + 2k letters; at dimension
# 256 and above (62 of the 11,006 bends, all on the TY(Z2xZ2) pair) it
# takes over 80 s, so those bends are left out
SPLICED_DIM_CAP = 256


@pytest.mark.parametrize("name", ALL_BUNDLED)
def test_bend_matches_spliced_oracle(name):
    # e_map_matrix splices once into the nested coevaluation and keeps only
    # the graft chains the loop closures keep; the oracle splices every host
    # pair over every fusion path and then closes them
    cat = bundled(name)
    compared = 0
    for c, nmax in ((cat, 5), (reverse_category(cat), 4),
                    (_root_gauge(cat, 2 + ALL_BUNDLED.index(name)), 4)):
        for w in _bend_words(c, nmax):
            for k in range(1, len(w)):
                spliced = tuple(c.dual(x) for x in reversed(w[:k])) + w + w[:k]
                steps = ({x: 1} for x in spliced)
                if path_counts(c, steps).get(c.unit, 0) >= SPLICED_DIM_CAP:
                    continue
                want = spliced_e_map_matrix(c, w, k)
                assert e_map_matrix(c, w, k) == want, (c.name, w, k)
                compared += 1
    assert compared


def _scaled(scale, terms):
    return [(p, scale * x) for p, x in terms]


def _t_product(cat, letters, inverse=False):
    scale = Cyc.one()
    for y in letters:
        scale = scale * (cat.t(y).inverse() if inverse else cat.t(y))
    return scale


def _stage_cats(name):
    """A bundled spec, its reversal and one root-of-unity gauge of it."""
    cat = bundled(name)
    return (cat, reverse_category(cat),
            _root_gauge(cat, 2 + ALL_BUNDLED.index(name)))


# the three coevaluation stages of the FS endomorphisms, each against the
# route it replaced; every equality is exact


@pytest.mark.parametrize("name", ALL_BUNDLED)
def test_db_prime_vector_matches_spliced_oracle(name):
    # outermost pair first, against innermost pair first; the terms are
    # the nonzero coordinates, each path once
    for cat in _stage_cats(name):
        for m in range(5):
            for head in itertools.product(cat.labels, repeat=m):
                letters, terms = db_prime_vector(cat, head)
                assert all(x for _, x in terms)
                assert len(dict(terms)) == len(terms)
                assert (letters, term_vector(cat, letters, terms)) == \
                    spliced_db_prime_vector(cat, head), (cat.name, head)


@pytest.mark.parametrize("name", ALL_BUNDLED)
def test_fs_combo_is_one_nested_coevaluation(name):
    # db'(ub) spliced into the t^-1-scaled db'(ua) at l = |ua| is the
    # t^-1-scaled db'(ub + ua)
    for cat in _stage_cats(name):
        for m in range(1, 5):
            for word in itertools.product(cat.labels, repeat=m):
                for l in range(1, m + 1):
                    ub, ua = word[:m - l], word[m - l:]
                    scale = _t_product(cat, ua, inverse=True)
                    a_letters, a_terms = db_prime_vector(cat, ua)
                    b_letters, b_terms = db_prime_vector(cat, ub)
                    mat = whole_basis(splice_host_matrix, cat, a_letters,
                                      _scaled(scale, a_terms), l, b_letters)
                    letters, terms = db_prime_vector(cat, ub + ua)
                    assert a_letters[:l] + b_letters + a_letters[l:] == letters
                    assert col_vec(mat, term_vector(cat, b_letters, b_terms)) \
                        == term_vector(cat, letters, _scaled(scale, terms)), \
                        (cat.name, ua, ub)


@pytest.mark.parametrize("name", ALL_BUNDLED)
def test_right_block_is_the_inserted_coevaluation(name):
    # the right block by attached pairs is the insertion of the t-scaled
    # coevaluation of the whole block at position 1, each vector kept as
    # its nonzero coordinates
    for cat in _stage_cats(name):
        for c in cat.labels:
            for r in range(5):
                want = {}
                for u in itertools.product(cat.labels, repeat=r):
                    g_letters, g_terms = db_vector(cat, u)
                    g_terms = _scaled(_t_product(cat, u), g_terms)
                    mat = whole_basis(insert_vector_matrix, cat, (c,), c, 1,
                                      g_letters, g_terms)
                    vec = col_vec(mat, [Cyc.one()])
                    word = (c,) + g_letters
                    if any(vec):
                        want[word] = {p: x for p, x
                                      in zip(paths(cat, word, c), vec) if x}
                assert _right_block(cat, cat.labels, c, r) == want, \
                    (cat.name, c, r)


def _pair_by_closed_form(cat, letters, root, i, b):
    """The coevaluation pair (b, b*) inserted at position i, entry by entry:
    the path p goes to (.., p_i, e, p_i, ..) with f_inv(p_i, b, b*, p_i, 1, e)."""
    bstar = cat.dual(b)
    src = paths(cat, letters, root)
    tgt = paths(cat, letters[:i] + (b, bstar) + letters[i:], root)
    out = zeros(len(tgt), len(src))
    for col, p in enumerate(src):
        for e in cat.channels(p[i], b):
            out[tgt.index(p[:i + 1] + (e,) + p[i:])][col] = \
                cat.f_inv_entry(p[i], b, bstar, p[i], cat.unit, e)
    return out


def _unit_letter_split(cat, letters, root, i, chunk, pi):
    """A unit letter inserted at position i (the path repeats p_i), then
    split along pi, last letter first, until it is the chunk."""
    src = paths(cat, letters, root)
    cur = letters[:i] + (cat.unit,) + letters[i:]
    tgt = paths(cat, cur, root)
    m = zeros(len(tgt), len(src))
    for col, p in enumerate(src):
        m[tgt.index(p[:i + 1] + p[i:])][col] = Cyc.one()
    for j in range(len(chunk) - 1, 0, -1):
        m = mat_mul(col_dense(whole_basis(split_step_matrix, cat, cur, root,
                                          i, pi[j], chunk[j])), m)
        cur = cur[:i] + (pi[j], chunk[j]) + cur[i + 1:]
    return m


@pytest.mark.parametrize("name", ALL_BUNDLED)
def test_insertions_are_grafts(name):
    # every insertion is the graft of one guest path: a coevaluation pair
    # is its path (1, b, 1), and the FS transport's chunk along pi is pi
    for cat in _stage_cats(name):
        chunks = [(chunk, pi) for m in range(1, 4)
                  for chunk in itertools.product(cat.labels, repeat=m)
                  for pi in paths(cat, chunk, cat.unit)]
        for m in range(3):
            for word in itertools.product(cat.labels, repeat=m):
                for i, root in itertools.product(range(m + 1), cat.labels):
                    for b in cat.labels:
                        got = attach_pair_matrix(cat, word, root, i, b)
                        assert col_dense(got) == _pair_by_closed_form(
                            cat, word, root, i, b), (cat.name, word, root, i, b)
                    for chunk, pi in chunks:
                        got = graft_path_matrix(cat, word, root, i, chunk, pi)
                        assert col_dense(got) == _unit_letter_split(
                            cat, word, root, i, chunk, pi), \
                            (cat.name, word, root, i, pi)


@pytest.mark.parametrize("name", ALL_BUNDLED)
def test_bend_entries_match_the_built_bend(name):
    # the pinned kernel against the matrix it pins: the diagonal where
    # rot_k w = w, each entry weighted apart, and the pairs at the nonzeros
    # of E(rot_k w, n - k), the factor that follows E(w, k) back to w; the
    # bend by columns is the same matrix
    compared = 0
    for c in _stage_cats(name):
        for w in _bend_words(c, 6):
            ps = paths(c, w, c.unit)
            for k in range(1, len(w)):
                e = e_map_matrix(c, w, k)
                assert list(_bend_columns(c, w, k)) == list(ps)
                assert dense(_bend_columns(c, w, k),
                             _path_index(c, w[k:] + w[:k], c.unit)) == e, \
                    (c.name, w, k)
                rw = w[k:] + w[:k]
                if rw == w:
                    weights = [Cyc.rational(i + 1) for i in range(len(ps))]
                    got = _bend_entries(c, w, k, zip(ps, ps, weights))
                    want = sum((x * e[i][i] for i, x in enumerate(weights)),
                               Cyc.zero())
                    assert got == want, (c.name, w, k)
                b = e_map_matrix(c, rw, len(w) - k)
                qs = paths(c, rw, c.unit)
                pairs = [(ps[i], qs[j], x) for i, row in enumerate(b)
                         for j, x in enumerate(row) if x]
                want = sum((x * e[qs.index(q)][ps.index(p)]
                            for p, q, x in pairs), Cyc.zero())
                assert _bend_entries(c, w, k, pairs) == want, (c.name, w, k)
                compared += 1
    assert compared


def _orbit_words(cat, nmax):
    """Every rotation of every nonzero orbit word of every simple and every
    two-term sum, 2 <= n <= nmax, in label order."""
    objs = [ObjectExpr.simple(a) for a in cat.labels]
    objs += [ObjectExpr({a: 1, b: 1})
             for a, b in itertools.combinations(cat.labels, 2)]
    return sorted({w[j:] + w[:j] for obj in objs for n in range(2, nmax + 1)
                   for w, _ in indicators._orbits(
                       cat, rotation_operator(cat, obj, n).support, n)
                   for j in range(n)})


@pytest.mark.parametrize("name", ALL_BUNDLED)
def test_bend_kernel_matches_the_pinned_route(name):
    # the fused kernel against the generic route it replaced
    # (references.pinned_bend_columns / pinned_bend_entries: pinned graft
    # states, term generators and the whole-basis layout): every k of every
    # rotation of every nonzero orbit word up to n = 7.  The entries are
    # read at every stored nonzero of the column and at the first path of
    # the rotated word, weighted apart; the weighted sum must also be that
    # of the columns
    cat = bundled(name)
    compared = 0
    for w in _orbit_words(cat, 7):
        ps = paths(cat, w, cat.unit)
        for k in range(1, len(w)):
            got = _bend_columns(cat, w, k)
            assert got == references.pinned_bend_columns(cat, w, k), (w, k)
            qs = paths(cat, w[k:] + w[:k], cat.unit)
            entries = {(rho, q): x for rho, col in got.items()
                       for q, x in col}
            entries.setdefault((ps[0], qs[0]), Cyc.zero())
            pairs = [(rho, q, Cyc.rational(e + 1))
                     for e, (rho, q) in enumerate(entries)]
            want = sum((x * entries[key] for key, (_, _, x)
                        in zip(entries, pairs)), Cyc.zero())
            assert _bend_entries(cat, w, k, pairs) == want, (w, k)
            assert references.pinned_bend_entries(cat, w, k, pairs) == want
            compared += 1
    assert compared


@pytest.mark.parametrize("name", ALL_BUNDLED)
def test_bend_route_matches_the_walk(name, monkeypatch):
    # above WALK_MAX_N every indicator cell and power-identity flag is read
    # off products of 2-strand bends; the reference is the same production
    # loop with the threshold raised, so it reads them off the
    # single-strand walk
    assert WALK_MAX_N == 5
    assert [_factors(r) for r in (1, 2, 6, 7, 8)] == [
        ((0, 1),), ((0, 2),), ((0, 2), (2, 2), (4, 2)),
        ((0, 2), (2, 2), (4, 2), (6, 1)), ((0, 2), (2, 2), (4, 2), (6, 2))]
    for c in _stage_cats(name):
        objs = [ObjectExpr.simple(a) for a in c.labels]
        objs += [ObjectExpr({a: 1, b: 1})
                 for a, b in itertools.combinations(c.labels, 2)]
        for obj in objs:
            for n in (6, 7, 8):
                monkeypatch.setattr(indicators, "WALK_MAX_N", WALK_MAX_N)
                got = [check_power_identity(c, obj, n)]
                got += [indicator(c, obj, n, r) for r in range(n + 1)]
                monkeypatch.setattr(indicators, "WALK_MAX_N", 99)
                want = [check_power_identity(c, obj, n)]
                want += [indicator(c, obj, n, r) for r in range(n + 1)]
                assert got == want, (c.name, str(obj), n)


@pytest.mark.parametrize("name,a,n", [("fibonacci", "t", 7),
                                      ("ty_z2z2_plus", "sigma", 10)])
def test_power_identity_sees_one_perturbed_entry(name, a, n, monkeypatch):
    # above the walk E^n = id is the product L F_m ... F_1 = id of the
    # bends by columns (``_factors``); w = a^n, so every F_i is E(w, 2) and
    # L is E(w, n - 2m).  The factors are invertible, so adding 1 to any one
    # entry of any one of them, stored or not, makes the product differ
    # from the identity.  The bends are fetched once per factor, F_m first
    # and L last, so a spy on the fetch perturbs one factor at a time;
    # column j of fetch c is perturbed where j = c mod the factor count, so
    # every factor and every column is.  Fibonacci's products are dense
    # enough to pack, the monomial TY ones are formed over their nonzeros
    cat = bundled(name).with_pivotal(bundled(name).pivotal)
    word, count = (a,) * n, len(_factors(n))
    real = indicators._bend_columns

    def product_is_identity(c, change):
        fetched = []

        def spy(cat, letters, k):
            got = real(cat, letters, k)
            fetched.append(k)
            return change(got) if len(fetched) == c + 1 else got

        monkeypatch.setattr(indicators, "_bend_columns", spy)
        for key in [key for key in cat._cache
                    if key[0] in ("_prefix_product", "bendtr")]:
            del cat._cache[key]
        ok = _bend_value(cat, word, n)
        assert fetched == [k for _, k in _factors(n)], fetched
        return ok

    assert product_is_identity(0, lambda got: got) is True
    m = count - 1
    last = real(cat, word, n - 2 * m)
    assert _packs(last, _prefix_product(cat, word, m)) == (name == "fibonacci")
    ps = paths(cat, word, cat.unit)  # of every rotation of w = a^n
    perturbed = 0
    for c in range(count):
        cols = real(cat, word, 2 if c < m else n - 2 * m)
        for rho in ps[c::count]:
            col = cols[rho]
            bad = [col[:e] + ((q, x + 1),) + col[e + 1:]
                   for e, (q, x) in enumerate(col)]
            held = {q for q, _ in col}
            bad += [col + ((q, Cyc.one()),) for q in ps if q not in held][:1]
            for got in bad:
                assert product_is_identity(c, lambda _, rho=rho, got=got: {
                    **cols, rho: got}) is False, (c, rho, got)
                perturbed += 1
    assert perturbed >= 2 * len(ps)


def _rotation_pass(cat, cases):
    """The power identity and every indicator of each (object, n) case."""
    return [(check_power_identity(cat, obj, n),
             [indicator(cat, obj, n, r) for r in range(n + 1)])
            for obj, n in cases]


def _walk_every_orbit(cat, obj, n):
    """(power identity, [nu_{n,r} for r = 0..n]) of a multiplicity-free
    object, walking every rotation orbit, zero blocks included, and at
    2 <= n <= 5 checking block monoidality on each of them."""
    op = rotation_operator(cat, obj, n)
    seen, orbits = set(), []
    for w in op.words:
        if w not in seen:
            orbit = {w[j:] + w[:j] for j in range(n)}
            seen |= orbit
            orbits.append((w, len(orbit)))
    walks = [indicators._orbit_walk(cat, w) for w, _ in orbits]
    ident = all(ok for _, ok in walks)
    for w, _ in orbits if n <= 5 else ():
        for k in range(1, n):
            for m in range(1, n - k):
                ident &= mat_mul(e_map_matrix(cat, w[k:] + w[:k], m),
                                 e_map_matrix(cat, w, k)) == \
                    e_map_matrix(cat, w, k + m)
    values = [Cyc.rational(op.total_dimension)]
    for r in range(1, n):
        values.append(sum((d * traces[r] for (_, d), (traces, _)
                           in zip(orbits, walks) if r % d == 0), Cyc.zero()))
    values.append(values[0])
    return ident, values


@pytest.mark.parametrize("name", ALL_BUNDLED)
def test_zero_blocks_are_dropped_not_walked(name):
    # a zero block has zero traces and satisfies E^n = id vacuously, so
    # dropping it changes no value; the warm category then holds no walk,
    # bend or prefix-product key of a zero-dimensional word
    cat = bundled(name)
    objs = [ObjectExpr.simple(a) for a in cat.labels]
    objs += [ObjectExpr({a: 1, b: 1})
             for a, b in itertools.combinations(cat.labels, 2)]
    warm, ref = (cat.with_pivotal(cat.pivotal) for _ in range(2))
    zero_words = 0
    for obj in objs:
        for n in range(1, 7):
            got = _rotation_pass(warm, [(obj, n)])[0]
            assert got == _walk_every_orbit(ref, obj, n), (str(obj), n)
            zero_words += sum(not paths(cat, w, cat.unit)
                              for w in rotation_operator(cat, obj, n).words)
    assert zero_words or name == "trivial"
    for key in warm._cache:
        if key[0] in ("emap", "walk", "bendtr", "_prefix_product",
                      "_bend_columns"):
            assert path_counts(cat, ({x: 1} for x in key[1])).get(
                cat.unit, 0), key
    assert any(key[0] == "walk" for key in warm._cache)


@pytest.mark.parametrize("name", ALL_BUNDLED)
def test_nonzero_orbits_are_kept_per_support(name):
    # the orbits depend on the support and n alone: a request at another
    # multiplicity reads the kept ones, and they are the least words of the
    # nonzero blocks, each with its orbit length
    cat = bundled(name)
    warm = cat.with_pivotal(cat.pivotal)
    for a, b in itertools.combinations(cat.labels, 2):
        for n in range(1, 5):
            one, two = (rotation_operator(warm, ObjectExpr({a: m, b: 1}), n)
                        for m in (1, 2))
            got = indicators._orbits(warm, one.support, n)
            assert indicators._orbits(warm, two.support, n) is got
            want = []
            for w in itertools.product((a, b), repeat=n):
                orbit = {w[j:] + w[:j] for j in range(n)}
                least = min(orbit, key=lambda v: list(map(cat.label_index, v)))
                if w == least and paths(cat, w, cat.unit):
                    want.append((w, len(orbit)))
            assert sorted(got) == sorted(want), (a, b, n)


def test_e_map_requires_pivotal():
    bare = bundled("fibonacci").with_pivotal(None)
    with pytest.raises(MissingPivotalError):
        e_map(bare, ("t", "t"), 1)


def test_rotation_operator_structure():
    fib = bundled("fibonacci")
    op = rotation_operator(fib, "1", 3)
    assert op.total_dimension == 1
    # the block maps to itself
    assert is_identity(e_map_matrix(fib, ("1", "1", "1"), 1))
    op = rotation_operator(fib, "t", 4)
    m = e_map_matrix(fib, ("t",) * 4, 1)
    # M is 2x2 with M^4 = id
    assert len(m) == 2
    power = m
    for _ in range(3):
        power = mat_mul(m, power)
    assert is_identity(power)
    # block permutation on a direct sum follows necklace rotation
    op = rotation_operator(fib, ObjectExpr({"1": 1, "t": 1}), 2)
    assert set(op.words) == {("1", "1"), ("1", "t"), ("t", "1"), ("t", "t")}


def test_indicator_unit_is_one(any_bundled):
    cat = any_bundled
    for n in range(1, 9):
        assert indicator(cat, cat.unit, n, 1) == 1


def test_indicator_vec_z2_alternates():
    v2 = bundled("vec_z2")
    vals = [indicator(v2, "g", n, 1) for n in range(1, 7)]
    assert vals == [Cyc.zero() if n % 2 else Cyc.one() for n in range(1, 7)]


def test_indicator_matches_group_characters():
    # TY(Z2 x Z2) with the diagonal bicharacter at tau = -1/2 and +1/2 has
    # the fusion rules of Rep(Q8) and Rep(D4), and nu_2(sigma) matches their
    # two-dimensional characters; it is neither category, since
    # nu_4(sigma) = 0 where both characters give 2
    tym = bundled("ty_z2z2_minus")
    typ = bundled("ty_z2z2_plus")
    assert indicator(tym, "sigma", 2, 1) == \
        char_indicator(q8_table(), "dim2", 2, 1) == Cyc.rational(-1)
    assert indicator(typ, "sigma", 2, 1) == \
        char_indicator(d4_table(), "dim2", 2, 1) == Cyc.rational(1)
    # rep_s3 is TY(Z3), rank 4 with nu_4(sigma) = -i, so not Rep(S3) (rank 3,
    # integer indicators); only its nu_2(sigma) matches the S3 character
    reps3 = bundled("rep_s3")
    assert indicator(reps3, "sigma", 2, 1) == \
        char_indicator(s3_table(), "std", 2, 1) == Cyc.rational(1)


def test_indicator_fibonacci_nu2():
    fib = bundled("fibonacci")
    assert indicator(fib, "t", 2, 1) == 1


def test_indicator_r_zero_is_dimension():
    fib = bundled("fibonacci")
    assert indicator(fib, "t", 4, 0) == 2
    assert indicator(fib, "t", 4, 4) == 2
    assert indicator(fib, "t", 4, -1) == indicator(fib, "t", 4, 3)


def test_nu2_range_on_pseudo_unitary():
    allowed = (Cyc.zero(), Cyc.one(), Cyc.rational(-1))
    for name in PSEUDO_UNITARY:
        cat = bundled(name)
        for a in cat.labels:
            assert indicator(cat, a, 2, 1) in allowed, (name, a)


@pytest.mark.parametrize("name", ALL_BUNDLED)
def test_power_identity_simples(name):
    cat = bundled(name)
    for a in cat.labels:
        for n in range(1, 5):
            assert check_power_identity(cat, a, n), (a, n)


def test_power_identity_direct_sum():
    fib = bundled("fibonacci")
    expr = ObjectExpr({"1": 1, "t": 1})
    for n in range(1, 5):
        assert check_power_identity(fib, expr, n)


def test_conjugation_symmetry(any_bundled):
    cat = any_bundled
    for a in cat.labels:
        for n in range(1, 5):
            for r in range(n + 1):
                lhs = galois_conjugate(indicator(cat, a, n, r))
                assert lhs == indicator(cat, a, n, n - r)


def test_indicators_are_cyclotomic_integers(any_bundled):
    cat = any_bundled
    for a in cat.labels:
        for n in range(1, 5):
            val = indicator(cat, a, n, 1)
            _, coeffs = val.reduced_key()
            assert all(c.denominator == 1 for c in coeffs), (a, n, val)
            assert qn_distance(val, n) < 1e-12


@pytest.mark.parametrize("value", [
    Cyc.zero(), Cyc.rational(12), Cyc.rational(Fraction(-7, 3)),
    Cyc(4, [Fraction(5, 2), 0]), Cyc(12, [-1, 0, 0, 0])], ids=repr)
def test_qn_distance_of_a_rational_takes_no_projection(value, monkeypatch):
    # a rational value, at any conductor, is its own Galois average
    def refuse(*args):
        raise AssertionError("a projection was taken")
    for name in ("reduced", "galois", "embed"):
        monkeypatch.setattr(Cyc, name, refuse)
    for n in (1, 2, 3, 4, 8):
        got = qn_distance(value, n)
        assert got == 0.0 and math.copysign(1.0, got) == 1.0


# -- pivotal traces --------------------------------------------------------------


def test_ptr_examples():
    fib = bundled("fibonacci")
    assert pivotal_trace(fib, LinMap.identity(fib, ("1",)), "left") == 1
    tr = pivotal_trace(fib, LinMap.identity(fib, ("t",)), "right")
    assert abs(tr.embed().real - 1.618033988749895) < 1e-12


def _pseudo_random_map(cat, src, tgt, seed):
    state = seed
    blocks = {}
    for r in cat.labels:
        rows, cols = len(paths(cat, tgt, r)), len(paths(cat, src, r))
        blk = []
        for i in range(rows):
            row = []
            for j in range(cols):
                state = (state * 6364136223846793005 + 1442695040888963407) % 2**64
                row.append(Cyc.rational(state % 5 - 2))
            blk.append(row)
        blocks[r] = blk
    return LinMap(cat, src, tgt, blocks)


def test_ptr_cyclicity():
    # on the route that closes the strands one by one, the reference of
    # pivotal_trace (which is cyclic by construction, block by block)
    fib = bundled("fibonacci")
    src, tgt = ("t", "t"), ("t", "1", "t")
    f = _pseudo_random_map(fib, tgt, src, seed=5)   # f: W -> V
    g = _pseudo_random_map(fib, src, tgt, seed=9)   # g: V -> W
    for side in ("left", "right"):
        assert closed_loop_trace(fib, compose(f, g), side) == \
            closed_loop_trace(fib, compose(g, f), side)


def test_is_spherical_examples():
    assert is_spherical(bundled("vec_z2"))
    assert is_spherical(bundled("trivial"))
    assert is_spherical(bundled("fibonacci"))
    sem = bundled("semion")
    from fscat.pivotal import enumerate_pivotal_structures
    verdicts = [is_spherical(sem.with_pivotal(p))
                for p in enumerate_pivotal_structures(sem)]
    assert any(verdicts)


# -- Frobenius-Schur endomorphisms -------------------------------------------------


def test_fs_scalar_unit():
    fib = bundled("fibonacci")
    for n in range(1, 5):
        for l in range(n):
            for r in range(n - l):
                assert fs_scalar(fib, "1", n, l, r) == 1


def test_fs_scalar_bad_arguments():
    fib = bundled("fibonacci")
    with pytest.raises(ValueError):
        fs_scalar(fib, "t", 2, 1, 1)  # l + r + 1 > n
    with pytest.raises(ValueError):
        fs_scalar(fib, "q", 2, 0, 0)


def test_fs_blocks_refuse_a_repeated_label():
    # t + t is not multiplicity-free: its blocks would count t twice
    fib = bundled("fibonacci")
    with pytest.raises(ValueError, match="repeated label 't'"):
        _fs_blocks(fib, ("t", "t"), 2, 0, 0)
    with pytest.raises(ValueError, match="repeated label '1'"):
        _fs_blocks(fib, ("t", "1", "1"), 2, 0, 0)


def _check_fs_blocks_against_the_unshared_route(cat):
    """The forward middle shared by every l of an (n, r) and the backward
    closing functional shared by every r of an (n, l), against the build of
    each (l, r) alone, block for block: every simple at n <= 5, every
    two-term sum at n <= 4."""
    supports = [((a,), 5) for a in cat.labels]
    supports += [(pair, 4) for pair in itertools.combinations(cat.labels, 2)]
    for support, nmax in supports:
        for n in range(1, nmax + 1):
            for l in range(n):
                for r in range(n - l):
                    assert _fs_blocks(cat, support, n, l, r) == \
                        unshared_fs_blocks(cat, support, n, l, r), \
                        (cat.name, support, n, l, r)


@pytest.mark.parametrize("name", ALL_BUNDLED)
def test_fs_blocks_match_the_unshared_route(name):
    _check_fs_blocks_against_the_unshared_route(
        bundled(name).with_pivotal(bundled(name).pivotal))


@pytest.mark.parametrize("name", ALL_BUNDLED)
def test_fs_blocks_match_the_unshared_route_on_a_reversal_and_a_gauge(name):
    cat = bundled(name)
    rng = SplitMix64(9100 + ALL_BUNDLED.index(name))
    for other in (reverse_category(cat),
                  gauge_transform(cat, random_gauge(cat, rng))):
        _check_fs_blocks_against_the_unshared_route(other)


def test_fs_blocks_match_the_unshared_route_on_every_pivotal_of_vec_z3():
    # vec_z3 has pivotal structures that are not spherical, so there the
    # left and right closures carry different scalars
    base = bundled("vec_z3")
    structures = enumerate_pivotal_structures(base)
    cats = [attach_pivotal(base, i) for i in range(len(structures))]
    assert not all(is_spherical(cat) for cat in cats)
    for cat in cats:
        _check_fs_blocks_against_the_unshared_route(cat)


def _check_closing_functionals_against_the_grafted_read(cat):
    """Every closing functional the FS sweep of
    ``_check_fs_blocks_against_the_unshared_route`` builds, read off the
    closing row's support, against each chunk path grafted over the whole
    torn basis: dict for dict, each psi without a zero coordinate."""
    supports = [((a,), 5) for a in cat.labels]
    supports += [(pair, 4) for pair in itertools.combinations(cat.labels, 2)]
    for support, nmax in supports:
        for n in range(1, nmax + 1):
            for l in range(n):
                for r in range(n - l):
                    _fs_blocks(cat, support, n, l, r)
    built = [key for key in cat._cache if key[0] == "_closing_functional"]
    assert built
    for key in built:
        reads = cat._cache[key]
        assert reads == grafted_closing_functional(cat, *key[1:]), key
        assert reads is None or all(all(psi.values())
                                    for psi in reads.values()), key


@pytest.mark.parametrize("name", ALL_BUNDLED)
def test_closing_functional_matches_the_grafted_read(name):
    cat = bundled(name)
    rng = SplitMix64(9200 + ALL_BUNDLED.index(name))
    for other in (cat.with_pivotal(cat.pivotal), reverse_category(cat),
                  gauge_transform(cat, random_gauge(cat, rng))):
        _check_closing_functionals_against_the_grafted_read(other)


def test_closing_functional_matches_the_grafted_read_on_every_pivotal_of_vec_z3():
    base = bundled("vec_z3")
    for i in range(len(enumerate_pivotal_structures(base))):
        _check_closing_functionals_against_the_grafted_read(
            attach_pivotal(base, i))


def test_fs_middle_is_built_once_per_n_and_r(monkeypatch):
    # the 15 (l, r) of Fibonacci t at n = 5 share five middles, one per r,
    # and each inserts one comb into the one word of its right block; a
    # comb insertion's guest is the memoised terms of a db_prime_vector
    # word, where the coevaluation pairs and the chunks pass one path
    calls = []
    real = indicators.insert_vector_matrix

    def counted(cat, i, guest_letters, guest, *, keys):
        u = guest_letters[len(guest_letters) // 2:]
        if guest is db_prime_vector(cat, u)[1]:
            calls.append((i, guest_letters))
        return real(cat, i, guest_letters, guest, keys=keys)

    monkeypatch.setattr(indicators, "insert_vector_matrix", counted)
    fib = load_bundled("fibonacci")
    cases = [(l, r) for r in range(5) for l in range(5 - r)]
    assert len(cases) == 15
    for l, r in cases:
        fs_scalar(fib, "t", 5, l, r)
    assert len(calls) == 5
    assert sorted(key[1:] for key in fib._cache if key[0] == "_torn_down") \
        == [(("t",), "t", 5, r) for r in range(5)]


def test_fs_closing_functional_is_built_once_per_word_and_l(monkeypatch):
    # the 15 (l, r) of Fibonacci t at n = 5 close loops on one word of 9
    # letters, torn down to one word of 4 letters and one chunk of 5, so
    # they build five closing functionals, one per l, each with the reads of
    # every chunk path; the first r of an l builds its functional, and every
    # later r of that l reads it and builds nothing
    reads = []
    real = Category.cached

    def counted(cat, key, build):
        made = []
        got = real(cat, key, lambda: made.append(key) or build())
        reads.append((key, bool(made)))
        return got

    monkeypatch.setattr(Category, "cached", counted)
    fib = load_bundled("fibonacci")
    torn, chunk = ("t",) * 4, ("t",) * 5
    seen = set()
    for r in range(5):
        for l in range(5 - r):
            del reads[:]
            fs_scalar(fib, "t", 5, l, r)
            fs = [(key, made) for key, made in reads
                  if key[0] == "_closing_functional"]
            assert fs and {key[3] for key, _ in fs} == {l}
            built = [key for key, made in fs if made]
            if l in seen:
                assert not built, (l, r)
            else:
                assert built == [("_closing_functional", torn, "t", l, chunk)]
                psis = fib._cache[built[0]]
                assert list(psis) == list(paths(fib, chunk, fib.unit))
            seen.add(l)
    assert sorted(key[1:] for key in fib._cache
                  if key[0] == "_closing_functional") == \
        [(torn, "t", l, chunk) for l in range(5)]


def test_fs_guard_applies_on_a_memo_hit(monkeypatch):
    # FS^(5,1,0) reads the middle FS^(5,0,0) built, but its words of 9
    # letters are still counted against the guard on the request; so are
    # those of FS^(5,0,1), which reads the closing functional FS^(5,0,0) built
    fib = load_bundled("fibonacci")
    monkeypatch.delenv("FSCAT_NMAX_GUARD", raising=False)
    fs_scalar(fib, "t", 5, 0, 0)
    assert ("_torn_down", ("t",), "t", 5, 0) in fib._cache
    closing = ("_closing_functional", ("t",) * 4, "t", 0, ("t",) * 5)
    assert closing in fib._cache
    chains = [key for key in fib._cache if key[0] == "graft"]
    assert chains
    monkeypatch.setenv("FSCAT_NMAX_GUARD", "3")
    with pytest.raises(DimensionGuardError):
        fs_scalar(fib, "t", 5, 1, 0)
    # a refused request builds no middle, no closing functional and no
    # graft chain of its own
    with pytest.raises(DimensionGuardError):
        fs_scalar(fib, "t", 5, 0, 1)
    assert [key for key in fib._cache if key[0] == "_torn_down"] == \
        [("_torn_down", ("t",), "t", 5, 0)]
    assert [key for key in fib._cache
            if key[0] == "_closing_functional"] == [closing]
    assert [key for key in fib._cache if key[0] == "graft"] == chains


def _label_tuples(obj, labels):
    """Every tuple of labels inside ``obj``, through tuples, lists and the
    keys and values of dicts: the words and paths a memo holds."""
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield from _label_tuples(key, labels)
            yield from _label_tuples(value, labels)
    elif isinstance(obj, (tuple, list)):
        if obj and isinstance(obj, tuple) and all(
                isinstance(x, str) and x in labels for x in obj):
            yield obj
        else:
            for x in obj:
                yield from _label_tuples(x, labels)


@pytest.mark.parametrize("name,a", [("fibonacci", "t"),
                                    ("ty_z2z2_plus", "sigma")])
def test_fs_sweep_lists_no_basis_of_the_long_word(name, a):
    # every (l, r) at n = 5 inserts and tears down on words of 9 letters,
    # but keyed by the paths its vectors hold: no path basis of a 9-letter
    # word is listed on the ring, and no memo keeps a word of 9 letters or a
    # path through one (a path starts at the unit and has one stage more
    # than its word has letters)
    n, long = 5, 9
    cat = _on_a_fresh_ring(load_bundled(name))
    for l in range(n):
        for r in range(n - l):
            fs_scalar(cat, a, n, l, r)
    listed = [key for key in cat.ring._cache if key[0] in ("paths", "pidx")]
    assert listed and max(len(key[1]) for key in listed) < long
    labels = set(cat.labels)
    letters = [len(t) - (t[0] == cat.unit)
               for store in (cat._cache, cat.ring._cache)
               for t in _label_tuples(store, labels)]
    assert letters and max(letters) < long


@pytest.mark.parametrize("name,a,n", [("ty_z2z2_plus", "sigma", 8),
                                      ("fibonacci", "t", 11),
                                      ("ising", "sigma", 14)],
                         ids=["ty_z2z2_plus", "fibonacci", "ising"])
def test_trace_formula_past_the_default_guard(name, a, n, monkeypatch):
    # nu_n = ptr_l(id) FS^(n) where the FS words of 2n - 1 letters are above
    # the default guard (Hom(a, a^(2n-1)) has dimension 16,384, 10,946 and
    # 8,192): with the guard raised, the keyed build lists no basis of them
    monkeypatch.setenv("FSCAT_NMAX_GUARD", "16384")
    cat = load_bundled(name)
    ptrl = pivotal_dimension(cat, a, "left")
    assert indicator(cat, a, n, 1) == ptrl * fs_scalar(cat, a, n, 0, 0)
    monkeypatch.delenv("FSCAT_NMAX_GUARD")
    with pytest.raises(DimensionGuardError):
        fs_scalar(load_bundled(name), a, n, 0, 0)


@pytest.mark.parametrize("name,a,n", [("ty_z2z2_plus", "sigma", 8),
                                      ("fibonacci", "t", 11)],
                         ids=["ty_z2z2_plus", "fibonacci"])
def test_generalized_trace_formula_past_the_default_guard(name, a, n,
                                                          monkeypatch):
    # nu_{n,k} = ptr_l(a) FS^(n,k-1,0) for every k, odd l = k - 1 included,
    # with the FS words of 2n - 1 letters above the default guard: each
    # chunk graft is read off the closing row's support
    monkeypatch.setenv("FSCAT_NMAX_GUARD", "16384")
    cat = load_bundled(name)
    ptrl = pivotal_dimension(cat, a, "left")
    for k in range(1, n + 1):
        assert indicator(cat, a, n, k) == \
            ptrl * fs_scalar(cat, a, n, k - 1, 0), k


def _cold_chains(cat, lam, letters, rho):
    """The graft chains as the ``"graft"`` memo keeps them, (sigma[1:],
    coeff) pairs, computed afresh."""
    return tuple((chain[1:], coeff)
                 for chain, coeff in _graft_coeffs(cat, lam, letters, rho))


def test_each_graft_chain_is_computed_once_per_category(monkeypatch):
    # an FS sweep and a rotation pass on each of two categories on one
    # ring: every graft chain is computed once per category and kept, and
    # the chains of the bends, walked by the bend kernel, are computed but
    # never kept: the kernel reads no graft chain, so the graft memo holds
    # exactly the chains computed outside it
    unpinned, pinned = collections.Counter(), []
    real = fscat.homcalc._graft_coeffs
    real_kernel = fscat.homcalc._bend_grafts

    def counted(cat, lam, letters, path):
        assert not bending, "the bend kernel read a graft chain"
        unpinned[(id(cat), lam, letters, path)] += 1
        return real(cat, lam, letters, path)

    bending = []

    def kernel(cat, letters, k, tops, rho, pin=None):
        bending.append(True)
        got = real_kernel(cat, letters, k, tops, rho, pin)
        bending.pop()
        pinned.extend(got)
        return got

    monkeypatch.setattr(fscat.homcalc, "_graft_coeffs", counted)
    monkeypatch.setattr(fscat.homcalc, "_bend_grafts", kernel)
    fib = load_bundled("fibonacci")
    cats = (fib, fib.with_pivotal(fib.pivotal))
    for cat in cats:
        for n in range(1, 7):
            for l in range(n):
                for r in range(n - l):
                    fs_scalar(cat, "t", n, l, r)
        _rotation_pass(cat, [("t", n) for n in range(2, 9)])
    assert pinned and set(unpinned.values()) == {1}
    assert sorted(unpinned) == sorted(
        (id(cat), *key[1:]) for cat in cats for key in cat._cache
        if key[0] == "graft")


@pytest.mark.parametrize("name", ALL_BUNDLED)
def test_a_gauge_reads_its_own_graft_chains(name):
    # the chains hold inverse F entries, so they are kept per category and
    # not on the ring: a gauge built after its base filled its store makes
    # its own chains, and its FS scalars are the ungauged golden ones
    with open(os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "perfbench", "golden", "fs.json"),
            encoding="utf-8") as fh:
        golden = json.load(fh)[name]
    cat = load_bundled(name)
    cases = [(a, n, l, r) for a in cat.labels for n in range(1, 5)
             for l in range(n) for r in range(n - l)]
    want = [Cyc.decode(golden[a][f"{n},{l},{r}"]) for a, n, l, r in cases]
    assert [fs_scalar(cat, *case) for case in cases] == want
    gauged = _root_gauge(cat, 2 + ALL_BUNDLED.index(name))
    assert gauged.ring is cat.ring
    assert [fs_scalar(gauged, *case) for case in cases] == want
    chains = {key: got for key, got in gauged._cache.items()
              if key[0] == "graft"}
    assert chains
    cold = gauged.with_pivotal(gauged.pivotal)
    for key, got in chains.items():
        assert got == _cold_chains(cold, *key[1:]), key


def _memoised_builders():
    """{memo kind: builder} of every function that carries
    ``category.memoised``, in the library and in the test references."""
    spaces = [vars(mod) for name, mod in sorted(sys.modules.items())
              if name.startswith("fscat.")]
    spaces += [vars(Category), vars(references)]
    found = {id(f): f for space in spaces for f in space.values()
             if callable(f) and isinstance(getattr(f, "kind", None), str)}
    kinds = [f.kind for f in found.values()]
    assert len(kinds) == len(set(kinds)), sorted(kinds)
    return {f.kind: f for f in found.values()}


def _on_a_fresh_ring(cat):
    """``cat`` with empty stores, its ring's included."""
    ring = cat.ring
    return Category(cat.name, FusionRing(ring.labels, ring.unit, ring.dual,
                                         ring.N),
                    cat.F, cat.pivotal, cat.conductor)


def test_every_memo_is_declared_by_memoised():
    # one idiom: ``Category.cached`` is called only by the decorator, the
    # ring kinds are those the decorated builders declare, and only
    # ``e_map_matrix`` reads past a builder's memo (``__wrapped__``), to
    # keep the dense bend under its own kind
    lines, start = inspect.getsourcelines(memoised)
    src = os.path.dirname(os.path.abspath(fscat.__file__))
    sites, unwrapped = [], []
    for path in sorted(glob.glob(os.path.join(src, "*.py"))):
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), path)
        sites += [(os.path.basename(path), node.lineno)
                  for node in ast.walk(tree) if isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Attribute)
                  and node.func.attr == "cached"]
        unwrapped += [(os.path.basename(path), fn.name)
                      for fn in ast.walk(tree)
                      if isinstance(fn, ast.FunctionDef)
                      for node in ast.walk(fn)
                      if isinstance(node, ast.Attribute)
                      and node.attr == "__wrapped__"]
    assert len(sites) == 1 and sites[0][0] == "category.py" and \
        start <= sites[0][1] < start + len(lines), sites
    assert unwrapped == [("indicators.py", "e_map_matrix")], unwrapped
    assert RING_KINDS == {"paths", "pidx", "orbits", "rotop"}
    assert RING_KINDS < set(_memoised_builders())


@pytest.mark.parametrize("name", ALL_BUNDLED)
def test_shared_memos_give_cold_results(name):
    # a caller that mutated a shared matrix, vector, bend host or
    # right-block state would change the second warm pass, or the cached
    # builds, against cold categories; every kind the warm passes write,
    # on the category and on its ring, is compared with a build on a
    # category with fresh stores.  The FS sweep reaches the FS builders
    # but ``db_vector``, which the dual of the identity on (a, a) reaches,
    # and the rotation pass reaches the bend hosts, and at n = 7 and 8 the
    # prefix products (every spec has a nonzero a^7 or a^8 of dimension
    # <= 16, the unit's at least); validation and the pivotal enumeration
    # reach the F residues, the double duals and the pivotal structures
    cat = load_bundled(name)
    cases = [(a, n, l, r) for a in cat.labels for n in range(1, 5)
             for l in range(n) for r in range(n - l)]
    warm = cat.with_pivotal(cat.pivotal)
    first = [fs_scalar(warm, *case) for case in cases]
    second = [fs_scalar(warm, *case) for case in cases]
    cold = [fs_scalar(cat.with_pivotal(cat.pivotal), *case) for case in cases]
    assert first == second == cold
    turns = [(ObjectExpr.simple(a), n) for a in cat.labels
             for n in range(1, 6)]
    turns += [(ObjectExpr.simple(a), n) for a in cat.labels for n in (7, 8)
              if 0 < len(paths(cat, (a,) * n, cat.unit)) <= 16]
    first = _rotation_pass(warm, turns)
    assert first == _rotation_pass(warm, turns)
    assert first == _rotation_pass(cat.with_pivotal(cat.pivotal), turns)
    duals = [dual_morphism(warm, LinMap.identity(warm, (a, a))).blocks
             for a in cat.labels]
    assert duals == [dual_morphism(warm, LinMap.identity(warm, (a, a))).blocks
                     for a in cat.labels]
    assert validate(warm).valid
    assert enumerate_pivotal_structures(warm)
    builders = _memoised_builders()
    kinds = set()
    for key, got in [*warm.ring._cache.items(), *warm._cache.items()]:
        kinds.add(key[0])
        build = builders[key[0]]
        assert got == build(_on_a_fresh_ring(cat), *key[1:]), key
    assert kinds == set(builders)


def test_trace_formula_routes_agree(any_bundled):
    cat = any_bundled
    for a in cat.labels:
        ptrl = pivotal_trace(cat, LinMap.identity(cat, (a,)), "left")
        for n in range(1, 5):
            assert indicator(cat, a, n, 1) == ptrl * fs_scalar(cat, a, n, 0, 0)


@pytest.mark.parametrize("name,a,ns", [
    ("ty_z2z2_plus", "sigma", (6, 7)),
    ("ty_z2z2_minus", "sigma", (6, 7)),
    ("fibonacci", "t", range(5, 10)),
    ("ising", "sigma", range(5, 11)),
], ids=["ty_z2z2_plus", "ty_z2z2_minus", "fibonacci", "ising"])
def test_trace_formula_routes_agree_further_out(name, a, ns):
    # nu_n = ptr_l(id) FS^(n) past the n <= 4 sweep: the rotation walk
    # against the nested coevaluations of up to n - 1 pairs
    cat = bundled(name).with_pivotal(bundled(name).pivotal)
    ptrl = pivotal_trace(cat, LinMap.identity(cat, (a,)), "left")
    for n in ns:
        assert indicator(cat, a, n, 1) == ptrl * fs_scalar(cat, a, n, 0, 0), n


def test_indicators_reach_n_14_under_the_default_guard(monkeypatch):
    # Hom(1, sigma^14) has dimension 4,096, the default guard, and every
    # factor of the bend route bends at most 2 strands, so no word longer
    # than 14 letters is built.  For r <= 2 the value is a pinned diagonal,
    # above it pinned entries of a product, so nu_{14,14-r} = conj nu_{14,r}
    # and nu_{14,r} = nu_{14,gcd(14,r)} (the values are rational, so Galois
    # conjugation fixes them) compare the two reads
    monkeypatch.delenv("FSCAT_NMAX_GUARD", raising=False)
    for name, sign in (("ty_z2z2_plus", 1), ("ty_z2z2_minus", -1)):
        ty = load_bundled(name)
        nu = [indicator(ty, "sigma", 14, r) for r in range(15)]
        assert nu[0] == nu[14] == 4096
        assert (nu[1], nu[2], nu[7]) == (sign, 1, 64 * sign)
        assert nu[1] == indicator(ty, "sigma", 10, 1)
        for r in range(1, 14):
            assert nu[14 - r] == galois_conjugate(nu[r]), (name, r)
            assert nu[r] == nu[math.gcd(14, r)], (name, r)
        assert check_power_identity(ty, "sigma", 14)
        assert max(len(k[1]) for k in ty.ring._cache if k[0] == "paths") == 14


def test_bend_route_refusal_builds_nothing(monkeypatch):
    # no factor of the bend route has a host longer than the word, so one
    # below dim Hom(1, sigma^14) = 4,096 refuses the power identity at
    # n = 14 and nu_{14,9} at Hom(1, sigma^14), before any bend or path
    # list is built
    monkeypatch.setenv("FSCAT_NMAX_GUARD", "4095")
    for name in ("ty_z2z2_plus", "ty_z2z2_minus"):
        ty = load_bundled(name)
        for call in (lambda: check_power_identity(ty, "sigma", 14),
                     lambda: indicator(ty, "sigma", 14, 9)):
            with pytest.raises(DimensionGuardError) as err:
                call()
            assert str(err.value) == \
                "hom dimension 4096 exceeds FSCAT_NMAX_GUARD=4095"
        assert not any(key[0] == "paths" for key in ty.ring._cache), name


@pytest.mark.parametrize("name,a,period,nmax", [
    ("fibonacci", "t", 5, 16),
    ("ising", "sigma", 16, 26),
], ids=["fibonacci", "ising"])
def test_indicators_are_periodic_in_the_fs_exponent(name, a, period, nmax):
    # for a modular category the FS exponent is ord(T) (Ng-Schauenburg,
    # Adv. Math. 211, 2007): 5 for Fibonacci, 16 for Ising, so n -> nu_n
    # has that period; above n = 5 each value is the pinned diagonal of
    # E(a^n, 1), and Hom(1, sigma^26) has dimension 4,096, the default guard
    cat = bundled(name)
    nu = {n: indicator(cat, a, n, 1) for n in range(1, nmax + 1)}
    for n in range(period + 1, nmax + 1):
        assert nu[n] == nu[n - period], n


def test_generalized_trace_formula():
    for name in ("fibonacci", "semion", "ising"):
        cat = bundled(name)
        for a in cat.labels:
            ptrl = pivotal_trace(cat, LinMap.identity(cat, (a,)), "left")
            for n in range(2, 5):
                for k in range(1, n):
                    assert indicator(cat, a, n, k) == \
                        ptrl * fs_scalar(cat, a, n, k - 1, 0)


def test_check_fs_theorems_all_pass():
    for name in ("vec_z2", "semion", "fibonacci", "yang_lee"):
        cat = bundled(name)
        for item in check_fs_theorems(cat, n_max=4):
            assert item.ok, (name, item.name, item.detail)


def test_check_fs_theorems_names_the_last_failing_case(monkeypatch):
    # double FS^(2,0,0)(t) and FS^(3,0,1)(t): each FS item that reads one of
    # them fails and names its last failing case; every other item passes
    doubled = {("t", 2, 0, 0), ("t", 3, 0, 1)}
    real = indicators.fs_scalar

    def wrong(cat, a, n, l, r):
        val = real(cat, a, n, l, r)
        return val + val if (a, n, l, r) in doubled else val

    monkeypatch.setattr(indicators, "fs_scalar", wrong)
    got = {item.name: item.detail
           for item in check_fs_theorems(load_bundled("fibonacci"), 4)
           if not item.ok}
    assert got == {
        "trace formula nu_n = ptr_l(FS^(n))":
            "trace formula fails at (t, n=2)",
        "generalized trace formula":
            "nu_(n,k) = ptr_l(FS^(n,k)) fails at (t,2,1)",
        "trace shift ptr_l FS^(n,l,r) = ptr_r FS^(n,l+1,r-1)":
            "trace shift fails at (t,3,0,1)",
        "spherical: FS^(n,l,r) depends only on l+r+1":
            "FS^(n,l,r) != FS^(n,k) at (t,3,0)",
        "naturality: FS block scalars on sums (gcd(n,k)=1)":
            "FS block scalar differs at (t in 1+t,2,1)",
    }


def test_check_computes_each_fs_scalar_once(monkeypatch):
    calls = []
    real = indicators._fs_blocks

    def counted(cat, support, n, l, r):
        calls.append((tuple(support), n, l, r))
        return real(cat, support, n, l, r)

    monkeypatch.setattr(indicators, "_fs_blocks", counted)
    items = check_fs_theorems(load_bundled("fibonacci"), 5)
    assert all(item.ok for item in items)
    assert len(calls) == len(set(calls)) == 47


def test_additivity():
    fib = bundled("fibonacci")
    expr = ObjectExpr({"1": 1, "t": 1})
    for n in range(1, 5):
        assert indicator(fib, expr, n, 1) == \
            indicator(fib, "1", n, 1) + indicator(fib, "t", n, 1)
    # multiplicities: nu_n(2a) = 2^? -- additivity over repeated summands
    double = ObjectExpr({"t": 2})
    got = indicator(fib, double, 2, 1)
    # Hom(1, (t+t)^(x)2) decomposes into 4 word blocks; the trace doubles
    # twice only on rotation-fixed slot assignments
    assert got == indicator(fib, "t", 2, 1) * 2


def test_reversal_symmetry(any_bundled):
    assert check_reversal_symmetry(any_bundled, n_max=3)


@pytest.mark.parametrize("name", ALL_BUNDLED)
def test_reversal_swaps_left_and_right(name):
    # on every pivotal structure, and on two gauges by 2N-th roots of unity
    # of each (there the transported t need not be +-1), the reversal's
    # left trace is the original's right trace and back, and
    # nu_{n,k}(reverse) = nu_{n,n-k}
    base = bundled(name)
    for i in range(len(enumerate_pivotal_structures(base))):
        cat = attach_pivotal(base, i)
        gauges = (_root_gauge(cat, seed, 2 * cat.conductor) for seed in (1, 2))
        for c in (cat, *gauges):
            rev = reverse_category(c)
            for a in c.labels:
                assert pivotal_trace(rev, LinMap.identity(rev, (a,)), "left") \
                    == pivotal_trace(c, LinMap.identity(c, (a,)), "right")
                assert pivotal_trace(rev, LinMap.identity(rev, (a,)), "right") \
                    == pivotal_trace(c, LinMap.identity(c, (a,)), "left")
            assert check_reversal_symmetry(c, n_max=4), (c.name, i)


def test_gauge_invariance_sampled():
    rng = SplitMix64(424242)
    for name in ("fibonacci", "ising"):
        cat = bundled(name)
        for _ in range(3):
            u = {}
            for (a, b, c) in cat.ring.admissible_triples():
                if a == cat.unit or b == cat.unit:
                    continue
                u[(a, b, c)] = root_of_unity(cat.conductor,
                                             rng.next() % cat.conductor)
            out = gauge_transform(cat, u)
            for a in cat.labels:
                for n in (2, 3):
                    for r in range(1, n + 1):
                        assert indicator(out, a, n, r) == indicator(cat, a, n, r)


def test_indicator_report_flags():
    fib = bundled("fibonacci")
    rep = indicator_report(fib, "t", n_values=(1, 2, 3), r_values=(1,))
    assert all(rep.power_identity.values())
    assert all(rep.conjugation.values())
    assert all(d < 1e-12 for d in rep.qn.values())
    assert rep.values[(2, 1)] == 1


def test_dimension_guard():
    # a fresh category on a fresh ring, so any path list in the ring's memo
    # was built by this call
    fib = load_bundled("fibonacci")
    both = ObjectExpr({"1": 1, "t": 1})
    os.environ["FSCAT_NMAX_GUARD"] = "1"
    try:
        with pytest.raises(DimensionGuardError):
            rotation_operator(fib, "t", 6)
        assert ("paths", ("t",) * 6, "1") not in fib.ring._cache
        with pytest.raises(DimensionGuardError) as err:
            rotation_operator(fib, both, 6)
    finally:
        del os.environ["FSCAT_NMAX_GUARD"]
    assert not any(key[0] == "paths" for key in fib.ring._cache)
    full = sum(len(paths(fib, w, fib.unit)) for w in itertools.product(("1", "t"), repeat=6))
    assert str(err.value) == f"hom dimension {full} exceeds FSCAT_NMAX_GUARD=1"


@pytest.mark.parametrize("name", ALL_BUNDLED)
def test_categories_on_one_ring_share_its_bases(name, monkeypatch):
    # the path bases, the orbits and the rotation operator's dimension depend
    # on the fusion rules alone and are kept on the ring: a gauge and a pivotal
    # structure of one category read the ring's and agree with a cold load,
    # and the reversal, on a ring of its own, shares none of them
    cold = load_bundled(name)
    cat = load_bundled(name)
    gauged = _root_gauge(cat, 1)
    repivoted = cat.with_pivotal(cat.pivotal)
    words = [w for n in range(1, 4)
             for w in itertools.product(cat.labels, repeat=n)]
    for c in (gauged, repivoted):
        assert c.ring is cat.ring
        for w in words:
            assert paths(c, w, cat.unit) is paths(cat, w, cat.unit), w
        for a in cat.labels:
            op = rotation_operator(c, a, 3)
            assert cat.ring._cache[("rotop", ((a, 1),), 3)] \
                == op.total_dimension
            assert ("rotop", ((a, 1),), 3) not in c._cache
            assert indicators._orbits(c, op.support, 3) is \
                indicators._orbits(cat, op.support, 3)
            for n in range(1, 4):
                for r in range(n):
                    assert indicator(c, a, n, r) == indicator(cold, a, n, r)
                    assert fs_scalar(c, a, n, 0, r) == \
                        fs_scalar(cold, a, n, 0, r), (c.name, a, n, r)
    rev = reverse_category(cat)
    assert rev.ring is not cat.ring and not rev.ring._cache
    kept = dict(cat.ring._cache)
    for w in words:
        got = paths(rev, w, cat.unit)
        assert not got or got is not paths(cat, w, cat.unit), w
    for a in cat.labels:
        indicator(rev, a, 3, 1)
    assert cat.ring._cache == kept
    # under a lowered guard a kept rotation operator is refused on every
    # call, and a fresh load refuses to build the basis again
    big = max(cat.labels, key=lambda a: len(paths(cat, (a,) * 4, cat.unit)))
    dim = rotation_operator(cat, big, 4).total_dimension
    assert dim > 1 or max(cat.ring.fanout.values()) == 1
    if dim > 1:
        monkeypatch.setenv("FSCAT_NMAX_GUARD", str(dim - 1))
        with pytest.raises(DimensionGuardError):
            rotation_operator(repivoted, big, 4)
        with pytest.raises(DimensionGuardError):
            paths(load_bundled(name), (big,) * 4, cat.unit)


@pytest.mark.parametrize("call", [
    lambda cat: fs_scalar(cat, "t", 5, 2, 2),
    lambda cat: e_map_matrix(cat, ("t",) * 5, 4),  # builds the host t^8
], ids=["fs_scalar", "e_map_matrix_k4"])
def test_dimension_guard_every_hom_space(call, monkeypatch):
    # Hom(1, t^5) has dimension 3, so the refusal comes from the longer
    # words the request builds on the way
    fib = load_bundled("fibonacci")
    monkeypatch.setenv("FSCAT_NMAX_GUARD", "3")
    with pytest.raises(fscat.DimensionGuardError):
        call(fib)
    assert max((len(v) for k, v in fib.ring._cache.items() if k[0] == "paths"),
               default=0) <= 3


def test_fs_refusal_builds_nothing(monkeypatch):
    # FS^(6) of t inserts into a word of 11 letters, and Hom(t, t^11) has
    # dimension 89; the request is refused from the counts before any path
    # list or coevaluation is built
    fib = load_bundled("fibonacci")
    monkeypatch.setenv("FSCAT_NMAX_GUARD", "88")
    with pytest.raises(DimensionGuardError) as err:
        fs_scalar(fib, "t", 6, 0, 0)
    assert str(err.value) == "hom dimension 89 exceeds FSCAT_NMAX_GUARD=88"
    assert not any(key[0] == "paths" for key in fib.ring._cache)
    monkeypatch.setenv("FSCAT_NMAX_GUARD", "89")
    assert fs_scalar(fib, "t", 6, 0, 0) == fs_scalar(bundled("fibonacci"),
                                                     "t", 6, 0, 0)


@pytest.mark.parametrize("call,word,root", [
    (lambda cat: paths(cat, ("t",) * 8, "1"), ("t",) * 8, "1"),
    # the first factor of E^7 on t t 1 1 1 1 1 bends (t, t), whose nested
    # host t^4 has dimension 2, above the word's own dimension 1
    (lambda cat: list(indicators._orbit_values(
        cat, [(("t", "t") + ("1",) * 5, 7)], 7, 7)), ("t",) * 4, "1"),
    # FS^(6) inserts in front of the right block, into Hom(t, t^11)
    (lambda cat: fs_scalar(cat, "t", 6, 0, 0), ("t",) * 11, "t"),
], ids=["paths", "bend_host", "fs_word"])
def test_every_word_guard_site_refuses_alike(call, word, root, monkeypatch):
    # paths, the bend hosts and the FS words are counted by one check: one
    # below the checked word's dimension refuses it with the same message,
    # before any path list is built, and at its dimension the call runs
    dim = path_counts(bundled("fibonacci"), ({x: 1} for x in word))[root]
    fib = load_bundled("fibonacci")
    monkeypatch.setenv("FSCAT_NMAX_GUARD", str(dim - 1))
    with pytest.raises(DimensionGuardError) as err:
        call(fib)
    assert str(err.value) == \
        f"hom dimension {dim} exceeds FSCAT_NMAX_GUARD={dim - 1}"
    assert not any(key[0] == "paths" for key in fib.ring._cache)
    monkeypatch.setenv("FSCAT_NMAX_GUARD", str(dim))
    call(fib)


def test_bend_hosts_are_counted_once_per_head(monkeypatch):
    # above the walk every factor bends at most 2 strands, so the hosts
    # counted are those of the distinct heads of at most 2 letters, each
    # once per call, however many orbits and factors share it
    ty = load_bundled("ty_z2z2_plus")
    obj = ObjectExpr({"a": 1, "sigma": 1})
    orbits = indicators._orbits(ty, rotation_operator(ty, obj, 8).support, 8)
    for call, r in ((lambda: check_power_identity(ty, obj, 8), 8),
                    (lambda: indicator(ty, obj, 8, 5), 5)):
        counted = []
        monkeypatch.setattr(indicators, "check_word_guard",
                            lambda cat, letters, root: counted.append(letters))
        call()
        assert len(counted) == len(set(counted)) <= 2 + 4, counted
        assert all(len(h) in (2, 4) and h[len(h) // 2:] in
                   itertools.product(("a", "sigma"), repeat=len(h) // 2)
                   for h in counted), counted
        sites = [(w, j) for w, d in orbits if r % d == 0 for j in _factors(r)]
        assert len(sites) > len(counted), (r, len(sites))


def test_two_strand_bend_within_guard(monkeypatch):
    # the bend builds no word longer than max(n, 2k) = 5 letters, whose hom
    # dimensions are at most 3; the spliced words of 7 and 9 letters, with
    # dimensions 8 and 21, are never built
    want = e_map_matrix(load_bundled("fibonacci"), ("t",) * 5, 2)
    fib = load_bundled("fibonacci")
    monkeypatch.setenv("FSCAT_NMAX_GUARD", "3")
    assert e_map_matrix(fib, ("t",) * 5, 2) == want
    assert max(len(k[1]) for k in fib.ring._cache if k[0] == "paths") == 5


def test_zero_space_bend_builds_no_host(monkeypatch):
    # Hom(1, sigma^3) is zero, so its bend is the empty matrix; the nested
    # host sigma^4, of dimension 4 above the guard, is never built
    ty = load_bundled("ty_z2z2_plus")
    monkeypatch.setenv("FSCAT_NMAX_GUARD", "3")
    assert e_map_matrix(ty, ("sigma",) * 3, 2) == []


def _walked_trace(cat, word, r):
    """Trace of r single-letter rotations walked from `word` itself."""
    m = eye(len(paths(cat, word, cat.unit)))
    for _ in range(r if len(word) > 1 else 0):
        m = mat_mul(e_map_matrix(cat, word, 1), m)
        word = word[1:] + word[:1]
    return mat_trace(m)


def _brute_fixed_slots(obj, word, r):
    """Slot tuples (one multiplicity slot per letter) fixed by rotation by r."""
    slots = itertools.product(*(range(obj.multiplicity(x)) for x in word))
    return sum(1 for s in slots if s[r:] + s[:r] == s)


@pytest.mark.parametrize("name", ALL_BUNDLED)
def test_indicator_of_sums_every_r(name):
    # nu_(n,r)(V) as a sum over rotation-fixed words, each word's own walk
    # times its brute-force slot count; periodic words such as (a, b, a, b)
    # at r = 2 pin the orbit weighting, which n = 7 and 8 check on the
    # bend route
    cat = bundled(name)
    for a, b in itertools.combinations(cat.labels, 2):
        cases = [({a: 2, b: 1}, n) for n in (1, 2, 3, 4, 7)]
        for terms, n in cases + [({a: 1, b: 1}, 8)]:
            obj = ObjectExpr(terms)
            for r in range(n + 1):
                want = Cyc.zero()
                for w in itertools.product((a, b), repeat=n):
                    if w[r:] + w[:r] == w:
                        want = want + _brute_fixed_slots(obj, w, r) * \
                            _walked_trace(cat, w, r)
                assert indicator(cat, obj, n, r) == want, (a, b, n, r)


def test_zero_object_rejected_by_indicators():
    fib = bundled("fibonacci")
    with pytest.raises(ValueError):
        indicator(fib, ObjectExpr({"t": 0}), 2, 1)
