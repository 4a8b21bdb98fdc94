import itertools
import math
import random

import pytest

from conftest import ALL_BUNDLED, bundled

from fscat.category import gauge_transform, reverse_category
from fscat.cyclo import Cyc, root_of_unity
from fscat import homcalc
from fscat.homcalc import (DimensionGuardError, LinMap, check_word_guard,
                           contract_pair_matrix, db_prime_vector,
                           double_dual_inverse, fuse_step_matrix,
                           path_counts, paths, pivotal_dimension,
                           pivotal_trace, split_step_matrix)
from fscat.linalg import dense, is_identity, mat_equal, mat_mul
from fscat.pivotal import attach_pivotal, enumerate_pivotal_structures
from fscat.specio import load_bundled
import references
from references import (assoc_matrix, attach_pair_matrix, close_loop,
                        closed_loop_trace, coev_matrix, compose, db_vector,
                        drop_unit_letter_matrix, dual_morphism, ev_matrix,
                        graft_path_matrix, is_identity_map, left_nested,
                        pivotal_matrix, right_nested, scaled)


def brute_hom_dimension(cat, letters):
    """Independent oracle: count unit-to-unit chains through the fusion rules."""
    frontier = {cat.unit: 1}
    for x in letters:
        nxt = {}
        for state, ways in frontier.items():
            for c in cat.labels:
                n = cat.n(state, x, c)
                if n:
                    nxt[c] = nxt.get(c, 0) + ways * n
        frontier = nxt
    return frontier.get(cat.unit, 0)


def test_hom_dimension_examples():
    fib = bundled("fibonacci")
    assert len(paths(fib, ("t", "t", "t", "t"), fib.unit)) == 2
    assert len(paths(fib, ("t", "t", "t", "t"), fib.unit)) == \
        brute_hom_dimension(fib, ("t", "t", "t", "t"))
    v2 = bundled("vec_z2")
    assert len(paths(v2, ("g", "g"), v2.unit)) == 1
    assert len(paths(v2, ("g", "g", "g"), v2.unit)) == 0
    ty = bundled("ty_z2z2_plus")
    assert len(paths(ty, ("sigma", "sigma"), ty.unit)) == 1


@pytest.mark.parametrize("name", ALL_BUNDLED)
def test_hom_dimension_matches_brute_force(name):
    cat = bundled(name)
    for n in range(5):
        for letters in itertools.product(cat.labels, repeat=n):
            assert len(paths(cat, letters, cat.unit)) == \
                brute_hom_dimension(cat, letters)


@pytest.mark.parametrize("name", ALL_BUNDLED)
def test_paths_are_the_sorted_enumeration(name):
    # paths are listed as they are extended, with no sort: every admissible
    # stage sequence, sorted in label order, on a ring no other test built
    cat = load_bundled(name)
    for n in range(5):
        for letters in itertools.product(cat.labels, repeat=n):
            by_root = {}
            for stages in itertools.product(cat.labels, repeat=n):
                p = (cat.unit,) + stages
                if all(cat.n(p[i], x, p[i + 1]) for i, x in enumerate(letters)):
                    by_root.setdefault(p[-1], []).append(p)
            for root in cat.labels:
                want = sorted(by_root.get(root, ()),
                              key=lambda p: [cat.label_index(x) for x in p])
                assert list(paths(cat, letters, root)) == want, (letters, root)


def test_hom_dimension_rigidity_symmetry(any_bundled):
    cat = any_bundled
    for n in range(4):
        for letters in itertools.product(cat.labels, repeat=n):
            dual = tuple(cat.dual(x) for x in reversed(letters))
            assert len(paths(cat, letters, cat.unit)) == \
                len(paths(cat, dual, cat.unit))


def test_hom_basis_examples():
    fib = bundled("fibonacci")
    assert paths(fib, ("t", "t", "t"), fib.unit) == (("1", "t", "t", "1"),)
    # the unit word has the single path (1, 1)
    assert paths(fib, ("1",), fib.unit) == (("1", "1"),)
    ty = bundled("ty_z2z2_plus")
    assert paths(ty, ("sigma", "sigma"), ty.unit) == (("1", "sigma", "1"),)


def test_basis_is_lexicographic(any_bundled):
    cat = any_bundled
    for letters in itertools.product(cat.labels, repeat=3):
        ps = paths(cat, letters, cat.unit)
        keys = [tuple(cat.label_index(x) for x in p) for p in ps]
        assert keys == sorted(keys)


# -- associator coherence -----------------------------------------------------


def test_assoc_identity_when_parens_equal():
    fib = bundled("fibonacci")
    m = assoc_matrix(fib, ("t", "t", "t"), right_nested(3), right_nested(3))
    assert is_identity_map(m)


def test_assoc_left_to_right_is_single_f_entry():
    fib = bundled("fibonacci")
    m = assoc_matrix(fib, ("t", "t", "t"), left_nested(3), right_nested(3))
    blk = m.block("1")
    assert len(blk) == 1 and len(blk[0]) == 1
    assert blk[0][0] == fib.f_entry("t", "t", "t", "1", "t", "t")


def _all_parens(n):
    if n == 1:
        return [0]

    def rec(lo, hi):
        if hi - lo == 1:
            return [lo]
        res = []
        for mid in range(lo + 1, hi):
            for l in rec(lo, mid):
                for r in rec(mid, hi):
                    res.append((l, r))
        return res
    return rec(0, n)


def test_assoc_coherence_composites_agree():
    fib = bundled("fibonacci")
    letters = ("t", "t", "t", "t")
    parens = _all_parens(4)
    assert len(parens) == 5
    a, b, c = parens[0], parens[2], parens[4]
    via = compose(assoc_matrix(fib, letters, b, c),
                  assoc_matrix(fib, letters, a, b))
    direct = assoc_matrix(fib, letters, a, c)
    for r in fib.labels:
        assert mat_equal(via.block(r), direct.block(r))


def test_pentagon_word_two_routes_agree(any_bundled):
    cat = any_bundled
    x = cat.labels[-1]
    letters = (x, x, x, x)
    ll = ((0, 1), (2, 3))        # (ab)(cd)
    lhs = left_nested(4)         # ((ab)c)d
    rhs = right_nested(4)        # a(b(cd))
    one = assoc_matrix(cat, letters, lhs, ll)
    two = compose(assoc_matrix(cat, letters, ll, rhs), one)
    direct = assoc_matrix(cat, letters, lhs, rhs)
    for r in cat.labels:
        assert mat_equal(two.block(r), direct.block(r))


@pytest.mark.parametrize("name", ALL_BUNDLED)
def test_assoc_left_to_right_is_the_f_block(name):
    # ((ab)c -> a(bc)) on the channel bases is [F^{abc}_d] transposed:
    # columns are the left channels e, rows the right channels f
    cat = bundled(name)
    for letters in itertools.product(cat.labels, repeat=3):
        m = assoc_matrix(cat, letters, left_nested(3), right_nested(3))
        for d in cat.labels:
            es, fs = cat.f_rowcols(*letters, d)
            want = [[cat.f_entry(*letters, d, e, f) for e in es] for f in fs]
            assert m.block(d) == want, (letters, d)


# -- duality -------------------------------------------------------------------


def test_zigzag_identities(any_bundled):
    cat = any_bundled
    for a in cat.labels:
        ast = cat.dual(a)
        for r in cat.labels:
            att = attach_pair_matrix(cat, (a,), r, 0, a)
            con = contract_pair_matrix(cat, (a, ast, a), r, 1)
            assert is_identity(mat_mul(dense(con), dense(att))), \
                (a, r, "zigzag 1")
            att = attach_pair_matrix(cat, (ast,), r, 1, a)
            con = contract_pair_matrix(cat, (ast, a, ast), r, 0)
            assert is_identity(mat_mul(dense(con), dense(att))), \
                (a, r, "zigzag 2")


def test_ev_coev_vec_z2():
    v2 = bundled("vec_z2")
    assert v2.ev_coefficient("g") == 1
    ev = ev_matrix(v2, "g")
    coev = coev_matrix(v2, "g")
    assert ev.block("1") == [[Cyc.one()]]
    assert coev.block("1") == [[Cyc.one()]]


def test_ev_unit_is_identity(any_bundled):
    cat = any_bundled
    assert cat.ev_coefficient(cat.unit) == 1


def test_double_dual_examples():
    fib = bundled("fibonacci")
    for a in fib.labels:
        assert double_dual_inverse(fib, "1", a, a) == 1
    v2 = bundled("vec_z2")
    assert double_dual_inverse(v2, "g", "g", "1") == 1
    sem = bundled("semion")
    # the pivotal constraint t(g)^2 delta = 1 has exactly the enumerated roots
    assert sem.t("g") * sem.t("g") == double_dual_inverse(sem, "g", "g", "1")


def test_dual_morphism_identity_and_scalars():
    fib = bundled("fibonacci")
    ident = LinMap.identity(fib, ("t", "t"))
    dd = dual_morphism(fib, ident)
    assert is_identity_map(dd)
    lam = Cyc.rational(7) / 3
    dd = dual_morphism(fib, scaled(ident, lam))
    assert mat_equal(dd.block("1"), scaled(ident, lam).block("1"))


def _pseudo_random_endo(cat, letters, seed):
    state = seed
    blocks = {}
    for r in cat.labels:
        n = len(paths(cat, letters, r))
        blk = []
        for i in range(n):
            row = []
            for j in range(n):
                state = (state * 6364136223846793005 + 1442695040888963407) % 2**64
                row.append(Cyc.rational(state % 5 - 2))
            blk.append(row)
        blocks[r] = blk
    return LinMap(cat, letters, letters, blocks)


def test_dual_morphism_contravariant():
    fib = bundled("fibonacci")
    for letters in (("t",), ("t", "t"), ("t", "1", "t")):
        f = _pseudo_random_endo(fib, letters, seed=3)
        g = _pseudo_random_endo(fib, letters, seed=11)
        lhs = dual_morphism(fib, compose(g, f))
        rhs = compose(dual_morphism(fib, f), dual_morphism(fib, g))
        for r in fib.labels:
            assert mat_equal(lhs.block(r), rhs.block(r)), (letters, r)


# -- pivotal action and traces ---------------------------------------------------


def test_pivotal_matrix_examples():
    v2 = bundled("vec_z2")
    m = pivotal_matrix(v2, ("1",))
    assert is_identity_map(m)
    # product of component scalars: with the nontrivial pivotal choice the
    # two signs cancel on (g, g)
    from fscat.category import PivotalData
    flipped = v2.with_pivotal(PivotalData({"1": Cyc.one(),
                                           "g": Cyc.rational(-1)}))
    m = pivotal_matrix(flipped, ("g", "g"))
    assert is_identity_map(m)
    fib = bundled("fibonacci")
    j = pivotal_matrix(fib, ("t", "t"))
    jinv = pivotal_matrix(fib, ("t", "t"))  # t = 1 here, j is an involution
    assert is_identity_map(compose(j, jinv))


def test_pivotal_commutes_with_assoc():
    fib = bundled("fibonacci")
    letters = ("t", "t", "t")
    move = assoc_matrix(fib, letters, left_nested(3), right_nested(3))
    coeff = fib.t("t") ** 3
    for r in fib.labels:
        blk = move.block(r)
        lhs = [[coeff * x for x in row] for row in blk]
        rhs = [[x * coeff for x in row] for row in blk]
        assert mat_equal(lhs, rhs)


def test_close_loop_single_strand():
    v2 = bundled("vec_z2")
    ident = LinMap.identity(v2, ("g",))
    left = close_loop(v2, ident, "left", 1)
    right = close_loop(v2, ident, "right", 1)
    assert left.block("1")[0][0] == 1
    assert right.block("1")[0][0] == 1
    ident = LinMap.identity(v2, ("1",))
    assert close_loop(v2, ident, "left", 1).block("1")[0][0] == 1


def test_close_loop_stepwise_matches_all_at_once():
    fib = bundled("fibonacci")
    f = _pseudo_random_endo(fib, ("t", "t", "t"), seed=23)
    once = close_loop(fib, f, "left", 3)
    step = close_loop(fib, close_loop(fib, close_loop(
        fib, f, "left", 1), "left", 1), "left", 1)
    assert once.block("1") == step.block("1")


def test_ptr_left_of_dual_is_ptr_right(any_bundled):
    cat = any_bundled
    a = cat.labels[-1]
    for letters in ((a,), (a, cat.dual(a))):
        f = _pseudo_random_endo(cat, letters, seed=57)
        lhs = pivotal_trace(cat, dual_morphism(cat, f), "left")
        rhs = pivotal_trace(cat, f, "right")
        assert lhs == rhs


def _unit_root_gauge(cat, rng):
    return gauge_transform(cat, {
        (a, b, c): root_of_unity(cat.conductor, rng.randrange(cat.conductor))
        for (a, b, c) in cat.ring.admissible_triples()
        if cat.unit not in (a, b)})


@pytest.mark.parametrize("name", ALL_BUNDLED)
def test_pivotal_traces_of_simples_match_closed_forms(name):
    # closing every strand in turn gives ptr_left(id_a) = ev(a) / t(a) and
    # ptr_right(id_a) = t(a) ev(a*), with ev the evaluation scalar fixed by
    # the zig-zags; and pivotal_trace, which weights the blocks' traces by
    # those dimensions, agrees with it on seeded endomorphisms of every word
    # of up to 3 letters.  On every pivotal structure (those of vec_z3 are
    # not all spherical), its reversal and a root-of-unity gauge.
    base = bundled(name)
    rng = random.Random(name)
    cases = 0
    for i in range(len(enumerate_pivotal_structures(base))):
        cat = attach_pivotal(base, i)
        for c in (cat, reverse_category(cat), _unit_root_gauge(cat, rng)):
            for a in c.labels:
                ident = LinMap.identity(c, (a,))
                want = {"left": c.ev_coefficient(a) / c.t(a),
                        "right": c.t(a) * c.ev_coefficient(c.dual(a))}
                for side, d in want.items():
                    assert closed_loop_trace(c, ident, side) == d, \
                        (c.name, i, a, side)
                    assert pivotal_dimension(c, a, side) == d
            for seed, letters in enumerate(_words(c, 3)):
                if not letters:
                    continue
                f = _pseudo_random_endo(c, letters, seed)
                for side in ("left", "right"):
                    assert pivotal_trace(c, f, side) == \
                        closed_loop_trace(c, f, side), \
                        (c.name, i, letters, side)
                    cases += 1
    assert cases


def test_close_loop_count_out_of_range():
    fib = bundled("fibonacci")
    ident = LinMap.identity(fib, ("t",))
    with pytest.raises(ValueError):
        close_loop(fib, ident, "left", 2)
    with pytest.raises(ValueError):
        close_loop(fib, ident, "up", 1)


def test_hom_space_maps_lack_morphism_roots():
    from fscat.indicators import e_map
    fib = bundled("fibonacci")
    m = e_map(fib, ("t", "t"), 1)
    with pytest.raises(KeyError):
        m.block("t")
    assert tuple(m.blocks) == ("1",)


def test_pivotal_trace_refusals():
    from fscat.category import MissingPivotalError
    from fscat.indicators import e_map
    fib = bundled("fibonacci")
    with pytest.raises(MissingPivotalError):
        pivotal_trace(fib.with_pivotal(None), LinMap.identity(fib, ("t",)),
                      "left")
    # a map between different words, and a hom-space map with only its
    # unit-root block, are no morphism-backed endomorphisms
    with pytest.raises(ValueError):
        pivotal_trace(fib, LinMap(fib, ("t",), ("t", "1"), {}), "left")
    with pytest.raises(ValueError):
        pivotal_trace(fib, e_map(fib, ("t", "t"), 1), "right")
    with pytest.raises(ValueError):
        pivotal_trace(fib, LinMap.identity(fib, ("t",)), "up")


def test_degenerate_word_blocks_compose():
    v2 = bundled("vec_z2")
    # (g, g, g) has hom dimension 0; maps through it are 0x0 and legal
    att = attach_pair_matrix(v2, ("g", "g", "g"), "1", 0, "g")
    con = contract_pair_matrix(v2, ("g", "g", "g", "g", "g"), "1", 0)
    assert mat_mul(dense(con), dense(att)) == []


def _words(cat, max_len):
    for n in range(max_len + 1):
        yield from itertools.product(cat.labels, repeat=n)


@pytest.mark.parametrize("name", ALL_BUNDLED)
def test_fuse_undoes_split(name):
    cat = bundled(name)
    for word in _words(cat, 3):
        for i, x in enumerate(word):
            for u, v in itertools.product(cat.labels, repeat=2):
                if not cat.n(u, v, x):
                    continue
                split = word[:i] + (u, v) + word[i + 1:]
                for root in cat.labels:
                    m = mat_mul(dense(fuse_step_matrix(cat, split, root, i, x)),
                                dense(split_step_matrix(cat, word, root, i, u, v)))
                    assert is_identity(m), (word, i, u, v, root)


@pytest.mark.parametrize("name", ALL_BUNDLED)
def test_drop_undoes_add_unit_letter(name):
    # a unit letter is inserted as the graft of its one path (1, 1); by the
    # unit axiom the path bases with and without it have the same size and
    # order, so the drop and the graft are each the identity, which is why
    # the FS tear-down applies neither
    cat = bundled(name)
    unit = cat.unit
    for word in _words(cat, 3):
        for i in range(len(word) + 1):
            padded = word[:i] + (unit,) + word[i:]
            for root in cat.labels:
                ps = paths(cat, word, root)
                assert [p[:i + 1] + p[i + 2:]
                        for p in paths(cat, padded, root)] == list(ps)
                add = graft_path_matrix(cat, word, root, i, (unit,),
                                        (unit, unit))
                drop = drop_unit_letter_matrix(cat, padded, root, i)
                for m in (add, drop):
                    assert m[0] == len(m[1]) == len(ps), (word, i, root)
                    assert is_identity(dense(m)), (word, i, root)
                assert is_identity(mat_mul(dense(drop), dense(add)))


def reference_path_matrix(cat, keys, tgt, root, moves):
    """A path-basis matrix as dense rows, filled in place: column key
    accumulates each coefficient of moves(key) at the row of its admissible
    target."""
    tidx = {q: i for i, q in enumerate(paths(cat, tgt, root))}
    out = [[Cyc.zero()] * len(keys) for _ in tidx]
    for ci, key in enumerate(keys):
        for q, val in moves(key):
            if val:
                row = tidx.get(q)
                if row is not None:
                    out[row][ci] = out[row][ci] + val
    return out


def _parens(n, first=0):
    """Every parenthesization of the n leaves first, ..., first + n - 1."""
    if n == 1:
        yield first
    for k in range(1, n):
        for left in _parens(k, first):
            for right in _parens(n - k, first + k):
                yield left, right


def _path_move_calls(cat):
    """{builder name: argument tuples} of every builder of a path-basis
    matrix, over words of at most two letters (three for the removals, four
    for the bends and the labeled trees) and guests of at most two."""
    unit, dual = cat.unit, cat.dual
    short, guests = list(_words(cat, 2)), list(_words(cat, 2))[1:]
    calls = {name: [] for name in (
        "fuse_step_matrix", "split_step_matrix", "drop_unit_letter_matrix",
        "contract_pair_matrix", "graft_path_matrix", "attach_pair_matrix",
        "insert_vector_matrix", "splice_host_matrix", "_bend_columns",
        "_tree_matrix", "_merge_basis_matrix")}
    for word, root in itertools.product(_words(cat, 3), cat.labels):
        for i in range(len(word) - 1):
            calls["fuse_step_matrix"] += [
                (word, root, i, w) for w in cat.channels(word[i], word[i + 1])]
            if dual(word[i]) == word[i + 1]:
                calls["contract_pair_matrix"].append((word, root, i))
        calls["drop_unit_letter_matrix"] += [
            (word, root, i) for i, x in enumerate(word) if x == unit]
    for word, root in itertools.product(short, cat.labels):
        calls["split_step_matrix"] += [
            (word, root, i, u, v) for i, x in enumerate(word)
            for u, v in itertools.product(cat.labels, repeat=2)
            if cat.n(u, v, x)]
        calls["_merge_basis_matrix"] += [(b, word, root) for b in cat.labels]
        for i in range(len(word) + 1):
            calls["attach_pair_matrix"] += [(word, root, i, b)
                                            for b in cat.labels]
            calls["graft_path_matrix"] += [
                (word, root, i, g, rho) for g in guests
                for rho in paths(cat, g, unit)]
            calls["insert_vector_matrix"] += [
                (word, root, i, *db_vector(cat, u)) for u in guests]
    for u, g in itertools.product(guests, short):
        host, terms = db_prime_vector(cat, u)
        calls["splice_host_matrix"] += [(host, terms, i, g)
                                        for i in range(len(host) + 1)]
    calls["_bend_columns"] = [(w, k) for w in _words(cat, 4)
                              for k in range(1, len(w))]
    calls["_tree_matrix"] = [(w, paren, root) for w in _words(cat, 4) if w
                             for paren in _parens(len(w))
                             for root in cat.labels]
    return calls


@pytest.mark.parametrize("name", ALL_BUNDLED)
def test_path_columns_match_the_dense_loop(name, monkeypatch):
    # every builder of a path-basis matrix makes its columns with
    # _path_columns; each build must densify to the in-place loop over the
    # same keys and moves, and every builder must make at least one nonzero
    # entry
    kernel = homcalc._path_columns
    nonzeros = []

    def checked(cat, keys, tgt, root, moves):
        got = kernel(cat, keys, tgt, root, moves)
        assert dense(got) == reference_path_matrix(cat, keys, tgt, root,
                                                   moves), (keys, tgt, root)
        nonzeros.append(sum(map(len, got[1])))
        return got

    monkeypatch.setattr(homcalc, "_path_columns", checked)
    cat = bundled(name)
    for builder, calls in _path_move_calls(cat).items():
        fresh = cat.with_pivotal(cat.pivotal)  # no memoised build is reused
        nonzeros.clear()
        # the associator, the merge basis of the left operator extension
        # and the one-path grafts are references; they lay out their
        # columns with the same kernel
        owner = homcalc if hasattr(homcalc, builder) else references
        for args in calls:
            getattr(owner, builder)(fresh, *args)
        assert any(nonzeros), builder


# (source word, target word, root) of each keyed builder's arguments
_KEYED_BASES = {
    "fuse_step_matrix": lambda cat, word, root, i, w:
        (word, word[:i] + (w,) + word[i + 2:], root),
    "contract_pair_matrix": lambda cat, word, root, i:
        (word, word[:i] + word[i + 2:], root),
    "insert_vector_matrix": lambda cat, word, root, i, g, terms:
        (word, word[:i] + g + word[i:], root),
    "splice_host_matrix": lambda cat, host, terms, i, g:
        (g, host[:i] + g + host[i:], cat.unit),
}


@pytest.mark.parametrize("name", ALL_BUNDLED)
def test_keyed_builds_match_the_column_form(name):
    # a build keyed by every source path is the column form over the whole
    # basis with its rows named by their target paths, column for column;
    # keyed by a part of the basis, it has the columns of that part only
    cat = bundled(name)
    calls = _path_move_calls(cat)
    nonzeros = 0
    for builder, bases in _KEYED_BASES.items():
        build = getattr(homcalc, builder)
        for args in calls[builder]:
            src, tgt, root = bases(cat, *args)
            sources, targets = paths(cat, src, root), paths(cat, tgt, root)
            rows, cols = build(cat, *args)
            assert rows == len(targets)
            want = {p: tuple((targets[i], x) for i, x in col)
                    for p, col in zip(sources, cols)}
            assert build(cat, *args, keys=sources) == want, (builder, args)
            part = sources[::2]
            assert build(cat, *args, keys=part) == \
                {p: want[p] for p in part}, (builder, args)
            nonzeros += sum(map(len, cols))
    assert nonzeros


@pytest.mark.parametrize("name", ALL_BUNDLED)
def test_word_guard_refuses_exactly_above_the_guard(name, monkeypatch):
    # a word whose product of fanouts exceeds the guard is counted and
    # refused exactly when its dimension exceeds the guard; within the
    # product its dimension is within the guard too, so the skipped count
    # could not have refused it
    cat = bundled(name)
    refused = 0
    for guard in (1, 2, 3):
        monkeypatch.setenv("FSCAT_NMAX_GUARD", str(guard))
        for word, root in itertools.product(_words(cat, 4), cat.labels):
            dim = path_counts(cat, ({x: 1} for x in word)).get(root, 0)
            if math.prod(cat.ring.fanout[x] for x in word) <= guard:
                assert dim <= guard, (word, root)
            if dim > guard:
                with pytest.raises(DimensionGuardError) as err:
                    check_word_guard(cat, word, root)
                assert str(err.value) == \
                    f"hom dimension {dim} exceeds FSCAT_NMAX_GUARD={guard}"
                refused += 1
            else:
                check_word_guard(cat, word, root)
    # the pointed specs have fanout 1 everywhere: every dimension is 0 or 1
    assert refused or max(cat.ring.fanout.values()) == 1
