"""Test-only references that route through the general morphism machinery.

The library builds its local moves and bends keyed by path, in the keyed
form of ``linalg``.  The references take whole path bases, in a column
form of their own, ``(rows, columns)``: ``columns[j]`` lists the
``(row, coeff)`` pairs of column j with coeff != 0.  ``whole_basis`` lays
a move out in it over every source path onto the target basis, which
``col_dense`` turns into rows and ``col_vec`` applies to a dense vector;
the moves the references make themselves are laid out the same way by
``path_columns``.

The morphism layer lives here: ``LinMap`` composition and scaling, the
operator extension id (x) m (x) id (``extend``, whose left half changes
basis by an inverted merge matrix), the dual of a morphism
(``dual_morphism``, with the word coevaluation ``db_vector``), and the
loop closure that closes a morphism's strands one at a time
(``close_loop``).  Closing every strand (``closed_loop_trace``) is the
reference for ``homcalc.pivotal_trace``, which reads the trace off the
blocks and the pivotal dimensions.  The associator between two
parenthesizations (``assoc_matrix``, over labeled trees grafted into the
path basis, with ``left_nested``, ``right_nested`` and ``paren_leaves``)
is here too: the library needs no parenthesization.

The nested double-dual route is the reference for the closed-form
double-dual scalar (``homcalc.double_dual_inverse``), the spliced bend
for the one-graft bend kernel (``indicators.e_map_matrix``), the pinned
bend route (``pinned_bend_columns`` and ``pinned_bend_entries``: pinned
graft states, term generators and ``path_columns``) for the fused bend
loop (``homcalc._bend_columns`` and ``_bend_entries``), and the
innermost-first nested coevaluation for ``homcalc.db_prime_vector``, and
the per-l build of the Frobenius-Schur blocks for the shared middle of
``indicators._fs_blocks``, each chunk path grafted over the whole torn
basis (``grafted_closing_functional``) for the closing read of
``indicators._closing_functional``, the label loops over every (a, b, c, d) for the
F-block layout ``FusionRing.blocks``, the walk over every admissible
F-block for the F-sanity items of ``category.validate``, and the gauge
transport by one division per F entry for ``category.gauge_transform``.
Each takes the long way on purpose: whole splice and contraction
matrices, the evaluation/coevaluation machinery applied twice, every
insertion and tear-down redone for each l, every chunk graft laid over
the whole torn basis, every channel list filtered label by label, every
F-block laid out, and every entry divided by its own product of two gauge
values.

The classical group oracles live here too: the cyclic and S3 character
tables, explicit matrix representations of S3 and Q8, and the brute-force
indicator, the trace of the cyclic rotation on the invariants of V^(x)n,
which gates ``oracles.char_indicator``.  So do the pivotal, evaluation
and coevaluation maps as whole ``LinMap``s, which the rigidity and
pivotal tests compose, the word coevaluation ``db_vector`` with its
outermost-first ``nested_coevaluation``, ``bundled_path``, the file
behind a bundled spec for the CLI tests, and ``fraction_decode``, the
spec-scalar decoding through ``Fraction`` for ``Cyc.decode``.  So do the grafts of one guest path
(``graft_path_matrix``, and ``attach_pair_matrix`` for a coevaluation
pair), which the library makes as one-term ``insert_vector_matrix``
calls, the removal of a unit letter (``drop_unit_letter_matrix``), which
the library never applies because it changes no coordinate, and
``term_vector``, the dense vector of a list of path terms.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources

from fscat.category import (Category, CheckItem, FSymbolSet, PivotalData,
                            _gauge_value, memoised)
from fscat.cyclo import Cyc, root_of_unity
from fscat.homcalc import (LinMap, _bend_tops, _graft_coeffs, _path_index,
                           check_word_guard, contract_pair_matrix,
                           db_prime_vector, dual_word, fuse_step_matrix,
                           insert_vector_matrix, paths, splice_host_matrix)
from fscat.indicators import _closing_step, _right_block
from fscat.linalg import eye, is_identity, mat_inv, mat_mul, vec_mat, zeros
from fscat.oracles import CharacterTable, _Group, _table, q8_group, q8_table
from fscat.specio import BUNDLED

ONE = Cyc.one()
ZERO = Cyc.zero()


# -- whole path bases ---------------------------------------------------------


# (source word, target word, root, the builder's own arguments) of each
# move builder, from the words, root and moves of a ``whole_basis`` call:
# the keyed builders read no basis, so they take neither word nor root
# where their move does not read it
KEYED_BASES = {
    "fuse_step_matrix": lambda cat, word, root, i, w:
        (word, word[:i] + (w,) + word[i + 2:], root, (word, i, w)),
    "split_step_matrix": lambda cat, word, root, i, u, v:
        (word, word[:i] + (u, v) + word[i + 1:], root, (word, i, u, v)),
    "contract_pair_matrix": lambda cat, word, root, i:
        (word, word[:i] + word[i + 2:], root, (word, i)),
    "insert_vector_matrix": lambda cat, word, root, i, g, terms:
        (word, word[:i] + g + word[i:], root, (i, g, terms)),
    "splice_host_matrix": lambda cat, host, terms, i, g:
        (g, host[:i] + g + host[i:], cat.unit, (terms, i, g)),
}


def whole_basis(build, cat, *args):
    """The column form of the move builder ``build`` on ``args`` (its
    source word and root, then its move, as ``KEYED_BASES`` reads them),
    keyed by every path of its source hom space and laid out on the path
    basis of its target.  A target path missing from that basis raises a
    KeyError here, where the library's keyed form has no basis to drop it
    from."""
    src, tgt, root, build_args = KEYED_BASES[build.__name__](cat, *args)
    sources = paths(cat, src, root)
    tidx = _path_index(cat, tgt, root)
    cols = build(cat, *build_args, keys=sources)
    return len(tidx), tuple(tuple((tidx[q], x) for q, x in cols[p])
                            for p in sources)


def path_columns(cat, keys, tgt, root, moves):
    """Column form (``linalg``) of a map into the Hom(root, tgt) path basis,
    one column per key of ``keys``: the layout of the references that
    build over a whole source basis.

    ``moves(key)`` yields ``(q, coeff)`` pairs; column ``key`` accumulates
    ``coeff`` at row ``q``.  Zero coefficients, sums that cancel and target
    paths that are not admissible are dropped.
    """
    tidx = _path_index(cat, tgt, root)
    cols = []
    for key in keys:
        col = {}
        for q, val in moves(key):
            if val:
                row = tidx.get(q)
                if row is not None:
                    col[row] = col[row] + val if row in col else val
        cols.append(tuple((i, x) for i, x in col.items() if x))
    return len(tidx), tuple(cols)


def col_dense(a):
    """The dense rows of the column form ``a``."""
    rows, cols = a
    out = zeros(rows, len(cols))
    for j, col in enumerate(cols):
        for i, x in col:
            out[i][j] = x
    return out


def col_vec(a, v):
    """a v for ``a`` in column form and a dense list v."""
    rows, cols = a
    if len(cols) != len(v):
        raise ValueError("matrix shape mismatch")
    out = [ZERO] * rows
    for col, y in zip(cols, v):
        if y:
            for i, x in col:
                out[i] = out[i] + x * y
    return out


# -- the morphism layer: whole LinMaps, operator extension, duals, loops ------
#
# The builders below that lay out their own moves use ``path_columns``,
# looked up on this module so that a test that replaces it reaches them too.


def compose(f: LinMap, g: LinMap) -> LinMap:
    """f after g, on the roots both have."""
    if g.target != f.source:
        raise ValueError("composition word mismatch")
    return LinMap(f.cat, g.source, f.target,
                  {r: mat_mul(f.blocks[r], g.blocks[r])
                   for r in f.blocks if r in g.blocks})


def scaled(m: LinMap, c) -> LinMap:
    c = Cyc._promote(c)
    return LinMap(m.cat, m.source, m.target,
                  {r: [[c * x for x in row] for row in blk]
                   for r, blk in m.blocks.items()})


def is_identity_map(m: LinMap) -> bool:
    return m.source == m.target and all(map(is_identity, m.blocks.values()))


def _right_extend_blocks(cat, src_letters, tgt_letters, blocks, b):
    """Blocks of (m (x) id_b) from blocks of m, for every root."""
    def moves(p):
        s = p[-2]
        col = _path_index(cat, src_letters, s)[p[:-1]]
        return [(q + (p[-1],), row[col])
                for q, row in zip(paths(cat, tgt_letters, s), blocks[s])]
    return {r: col_dense(path_columns(
                cat, paths(cat, src_letters + (b,), r), tgt_letters + (b,), r,
                moves))
            for r in cat.labels}


def _merge_basis_matrix(cat, b, letters, root):
    """Change of basis identifying Hom(root, b (x) W) with channel-summed
    Hom(s, W) blocks; columns are (inner path) pairs, rows are paths of
    (b,) + letters.  Each inner path p is grafted after b."""
    letters = tuple(letters)
    cols = [(s, p) for s in cat.labels if cat.n(b, s, root)
            for p in paths(cat, letters, s)]
    return cols, col_dense(path_columns(
        cat, cols, (b,) + letters, root,
        lambda col: [((cat.unit, b) + chain[1:], coeff) for chain, coeff
                     in _graft_coeffs(cat, b, letters, col[1])]))


def _left_extend_blocks(cat, src_letters, tgt_letters, blocks, b):
    """Blocks of (id_b (x) m) from blocks of m, for every root."""
    out = {}
    for r in cat.labels:
        src_cols, src_merge = _merge_basis_matrix(cat, b, src_letters, r)
        tgt_cols, tgt_merge = _merge_basis_matrix(cat, b, tgt_letters, r)
        inner = zeros(len(tgt_cols), len(src_cols))
        for ci, (s, p) in enumerate(src_cols):
            if s not in blocks:
                continue
            blk = blocks[s]
            col = _path_index(cat, src_letters, s)[p]
            for ri, (s2, q) in enumerate(tgt_cols):
                if s2 != s:
                    continue
                val = blk[_path_index(cat, tgt_letters, s)[q]][col]
                if val:
                    inner[ri][ci] = val
        src_inv = mat_inv(src_merge)
        out[r] = mat_mul(tgt_merge, mat_mul(inner, src_inv))
    return out


def extend(cat, m: LinMap, left_letters=(), right_letters=()) -> LinMap:
    """id (x) m (x) id as a morphism-backed LinMap."""
    src = m.source
    tgt = m.target
    blocks = dict(m.blocks)
    if set(blocks) != set(cat.labels):
        raise ValueError("operator extension needs a morphism-backed LinMap "
                         "(blocks at every root)")
    for b in right_letters:
        blocks = _right_extend_blocks(cat, src, tgt, blocks, b)
        src = src + (b,)
        tgt = tgt + (b,)
    for b in reversed(tuple(left_letters)):
        blocks = _left_extend_blocks(cat, src, tgt, blocks, b)
        src = (b,) + src
        tgt = (b,) + tgt
    return LinMap(cat, src, tgt, blocks)


# -- single-path insertions and unit-rooted vectors ---------------------------


def graft_path_matrix(cat, letters, root, i, guest_letters, rho):
    """Graft the unit-rooted guest path rho through ``guest_letters`` at
    position i: ``insert_vector_matrix`` with the one term (rho, 1).  It
    equals inserting a unit letter and splitting it along rho."""
    return whole_basis(insert_vector_matrix, cat, letters, root, i,
                       guest_letters, ((rho, ONE),))


def pair_path(cat, b):
    """The one unit-rooted path (1, b, 1) of the pair (b, b*)."""
    return cat.unit, b, cat.unit


def attach_pair_matrix(cat, letters, root, i, b):
    """Coevaluation insertion of the pair (b, dual b) at position i: the
    graft of its one path."""
    return graft_path_matrix(cat, letters, root, i, (b, cat.dual(b)),
                             pair_path(cat, b))


def drop_unit_letter_matrix(cat, letters, root, i):
    """Remove the unit letter at position i; the path drops its stage p_i.
    Under the unit axiom this is the identity on path coordinates, which is
    why the library's tear-down never applies it."""
    assert letters[i] == cat.unit
    return path_columns(
        cat, paths(cat, letters, root), letters[:i] + letters[i + 1:], root,
        lambda p: [(p[:i + 1] + p[i + 2:], ONE)])


def term_vector(cat, letters, terms):
    """The unit-rooted vector over ``paths(letters, unit)`` whose nonzero
    ``(path, coeff)`` terms are ``terms``, as a dense list."""
    coeffs = dict(terms)
    return [coeffs.get(p, ZERO) for p in paths(cat, letters, cat.unit)]


def nested_coevaluation(cat, pairs):
    """(word, terms) of the nested coevaluations of ``pairs``, the terms the
    nonzero ``(path, coeff)`` pairs of the unit-rooted vector.  Each pair is
    spliced, outermost first, into the middle of the running vector as the
    fixed host (grafting is associative): the splice is keyed by the pair's
    one path (1, x, 1), and its one column is the next terms.  The word is
    counted against the guard first (``check_word_guard``)."""
    check_word_guard(cat, tuple(x for x, _ in pairs)
                     + tuple(y for _, y in reversed(pairs)), cat.unit)
    cur, terms = (), (((cat.unit,), ONE),)
    for pair in pairs:
        mid = len(cur) // 2
        (terms,) = splice_host_matrix(cat, terms, mid, pair,
                                      keys=((cat.unit, pair[0], cat.unit),)
                                      ).values()
        cur = cur[:mid] + pair + cur[mid:]
    return cur, terms


@memoised()
def db_vector(cat, letters):
    """Coevaluation of a word: (letters + dual word, the nonzero (path,
    coeff) terms of its unit-rooted vector)."""
    return nested_coevaluation(cat, [(y, cat.dual(y)) for y in letters])


def dual_morphism(cat, m: LinMap) -> LinMap:
    """The dual f -> f* between the dual words, via bend-all-strands closure."""
    w1 = m.source
    w2 = m.target
    dw1 = dual_word(cat, w1)
    dw2 = dual_word(cat, w2)
    db_letters, db_terms = db_vector(cat, w1)

    mid = extend(cat, m, left_letters=dw2, right_letters=dw1)
    blocks = {}
    for r in cat.labels:
        ins = whole_basis(insert_vector_matrix, cat, dw2, r, len(dw2),
                          db_letters, db_terms)
        mat = mat_mul(mid.block(r), col_dense(ins))
        cur = dw2 + w2 + dw1
        k = len(w2)
        for j in range(k):
            pos = k - 1 - j
            step = whole_basis(contract_pair_matrix, cat, cur, r, pos)
            mat = mat_mul(col_dense(step), mat)
            cur = cur[:pos] + cur[pos + 2:]
        assert cur == dw1
        blocks[r] = mat
    return LinMap(cat, dw2, dw1, blocks)


def close_loop(cat, m: LinMap, side: str, count: int) -> LinMap:
    """Partial pivotal trace over the count left- or rightmost strands."""
    if m.source != m.target:
        raise ValueError("close_loop needs an endomorphism")
    n = len(m.source)
    if not 1 <= count <= n:
        raise ValueError("strand count out of range")
    piv = cat.require_pivotal()
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    left = side == "left"
    out = m
    for _ in range(count):
        letters = out.source
        # the closed strand b, its dual bd attached on the same side, the
        # coevaluation pair inserted at ``at`` and evaluated at ``cut``
        b = letters[0] if left else letters[-1]
        bd = cat.dual(b)
        rest = letters[1:] if left else letters[:-1]
        if left:
            ext = extend(cat, out, left_letters=(bd,))
            at, label, host, cut = 0, bd, (bd,) + letters, 0
            scale = piv.t[b].inverse()
        else:
            ext = extend(cat, out, right_letters=(bd,))
            at, label, host = len(rest), b, letters + (bd,)
            cut = len(letters) - 1
            scale = piv.t[b]
        blocks = {}
        for r in cat.labels:
            att = attach_pair_matrix(cat, rest, r, at, label)
            con = whole_basis(contract_pair_matrix, cat, host, r, cut)
            blocks[r] = mat_mul(col_dense(con),
                                mat_mul(ext.block(r), col_dense(att)))
        out = scaled(LinMap(cat, rest, rest, blocks), scale)
    return out


def closed_loop_trace(cat, m: LinMap, side: str) -> Cyc:
    """``homcalc.pivotal_trace`` by closing every strand of m in turn."""
    return close_loop(cat, m, side, len(m.source)).block(cat.unit)[0][0]


# -- the nested double-dual route ---------------------------------------------


def vertex_linmap(cat, a, b, c) -> LinMap:
    """The chosen basis vector of Hom(c, a (x) b) as a morphism c -> a (x) b."""
    if not cat.n(a, b, c):
        raise ValueError(f"channel ({a},{b};{c}) is inadmissible")
    blocks = {}
    for r in cat.labels:
        tgt = paths(cat, (a, b), r)
        mat = zeros(len(tgt), len(paths(cat, (c,), r)))
        if r == c:
            mat[tgt.index((cat.unit, a, c))][0] = ONE
        blocks[r] = mat
    return LinMap(cat, (c,), (a, b), blocks)


def nested_double_dual_coefficient(cat, a, b, c) -> Cyc:
    """The double-dual tensorator scalar on the (a, b; c) channel, the
    inverse of ``homcalc.double_dual_inverse``, by double dualization of the
    channel vertex through the evaluation/coevaluation machinery."""
    dd = dual_morphism(cat, dual_morphism(cat, vertex_linmap(cat, a, b, c)))
    return dd.block(c)[0][0].inverse()


# -- the spliced bend ---------------------------------------------------------


def spliced_e_map_matrix(cat, letters, k):
    """``indicators.e_map_matrix`` the long way: every splice, then every
    closure.

    The word is spliced into the host pairs (x_j*, x_j), j = 1..k, as whole
    ``splice_host_matrix`` products over every fusion path; then the k pairs
    (x_i*, x_i) are closed innermost first by ``contract_pair_matrix``, and
    the product is scaled by 1 / (t(x_1) ... t(x_k)).
    """
    letters = tuple(letters)
    cat.require_pivotal()
    cur, m = letters, None
    for j in range(k):
        # Hom(1, x* x) is spanned by its one path (1, x*, 1)
        host = (cat.dual(letters[j]), letters[j])
        splice = col_dense(whole_basis(splice_host_matrix, cat, host,
                                       ((pair_path(cat, host[0]), ONE),), 1,
                                       cur))
        m = splice if m is None else mat_mul(splice, m)
        cur = host[:1] + cur + host[1:]
    for pos in range(k - 1, -1, -1):
        m = mat_mul(col_dense(whole_basis(contract_pair_matrix, cat, cur,
                                          cat.unit, pos)), m)
        cur = cur[:pos] + cur[pos + 2:]
    scale = math.prod(map(cat.t, letters[:k]), start=ONE).inverse()
    return [[scale * x for x in row] for row in m]


def pinned_graft_coeffs(cat, lam, letters, path, pin, coeff):
    """``homcalc._graft_coeffs`` with its first stages pinned and a seed:
    ``pin[j]`` fixes sigma_j for 0 < j < len(pin), so only the chains that
    follow it are made, later stages are free, and ``coeff`` seeds every
    chain.  The stages are walked as a list of states, pinned or not."""
    states = [((lam,), coeff)]
    for j, y in enumerate(letters, start=1):
        prev_rho, rho = path[j - 1], path[j]
        new = []
        for chain, coeff in states:
            s_prev = chain[-1]
            for s in (pin[j],) if j < len(pin) else cat.channels(s_prev, y):
                val = cat.f_inv_entry(lam, prev_rho, y, s, rho, s_prev)
                if val:
                    new.append((chain + (s,), coeff * val))
        states = new
        if not states:  # a pinned stage no chain reaches
            break
    return states


def _pinned_bend_terms(cat, letters, k, tops, rho, pin=()):
    """(target path, coefficient) terms of E(w, k) on the source path rho.

    ``tops`` is ``homcalc._bend_tops`` of w[:k] or a part of it.  Each top
    seeds one ``pinned_graft_coeffs`` of w along rho whose first k stages
    are pinned to the top, reversed.  With ``pin``, a path of the rotated
    word, the later stages follow pin's too.
    """
    for top, weight, tails in tops:
        for chain, g in pinned_graft_coeffs(cat, top[k], letters, rho,
                                            top[k::-1] + pin[1:], weight):
            for q, c in tails:
                yield chain[k:] + q, g * c


def pinned_bend_columns(cat, letters, k):
    """``homcalc._bend_columns`` through generic layers: every term of the
    pinned grafts (``_pinned_bend_terms``) laid out by ``path_columns``,
    then keyed by path as the library keys it."""
    sources = paths(cat, letters, cat.unit)
    if not sources:
        return {}
    tops = _bend_tops(cat, letters[:k])
    rotated = letters[k:] + letters[:k]
    _, cols = path_columns(cat, sources, rotated, cat.unit,
                           lambda rho: _pinned_bend_terms(cat, letters, k,
                                                          tops, rho))
    qs = paths(cat, rotated, cat.unit)
    return {rho: tuple((qs[i], x) for i, x in col)
            for rho, col in zip(sources, cols)}


def pinned_bend_entries(cat, letters, k, pairs):
    """``homcalc._bend_entries`` through the same terms: the host tails
    kept where they equal q's last k stages, the later stages pinned to
    q's first n - k + 1."""
    letters = tuple(letters)
    pairs = list(pairs)
    if not pairs:
        return ZERO
    m = len(letters) - k
    by_tail = {}
    for top, w, tails in _bend_tops(cat, letters[:k]):
        for q, c in tails:
            by_tail.setdefault(q, []).append((top, w, ((q, c),)))
    total = ZERO
    for rho, q, wt in pairs:
        for _, g in _pinned_bend_terms(cat, letters, k,
                                       by_tail.get(q[m + 1:], ()), rho, q):
            total = total + wt * g
    return total


def spliced_db_prime_vector(cat, letters):
    """``homcalc.db_prime_vector`` innermost pair first: the running word
    is the guest of a whole ``splice_host_matrix`` into each new outer pair
    (y*, y)."""
    cur, vec = (), [ONE]
    for y in letters:
        host = (cat.dual(y), y)
        vec = col_vec(whole_basis(splice_host_matrix, cat, host,
                                  ((pair_path(cat, host[0]), ONE),), 1, cur),
                      vec)
        cur = host[:1] + cur + host[1:]
    return cur, vec


# -- the Frobenius-Schur blocks, one l at a time ------------------------------


def _accumulate(state, word, vec):
    """Add the vector ``vec`` on ``word`` into ``state``, unless it is zero."""
    if not any(vec):
        return
    if word in state:
        state[word] = [x + y for x, y in zip(state[word], vec)]
    else:
        state[word] = vec


def _extract_insert(cat, word, root, src, length, dst, state_vec, out):
    """Transport the trivial component of the letters [src, src+length)
    to position dst (left of src), summing over dual bases into `out`."""
    chunk = word[src:src + length]
    for pi in paths(cat, chunk, cat.unit):
        # tear the chunk down along pi
        vec = state_vec
        cur = word
        for j in range(length - 1):
            mat = whole_basis(fuse_step_matrix, cat, cur, root, src,
                              pi[j + 2])
            vec = col_vec(mat, vec)
            cur = cur[:src] + (pi[j + 2],) + cur[src + 2:]
            if not any(vec):
                break
        else:
            vec = col_vec(drop_unit_letter_matrix(cat, cur, root, src), vec)
            cur = cur[:src] + cur[src + 1:]
            # rebuild the same chunk along pi at the destination
            graft = graft_path_matrix(cat, cur, root, dst, chunk, pi)
            _accumulate(out, cur[:dst] + chunk + cur[dst:],
                        col_vec(graft, vec))


def unshared_fs_blocks(cat, support, n, l, r):
    """``indicators._fs_blocks`` with nothing shared between the l of one
    (n, r): each left/middle combo is scaled by its pivotal product, then
    inserted in front of the right block and torn down for this l alone."""
    cat.require_pivotal()
    support = tuple(sorted(support, key=cat.label_index))
    nk = n - l - r - 1
    out = {}
    for c in support:
        state = {}
        for ua in itertools.product(support, repeat=l):
            scale = math.prod((cat.t(y).inverse() for y in ua), start=ONE)
            for ub in itertools.product(support, repeat=nk):
                comb_letters, comb = db_prime_vector(cat, ub + ua)
                comb = [(p, scale * x) for p, x in comb] if ua else comb
                for word, terms in _right_block(cat, support, c, r).items():
                    vec = [terms.get(p, ZERO) for p in paths(cat, word, c)]
                    mat = whole_basis(insert_vector_matrix, cat, word, c, 0,
                                      comb_letters, comb)
                    _accumulate(state, comb_letters + word, col_vec(mat, vec))
        new = {}
        for word, vec in state.items():
            _extract_insert(cat, word, c, l + nk, n, l, vec, new)
        closing = [*range(l - 1, -1, -1), *range(r + nk, 0, -1)]
        final = {}
        for word, vec in new.items():
            cur, v = word, vec
            for pos in closing:
                if cat.dual(cur[pos]) != cur[pos + 1]:
                    break
                v = col_vec(whole_basis(contract_pair_matrix, cat, cur, c,
                                        pos), v)
                cur = cur[:pos] + cur[pos + 2:]
            else:
                assert len(cur) == 1
                _accumulate(final, cur, v)
        for word, vec in final.items():
            if vec[0] or word == (c,):
                out[(c, word[0])] = vec[0]
        out.setdefault((c, c), ZERO)
    return out


def grafted_closing_functional(cat, cur, c, l, chunk):
    """``indicators._closing_functional`` with each chunk path grafted over
    the whole torn basis: the closing row phi read through the
    ``insert_vector_matrix`` of the one term (pi, 1) at position l, keyed
    by every path of Hom(c, cur), with ``linalg.vec_mat``."""
    n = len(chunk)
    phi = _closing_step(cat, cur[:l] + chunk + cur[l:], c,
                        (*range(l - 1, -1, -1), *range(n - l - 1, 0, -1)))
    if phi is None:
        return None
    torn = paths(cat, cur, c)
    return {pi: vec_mat(phi, insert_vector_matrix(cat, l, chunk,
                                                  ((pi, ONE),), keys=torn))
            for pi in paths(cat, chunk, cat.unit)}


# -- the F-block layout and the F-sanity walk -----------------------------------


def walked_f_layout(ring):
    """The F-block layout {(a, b, c, d): (es, fs)} from label loops, keys in
    label order: for each (a, b, c) and each d reached through a (x) b or
    b (x) c, es lists the channels e of a (x) b with N_ec^d > 0 and fs the
    channels f of b (x) c with N_af^d > 0."""
    out = {}
    for a in ring.labels:
        for b in ring.labels:
            for c in ring.labels:
                ab, bc = ring.channels(a, b), ring.channels(b, c)
                ds = {d for e in ab for d in ring.channels(e, c)} | \
                    {d for f in bc for d in ring.channels(a, f)}
                for d in sorted(ds, key=ring.index):
                    out[(a, b, c, d)] = ([e for e in ab if ring.n(e, c, d)],
                                         [f for f in bc if ring.n(a, f, d)])
    return out


def walked_f_items(cat):
    """The "unit normalization" and "invertibility" items of
    ``category.validate`` from one walk of the admissible F-blocks in label
    order: each unit block is laid out and compared with the identity,
    and each block is checked square and then inverted (a 1x1 block by
    its entry).  Each detail names its item's last failure.  The category
    must be free of structural errors."""
    unit = cat.unit
    unit_fail = inv_fail = ""
    for (a, b, c, d), (es, fs) in walked_f_layout(cat.ring).items():
        if not es:
            continue
        square = len(es) == len(fs)
        if unit in (a, b, c):
            m = cat.f_block(a, b, c, d)
            if not square or any(m[i][j] != (1 if i == j else 0)
                                 for i in range(len(es))
                                 for j in range(len(fs))):
                unit_fail = f"unit block [F^({a},{b},{c})_{d}] is not the identity"
        if not square:
            inv_fail = f"[F^({a},{b},{c})_{d}] is not square"
        elif len(es) == 1:
            if not cat.F.get((a, b, c, d, es[0], fs[0])):
                inv_fail = f"[F^({a},{b},{c})_{d}] is singular"
        else:
            try:
                cat.f_inv_block(a, b, c, d)
            except ValueError:
                inv_fail = f"[F^({a},{b},{c})_{d}] is singular"
    return [CheckItem("F", "unit normalization", not unit_fail, unit_fail),
            CheckItem("F", "invertibility", not inv_fail, inv_fail)]


# -- the gauge transport by division --------------------------------------------


def divided_gauge_transform(category, u):
    """``category.gauge_transform`` with one division per F entry:
    [F^{abc}_d]_{ef} g(a,b,e) g(e,c,d) / (g(b,c,f) g(a,f,d)), keys in the
    order of the block layout; the conductor and the transported pivotal
    coefficients as there."""
    ring = category.ring
    g = {key: _gauge_value(u, ring, *key) for key in ring.admissible_triples()}
    entries = {}
    for (a, b, c, d), (es, fs) in ring.blocks.items():
        for e in es:
            for f in fs:
                val = category.F.get((a, b, c, d, e, f)) \
                    * g[(a, b, e)] * g[(e, c, d)] / (g[(b, c, f)] * g[(a, f, d)])
                if val != 1:
                    entries[(a, b, c, d, e, f)] = val
    conductor = category.conductor
    for val in entries.values():
        if conductor % val.conductor:
            conductor = math.lcm(conductor, val.reduced_key()[0])
    out = Category(f"{category.name}~gauged", ring, FSymbolSet(entries),
                   None, conductor)
    if category.pivotal is not None:
        t = {a: category.pivotal.t[a]
             * out.ev_coefficient(a) / category.ev_coefficient(a)
             for a in ring.labels}
        out = out.with_pivotal(PivotalData(t))
    return out


# -- classical group oracles ------------------------------------------------------


class SizeGuardError(ValueError):
    """Brute-force oracle sizes are capped at degree 3 and n = 5."""


def cyclic_group(n: int) -> _Group:
    return _Group(f"Z{n}", range(n), lambda a, b: (a + b) % n, 0)


def s3_group() -> _Group:
    perms = [(0, 1, 2), (1, 0, 2), (0, 2, 1), (2, 1, 0), (1, 2, 0), (2, 0, 1)]

    def mult(p, q):  # (p*q)(x) = p(q(x))
        return tuple(p[q[i]] for i in range(3))

    return _Group("S3", perms, mult, (0, 1, 2))


def cyclic_table(n: int) -> CharacterTable:
    g = cyclic_group(n)
    chars = {f"chi{j}": tuple(root_of_unity(n, j * k) for k in range(n))
             for j in range(n)}
    return _table(g, chars)


def s3_table() -> CharacterTable:
    g = s3_group()
    classes = g.conjugacy_classes()

    def kind(cls):
        rep = cls[0]
        fixed = sum(1 for i in range(3) if rep[i] == i)
        return {3: "e", 1: "t", 0: "c"}[fixed]

    by_kind = {kind(cls): i for i, cls in enumerate(classes)}
    n = len(classes)

    def from_values(vals):
        out = [None] * n
        for k, v in vals.items():
            out[by_kind[k]] = Cyc.rational(v)
        return tuple(out)

    chars = {
        "trivial": from_values({"e": 1, "t": 1, "c": 1}),
        "sign": from_values({"e": 1, "t": -1, "c": 1}),
        "std": from_values({"e": 2, "t": 0, "c": -1}),
    }
    return _table(g, chars)


def orthogonality_defect(table):
    """Exact inner products <chi_i, chi_j> minus the identity matrix."""
    names = sorted(table.characters)
    out = []
    for ni in names:
        row = []
        for nj in names:
            acc = ZERO
            for k, size in enumerate(table.class_sizes):
                acc = acc + size * table.characters[ni][k] * \
                    table.characters[nj][k].conjugate()
            row.append(acc / table.order - (1 if ni == nj else 0))
        out.append(row)
    return out


@dataclass
class MatrixRep:
    """Explicit invertible matrices over Cyc, one per group element."""

    name: str
    group: _Group
    matrices: dict  # element -> matrix
    degree: int

    def character(self):
        out = []
        for cls in self.group.conjugacy_classes():
            m = self.matrices[cls[0]]
            out.append(sum((m[i][i] for i in range(self.degree)), ZERO))
        return tuple(out)


def _rep_from_generators(group: _Group, gens: dict, name: str) -> MatrixRep:
    degree = len(next(iter(gens.values())))
    mats = {group.identity: eye(degree)}
    frontier = [group.identity]
    while frontier:
        nxt = []
        for g in frontier:
            for s, m in gens.items():
                h = group.mult(s, g)
                if h not in mats:
                    mats[h] = mat_mul(m, mats[g])
                    nxt.append(h)
        frontier = nxt
    if len(mats) != group.order:
        raise ValueError("generators do not generate the group")
    return MatrixRep(name, group, mats, degree)


def s3_reps():
    g = s3_group()
    one = ONE
    r = (1, 2, 0)
    s = (1, 0, 2)
    std = _rep_from_generators(
        g, {r: [[ZERO, -one], [one, -one]], s: [[ZERO, one], [one, ZERO]]}, "std")
    triv = MatrixRep("trivial", g, {e: [[one]] for e in g.elements}, 1)
    sgn_vals = {}
    for e in g.elements:
        fixed = sum(1 for i in range(3) if e[i] == i)
        sgn_vals[e] = [[one if fixed in (3, 0) else -one]]
    sgn = MatrixRep("sign", g, sgn_vals, 1)
    return {"trivial": triv, "sign": sgn, "std": std}


def q8_reps():
    g = q8_group()
    i = root_of_unity(4, 1)
    base = {
        "e": [[ONE, ZERO], [ZERO, ONE]],
        "i": [[i, ZERO], [ZERO, -i]],
        "j": [[ZERO, -ONE], [ONE, ZERO]],
        "k": [[ZERO, -i], [-i, ZERO]],
    }
    mats = {}
    for (s, u) in g.elements:
        mats[(s, u)] = [[s * x for x in row] for row in base[u]]
    dim2 = MatrixRep("dim2", g, mats, 2)
    out = {"dim2": dim2}
    table = q8_table()
    for name in table.characters:
        if name == "dim2":
            continue
        chi = table.characters[name]
        vals = {e: [[chi[table.class_of(e)]]] for e in g.elements}
        out[name] = MatrixRep(name, g, vals, 1)
    return out


def _kron(a, b):
    if not a or not b:
        return []
    ra, ca = len(a), len(a[0])
    rb, cb = len(b), len(b[0])
    out = [[ZERO] * (ca * cb) for _ in range(ra * rb)]
    for i in range(ra):
        for j in range(ca):
            x = a[i][j]
            if not x:
                continue
            for k in range(rb):
                for l in range(cb):
                    if b[k][l]:
                        out[i * rb + k][j * cb + l] = x * b[k][l]
    return out


def brute_force_indicator(rep: MatrixRep, n: int, r: int) -> Cyc:
    """Trace of (cyclic rotation)^r on the invariant subspace of V^(x)n.

    Builds the exact averaging projector and the rotation permutation on
    the n-fold tensor power; no category machinery is involved.
    """
    if rep.degree > 3 or n > 5:
        raise SizeGuardError("brute force capped at degree 3, n <= 5")
    d = rep.degree
    dim = d ** n
    proj = [[ZERO] * dim for _ in range(dim)]
    for g in rep.group.elements:
        m = [[ONE]]
        for _ in range(n):
            m = _kron(m, rep.matrices[g])
        for i in range(dim):
            row = m[i]
            pi = proj[i]
            for j in range(dim):
                if row[j]:
                    pi[j] = pi[j] + row[j]
    scale = Fraction(1, rep.group.order)
    proj = [[x * scale for x in row] for row in proj]

    def rotate(t):  # e_{i1,...,in} -> e_{i2,...,in,i1}
        digits = []
        for _ in range(n):
            digits.append(t % d)
            t //= d
        digits.reverse()
        digits = digits[1:] + digits[:1]
        out = 0
        for x in digits:
            out = out * d + x
        return out

    acc = ZERO
    for t in range(dim):
        # Tr(C^r P): row index is the r-fold rotated image of the column index
        row = t
        for _ in range(r % n):
            row = rotate(row)
        acc = acc + proj[row][t]
    return acc


# -- structural matrices ----------------------------------------------------------


def pivotal_matrix(cat, word) -> LinMap:
    """Diagonal action of the pivotal isomorphism on a tensor word."""
    cat.require_pivotal()
    letters = tuple(word)
    coeff = math.prod(map(cat.t, letters), start=ONE)
    blocks = {}
    for r in cat.labels:
        n = len(paths(cat, letters, r))
        blocks[r] = [[coeff if i == j else ZERO for j in range(n)]
                     for i in range(n)]
    return LinMap(cat, letters, letters, blocks)


def ev_matrix(cat, a) -> LinMap:
    """Evaluation dual(a) (x) a -> empty word, on all roots."""
    letters = (cat.dual(a), a)
    blocks = {r: col_dense(whole_basis(contract_pair_matrix, cat, letters,
                                       r, 0))
              for r in cat.labels}
    return LinMap(cat, letters, (), blocks)


def coev_matrix(cat, a) -> LinMap:
    """Coevaluation: empty word -> a (x) dual(a), on all roots."""
    letters = (a, cat.dual(a))
    blocks = {r: col_dense(attach_pair_matrix(cat, (), r, 0, a))
              for r in cat.labels}
    return LinMap(cat, (), letters, blocks)


# -- the associator ------------------------------------------------------------


def right_nested(n: int):
    """Paren tree (0, (1, (2, ...))); a bare leaf for n = 1."""
    if n < 1:
        raise ValueError("parenthesization needs at least one letter")
    tree = n - 1
    for i in range(n - 2, -1, -1):
        tree = (i, tree)
    return tree


def left_nested(n: int):
    """Paren tree (((0, 1), 2), ...); a bare leaf for n = 1."""
    if n < 1:
        raise ValueError("parenthesization needs at least one letter")
    tree = 0
    for i in range(1, n):
        tree = (tree, i)
    return tree


def paren_leaves(paren):
    if isinstance(paren, int):
        return (paren,)
    return paren_leaves(paren[0]) + paren_leaves(paren[1])


def _trees(cat, letters, paren):
    """(labeled tree, root) pairs of a paren tree over ``letters``.

    A leaf is its letter and a node is ``(left, right, channel)``.
    """
    if isinstance(paren, int):
        return [(letters[paren], letters[paren])]
    return [((left, right, c), c)
            for left, cl in _trees(cat, letters, paren[0])
            for right, cr in _trees(cat, letters, paren[1])
            for c in cat.channels(cl, cr)]


def _inorder_key(cat, tree):
    if not isinstance(tree, tuple):
        return (cat.label_index(tree),)
    left, right, c = tree
    return (_inorder_key(cat, left) + (cat.label_index(c),)
            + _inorder_key(cat, right))


def _tree_paths(cat, tree):
    """(letters, {path: coeff}): a labeled tree in the fusion-path basis.

    The right subtree's paths are grafted into each path of the left
    subtree; the chains that end at the node's channel are kept.
    """
    if not isinstance(tree, tuple):
        return (tree,), {(cat.unit, tree): ONE}
    left, right, c = tree
    lx, lterms = _tree_paths(cat, left)
    rx, rterms = _tree_paths(cat, right)
    out = {}
    for p, a in lterms.items():
        for rho, b in rterms.items():
            for chain, coeff in _graft_coeffs(cat, p[-1], rx, rho):
                if chain[-1] == c:
                    q = p + chain[1:]
                    out[q] = out.get(q, ZERO) + a * b * coeff
    return lx + rx, out


def _tree_matrix(cat, letters, paren, root):
    """Columns: the labeled trees of ``paren`` at ``root`` in in-order label
    order; rows: the fusion paths of ``letters`` at ``root``."""
    trees = sorted((t for t, c in _trees(cat, letters, paren) if c == root),
                   key=lambda t: _inorder_key(cat, t))
    return col_dense(path_columns(
        cat, trees, letters, root,
        lambda tree: _tree_paths(cat, tree)[1].items()))


def assoc_matrix(cat, letters, paren_from, paren_to) -> LinMap:
    """The unique coherence composite between two parenthesizations.

    Expressed in the parenthesization-intrinsic labeled-tree bases (which
    coincide with the fusion-path bases on left-nested words).  Each tree
    basis is carried to the path basis by grafting (``_tree_matrix``), so
    the composite is T_to^-1 T_from at every root; Mac Lane coherence makes
    it the composite of F-moves along any route.
    """
    letters = tuple(letters)
    for paren in (paren_from, paren_to):
        if paren_leaves(paren) != tuple(range(len(letters))):
            raise ValueError("parenthesization does not match the letters")
    blocks = {r: mat_mul(mat_inv(_tree_matrix(cat, letters, paren_to, r)),
                         _tree_matrix(cat, letters, paren_from, r))
              for r in cat.labels}
    return LinMap(cat, letters, letters, blocks)


# -- spec files -----------------------------------------------------------------


def bundled_path(name: str):
    if name not in BUNDLED:
        raise KeyError(f"no bundled spec named {name!r}")
    return resources.files("fscat").joinpath(f"specs/{name}.json")


def fraction_decode(data) -> Cyc:
    """``Cyc.decode`` by the ``Fraction`` route: every coordinate string is
    parsed by ``Fraction`` and the vector built by the validating ``Cyc``
    constructor.  The reference for the library's integer reading of the
    ``p`` and ``p/q`` strings; the checks and messages are the library's."""
    if not isinstance(data, dict) or set(data) != {"N", "c"}:
        raise ValueError(f"bad cyclotomic encoding: {data!r}")
    n, strings = data["N"], data["c"]
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ValueError(f"bad conductor in encoding: {n!r}")
    if not isinstance(strings, list):
        raise ValueError(f"encoding field 'c' must be a list: {strings!r}")
    if n > 2 * len(strings) ** 2:
        raise ValueError(f"encoding field 'N' = {n} is too large for "
                         f"{len(strings)} coordinates")
    coeffs = []
    for s in strings:
        if not isinstance(s, str):
            raise ValueError(f"rational entries must be strings, got {s!r}")
        try:
            coeffs.append(Fraction(s))
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"bad rational string {s!r}") from exc
    return Cyc(n, coeffs)
