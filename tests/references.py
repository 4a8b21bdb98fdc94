"""Test-only references that route through the general morphism machinery.

The nested double-dual route is the reference for the closed-form
double-dual scalar (``homcalc.double_dual_coefficient``), the spliced bend
for the one-graft bend kernel (``indicators.e_map_matrix``), and the
innermost-first nested coevaluation for ``homcalc.db_prime_vector``, and
the per-l build of the Frobenius-Schur blocks for the shared middle of
``indicators._fs_blocks``, the label loops over every (a, b, c, d) for the
F-block layout ``FusionRing.blocks``, the walk over every admissible
F-block for the F-sanity items of ``category.validate``, and the gauge
transport by one division per F entry for ``category.gauge_transform``.
Each takes the long way on purpose: whole splice and contraction
matrices, the evaluation/coevaluation machinery applied twice, every
insertion and tear-down redone for each l, every channel list filtered
label by label, every F-block laid out, and every entry divided by its
own product of two gauge values.
"""

from __future__ import annotations

import itertools
import math

from fscat.category import (Category, CheckItem, FSymbolSet, PivotalData,
                            _gauge_value)
from fscat.cyclo import Cyc
from fscat.homcalc import (LinMap, TensorWord, contract_pair_matrix,
                           db_prime_vector, drop_unit_letter_matrix,
                           dual_morphism, fuse_step_matrix, graft_path_matrix,
                           insert_vector_matrix, paths, splice_host_matrix)
from fscat.indicators import _accumulate, _right_block
from fscat.linalg import dense, mat_mul, mat_vec, zeros

ONE = Cyc.one()
ZERO = Cyc.zero()


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
    return LinMap(cat, TensorWord.of((c,)), TensorWord.of((a, b)), blocks)


def nested_double_dual_coefficient(cat, a, b, c) -> Cyc:
    """``homcalc.double_dual_coefficient`` by double dualization of the
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
        splice = dense(splice_host_matrix(cat, host, [ONE], 1, cur))
        m = splice if m is None else mat_mul(splice, m)
        cur = host[:1] + cur + host[1:]
    for pos in range(k - 1, -1, -1):
        m = mat_mul(dense(contract_pair_matrix(cat, cur, cat.unit, pos)), m)
        cur = cur[:pos] + cur[pos + 2:]
    scale = math.prod(map(cat.t, letters[:k]), start=ONE).inverse()
    return [[scale * x for x in row] for row in m]


def spliced_db_prime_vector(cat, letters):
    """``homcalc.db_prime_vector`` innermost pair first: the running word
    is the guest of a whole ``splice_host_matrix`` into each new outer pair
    (y*, y)."""
    cur, vec = (), [ONE]
    for y in letters:
        host = (cat.dual(y), y)
        vec = mat_vec(splice_host_matrix(cat, host, [ONE], 1, cur), vec)
        cur = host[:1] + cur + host[1:]
    return cur, vec


# -- the Frobenius-Schur blocks, one l at a time ------------------------------


def _extract_insert(cat, word, root, src, length, dst, state_vec, out):
    """Transport the trivial component of the letters [src, src+length)
    to position dst (left of src), summing over dual bases into `out`."""
    chunk = word[src:src + length]
    for pi in paths(cat, chunk, cat.unit):
        # tear the chunk down along pi
        vec = state_vec
        cur = word
        for j in range(length - 1):
            mat = fuse_step_matrix(cat, cur, root, src, pi[j + 2])
            vec = mat_vec(mat, vec)
            cur = cur[:src] + (pi[j + 2],) + cur[src + 2:]
            if not any(vec):
                break
        else:
            vec = mat_vec(drop_unit_letter_matrix(cat, cur, root, src), vec)
            cur = cur[:src] + cur[src + 1:]
            # rebuild the same chunk along pi at the destination
            graft = graft_path_matrix(cat, cur, root, dst, chunk, pi)
            _accumulate(out, cur[:dst] + chunk + cur[dst:],
                        mat_vec(graft, vec))


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
                comb_letters, comb_vec = db_prime_vector(cat, ub + ua)
                comb_vec = [scale * x for x in comb_vec] if ua else comb_vec
                for word, vec in _right_block(cat, support, c, r).items():
                    mat = insert_vector_matrix(cat, word, c, 0, comb_letters,
                                               comb_vec)
                    _accumulate(state, comb_letters + word, mat_vec(mat, vec))
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
                v = mat_vec(contract_pair_matrix(cat, cur, c, pos), v)
                cur = cur[:pos] + cur[pos + 2:]
            else:
                assert len(cur) == 1
                _accumulate(final, cur, v)
        for word, vec in final.items():
            if vec[0] or word == (c,):
                out[(c, word[0])] = vec[0]
        out.setdefault((c, c), ZERO)
    return out


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
