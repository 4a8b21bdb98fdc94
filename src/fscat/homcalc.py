"""Fusion-path bases for Hom(1, word), the maps between them, pivotal traces.

Basis convention
----------------
The canonical basis of ``Hom(1, x_1 (x) ... (x) x_n)`` is the set of
left-to-right fusion paths ``(p_0, p_1, ..., p_n)`` anchored at the unit
(``p_0 = unit``, ``N(p_{i-1}, x_i, p_i) = 1``), ordered lexicographically
with the category's label order as alphabet.  This basis is intrinsic to
the left-nested parenthesization and is transported to every other
parenthesization along the unique coherence isomorphism, so maps between
canonical hom-spaces never need explicit bracket bookkeeping, and a word
is a plain tuple of letters.

A ``LinMap`` carries one matrix per root label r, the block on
``Hom(r, word)``.  Its pivotal trace (``pivotal_trace``) is the sum of the
blocks' ordinary traces weighted by the pivotal dimensions of the roots
(``pivotal_dimension``), which is all the library reads of a trace.

A local move sends each source path to weighted target paths, and each
move builder lays it out in the keyed form of ``linalg`` over the source
paths ``keys`` it is given (``_keyed_columns``): each column is named by
its source path and each entry by its target path, so no basis of either
word is listed.  A builder's words and root name its two hom spaces; it
reads only the letters its move needs.  The Frobenius-Schur build moves
its vectors this way, by their nonzero coordinates, with ``mat_vec`` and
``vec_mat``.  The bends alone are laid out on the target path basis, in
the column form (``_path_columns``), because their products go to
``mat_mul``; the ``LinMap`` blocks, the walk's rotations
(``indicators.e_map_matrix``) and every operand of ``mat_mul`` are dense
rows, converted from the column form once by
``linalg.dense``.  Removals are single-vertex moves (fuse, evaluation); a
unit letter needs no move of its own, since by the unit axiom its paths
are those of the word without it, in the same order.  Every insertion is
a graft, which re-associates a unit-rooted guest subword into the running
path by a chain of elementary inverse F-moves (``_graft_coeffs``).
``insert_vector_matrix`` grafts a fixed guest vector into each host path
and ``splice_host_matrix`` each guest path into a fixed host vector; the
fixed vector is passed as its nonzero ``(path, coeff)`` terms, so one
guest path, a coevaluation pair's (1, b, 1) say, is one term.  A
k-strand bend is one graft too (``_bend_columns``): the word is spliced
once into the nested coevaluation of its first k letters, and the loop
closures that follow keep only the paths that retrace their stages around
each closed pair, so the first k stages of each graft chain are pinned to
the host path's and only those chains are generated.  ``_bend_entries``
pins the rest of each chain to one target path as well, so it makes single
entries of a bend (its diagonal, say) and nothing else.  Degenerate words
(hom dimension 0) yield 0x0 blocks that compose legally.

Every memo here is declared by ``category.memoised`` on its builder and
kept in ``cat.cached`` under the builder's arguments, which are labels,
positions and tuples of them; every result is shared, so callers must not
mutate it.  The path bases (``paths``) and their row indices
(``_path_index``) depend on the fusion rules alone, so they are kept on
the fusion ring (``category.RING_KINDS``): the categories on one ring, such
as its pivotal structures and gauges, build each basis once.  The guard is
checked on each build, so a basis kept on a ring is not counted again.

Per category are kept the nested coevaluation terms (``db_prime_vector``),
the bend hosts ``_bend_tops`` and the bends by columns ``_bend_columns``,
and four stages of the Frobenius-Schur endomorphisms: the right
coevaluation blocks (``indicators._right_block``), the torn-down middle
that every l of an (n, r) shares (``indicators._torn_down``), the closing
rows of the words below the top one (``indicators._closing_row``), and
the closing functional, read through each chunk graft, that every r of an
(n, l) shares (``indicators._closing_functional``), which keeps no graft
matrix.  A bend host depends only on the bent letters, so every bend of a
word with the same head shares it.  No move builder is memoised: its keys
are the paths of one vector, so no memo holds a path of a (2n - 1)-letter
word of that build, and the insertions' keys would hold ``Cyc``
coefficients too, whose hashing reduces an irrational ``Cyc`` by solving
a linear system.  Each Frobenius-Schur insertion is reached through a
memo of its stage: the coevaluation pairs once per right block, the
nested coevaluations once per (n, r), through the shared middle, and
each chunk graft once per torn word, chunk and l, through
``indicators._closing_functional``.

Below the builders, the unpinned graft chains are shared per category
(``_graft_chains``, memo kind ``"graft"``): the chains of one stage label,
guest word and guest path are made once and read by both insertion
builders.  Different builds graft the same guest path into the
same stage, so in a sweep of the Frobenius-Schur endomorphisms nine graft
calls in ten or more read a chain the category already made.  The pinned
chains of the bends (``_bend_terms``, ``_bend_entries``) are not kept:
nearly every one is distinct, so a memo would only cost.
"""

from __future__ import annotations

import math
import os

from .category import Category, memoised
from .cyclo import Cyc
from .linalg import _coeff, eye, mat_trace

ONE = Cyc.one()
ZERO = Cyc.zero()

DIM_GUARD_ENV = "FSCAT_NMAX_GUARD"


class DimensionGuardError(RuntimeError):
    """Hom-space dimension exceeded the runaway-growth guard."""


def dimension_guard() -> int:
    """The largest hom dimension allowed: FSCAT_NMAX_GUARD, default 4096;
    a ValueError names the variable unless it is a positive integer."""
    text = os.environ.get(DIM_GUARD_ENV, "4096")
    if not text.strip().isdecimal() or int(text) < 1:
        raise ValueError(
            f"{DIM_GUARD_ENV} must be a positive integer, got {text!r}")
    return int(text)


def check_dimension_guard(dim: int) -> None:
    """Raise DimensionGuardError for a hom dimension above the guard."""
    _refuse_above(dim, dimension_guard())


def check_word_guard(cat: Category, letters, root) -> None:
    """Raise DimensionGuardError when Hom(root, letters) is above the guard.

    The guard is read once.  A path branches at most fanout[x] ways at a
    letter x, so a word whose product of fanouts is within the guard needs
    no count; otherwise the dimension is counted from integer fusion counts
    (``path_counts``), before any path list is built.
    """
    guard = dimension_guard()
    if math.prod(map(cat.ring.fanout.__getitem__, letters)) > guard:
        _refuse_above(path_counts(cat, ({x: 1} for x in letters)).get(root, 0),
                      guard)


def _refuse_above(dim, guard):
    if dim > guard:
        raise DimensionGuardError(
            f"hom dimension {dim} exceeds {DIM_GUARD_ENV}={guard}")


# -- path bases ------------------------------------------------------------


def path_counts(cat: Category, steps) -> dict:
    """{c: number of fusion paths from the unit to c}, by integer propagation.

    Each step is a dict {letter: multiplicity}, the object tensored on at
    that position; no path is listed.
    """
    counts = {cat.unit: 1}
    for step in steps:
        nxt = {}
        for a, k in counts.items():
            for x, m in step.items():
                for c in cat.channels(a, x):
                    nxt[c] = nxt.get(c, 0) + k * m
        counts = nxt
    return counts


@memoised("paths", ring=True)
def paths(cat: Category, letters, root) -> tuple:
    """All admissible fusion paths through ``letters`` from unit to root.

    The dimension guard is checked on the counted dimension before any path
    is listed, so the path list of a refused hom space is never built.
    Each path is extended by the channels of its last stage in label order
    (``FusionRing.channels``), so the paths come out in label order.
    """
    check_word_guard(cat, letters, root)
    partial = [(cat.unit,)]
    for x in letters:
        partial = [p + (c,) for p in partial for c in cat.channels(p[-1], x)]
    return tuple(p for p in partial if p[-1] == root)


def dual_word(cat: Category, letters) -> tuple:
    return tuple(cat.dual(x) for x in reversed(letters))


# -- LinMap ------------------------------------------------------------------


class LinMap:
    """Exact matrices between canonical hom-space bases, one per root.

    A map that comes from a genuine morphism ``W -> W'`` has a block on
    ``Hom(r, W)`` for every simple root r; a set-level map between hom
    spaces (a rotation of the indicator machinery, ``indicators.e_map``)
    has only its unit-root block.
    """

    def __init__(self, cat, source, target, blocks):
        self.cat = cat
        self.source = tuple(source)
        self.target = tuple(target)
        self.blocks = blocks

    def block(self, root):
        try:
            return self.blocks[root]
        except KeyError:
            raise KeyError(
                f"no block at root {root!r}; this LinMap is a hom-space map, "
                "not a morphism") from None

    def render(self) -> str:
        lines = [f"LinMap {self.source} -> {self.target}"]
        for r, blk in self.blocks.items():
            lines.append(f"  root {r}: {len(blk)} x {len(blk[0]) if blk else 0}")
            for row in blk:
                lines.append("    [" + ", ".join(repr(x) for x in row) + "]")
        return "\n".join(lines)

    @staticmethod
    def identity(cat, letters) -> "LinMap":
        letters = tuple(letters)
        blocks = {r: eye(len(paths(cat, letters, r))) for r in cat.labels}
        return LinMap(cat, letters, letters, blocks)


# -- the grafting kernel -----------------------------------------------------


def _graft_coeffs(cat: Category, lam, letters, path, pin=(), coeff=ONE):
    """Re-associate a subword, fused along ``path``, into a running stage.

    Given a stage label ``lam`` and a fusion path ``path`` through
    ``letters`` (starting at the unit), yield ``(sigma, coeff)`` pairs where
    ``sigma = (sigma_0 = lam, ..., sigma_m)`` is the stage chain the grafted
    letters contribute to the ambient path and ``coeff`` is the product of
    inverse-F factors of the elementary moves.  ``sigma_m`` fuses
    ``lam (x) path[-1]``; for a unit-rooted graft it is forced back to lam.
    ``pin[j]`` fixes sigma_j for 0 < j < len(pin), so only the chains that
    follow it are made; later stages are free.  ``coeff`` seeds every chain.
    The unpinned, unseeded chains are kept per category by ``_graft_chains``;
    the pinned chains of the bends are made afresh on every call.
    """
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


@memoised("pidx", ring=True)
def _path_index(cat, letters, root):
    return {p: i for i, p in enumerate(paths(cat, letters, root))}


def _path_columns(cat, keys, tgt, root, moves):
    """Column form (``linalg``) of a map into the Hom(root, tgt) path basis,
    one column per key of ``keys``: the layout of the bends.

    The keys are the source paths of the bend, or any other source basis.
    ``moves(key)`` yields ``(q, coeff)`` pairs;
    column ``key`` accumulates ``coeff`` at row ``q``.  Zero coefficients,
    sums that cancel and target paths that are not admissible are dropped.
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


def _keyed_columns(keys, moves):
    """Keyed form (``linalg``) of a local move on the source paths ``keys``,
    the layout of every move builder:
    column ``key`` accumulates each ``(q, coeff)`` of ``moves(key)`` under
    the target path q.  Zero coefficients and sums that cancel are dropped.
    No target basis is read: a move lands only on admissible paths, since
    an F entry of an inadmissible tuple is zero."""
    out = {}
    for key in keys:
        col = {}
        for q, val in moves(key):
            if val:
                col[q] = col[q] + val if q in col else val
        out[key] = tuple(filter(_coeff, col.items()))
    return out


@memoised("graft")
def _graft_chains(cat, lam, guest_letters, rho):
    """The unseeded ``_graft_coeffs`` chains, as (sigma[1:], coeff) pairs,
    kept per category: they hold inverse F entries, so not on the ring."""
    return tuple((chain[1:], g) for chain, g
                 in _graft_coeffs(cat, lam, guest_letters, rho))


def _graft_moves(cat, i, guest_letters, terms):
    """Moves of a unit-rooted guest grafted at position i of a host path.

    ``terms`` lists ``(host path, guest path, weight)``; each chain of
    ``_graft_chains`` lands on the joined path, scaled by the weight.
    Exact products are associative, so the values are those of the chains
    seeded by the weight.
    """
    for p, rho, c in terms:
        head, tail = p[:i + 1], p[i + 1:]
        for mid, g in _graft_chains(cat, p[i], guest_letters, rho):
            yield head + mid + tail, c * g


def insert_vector_matrix(cat, host_letters, root, i, guest_letters, guest, *,
                         keys):
    """Matrix of v -> (id (x) u (x) id) o v on Hom(root, -), over the host
    paths ``keys``.

    ``u`` is a fixed unit-rooted vector through ``guest_letters``, inserted
    at letter position ``i`` and passed as its nonzero ``(path, coeff)``
    terms: a guest path rho is ``((rho, ONE),)``, a coevaluation pair
    (b, b*) its one path ``(((1, b, 1), ONE),)``.
    """
    return _keyed_columns(keys, lambda p: _graft_moves(
        cat, i, guest_letters, [(p, rho, c) for rho, c in guest]))


def splice_host_matrix(cat, host_letters, host, i, guest_letters, *, keys):
    """Matrix of v -> (id (x) v (x) id) o u, with the host vector u fixed
    and passed as its nonzero ``(path, coeff)`` terms, over the guest paths
    ``keys``.

    Both the host and the variable guest are unit-rooted; this is the shape
    of the coevaluation "wrap" that bends strands over the top.
    """
    return _keyed_columns(keys, lambda rho: _graft_moves(
        cat, i, guest_letters, [(p, rho, c) for p, c in host]))


# -- elementary vertex steps -------------------------------------------------


def fuse_step_matrix(cat, letters, root, i, w, *, keys):
    """Fuse adjacent letters (x_i, x_{i+1}) into the channel w, over the
    source paths ``keys``."""
    u, v = letters[i], letters[i + 1]
    return _keyed_columns(keys, lambda p: [
        (p[:i + 1] + p[i + 2:],
         cat.f_entry(p[i], u, v, p[i + 2], p[i + 1], w))])


def split_step_matrix(cat, letters, root, i, u, v, *, keys):
    """Split the letter x_i into the admissible pair (u, v), over the source
    paths ``keys``.  The library inserts by grafts; this inverse of the
    fuse step is a test reference."""
    x = letters[i]
    if not cat.n(u, v, x):
        raise ValueError(f"({u},{v}) is not an admissible splitting of {x}")
    return _keyed_columns(keys, lambda p: [
        (p[:i + 1] + (s,) + p[i + 1:],
         cat.f_inv_entry(p[i], u, v, p[i + 1], x, s))
        for s in cat.channels(p[i], u)])


def _contract_moves(cat, letters, i):
    """The move of the evaluation on the dual pair at (i, i + 1): a path p
    with p[i + 2] = p[i] goes to p[:i + 1] + p[i + 3:].

    The pair must be (c*, c) up to which side carries the star; the scalar
    is the zig-zag normalization of the evaluation whose shape matches,
    i.e. mu of the second letter.
    """
    u, v = letters[i], letters[i + 1]
    if cat.dual(u) != v:
        raise ValueError(f"letters ({u},{v}) are not a dual pair")
    mu = cat.ev_coefficient(v)
    return lambda p: [(p[:i + 1] + p[i + 3:],
                       mu * cat.f_entry(p[i], u, v, p[i], p[i + 1], cat.unit))
                      ] if p[i + 2] == p[i] else ()


def contract_pair_matrix(cat, letters, root, i, *, keys):
    """Evaluation on the adjacent dual pair at positions (i, i+1)
    (``_contract_moves``), over the source paths ``keys``."""
    return _keyed_columns(keys, _contract_moves(cat, letters, i))


# -- coevaluation vectors ----------------------------------------------------


def _nested_coevaluation(cat, pairs):
    """(word, terms) of the nested coevaluations of ``pairs``, the terms the
    nonzero ``(path, coeff)`` pairs of the unit-rooted vector.  Each pair is
    spliced, outermost first, into the middle of the running vector as the
    fixed host (grafting is associative): the splice is keyed by the pair's
    one path (1, x, 1), and its one column is the next terms, so no path
    basis of the word is listed.  The word is still counted against the
    guard first (``check_word_guard``): each running word is the last with
    some dual pairs taken out, and the product of a dual pair contains the
    unit, so no running word has a larger hom space than the last."""
    check_word_guard(cat, tuple(x for x, _ in pairs)
                     + tuple(y for _, y in reversed(pairs)), cat.unit)
    cur, terms = (), (((cat.unit,), ONE),)
    for pair in pairs:
        mid = len(cur) // 2
        (terms,) = splice_host_matrix(cat, cur, terms, mid, pair,
                                      keys=((cat.unit, pair[0], cat.unit),)
                                      ).values()
        cur = cur[:mid] + pair + cur[mid:]
    return cur, terms


@memoised()
def db_prime_vector(cat, letters):
    """Right-dual coevaluation of ``letters``: (dual word + letters, the
    nonzero ``(path, coeff)`` terms of its unit-rooted vector), read-only.
    The tests check it against splicing the pairs innermost first."""
    return _nested_coevaluation(cat, [(cat.dual(y), y)
                                      for y in reversed(letters)])


# -- the bend ----------------------------------------------------------------


@memoised()
def _bend_columns(cat, letters, k):
    """E(w, k), the k-strand bend of the word w = x_1 ... x_n, in column
    form on the unit-root path bases; kept per word and k for the bend
    route of the indicators, so read-only.

    The bend splices w into the host pairs (x_j*, x_j), j = 1..k, closes the
    pairs (x_i*, x_i) innermost first and scales by 1 / (t(x_1) ... t(x_k)).
    Grafting is associative, so the k splices are one splice of w at
    position k into the nested coevaluation (H, h) = ``db_prime_vector`` of
    x_1 ... x_k, H = (x_k*, ..., x_1*, x_1, ..., x_k).  A combined path P
    survives the closures only if P[k+i] = P[k-i] for i = 1..k, so for a
    host path p the graft of w is one ``_graft_coeffs`` call whose first k
    stages are pinned to p[k-1], ..., p[0] (the unit).  What survives is the
    graft chain from stage k on, followed by p[k+1:], a path of
    w[k:] + w[:k].  Closure i < k contributes
    mu(x_i) [F^{a, x_i*, x_i}_a]_{b, 1} with a = p[k-i], b = p[k-i+1], as
    in ``contract_pair_matrix``, which also gives the outer closure on
    Hom(1, x_k* x_k).  The closures and the pivotal scale read only
    p[:k+1], so they make one weight per such top (``_bend_tops``), which
    seeds its graft chains; h[p] scales each chain as it lands
    (``_bend_terms``).  No word longer than max(n, 2k) letters is built.
    """
    if not paths(cat, letters, cat.unit):
        return 0, ()  # the rotation of a zero space; its host is never built
    tops = _bend_tops(cat, letters[:k])
    return _path_columns(cat, paths(cat, letters, cat.unit),
                         letters[k:] + letters[:k], cat.unit,
                         lambda rho: _bend_terms(cat, letters, k, tops, rho))


@memoised()
def _bend_tops(cat, head):
    """The nested coevaluation host of a bend of ``head``, by top.

    Returns ((top, weight, tails), ...), one per distinct p[:k+1] over the
    terms (p, h[p]) of ``db_prime_vector(cat, head)`` (k = len(head)):
    ``weight`` is the product of the loop closures and the pivotal scale,
    which read only the top, and ``tails`` lists (p[k+1:], h[p]).  Tops of
    weight zero are left out.  Every bend of a word starting with ``head``
    shares this result, so it is read-only.
    """
    k = len(head)
    unit = cat.unit
    pair = cat.dual(head[-1]), head[-1]
    (closure,) = contract_pair_matrix(cat, pair, unit, 0,
                                      keys=((unit, pair[0], unit),)).values()
    outer = (sum((x for _, x in closure), ZERO)
             * math.prod(map(cat.t, head), start=ONE).inverse())
    tops = {}
    for p, c in db_prime_vector(cat, head)[1]:
        tops.setdefault(p[:k + 1], []).append((p[k + 1:], c))
    weighted = []
    for top, tails in tops.items():
        w = outer
        for i, x in enumerate(head[:-1], start=1):
            a = top[k - i]
            w = w * cat.ev_coefficient(x) * cat.f_entry(
                a, cat.dual(x), x, a, top[k - i + 1], unit)
        if w:
            weighted.append((top, w, tuple(tails)))
    return tuple(weighted)


def _bend_terms(cat, letters, k, tops, rho, pin=()):
    """(target path, coefficient) terms of E(w, k) on the source path rho.

    ``tops`` is ``_bend_tops`` of w[:k] or a part of it.  Each top seeds one
    graft of w along rho whose first k stages are pinned to the top,
    reversed.  With ``pin``, a path of the rotated word, the later stages
    follow pin's too, so only terms landing on pin are made when every tail
    in ``tops`` is pin's.
    """
    for top, weight, tails in tops:
        for chain, g in _graft_coeffs(cat, top[k], letters, rho,
                                      top[k::-1] + pin[1:], weight):
            for q, c in tails:
                yield chain[k:] + q, g * c


def _bend_entries(cat, letters, k, pairs):
    """Sum of wt * E(w, k)[q, rho] over the (rho, q, wt) triples in pairs.

    rho is a path of w and q one of its rotation.  Each entry is made by
    the terms of ``_bend_columns`` that land on q alone: the host tails are
    kept only where they equal q's last k stages, and the graft chain is
    pinned to q's first n - k + 1 stages, so no other entry is generated.
    The diagonal of a bend with rot_k w = w is the pairs (p, p, 1).
    """
    letters = tuple(letters)
    pairs = list(pairs)
    if not pairs:
        return ZERO  # a zero space; its host is never built
    m = len(letters) - k
    by_tail = {}
    for top, w, tails in _bend_tops(cat, letters[:k]):
        for q, c in tails:
            by_tail.setdefault(q, []).append((top, w, ((q, c),)))
    total = ZERO
    for rho, q, wt in pairs:
        for _, g in _bend_terms(cat, letters, k, by_tail.get(q[m + 1:], ()),
                                rho, q):
            total = total + wt * g
    return total


# -- double duals and pivotal traces ----------------------------------------


def double_dual_inverse(cat, a, b, c) -> Cyc:
    """1 / delta, delta the skeletal double-dual tensorator scalar on the
    (a, b; c) channel, from three F-symbols.

    delta is the inverse of the raw double dual of the channel vertex, the
    orientation that makes pivotal monoidality t(a) t(b) delta = t(c)
    transform consistently with the rotation maps under gauge changes; for
    dual-pair-symmetric data the two orientations agree.  With x* the dual
    of x and 1 the unit, the product is
    [F^{a,b,c*}_1]_{c,a*} [F^{b,c*,a}_1]_{a*,b*} [F^{c*,a,b}_1]_{b*,c}.
    Each factor is the only entry of a 1x1 block, so it is nonzero whenever
    every F-block is invertible.  The form holds on pentagon solutions
    only; the tests check it against the route through the
    evaluation/coevaluation machinery (double dualization of the channel
    vertex).
    """
    unit, ad, bd, cd = cat.unit, cat.dual(a), cat.dual(b), cat.dual(c)
    return (cat.f_entry(a, b, cd, unit, c, ad)
            * cat.f_entry(b, cd, a, unit, ad, bd)
            * cat.f_entry(cd, a, b, unit, bd, c))


@memoised("ddinv")
def double_dual_inverses(cat) -> dict:
    """{(a, b, c): ``double_dual_inverse(cat, a, b, c)``} over the admissible
    triples in label order, memoised per category: the monoidality item of
    ``validate`` and ``pivotal.enumerate_pivotal_structures`` read the same
    values.  The dict is shared, so read-only."""
    return {key: double_dual_inverse(cat, *key)
            for key in cat.ring.admissible_triples()}


def pivotal_dimension(cat, a, side: str) -> Cyc:
    """The left or right pivotal dimension of the simple a, the pivotal
    trace of its identity: d_l(a) = ev(a) / t(a), d_r(a) = t(a) ev(a*),
    with ev the evaluation scalar fixed by the zig-zags."""
    t = cat.require_pivotal().t[a]
    if side == "left":
        return cat.ev_coefficient(a) / t
    if side == "right":
        return t * cat.ev_coefficient(cat.dual(a))
    raise ValueError("side must be 'left' or 'right'")


def pivotal_trace(cat, m: LinMap, side: str) -> Cyc:
    """Full left or right pivotal trace of a morphism-backed endomorphism.

    The category is semisimple, so the trace of m on W is the sum over the
    simples r of the ordinary trace of its block on Hom(r, W) times the
    pivotal dimension of r (``pivotal_dimension``).  The tests check it
    against closing the strands one by one with the evaluation and
    coevaluation maps.
    """
    if m.source != m.target:
        raise ValueError("a pivotal trace needs an endomorphism")
    if set(m.blocks) != set(cat.labels):
        raise ValueError("a pivotal trace needs a morphism-backed LinMap "
                         "(blocks at every root)")
    return sum((mat_trace(m.blocks[r]) * pivotal_dimension(cat, r, side)
                for r in cat.labels), ZERO)
