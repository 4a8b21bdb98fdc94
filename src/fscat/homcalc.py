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
word is listed.  A builder takes only the letters, position and fixed
vector its move reads, no root and no word it does not read.  The
Frobenius-Schur build moves its vectors this way, by their nonzero
coordinates, with ``mat_vec`` and ``vec_mat``, and the bends are keyed
the same way, over every source path, for ``linalg.col_mul`` to multiply.
The ``LinMap`` blocks, the walk's rotations (``indicators.e_map_matrix``)
and every operand of ``mat_mul`` are dense rows, converted from the keyed
form once by ``linalg.dense`` on a path index (``_path_index``).  Removals
are single-vertex moves (fuse, evaluation); a unit letter needs no move of
its own, since by the unit axiom its paths are those of the word without
it, in the same order.  Every insertion is a graft, which re-associates a
unit-rooted guest subword into the running path by a chain of elementary
inverse F-moves (``_graft_coeffs``).  ``insert_vector_matrix`` grafts a
fixed guest vector into each host path and ``splice_host_matrix`` each
guest path into a fixed host vector; the fixed vector is passed as its
nonzero ``(path, coeff)`` terms, so one guest path, a coevaluation pair's
(1, b, 1) say, is one term.  A k-strand bend is one graft too
(``_bend_columns``): the word is spliced once into the nested coevaluation
of its first k letters, and the loop closures that follow keep only the
paths that retrace their stages around each closed pair, so the first k
stages of each graft chain are pinned to the host path's and only those
chains are generated.  One kernel walks them, per source path
(``_bend_grafts``): the k pinned stages directly, to the first zero F^-1
factor, then the free chains from stage k, the unit; a factor that is the
``ONE`` singleton is not multiplied, and ``_bend_columns`` accumulates
each term under its target path, a path of the rotated word, as it goes.
``_bend_entries`` reads the same kernel with the free stages pinned to one
target path as well, so it makes single entries of a bend (its diagonal,
say) and nothing else.  Degenerate words (hom dimension 0) yield 0x0
blocks that compose legally.

Every memo here is declared by ``category.memoised`` on its builder and
kept in ``cat.cached`` under the builder's arguments, which are labels,
positions and tuples of them; every result is shared, so callers must not
mutate it.  The path bases (``paths``) and their row indices
(``_path_index``) depend on the fusion rules alone, so they are kept on
the fusion ring (``category.RING_KINDS``): the categories on one ring, such
as its pivotal structures and gauges, build each basis once.  The guard is
checked on each build, so a basis kept on a ring is not counted again.

Per category are kept the nested coevaluation terms (``db_prime_vector``,
each word's one splice onto the terms of the word without its first
letter, so a bend host of k letters costs one splice once the host of its
last k - 1 letters is made), the bend hosts ``_bend_tops`` and the bends
by columns ``_bend_columns``, and four stages of the Frobenius-Schur
endomorphisms: the right coevaluation blocks
(``indicators._right_block``), the torn-down middle that every l of an
(n, r) shares (``indicators._torn_down``), the closing rows of the words below
the top one (``indicators._closing_row``), and the closing functional,
read through each chunk graft, that every r of an (n, l) shares
(``indicators._closing_functional``), which keeps no graft matrix.  A bend
host depends only on the bent letters, so every bend of a word with the
same head shares it.  No move builder is memoised: its keys are the paths
of one vector, so no memo holds a path of a (2n - 1)-letter word of that
build, and the insertions' keys would hold ``Cyc`` coefficients too, whose
hashing reduces an irrational ``Cyc`` by solving a linear system.  Each
Frobenius-Schur insertion is reached through a memo of its stage: the
coevaluation pairs once per right block, the nested coevaluations once per
(n, r), through the shared middle, and each chunk graft once per torn
word, chunk and l, through ``indicators._closing_functional``.

Below the builders, the unpinned graft chains are shared per category
(``_graft_chains``, memo kind ``"graft"``): the chains of one stage label,
guest word and guest path are made once and read by both insertion
builders.  Different builds graft the same guest path into the
same stage, so in a sweep of the Frobenius-Schur endomorphisms nine graft
calls in ten or more read a chain the category already made.  The pinned
chains the bend kernel walks (``_bend_grafts``) are not kept: nearly every
one is distinct, so a memo would only cost.
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


def _graft_coeffs(cat: Category, lam, letters, path):
    """Re-associate a subword, fused along ``path``, into a running stage.

    Given a stage label ``lam`` and a fusion path ``path`` through
    ``letters`` (starting at the unit), return ``(sigma, coeff)`` pairs where
    ``sigma = (sigma_0 = lam, ..., sigma_m)`` is the stage chain the grafted
    letters contribute to the ambient path and ``coeff`` is the product of
    inverse-F factors of the elementary moves.  ``sigma_m`` fuses
    ``lam (x) path[-1]``; for a unit-rooted graft it is forced back to lam.
    The chains are kept per category by ``_graft_chains``; the bends walk
    their own pinned chains (``_bend_grafts``).
    """
    states = [((lam,), ONE)]
    for j, y in enumerate(letters, start=1):
        prev_rho, rho = path[j - 1], path[j]
        new = []
        for chain, coeff in states:
            s_prev = chain[-1]
            for s in cat.channels(s_prev, y):
                val = cat.f_inv_entry(lam, prev_rho, y, s, rho, s_prev)
                if val:
                    new.append((chain + (s,),
                                coeff if val is ONE else coeff * val))
        states = new
    return states


@memoised("pidx", ring=True)
def _path_index(cat, letters, root):
    return {p: i for i, p in enumerate(paths(cat, letters, root))}


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
    """The ``_graft_coeffs`` chains, as (sigma[1:], coeff) pairs, kept per
    category: they hold inverse F entries, so not on the ring."""
    return tuple((chain[1:], g) for chain, g
                 in _graft_coeffs(cat, lam, guest_letters, rho))


def _graft_moves(cat, i, guest_letters, terms):
    """Moves of a unit-rooted guest grafted at position i of a host path.

    ``terms`` lists ``(host path, guest path, weight)``; each chain of
    ``_graft_chains`` lands on the joined path, scaled by the weight.
    """
    for p, rho, c in terms:
        head, tail = p[:i + 1], p[i + 1:]
        for mid, g in _graft_chains(cat, p[i], guest_letters, rho):
            yield head + mid + tail, c * g


def insert_vector_matrix(cat, i, guest_letters, guest, *, keys):
    """Matrix of v -> (id (x) u (x) id) o v, over the host paths ``keys``.

    ``u`` is a fixed unit-rooted vector through ``guest_letters``, inserted
    at letter position ``i`` and passed as its nonzero ``(path, coeff)``
    terms: a guest path rho is ``((rho, ONE),)``, a coevaluation pair
    (b, b*) its one path ``(((1, b, 1), ONE),)``.
    """
    return _keyed_columns(keys, lambda p: _graft_moves(
        cat, i, guest_letters, [(p, rho, c) for rho, c in guest]))


def splice_host_matrix(cat, host, i, guest_letters, *, keys):
    """Matrix of v -> (id (x) v (x) id) o u, with the host vector u fixed
    and passed as its nonzero ``(path, coeff)`` terms, over the guest paths
    ``keys``.

    Both the host and the variable guest are unit-rooted; this is the shape
    of the coevaluation "wrap" that bends strands over the top.
    """
    return _keyed_columns(keys, lambda rho: _graft_moves(
        cat, i, guest_letters, [(p, rho, c) for p, c in host]))


# -- elementary vertex steps -------------------------------------------------


def fuse_step_matrix(cat, letters, i, w, *, keys):
    """Fuse adjacent letters (x_i, x_{i+1}) into the channel w, over the
    source paths ``keys``."""
    u, v = letters[i], letters[i + 1]
    return _keyed_columns(keys, lambda p: [
        (p[:i + 1] + p[i + 2:],
         cat.f_entry(p[i], u, v, p[i + 2], p[i + 1], w))])


def split_step_matrix(cat, letters, i, u, v, *, keys):
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


def contract_pair_matrix(cat, letters, i, *, keys):
    """Evaluation on the adjacent dual pair at positions (i, i+1), over the
    source paths ``keys``: a path p with p[i + 2] = p[i] goes to
    p[:i + 1] + p[i + 3:].

    The pair must be (c*, c) up to which side carries the star; the scalar
    is the zig-zag normalization of the evaluation whose shape matches,
    i.e. mu of the second letter.
    """
    u, v = letters[i], letters[i + 1]
    if cat.dual(u) != v:
        raise ValueError(f"letters ({u},{v}) are not a dual pair")
    mu = cat.ev_coefficient(v)
    return _keyed_columns(keys, lambda p: [
        (p[:i + 1] + p[i + 3:],
         mu * cat.f_entry(p[i], u, v, p[i], p[i + 1], cat.unit))
    ] if p[i + 2] == p[i] else ())


# -- coevaluation vectors ----------------------------------------------------


@memoised()
def db_prime_vector(cat, letters):
    """Right-dual coevaluation of ``letters``: (dual word + letters, the
    nonzero ``(path, coeff)`` terms of its unit-rooted vector), read-only.

    The nested coevaluations of the pairs (x*, x), the first letter's
    innermost: by associativity, the pair of ``letters[0]`` spliced into
    the middle of the memoised vector of ``letters[1:]``, keyed by the
    pair's one path (1, x*, 1), so no path basis is listed and a bend host
    costs one splice (the suffixes of the bend heads are the heads of the
    next rotations).  The word is counted against the guard first
    (``check_word_guard``); with a dual pair taken out, whose product
    contains the unit, no suffix has a larger hom space.  The tests check
    the vector against splicing the pairs innermost first.
    """
    unit = cat.unit
    if not letters:
        return (), (((unit,), ONE),)
    check_word_guard(cat, dual_word(cat, letters) + letters, unit)
    host, terms = db_prime_vector(cat, letters[1:])
    mid = len(host) // 2
    pair = cat.dual(letters[0]), letters[0]
    (terms,) = splice_host_matrix(cat, terms, mid, pair,
                                  keys=((unit, pair[0], unit),)).values()
    return host[:mid] + pair + host[mid:], terms


# -- the bend ----------------------------------------------------------------


@memoised()
def _bend_columns(cat, letters, k):
    """E(w, k), the k-strand bend of the word w = x_1 ... x_n, in the keyed
    form of ``linalg`` over every unit-rooted path of w, a column with no
    entries kept; kept per word and k for the bend route of the
    indicators, so read-only.

    The bend splices w into the host pairs (x_j*, x_j), j = 1..k, closes the
    pairs (x_i*, x_i) innermost first and scales by 1 / (t(x_1) ... t(x_k)).
    Grafting is associative, so the k splices are one splice of w at
    position k into the nested coevaluation (H, h) = ``db_prime_vector`` of
    x_1 ... x_k, H = (x_k*, ..., x_1*, x_1, ..., x_k).  A combined path P
    survives the closures only if P[k+i] = P[k-i] for i = 1..k, so for a
    host path p the graft of w has its first k stages pinned to p[k-1],
    ..., p[0] (the unit).  What survives is the graft chain from stage k
    on, followed by p[k+1:], a path of w[k:] + w[:k].  Closure i < k
    contributes mu(x_i) [F^{a, x_i*, x_i}_a]_{b, 1} with a = p[k-i],
    b = p[k-i+1], as in ``contract_pair_matrix``, which also gives the
    outer closure on Hom(1, x_k* x_k).  The closures and the pivotal scale
    read only p[:k+1], so they make one weight per such top
    (``_bend_tops``), which seeds its chains.  One loop per source path
    walks them (``_bend_grafts``), and each chain, followed by each tail
    p[k+1:] of its top and scaled by h[p], accumulates under that target
    path, a path of the rotated word; no row number is looked up.  No word
    longer than max(n, 2k) letters is built.
    """
    sources = paths(cat, letters, cat.unit)
    if not sources:
        return {}  # the rotation of a zero space; its host is never built
    tops = _bend_tops(cat, letters[:k])
    out = {}
    for rho in sources:
        col = {}
        for chain, g, tails in _bend_grafts(cat, letters, k, tops, rho):
            for q, h in tails:
                p = chain + q
                x = g if h is ONE else g * h
                col[p] = col[p] + x if p in col else x
        out[rho] = tuple(filter(_coeff, col.items()))
    return out


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
    (closure,) = contract_pair_matrix(cat, pair, 0,
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


def _bend_grafts(cat, letters, k, tops, rho, pin=None):
    """The graft chains of E(w, k) on the source path rho, the bend kernel.

    ``tops`` is ``_bend_tops`` of w[:k] or a part of it.  For each top,
    the graft of w along rho has its first k stages pinned to the top,
    reversed: they are walked directly, each F^-1 factor read once, and a
    top is left at its first zero factor.  The free stages follow from
    stage k, the unit, each through the channels of the one before, or,
    with ``pin`` a path of the rotated word, through pin's stage alone.
    Returns (chain, coeff, tails) per chain: chain is the graft chain from
    stage k on, a path of w[k:] from the unit to the top's last stage,
    coeff the top's weight times its F^-1 factors, and tails the top's.  A factor that is the ``ONE`` singleton
    is not multiplied.  Nothing is kept: nearly every chain is distinct.
    """
    f_inv, channels, unit = cat.f_inv_entry, cat.channels, cat.unit
    out = []
    for top, g, tails in tops:
        lam = top[k]
        for j in range(k):
            val = f_inv(lam, rho[j], letters[j], top[k - j - 1], rho[j + 1],
                        top[k - j])
            if not val:
                break
            if val is not ONE:
                g = g * val
        else:
            states = [((unit,), g)]
            for j in range(k, len(letters)):
                a, y, b = rho[j], letters[j], rho[j + 1]
                new = []
                for chain, x in states:
                    s_prev = chain[-1]
                    for s in (channels(s_prev, y) if pin is None
                              else (pin[j - k + 1],)):
                        val = f_inv(lam, a, y, s, b, s_prev)
                        if val:
                            new.append((chain + (s,),
                                        x if val is ONE else x * val))
                states = new
            out += [(chain, x, tails) for chain, x in states]
    return out


def _bend_entries(cat, letters, k, pairs):
    """Sum of wt * E(w, k)[q, rho] over the (rho, q, wt) triples in pairs.

    rho is a path of w and q one of its rotation.  Each entry is made by
    the bend kernel (``_bend_grafts``) with every stage pinned: the host
    tails are kept only where they equal q's last k stages, and the free
    stages follow q's first n - k + 1, so only the chain that lands on q is
    made.  The diagonal of a bend with rot_k w = w is the pairs (p, p, 1).
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
        for _, g, ((_, c),) in _bend_grafts(
                cat, letters, k, by_tail.get(q[m + 1:], ()), rho, q):
            total = total + wt * g * c
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
