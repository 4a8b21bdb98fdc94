"""Fusion-path bases for Hom(1, word) and exact structural-morphism matrices.

Basis convention
----------------
The canonical basis of ``Hom(1, x_1 (x) ... (x) x_n)`` is the set of
left-to-right fusion paths ``(p_0, p_1, ..., p_n)`` anchored at the unit
(``p_0 = unit``, ``N(p_{i-1}, x_i, p_i) = 1``), ordered lexicographically
with the category's label order as alphabet.  This basis is intrinsic to
the left-nested parenthesization and is transported to every other
parenthesization along the unique coherence isomorphism, so maps between
canonical hom-spaces never need explicit bracket bookkeeping.  The
associator is grafted too: ``assoc_matrix`` carries each labeled-tree basis
to the path basis through ``_graft_coeffs``, the one re-association
primitive.

Morphisms versus hom-space maps
-------------------------------
A ``LinMap`` carries one matrix per "root" label r, the block on
``Hom(r, word)``.  Maps that come from genuine morphisms ``W -> W'`` have
blocks for every simple root; set-level maps between hom-spaces (the
rotation maps of the indicator machinery) exist only on the unit root.
Operations that extend or bend a map (``close_loop``, ``dual_morphism``)
require morphism-backed inputs.

Every path-basis matrix is laid out by one kernel, ``_path_columns``: a
local move sends each source path to weighted target paths, and the kernel
lays the weights out on the target path basis, one column of nonzero
``(row, coeff)`` pairs per source path (the column form of ``linalg``).
The same loop takes other source bases by their keys: the merged (s, p)
pairs of the left operator extension and the labeled trees of the
associator.  The move builders return the column form, because nearly all
of them are applied to one vector (``mat_vec``); the ``LinMap`` blocks, the
walk's rotations (``indicators.e_map_matrix``) and every operand of
``mat_mul`` are dense rows, converted once by ``linalg.dense``.  Removals
are single-vertex moves (fuse, drop a unit letter, evaluation).  Every
insertion is a graft, which re-associates a unit-rooted guest subword into
the running path by a chain of elementary inverse F-moves
(``_graft_coeffs``): ``graft_path_matrix`` grafts one guest path (a
coevaluation pair is its path (1, b, 1)), and ``insert_vector_matrix`` and
``splice_host_matrix`` graft with the guest or the host vector fixed.  A
k-strand bend is one graft too (``_bend_columns``): the word is spliced
once into the nested coevaluation of its first k letters, and the loop
closures that follow keep only the paths that retrace their stages around
each closed pair, so the first k stages of each graft chain are pinned to
the host path's and only those chains are generated.  ``_bend_entries``
pins the rest of each chain to one target path as well, so it makes single
entries of a bend (its diagonal, say) and nothing else.  Degenerate words
(hom dimension 0) yield 0x0 blocks that compose legally.

The path bases (``paths``) and their row indices (``_path_index``) depend
on the fusion rules alone, so ``cat.cached`` keeps them on the fusion ring
(``category.RING_KINDS``): the categories on one ring, such as its pivotal
structures and gauges, build each basis once.  The guard is checked on each
build, so a basis kept on a ring is not counted again.

The builders whose arguments are labels and positions (fuse and split
steps, dropped unit letters, evaluation pairs, guest-path grafts, the
coevaluation vectors, the bend hosts ``_bend_tops`` and the bends by
columns ``_bend_columns``) are memoised per category in ``cat.cached``,
and so are two stages of the Frobenius-Schur endomorphisms: the right
coevaluation blocks (``indicators._right_block``) and the torn-down middle
that every l of an (n, r) shares (``indicators._torn_down``).  In a sweep
of those endomorphisms about three calls in four repeat an earlier one,
and a bend host depends only on the bent letters, so every bend of a word
with the same head shares it.  The results are shared, so callers must not
mutate them.  ``insert_vector_matrix`` and ``splice_host_matrix`` are not
memoised: their key would hold a ``Cyc`` vector, and hashing an irrational
``Cyc`` reduces it, which solves a linear system.  The Frobenius-Schur
insertions are reached once per (n, r), through the shared middle.
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass

from .category import Category
from .cyclo import Cyc
from .linalg import dense, eye, is_identity, mat_inv, mat_mul, mat_vec, zeros

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


# -- parenthesizations ----------------------------------------------------


def right_nested(n: int):
    """Paren tree (0, (1, (2, ...))); a bare leaf for n = 1."""
    if n < 1:
        raise ValueError("parenthesization needs at least one letter")
    tree = n - 1
    for i in range(n - 2, -1, -1):
        tree = (i, tree)
    return tree


def paren_leaves(paren):
    if isinstance(paren, int):
        return (paren,)
    return paren_leaves(paren[0]) + paren_leaves(paren[1])


@dataclass(frozen=True)
class TensorWord:
    """A sequence of simple labels with a parenthesization descriptor."""

    letters: tuple
    paren: object

    @staticmethod
    def of(letters, paren=None) -> "TensorWord":
        letters = tuple(letters)
        if paren is None:
            paren = right_nested(len(letters)) if letters else ()
        if letters and paren_leaves(paren) != tuple(range(len(letters))):
            raise ValueError("parenthesization does not match the letters")
        return TensorWord(letters, paren)

    def __len__(self):
        return len(self.letters)


# -- path bases ------------------------------------------------------------


def _letters_of(word) -> tuple:
    if isinstance(word, TensorWord):
        return word.letters
    return tuple(word)


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


def paths(cat: Category, letters, root) -> tuple:
    """All admissible fusion paths through ``letters`` from unit to root.

    The dimension guard is checked on the counted dimension before any path
    is listed, so the path list of a refused hom space is never built.
    Each path is extended by the channels of its last stage in label order
    (``FusionRing.channels``), so the paths come out in label order.
    """
    letters = _letters_of(letters)

    def build():
        check_word_guard(cat, letters, root)
        partial = [(cat.unit,)]
        for x in letters:
            partial = [p + (c,) for p in partial for c in cat.channels(p[-1], x)]
        return tuple(p for p in partial if p[-1] == root)

    return cat.cached(("paths", letters, root), build)


def dual_word(cat: Category, letters) -> tuple:
    return tuple(cat.dual(x) for x in reversed(_letters_of(letters)))


# -- LinMap ------------------------------------------------------------------


class LinMap:
    """Exact matrices between canonical hom-space bases, one per root."""

    def __init__(self, cat, source, target, blocks):
        self.cat = cat
        self.source = source if isinstance(source, TensorWord) else TensorWord.of(source)
        self.target = target if isinstance(target, TensorWord) else TensorWord.of(target)
        self.blocks = blocks

    @property
    def matrix(self):
        return self.block(self.cat.unit)

    def block(self, root):
        try:
            return self.blocks[root]
        except KeyError:
            raise KeyError(
                f"no block at root {root!r}; this LinMap is a hom-space map, "
                "not a morphism") from None

    def roots(self):
        return tuple(self.blocks)

    def compose(self, other: "LinMap") -> "LinMap":
        """self after other."""
        if other.target.letters != self.source.letters:
            raise ValueError("composition word mismatch")
        roots = [r for r in self.blocks if r in other.blocks]
        blocks = {r: mat_mul(self.blocks[r], other.blocks[r]) for r in roots}
        return LinMap(self.cat, other.source, self.target, blocks)

    def scaled(self, c) -> "LinMap":
        c = Cyc._promote(c)
        return LinMap(self.cat, self.source, self.target,
                      {r: [[c * x for x in row] for row in blk]
                       for r, blk in self.blocks.items()})

    def is_identity(self) -> bool:
        if self.source.letters != self.target.letters:
            return False
        return all(is_identity(blk) for blk in self.blocks.values())

    def render(self) -> str:
        lines = [f"LinMap {self.source.letters} -> {self.target.letters}"]
        for r, blk in self.blocks.items():
            lines.append(f"  root {r}: {len(blk)} x {len(blk[0]) if blk else 0}")
            for row in blk:
                lines.append("    [" + ", ".join(repr(x) for x in row) + "]")
        return "\n".join(lines)

    @staticmethod
    def identity(cat, letters, roots=None) -> "LinMap":
        letters = _letters_of(letters)
        roots = cat.labels if roots is None else roots
        blocks = {r: eye(len(paths(cat, letters, r))) for r in roots}
        return LinMap(cat, TensorWord.of(letters), TensorWord.of(letters), blocks)


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


def _path_index(cat, letters, root):
    def build():
        return {p: i for i, p in enumerate(paths(cat, letters, root))}
    return cat.cached(("pidx", tuple(letters), root), build)


def _path_columns(cat, keys, tgt, root, moves):
    """Column form (``linalg``) of a map into the Hom(root, tgt) path basis,
    one column per key of ``keys``.

    The keys are the source paths of a local move, or any other source
    basis (the merged (s, p) pairs of ``_merge_basis_matrix``, the labeled
    trees of ``_tree_matrix``).  ``moves(key)`` yields ``(q, coeff)`` pairs;
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


def _graft_moves(cat, i, guest_letters, terms):
    """Moves of a unit-rooted guest grafted at position i of a host path.

    ``terms`` lists ``(host path, guest path, weight)``; each
    ``_graft_coeffs`` chain, seeded with its weight, lands on the joined path.
    """
    for p, rho, c in terms:
        for chain, coeff in _graft_coeffs(cat, p[i], guest_letters, rho,
                                          coeff=c):
            yield p[:i + 1] + chain[1:] + p[i + 1:], coeff


def insert_vector_matrix(cat, host_letters, root, i, guest_letters, guest_vec):
    """Matrix of v -> (id (x) u (x) id) o v on Hom(root, -) bases.

    ``u`` is the fixed unit-rooted vector ``guest_vec`` (coefficients over
    ``paths(guest_letters, unit)``), inserted at letter position ``i``.
    """
    host_letters = tuple(host_letters)
    guest_letters = tuple(guest_letters)
    comb = host_letters[:i] + guest_letters + host_letters[i:]
    guest = [(rho, c) for rho, c in
             zip(paths(cat, guest_letters, cat.unit), guest_vec) if c]
    return _path_columns(
        cat, paths(cat, host_letters, root), comb, root,
        lambda p: _graft_moves(cat, i, guest_letters,
                               [(p, rho, c) for rho, c in guest]))


def splice_host_matrix(cat, host_letters, host_vec, i, guest_letters):
    """Matrix of v -> (id (x) v (x) id) o u, with the host vector u fixed.

    Both the host and the variable guest are unit-rooted; this is the shape
    of the coevaluation "wrap" that bends strands over the top.
    """
    host_letters = tuple(host_letters)
    guest_letters = tuple(guest_letters)
    comb = host_letters[:i] + guest_letters + host_letters[i:]
    host = [(p, c) for p, c in
            zip(paths(cat, host_letters, cat.unit), host_vec) if c]
    return _path_columns(
        cat, paths(cat, guest_letters, cat.unit), comb, cat.unit,
        lambda rho: _graft_moves(cat, i, guest_letters,
                                 [(p, rho, c) for p, c in host]))


# -- elementary vertex steps -------------------------------------------------


def _memoised(build):
    """Memoise the label-keyed builder ``build(cat, letters, *args)``.

    The result is kept in ``cat.cached`` under the builder's name, its
    letters and its label and position arguments, and it is shared by every
    later call: callers must not mutate it.
    """
    kind = build.__name__

    @functools.wraps(build)
    def builder(cat, letters, *args):
        letters = tuple(letters)
        return cat.cached((kind, letters, *args),
                          lambda: build(cat, letters, *args))
    return builder


@_memoised
def fuse_step_matrix(cat, letters, root, i, w):
    """Fuse adjacent letters (x_i, x_{i+1}) into the channel w."""
    u, v = letters[i], letters[i + 1]
    return _path_columns(
        cat, paths(cat, letters, root),
        letters[:i] + (w,) + letters[i + 2:], root,
        lambda p: [(p[:i + 1] + p[i + 2:],
                    cat.f_entry(p[i], u, v, p[i + 2], p[i + 1], w))])


@_memoised
def split_step_matrix(cat, letters, root, i, u, v):
    """Split the letter x_i into the admissible pair (u, v).  The library
    inserts by grafts; this inverse of the fuse step is a test reference."""
    x = letters[i]
    if not cat.n(u, v, x):
        raise ValueError(f"({u},{v}) is not an admissible splitting of {x}")
    return _path_columns(
        cat, paths(cat, letters, root),
        letters[:i] + (u, v) + letters[i + 1:], root,
        lambda p: [(p[:i + 1] + (s,) + p[i + 1:],
                    cat.f_inv_entry(p[i], u, v, p[i + 1], x, s))
                   for s in cat.channels(p[i], u)])


@_memoised
def drop_unit_letter_matrix(cat, letters, root, i):
    """Remove the unit letter at position i; the path drops its stage p_i."""
    assert letters[i] == cat.unit
    return _path_columns(
        cat, paths(cat, letters, root), letters[:i] + letters[i + 1:], root,
        lambda p: [(p[:i + 1] + p[i + 2:], ONE)])


@_memoised
def contract_pair_matrix(cat, letters, root, i):
    """Evaluation on the adjacent dual pair at positions (i, i+1).

    The pair must be (c*, c) up to which side carries the star; the scalar
    is the zig-zag normalization of the evaluation whose shape matches,
    i.e. mu of the second letter.
    """
    u, v = letters[i], letters[i + 1]
    if cat.dual(u) != v:
        raise ValueError(f"letters ({u},{v}) are not a dual pair")
    mu = cat.ev_coefficient(v)
    return _path_columns(
        cat, paths(cat, letters, root), letters[:i] + letters[i + 2:], root,
        lambda p: [(p[:i + 1] + p[i + 3:],
                    mu * cat.f_entry(p[i], u, v, p[i], p[i + 1], cat.unit))]
        if p[i + 2] == p[i] else ())


@_memoised
def graft_path_matrix(cat, letters, root, i, guest_letters, rho):
    """Graft the unit-rooted guest path rho through ``guest_letters`` at
    position i: ``insert_vector_matrix`` with that basis vector as guest.
    It equals inserting a unit letter and splitting it along rho."""
    return _path_columns(
        cat, paths(cat, letters, root),
        letters[:i] + guest_letters + letters[i:], root,
        lambda p: _graft_moves(cat, i, guest_letters, [(p, rho, ONE)]))


def attach_pair_matrix(cat, letters, root, i, b):
    """Coevaluation insertion of the pair (b, dual b) at position i: the
    graft of the pair's one path (1, b, 1)."""
    return graft_path_matrix(cat, letters, root, i, (b, cat.dual(b)),
                             (cat.unit, b, cat.unit))


# -- coevaluation vectors ----------------------------------------------------


def _nested_coevaluation(cat, pairs):
    """(word, unit-rooted vector) of nested coevaluations of ``pairs``,
    spliced outermost first into the middle of the running vector as the
    fixed host (grafting is associative): each splice has one column."""
    cur = ()
    vec = [ONE]
    for pair in pairs:
        mid = len(cur) // 2
        vec = mat_vec(splice_host_matrix(cat, cur, vec, mid, pair), [ONE])
        cur = cur[:mid] + pair + cur[mid:]
    return cur, vec


@_memoised
def db_vector(cat, letters):
    """Coevaluation of a word: unit-rooted vector over letters + dual word."""
    return _nested_coevaluation(cat, [(y, cat.dual(y)) for y in letters])


@_memoised
def db_prime_vector(cat, letters):
    """Right-dual coevaluation: unit-rooted vector over dual word + letters.
    The tests check it against splicing the pairs innermost first."""
    return _nested_coevaluation(cat, [(cat.dual(y), y)
                                      for y in reversed(letters)])


# -- the bend ----------------------------------------------------------------


@_memoised
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


@_memoised
def _bend_tops(cat, head):
    """The nested coevaluation host of a bend of ``head``, by top.

    Returns ((top, weight, tails), ...), one per distinct p[:k+1] of a host
    path p of ``db_prime_vector(cat, head)`` with h[p] != 0 (k = len(head)):
    ``weight`` is the product of the loop closures and the pivotal scale,
    which read only the top, and ``tails`` lists (p[k+1:], h[p]).  Tops of
    weight zero are left out.  Every bend of a word starting with ``head``
    shares this result, so it is read-only.
    """
    k = len(head)
    unit = cat.unit
    host, hvec = db_prime_vector(cat, head)
    last = head[-1]
    outer = (mat_vec(contract_pair_matrix(cat, (cat.dual(last), last), unit, 0),
                     [ONE])[0]
             * math.prod(map(cat.t, head), start=ONE).inverse())
    tops = {}
    for p, c in zip(paths(cat, host, unit), hvec):
        if c:
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


# -- operator extension ------------------------------------------------------


def _right_extend_blocks(cat, src_letters, tgt_letters, blocks, b):
    """Blocks of (m (x) id_b) from blocks of m, for every root."""
    def moves(p):
        s = p[-2]
        col = _path_index(cat, src_letters, s)[p[:-1]]
        return [(q + (p[-1],), row[col])
                for q, row in zip(paths(cat, tgt_letters, s), blocks[s])]
    return {r: dense(_path_columns(cat, paths(cat, src_letters + (b,), r),
                                   tgt_letters + (b,), r, moves))
            for r in cat.labels}


def _merge_basis_matrix(cat, b, letters, root):
    """Change of basis identifying Hom(root, b (x) W) with channel-summed
    Hom(s, W) blocks; columns are (inner path) pairs, rows are paths of
    (b,) + letters.  Each inner path p is grafted after b."""
    letters = tuple(letters)
    cols = [(s, p) for s in cat.labels if cat.n(b, s, root)
            for p in paths(cat, letters, s)]
    return cols, dense(_path_columns(
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
    src = m.source.letters
    tgt = m.target.letters
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
    return LinMap(cat, TensorWord.of(src), TensorWord.of(tgt), blocks)


# -- duals and double duals -------------------------------------------------


def dual_morphism(cat, m: LinMap) -> LinMap:
    """The dual f -> f* between the dual words, via bend-all-strands closure."""
    w1 = m.source.letters
    w2 = m.target.letters
    dw1 = dual_word(cat, w1)
    dw2 = dual_word(cat, w2)
    db_letters, db_vec = db_vector(cat, w1)

    mid = extend(cat, m, left_letters=dw2, right_letters=dw1)
    blocks = {}
    for r in cat.labels:
        ins = insert_vector_matrix(cat, dw2, r, len(dw2), db_letters, db_vec)
        mat = mat_mul(mid.block(r), dense(ins))
        cur = dw2 + w2 + dw1
        k = len(w2)
        for j in range(k):
            pos = k - 1 - j
            step = contract_pair_matrix(cat, cur, r, pos)
            mat = mat_mul(dense(step), mat)
            cur = cur[:pos] + cur[pos + 2:]
        assert cur == dw1
        blocks[r] = mat
    return LinMap(cat, TensorWord.of(dw2), TensorWord.of(dw1), blocks)


def double_dual_inverse(cat, a, b, c) -> Cyc:
    """1 / ``double_dual_coefficient(cat, a, b, c)``, from three F-symbols.

    With x* the dual of x and 1 the unit, the product is
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


def double_dual_inverses(cat) -> dict:
    """{(a, b, c): ``double_dual_inverse(cat, a, b, c)``} over the admissible
    triples in label order, memoised per category: the monoidality item of
    ``validate`` and ``pivotal.enumerate_pivotal_structures`` read the same
    values.  The dict is shared, so read-only."""
    return cat.cached(("ddinv",), lambda: {
        key: double_dual_inverse(cat, *key)
        for key in cat.ring.admissible_triples()})


def double_dual_coefficient(cat, a, b, c) -> Cyc:
    """Scalar of the skeletal double-dual tensorator on the (a, b; c) channel.

    The inverse of the raw double dual of the channel vertex, which is the
    orientation that makes pivotal monoidality t(a) t(b) delta = t(c)
    transform consistently with the rotation maps under gauge changes; for
    dual-pair-symmetric data the two orientations agree.  Closed form in
    F-symbols (``double_dual_inverse``), valid on data that passes the
    pentagon.
    """
    return double_dual_inverse(cat, a, b, c).inverse()


def close_loop(cat, m: LinMap, side: str, count: int) -> LinMap:
    """Partial pivotal trace over the count left- or rightmost strands."""
    if m.source.letters != m.target.letters:
        raise ValueError("close_loop needs an endomorphism")
    n = len(m.source.letters)
    if not 1 <= count <= n:
        raise ValueError("strand count out of range")
    piv = cat.require_pivotal()
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    left = side == "left"
    out = m
    for _ in range(count):
        letters = out.source.letters
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
            con = contract_pair_matrix(cat, host, r, cut)
            blocks[r] = mat_mul(dense(con), mat_mul(ext.block(r), dense(att)))
        out = LinMap(cat, TensorWord.of(rest), TensorWord.of(rest),
                     blocks).scaled(scale)
    return out


def pivotal_trace(cat, m: LinMap, side: str) -> Cyc:
    """Full left or right pivotal trace of a morphism-backed endomorphism."""
    closed = close_loop(cat, m, side, len(m.source.letters))
    return closed.block(cat.unit)[0][0]


# -- the associator ----------------------------------------------------------


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
    return dense(_path_columns(cat, trees, letters, root,
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
    blocks = {r: mat_mul(mat_inv(_tree_matrix(cat, letters, paren_to, r)),
                         _tree_matrix(cat, letters, paren_from, r))
              for r in cat.labels}
    return LinMap(cat, TensorWord.of(letters, paren_from),
                  TensorWord.of(letters, paren_to), blocks)
