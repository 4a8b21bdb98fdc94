"""Rotation operators, higher indicators, and Frobenius-Schur endomorphisms.

The rotation map on Hom(1, x_1 ... x_n) bends the leftmost strand over the
top: coevaluation wraps for the bent block, evaluations closing it on the
left, and the inverse pivotal scalar on the bent letters.  Indicators are
exact traces of its powers, taken once per rotation orbit of words
(``_orbits``) whose block is nonzero: a zero block has zero traces and
satisfies the power identity vacuously, so it is never walked or bent.
``_orbit_values`` is the one place that picks the route for an orbit.
Up to n = WALK_MAX_N (5) each orbit's single-strand powers are walked
once: the walk records every trace the indicators read and whether the
n-th power is the identity.  Above, by block monoidality, the r-th power
is a product of genuine bends of at most 2 strands (``_factors``): the
prefix P_m of m = (r - 1) // 2 bends E(rot_2i w, 2), built by columns and
kept per word for every r, then a last bend of r - 2m strands.  A trace is
read off without forming the power: the pinned diagonal of E(w, r) for
r <= 2, and for 2 < r < n the entries of the last bend at the nonzeros of
P_m.  Above the walk the power identity certifies one product per orbit:
E(rot_2m w, n - 2m) E(rot_2(m-1) w, 2) ... E(w, 2) = id, m = (n - 1) // 2,
formed over the nonzeros of the factors' columns, or on packed integers
where the product is dense (``linalg.col_mul``), and compared with the
identity exactly (``_bend_value``).  No bend builds a word longer than n
letters.  Block monoidality itself is checked at n <= 5.  The
Frobenius-Schur endomorphisms are built independently, from dual bases of
the composition pairing transported through the trivial component, so the
trace formula is a genuine cross-check between two routes and not a
definition.  Their build meets in the middle, at the torn word: the
forward half, the coevaluations inserted and the middle chunk torn down,
is shared by every l of an (n, r) (``_torn_down``); the backward half, the
chunk grafted back and the three loops closed, is one row functional per
torn word and chunk path, shared by every r of an (n, l)
(``_closing_functional``).  Both halves move their vectors by their
nonzero coordinates, keyed by path, so no basis of the words of 2n - 1
letters is listed, and only vectors over the torn word of n - 1 letters
are kept.  Those words are still counted against the guard on every
request.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

from .category import Category, ObjectExpr, memoised, reverse_category
from .cyclo import Cyc, galois_conjugate
# DimensionGuardError is re-exported: callers import it from here
from .homcalc import (DimensionGuardError, LinMap, _bend_columns,
                      _bend_entries, _path_index, check_dimension_guard,
                      check_word_guard, contract_pair_matrix, db_prime_vector,
                      dual_word, fuse_step_matrix, insert_vector_matrix,
                      path_counts, paths, pivotal_dimension)
from .linalg import (col_mul, dense, is_identity, is_identity_product,
                     mat_equal, mat_mul, mat_trace, mat_vec, vec_mat)
from .pivotal import is_pseudo_unitary

ONE = Cyc.one()
ZERO = Cyc.zero()


def _as_expr(cat, obj) -> ObjectExpr:
    if isinstance(obj, ObjectExpr):
        expr = obj
    elif isinstance(obj, str) and obj in cat.ring._index:
        expr = ObjectExpr.simple(obj)
    else:
        expr = ObjectExpr.parse(str(obj), cat.labels)
    for a in expr.support():
        if a not in cat.ring._index:
            raise ValueError(f"unknown label {a!r}")
    return expr


def _rot(word, k):
    return word[k:] + word[:k]


# -- the rotation map ---------------------------------------------------------


@memoised("emap")
def e_map_matrix(cat: Category, letters, k: int):
    """Unit-root matrix of the k-block rotation map; cached per word.

    With x_1 ... x_n the word, the bend is
    t(x_1)^-1 ... t(x_k)^-1 C_1 ... C_k S_k ... S_1: S_j splices the
    current word into the host pair (x_j*, x_j), and C_i closes the pair
    (x_i*, x_i), innermost first.  It is the dense form of the bend's
    column build (``homcalc._bend_columns``): the k splices are one splice
    into the nested coevaluation of x_1 ... x_k, and the closures pin its
    graft chains, so the matrix goes straight from the paths of the word to
    those of its rotation and no hom space longer than max(n, 2k) letters is
    built.  The bend is genuine: it is not a product of single-strand
    rotations.  Only the dense form is kept, under its own key: the walk
    multiplies it whole, and the memo of ``_bend_columns`` serves the bend
    route above the walk.
    """
    n = len(letters)
    if not 1 <= k < n:
        raise ValueError(f"split position must satisfy 1 <= k < {n}")
    cat.require_pivotal()
    return dense(_bend_columns.__wrapped__(cat, letters, k))


def e_map(cat: Category, word, k: int) -> LinMap:
    """Rotation of the first k letters to the end, as a hom-space map.

    This is a map of hom-spaces, not a morphism of the category, so the
    returned LinMap carries only the unit-root block.
    """
    letters = tuple(word)
    return LinMap(cat, letters, _rot(letters, k),
                  {cat.unit: e_map_matrix(cat, letters, k)})


@memoised("walk")
def _orbit_walk(cat, word):
    """Walk the single-letter rotation n times from `word`; cached per word.

    Returns ({r: trace of the r-step composite} for every r at which the
    walk is back at `word`, whether the n-step composite is the identity).
    Trace is invariant under cyclic shifts of the factors, so every word of
    an orbit has the same traces.  Used up to n = WALK_MAX_N, and as the
    reference of the bend route above it.
    """
    n = len(word)
    if n == 1:  # rotating one letter over the top is the identity
        return {1: len(paths(cat, word, cat.unit))}, True
    traces = {}
    m, cur = None, word
    for r in range(1, n + 1):
        e = e_map_matrix(cat, cur, 1)
        m = e if m is None else mat_mul(e, m)
        cur = _rot(cur, 1)
        if cur == word:
            traces[r] = mat_trace(m)
    return traces, is_identity(m)


# the largest n whose indicators and power identity walk the single-strand
# rotation; above it they are read off products of 2-strand bends.  Over the
# 65 cold power identities at n = 6 (every simple and two-term sum of the
# bundled specs, best of three), the product of three 2-strand bends took
# 0.135 s against the walk's 0.202 s; it was faster on 41, and at most
# 0.5 ms slower on the others, 22 of them one-dimensional blocks
WALK_MAX_N = 5


def _factors(r):
    """(offset, strands) of the bends whose product is the r-th rotation
    power: E(rot_2i w, 2) for i < m = (r - 1) // 2, then
    E(rot_2m w, r - 2m), whose 1 or 2 strands finish the turn."""
    m = (r - 1) // 2
    return tuple((2 * i, 2) for i in range(m)) + ((2 * m, r - 2 * m),)


@memoised()
def _prefix_product(cat, word, m):
    """P_m = F_m ... F_1 in column form, F_i = E(rot_2(i-1) word, 2), a map
    from the paths of word to those of rot_2m word; kept per word and m for
    every r of the orbit, so read-only."""
    f = _bend_columns(cat, _rot(word, 2 * m - 2), 2)
    return f if m == 1 else col_mul(f, _prefix_product(cat, word, m - 1))


@memoised("bendtr")
def _bend_value(cat, word, r):
    """tr E^r on the block of `word`, where rot_r(word) = word, read off
    genuine bends, or for r = n whether E^n = id there; cached per word.

    By block monoidality the r-step composite of single-strand rotations is
    L P_m, the product of the bends ``_factors(r)``: the prefix
    P_m = ``_prefix_product(word, m)`` of 2-strand bends, then the last
    factor L = E(rot_2m word, r - 2m).  For r <= 2, m = 0 and the trace is
    the pinned diagonal of E(word, r).  For 2 < r < n only the entries of L
    that meet the nonzeros of P_m are made; for r = n, L is built by columns
    too and L P_m (``linalg.col_mul``) is compared with the identity
    exactly (``linalg.is_identity_product``).  No bend has more than 2
    strands, so none builds a word longer than n letters.
    """
    j, k = _factors(r)[-1]
    m = j // 2
    ps = paths(cat, word, cat.unit)
    if not m:
        return _bend_entries(cat, word, r, [(p, p, ONE) for p in ps])
    last = _rot(word, j)
    prefix = _prefix_product(cat, word, m)
    if r == len(word):
        return is_identity_product(_bend_columns(cat, last, k), prefix)
    rows = paths(cat, last, cat.unit)
    return _bend_entries(cat, last, k, [
        (rows[i], q, x) for q, col in zip(ps, prefix[1]) for i, x in col])


@memoised("orbits", ring=True)
def _orbits(cat, support, n):
    """(least rotation, orbit length) of each rotation orbit of the words
    of n letters over ``support`` (in label order) whose block is nonzero,
    in label order: an orbit's first word is its least one.

    A zero block has every trace 0 and satisfies E^n = id vacuously, so it
    is dropped before anything is walked, bent or multiplied.  Dimension
    is constant along an orbit, dim Hom(1, xY) = dim Hom(1, Yx) being the
    multiplicity of x* in Y, so the least word decides it, from integer
    fusion counts: no path list of a zero block is built.  The orbits
    depend on the fusion rules alone, so they are kept on the ring; the
    result is shared, so read-only.
    """
    seen, out = set(), []
    for w in itertools.product(support, repeat=n):
        if w not in seen:
            orbit = {_rot(w, j) for j in range(n)}
            seen |= orbit
            if path_counts(cat, ({x: 1} for x in w)).get(cat.unit, 0):
                out.append((w, len(orbit)))
    return tuple(out)


def _orbit_values(cat, orbits, n, r):
    """Per (word, length) of `orbits`, lazily: tr E^r on the word's block
    (each length divides r < n), or for r = n whether E^n = id there.

    The orbits come from ``_orbits``, so every block is nonzero.  This is
    the one place the route is chosen: up to n = WALK_MAX_N the walk
    (``_orbit_walk``), above it products of 2-strand bends
    (``_bend_value``).  Before the first value, the host of every bend is
    counted against the guard, once per distinct head: the host of E(v, k)
    is the nested coevaluation of v[:k], of 2k <= 4 letters.  It is counted
    apart from Hom(1, V^n), as for a support not closed under duals the
    host is no word of V^n.
    """
    walk = n <= WALK_MAX_N
    if not walk:
        heads = dict.fromkeys(_rot(w, j)[:k] for w, _ in orbits
                              for j, k in _factors(r))
        for head in heads:
            check_word_guard(cat, dual_word(cat, head) + head, cat.unit)
    for w, _ in orbits:
        if walk:
            traces, ident = _orbit_walk(cat, w)
            yield ident if r == n else traces[r]
        else:
            yield _bend_value(cat, w, r)


@dataclass
class RotationOperator:
    """Block structure of the rotation endomorphism of Hom(1, V^(x)n)."""

    category: Category
    obj: ObjectExpr
    n: int
    support: tuple  # the simples of V, in label order
    total_dimension: int

    @property
    def words(self):
        """Every word of n letters over the support, in label order."""
        return tuple(itertools.product(self.support, repeat=self.n))


@memoised("rotop", ring=True)
def _rotation_dimension(cat, mults, n):
    """dim Hom(1, V^(x)n) = (N_V)^n[unit, unit] with N_V = sum_a m_a N_a,
    V given by its (simple, multiplicity) pairs; counted before any word or
    path list is built, and kept on the ring."""
    return path_counts(cat, [dict(mults)] * n).get(cat.unit, 0)


def rotation_operator(cat: Category, obj, n: int) -> RotationOperator:
    """The rotation operator of obj on Hom(1, V^(x)n).  Its dimension
    depends on the fusion rules alone and is kept on the ring per
    (multiplicities, n); the guard is checked on every call."""
    obj = _as_expr(cat, obj)
    if n < 1:
        raise ValueError("n must be positive")
    cat.require_pivotal()
    support = tuple(sorted(obj.support(), key=cat.label_index))
    total = _rotation_dimension(
        cat, tuple((x, obj.multiplicity(x)) for x in support), n)
    check_dimension_guard(total)  # refuses an entry kept under a higher guard
    return RotationOperator(cat, obj, n, support, total)


def _fixed_slot_count(obj: ObjectExpr, word, r: int) -> int:
    """Multiplicity-slot assignments fixed by rotation by r positions; the
    cycles of the rotation start at positions 0 .. gcd(n, r) - 1."""
    return math.prod(obj.multiplicity(x) for x in word[:math.gcd(len(word), r)])


def indicator(cat: Category, obj, n: int, r: int) -> Cyc:
    """The (n, r) Frobenius-Schur indicator: exact trace of the r-th power
    of the rotation operator; r is reduced modulo n.

    The words fixed by rot_r are the orbits whose length divides r, and
    every word of an orbit contributes its trace (``_orbit_values``) times
    its fixed slot count, which is the same on the whole orbit.  Orbits of
    zero blocks contribute 0 and are dropped by ``_orbits`` unvisited.
    """
    obj = _as_expr(cat, obj)
    op = rotation_operator(cat, obj, n)
    rr = r % n
    if rr == 0:
        return Cyc.rational(op.total_dimension)
    orbits = [(w, d) for w, d in _orbits(cat, op.support, n) if rr % d == 0]
    total = ZERO
    for (w, d), tr in zip(orbits, _orbit_values(cat, orbits, n, rr)):
        if tr:
            total = total + d * _fixed_slot_count(obj, w, rr) * tr
    return total


def check_power_identity(cat: Category, obj, n: int) -> bool:
    """Exact (E^(n))^n = id, plus the block-monoidality of rotations.

    The full operator is block-cyclic over words, so the identity is
    checked once per rotation orbit (conjugate chains are simultaneously
    the identity), by ``_orbit_values``.  Both hold vacuously on a zero
    block, so ``_orbits`` drops those orbits and none of their bends is
    built or multiplied.  Block monoidality checks that
    rotating k letters and then m equals rotating k+m in one genuine block
    bend; the bend builds hom spaces of up to max(n, 2k) letters, which
    grow like FPdim^max(n, 2k), so this part runs at word lengths up to 5.
    """
    obj = _as_expr(cat, obj)
    orbits = _orbits(cat, rotation_operator(cat, obj, n).support, n)
    for (w, _), ok in zip(orbits, _orbit_values(cat, orbits, n, n)):
        if not ok:
            return False
        if 2 <= n <= 5:
            for k in range(1, n):
                for m in range(1, n - k):
                    lhs = mat_mul(e_map_matrix(cat, _rot(w, k), m),
                                  e_map_matrix(cat, w, k))
                    if not mat_equal(lhs, e_map_matrix(cat, w, k + m)):
                        return False
    return True


# -- pivotal traces and sphericity --------------------------------------------


def is_spherical(cat: Category) -> bool:
    """Equality of left and right pivotal dimensions of the simples, which
    determines it on all endomorphisms in the semisimple skeletal setting."""
    return all(pivotal_dimension(cat, a, "left")
               == pivotal_dimension(cat, a, "right") for a in cat.labels)


# -- Frobenius-Schur endomorphisms ---------------------------------------------


@memoised()
def _right_block(cat: Category, support, c, r: int):
    """{word: {path: coeff}} on Hom(c, -) after the right block of r
    coevaluations, each vector by its nonzero coordinates; shared, so
    read-only.  By associativity, it is the state for r - 1 with one more
    pair inserted (``_pair_step``)."""
    if not r:
        return {(c,): {(cat.unit, c): ONE}}
    return _pair_step(cat, support, c, r, _right_block(cat, support, c, r - 1))


def _pair_step(cat, support, c, r, block):
    """The right-block state ``block`` of r - 1 pairs with each pair
    (y, y*) inserted at position r, as the graft of its one path (1, y, 1)
    over the paths each vector holds, and scaled by t(y).  Each word comes
    from one (word, y), so nothing is summed."""
    state = {}
    for word, vec in block.items():
        for y in support:
            pair = (y, cat.dual(y))
            got = mat_vec(insert_vector_matrix(
                cat, word, c, r, pair, (((cat.unit, y, cat.unit), ONE),),
                keys=vec), vec)
            if got:
                ty = cat.t(y)
                state[word[:r] + pair + word[r:]] = {p: ty * x
                                                     for p, x in got.items()}
    return state


def _fused_down(cat, word, c, m, chunk, state):
    """(pi, vector) for each path pi of the chunk word[m:m + n] along which
    its n letters fuse down to a nonzero vector on the unit letter at m.

    Fuse step j takes the letters at (m, m + 1) into pi[j + 2] on the paths
    the vector holds, so the vector after j steps depends on pi[:j + 2]
    alone.  The chunk paths come in label order, and each one reuses the
    steps of the longest prefix it shares with the one before.
    """
    n = len(chunk)
    stack, prev = [state], ()
    for pi in paths(cat, chunk, cat.unit):
        same = next((j for j, (x, y) in enumerate(zip(pi, prev)) if x != y),
                    len(prev))
        del stack[max(same - 1, 1):]
        while stack[-1] and len(stack) < n:
            j, vec = len(stack) - 1, stack[-1]
            cur = word[:m] + (pi[j + 1],) + word[m + j + 1:]
            stack.append(mat_vec(fuse_step_matrix(cat, cur, c, m, pi[j + 2],
                                                  keys=vec), vec))
        if stack[-1] and len(stack) == n:
            yield pi, stack[-1]
        prev = pi


@memoised()
def _torn_down(cat: Category, support, c, n: int, r: int):
    """The middle of FS^{(n,l,r)} on Hom(c, -), shared by every l of (n, r);
    read-only.

    For each word u of the m = n - 1 - r left and middle letters, the
    nested coevaluation ``db_prime_vector(u)`` is inserted in front of each
    word of the right block (``_right_block``), and the n letters from
    position m on, the middle loop's chunk, are fused down to the unit
    along each path pi of the chunk (``_fused_down``); every insertion and
    step is keyed by the paths its vector holds, so no basis of the
    (2n - 1)-letter word is listed.  The unit letter left at position m is
    not moved: by the unit axiom N(a, 1, b) = delta_ab, which ``validate``
    checks, every path through it has p[m + 1] = p[m], so dropping that
    stage is a bijection onto the paths of the torn word, and the vector is
    kept dense over that short basis (n - 1 letters).  At m = 0 the right
    block is the whole word, so its last pair is inserted here rather than
    kept.  Returns a tuple of (u, torn word, chunk, pi, vector), one per
    surviving tear-down.  No pivotal scalar of u is applied: it depends on
    l.
    """
    m = n - 1 - r
    if m or not r:
        right = _right_block(cat, support, c, r)
    else:
        right = _pair_step(cat, support, c, r,
                           _right_block(cat, support, c, r - 1))
    out = []
    for u in itertools.product(support, repeat=m):
        comb_letters, comb = db_prime_vector(cat, u)
        for word, vec in right.items():
            state = mat_vec(insert_vector_matrix(
                cat, word, c, 0, comb_letters, comb, keys=vec), vec)
            if not state:
                continue
            word = comb_letters + word
            chunk, torn = word[m:m + n], word[:m] + word[m + n:]
            tidx = _path_index(cat, torn, c)
            for pi, vec in _fused_down(cat, word, c, m, chunk, state):
                dense_vec = [ZERO] * len(tidx)
                for p, x in vec.items():
                    dense_vec[tidx[p[:m + 1] + p[m + 2:]]] = x
                out.append((u, torn, chunk, pi, dense_vec))
    return tuple(out)


def _closing_step(cat: Category, word, c, positions):
    """The row vector phi = e_0 C_last ... C_first on Hom(c, word), by its
    nonzero coordinates: C_i the contractions at ``positions`` in turn,
    each a position of the word the ones before leave, and e_0 the one path
    of the closed word.  None where a closure meets no dual pair, or where
    the closed word has no path to c.

    phi is the row of the word left by the first contraction
    (``_closing_row``), pulled back through that contraction
    (``linalg.vec_mat`` in keyed form).  The contraction takes p to
    p[:pos + 1] + p[pos + 3:] where p[pos + 2] = p[pos], so it is keyed by
    the paths it takes into the row's.
    """
    if not positions:
        closed = paths(cat, word, c)
        return {closed[0]: ONE} if closed else None
    pos = positions[0]
    if cat.dual(word[pos]) != word[pos + 1]:
        return None
    phi = _closing_row(cat, word[:pos] + word[pos + 2:], c, positions[1:])
    if phi is None:
        return None
    keys = [q[:pos + 1] + (s, q[pos]) + q[pos + 1:] for q in phi
            for s in cat.channels(q[pos], word[pos])]
    return vec_mat(phi, contract_pair_matrix(cat, word, c, pos, keys=keys))


# the rows below the top word, kept per category: the closings of one (n, l)
# on different torn words meet the same shorter words; the top word's row
# is made by ``_closing_functional`` and not kept
_closing_row = memoised("_closing_row")(_closing_step)


@memoised()
def _closing_functional(cat: Category, cur, c, l: int, chunk):
    """(c, {pi: psi}): the chunk grafted back at position l of the torn
    word ``cur`` and the three loop closures of FS^{(n,l,r)}, read as one
    row vector psi on Hom(c, cur) per path pi of the chunk; read-only.

    n = len(chunk), and the closing positions depend on n and l alone: the
    left loop (positions l-1 .. 0), then the middle and the right ones,
    which stand next to each other (positions n-l-1 .. 1).  So every r of
    an (n, l) reads the same functional.  The closures make one row phi on
    Hom(c, -) of the (2n - 1)-letter word (``_closing_step``), by its
    nonzero coordinates; it is read through the graft of each pi, the
    insertion of the one term (pi, 1) keyed by the paths of ``cur``:
    psi = phi G_pi, dense over that short basis.  Only the psi are kept.
    None where phi is: the closed word (c_out,) has a path to c only when
    c_out = c.
    """
    n = len(chunk)
    phi = _closing_step(cat, cur[:l] + chunk + cur[l:], c,
                        (*range(l - 1, -1, -1), *range(n - l - 1, 0, -1)))
    if phi is None:
        return None
    torn = paths(cat, cur, c)
    reads = {}
    for pi in paths(cat, chunk, cat.unit):
        psi = vec_mat(phi, insert_vector_matrix(cat, cur, c, l, chunk,
                                                ((pi, ONE),), keys=torn))
        reads[pi] = [psi.get(p, ZERO) for p in torn]
    return c, reads


def _fs_blocks(cat: Category, support, n: int, l: int, r: int):
    """Matrix of FS^{(n,l,r)} on Hom(c, V) blocks, V the sum of `support`.

    The build meets in the middle, at the torn word.  Forward: the left
    coevaluation block, with the middle one spliced into it, is one
    ``db_prime_vector``, inserted in front of the right block
    (``_right_block``), and the middle loop's n letters are fused down to
    the unit letter, which has the coordinates of the torn word.  None of
    that depends on l, only on m = n - 1 - r = l + (n - k), so it is built
    once per (n, r) and shared by every l (``_torn_down``).  Backward:
    grafting the chunk back at position l and closing the three loops is
    linear and depends on (n, l) alone, so it is one row functional per
    torn word and chunk path, those of one torn word and chunk built
    together and shared by every r (``_closing_functional``).  Every move
    of either half is keyed by the paths its vector holds, and only the
    nonzero coordinates are moved, so no basis of the inserted words of
    2n - 1 letters is listed; the torn vectors and the functionals are
    kept dense over the torn word's basis of n - 1 letters.  Each request
    only scales the dot product of the two halves by the inverse pivotal
    scalars of its left letters.  The inserted words are still counted
    against the guard on every request, before either half is read or
    built, so the guard refuses what it refused when their bases were
    listed.  Returns {(c_in, c_out): Cyc}; multiplicity-free direct sums
    only, so a repeated label is refused.
    """
    k = l + r + 1
    if not (l >= 0 and r >= 0 and k <= n):
        raise ValueError("need l, r >= 0 and l + r + 1 <= n")
    cat.require_pivotal()
    support = tuple(sorted(support, key=cat.label_index))
    for a, b in zip(support, support[1:]):
        if a == b:
            raise ValueError(f"repeated label {a!r}: FS blocks need a "
                             "multiplicity-free direct sum")
    nk = n - k
    for c in support:
        for s in itertools.product(support, repeat=n - 1):
            head, u = s[:l + nk], s[l + nk:]
            check_word_guard(cat, dual_word(cat, head) + head + (c,) + u
                             + dual_word(cat, u), c)
    # the left and right side loops of the diagram are left- and
    # right-closure shaped, so their coevaluations carry the inverse and
    # direct pivotal scalars of their letters (the middle loop is
    # chirality-matched and carries none)
    scales = {}
    out = {}
    for c in support:
        final = {}
        for u, cur, chunk, pi, vec in _torn_down(cat, support, c, n, r):
            closing = _closing_functional(cat, cur, c, l, chunk)
            if closing is None:
                continue
            c_out, reads = closing
            x = ZERO
            for p, y in zip(reads[pi], vec):
                if p and y:
                    x = x + p * y
            if x and nk < len(u):
                ua = u[nk:]
                if ua not in scales:
                    scales[ua] = math.prod((cat.t(y).inverse() for y in ua),
                                           start=ONE)
                x = scales[ua] * x
            final[c_out] = final[c_out] + x if c_out in final else x
        out.update(((c, c_out), val) for c_out, val in final.items() if val)
        out.setdefault((c, c), ZERO)
    return out


def fs_scalar(cat: Category, a, n: int, l: int, r: int) -> Cyc:
    """The scalar of FS^{(n,l,r)} on the simple a; refused before any build
    when its longest word is above the dimension guard."""
    if a not in cat.ring._index:
        raise ValueError(f"unknown label {a!r}")
    blocks = _fs_blocks(cat, (a,), n, l, r)
    for (ci, co), val in blocks.items():
        if ci != co and val:
            raise AssertionError("FS endomorphism left the simple object")
    return blocks[(a, a)]


# -- assembled theorem checks ---------------------------------------------------


@dataclass
class TheoremCheck:
    name: str
    ok: bool
    detail: str = ""
    skipped: bool = False


def _theorem(name, cases, holds, detail=None, skip=None):
    """`holds(*case)` on every case, in order; a failure's detail is
    `detail(*case)` of the last failing case.  With `skip`, nothing is
    tested and `skip` is the note."""
    if skip:
        return TheoremCheck(name, True, skip, skipped=True)
    failed = [case for case in cases if not holds(*case)]
    return TheoremCheck(name, not failed,
                        detail(*failed[-1]) if failed and detail else "")


def check_fs_theorems(cat: Category, n_max: int = 5):
    """The ``fscat check`` suite: the power identity, conjugation symmetry,
    the trace/endomorphism theorems, reversal symmetry and the range of
    nu_2, each an exact check over its cases, in that order.

    Spherical-only clauses are skipped with a note when the category is not
    spherical, and the nu_2 range when it is not pseudo-unitary.  Failures
    are report entries, never exceptions.  Each FS scalar is computed once
    per call.
    """
    cat.require_pivotal()
    labels = cat.labels
    ns = range(1, n_max + 1)
    by_n = list(itertools.product(labels, ns))
    # (a, n, k) with 1 <= k < n: the FS^(n,k) of the generalized formula
    splits = [(a, n, k) for a, n in by_n for k in range(1, n)]
    pairs = list(itertools.combinations(labels, 2))
    fs = functools.cache(lambda a, n, l, r: fs_scalar(cat, a, n, l, r))

    def nu(a, n, r=1):
        return indicator(cat, a, n, r)

    checks = [
        _theorem(f"power identity (E^n)^n = id, n <= {n_max}", by_n,
                 lambda a, n: check_power_identity(cat, a, n)),
        _theorem("conjugation symmetry nu(n,n-r) = conj nu(n,r)",
                 [(a, n, r) for a, n in by_n for r in range(n + 1)],
                 lambda a, n, r:
                     galois_conjugate(nu(a, n, r)) == nu(a, n, n - r)),
    ]
    not_spherical = None if is_spherical(cat) else "not spherical"
    ptr_l = {a: pivotal_dimension(cat, a, "left") for a in labels}
    ptr_r = {a: pivotal_dimension(cat, a, "right") for a in labels}
    checks += [
        _theorem("trace formula nu_n = ptr_l(FS^(n))", by_n,
                 lambda a, n: nu(a, n) == ptr_l[a] * fs(a, n, 0, 0),
                 lambda a, n: f"trace formula fails at ({a}, n={n})"),
        _theorem("generalized trace formula", splits,
                 lambda a, n, k: nu(a, n, k) == ptr_l[a] * fs(a, n, k - 1, 0),
                 lambda a, n, k:
                     f"nu_(n,k) = ptr_l(FS^(n,k)) fails at ({a},{n},{k})"),
        _theorem("trace shift ptr_l FS^(n,l,r) = ptr_r FS^(n,l+1,r-1)",
                 [(a, n, l, k - 1 - l) for a, n, k in splits
                  for l in range(k - 1)],
                 lambda a, n, l, r: ptr_l[a] * fs(a, n, l, r)
                     == ptr_r[a] * fs(a, n, l + 1, r - 1),
                 lambda a, n, l, r: f"trace shift fails at ({a},{n},{l},{r})"),
        _theorem("spherical: FS^(n,l,r) depends only on l+r+1",
                 [(a, n, k, l) for a, n, k in splits for l in range(k)],
                 lambda a, n, k, l:
                     fs(a, n, l, k - 1 - l) == fs(a, n, k - 1, 0),
                 lambda a, n, k, l: f"FS^(n,l,r) != FS^(n,k) at ({a},{n},{l})",
                 skip=not_spherical),
        _theorem("spherical: nu_n(V) = nu_n(dual V)", by_n,
                 lambda a, n: nu(a, n) == nu(cat.dual(a), n),
                 lambda a, n: f"nu_n({a}) != nu_n(dual)", skip=not_spherical),
        _theorem("additivity nu_n(V+W) = nu_n(V)+nu_n(W)",
                 [(a, b, n) for a, b in pairs
                  for n in range(1, min(n_max, 4) + 1)],
                 lambda a, b, n:
                     nu(ObjectExpr({a: 1, b: 1}), n) == nu(a, n) + nu(b, n),
                 lambda a, b, n: f"additivity fails at ({a}+{b}, n={n})"),
        # one case per block of FS^(n,k) on a + b, built pair by pair
        _theorem("naturality: FS block scalars on sums (gcd(n,k)=1)",
                 ((a, b, n, k, ci, co, val) for a, b in pairs
                  for n in range(2, min(n_max, 4) + 1) for k in range(1, n)
                  if math.gcd(n, k) == 1
                  for (ci, co), val in
                  _fs_blocks(cat, (a, b), n, k - 1, 0).items()),
                 lambda a, b, n, k, ci, co, val:
                     not val if ci != co else val == fs(ci, n, k - 1, 0),
                 lambda a, b, n, k, ci, co, val:
                     f"FS not block-diagonal at ({a}+{b},{n},{k})" if ci != co
                     else
                     f"FS block scalar differs at ({ci} in {a}+{b},{n},{k})"),
        # one case: check_reversal_symmetry decides the whole symmetry
        _theorem("reversal symmetry nu(n,k)(reverse) = nu(n,n-k)", [()],
                 lambda: check_reversal_symmetry(cat, n_max=min(n_max, 4))),
    ]
    pseudo_unitary, gap = is_pseudo_unitary(cat)
    checks.append(_theorem(
        "nu_2 takes values in {0, +1, -1}", [(a,) for a in labels],
        lambda a: nu(a, 2) in (ZERO, ONE, -ONE),
        skip=None if pseudo_unitary else f"not pseudo-unitary, gap {gap:.3g}"))
    return checks


def check_reversal_symmetry(cat: Category, n_max: int = 4) -> bool:
    """nu_{n,k} of the reversed category equals nu_{n,n-k} of the original."""
    rev = reverse_category(cat)
    for a in cat.labels:
        for n in range(1, n_max + 1):
            for kk in range(n + 1):
                if indicator(rev, a, n, kk) != indicator(cat, a, n, n - kk):
                    return False
    return True


# -- reporting -------------------------------------------------------------------


def qn_distance(value: Cyc, n: int) -> float:
    """Numeric distance from the Galois-average projection onto Q(zeta_n).

    The projection averages over the Galois maps fixing Q(zeta_n) inside
    the compositum; a zero distance certifies membership.
    """
    v = value.reduced()
    m = math.lcm(v.conductor, n)
    v = v.at_conductor(m)
    ks = [k for k in range(1, m + 1)
          if math.gcd(k, m) == 1 and k % n == 1 % n]
    acc = Cyc.zero()
    for k in ks:
        acc = acc + v.galois(k)
    proj = acc / len(ks)
    return abs((v - proj).embed())


@dataclass
class IndicatorReport:
    """Indicator table with exactness metadata and theorem flags."""

    category: str
    object_expr: str
    n_values: tuple
    r_values: tuple
    values: dict = field(default_factory=dict)   # (n, r) -> Cyc
    power_identity: dict = field(default_factory=dict)  # n -> bool
    conjugation: dict = field(default_factory=dict)     # (n, r) -> bool
    qn: dict = field(default_factory=dict)               # (n, r) -> float

    def cells(self):
        for (n, r) in sorted(self.values):
            yield n, r, self.values[(n, r)]


def indicator_report(cat: Category, obj, n_values, r_values=(1,)) -> IndicatorReport:
    obj = _as_expr(cat, obj)
    rep = IndicatorReport(cat.name, str(obj), tuple(n_values), tuple(r_values))
    for n in rep.n_values:
        if n < 1:
            raise ValueError("n must be >= 1")
        rep.power_identity[n] = check_power_identity(cat, obj, n)
        for r in rep.r_values:
            val = indicator(cat, obj, n, r)
            rep.values[(n, r)] = val
            rep.conjugation[(n, r)] = \
                galois_conjugate(val) == indicator(cat, obj, n, n - r)
            rep.qn[(n, r)] = qn_distance(val, n)
    return rep
