"""Pivotal-structure enumeration and dimension-theoretic diagnostics.

A pivotal structure on skeletal data is one nonzero scalar per simple,
constrained multiplicatively by t(unit) = 1, t(dual a) = t(a)^-1, and the
monoidality condition t(a) t(b) delta(a,b,c) = t(c) on every fusion
channel, where delta is the double-dual tensorator scalar.  delta is read
in closed form from three F-symbols (``homcalc.double_dual_inverse``, kept
per category by ``homcalc.double_dual_inverses``, which ``validate`` fills),
which is exact on F-data that passes the pentagon, so enumeration expects
validated F-data.  The system is solved exactly: write the exponent lattice
of the relations, diagonalize it over the integers, read each required
d-th root off the field's table of monomials +-z^j (``cyclo._root_exponent``;
the root of a scalar that is no root of unity is refused with
``ArithmeticError``, not searched for), enumerate the finite character
torsor on top of that particular solution, and keep each candidate that
satisfies every relation.
"""

from __future__ import annotations

import itertools

from .category import Category, PivotalData, fp_dimension, memoised
from .cyclo import Cyc, _root_exponent, root_of_unity
from .homcalc import double_dual_inverses, pivotal_dimension
from .snf import diagonalize

ONE = Cyc.one()


def _root_of_value(c: Cyc, d: int):
    """Some x with x^d = c: c when d = 1; for c = z_m^k, z_(m d)^k; else None."""
    if d == 1:
        return c
    root = _root_exponent(c)
    return None if root is None else root_of_unity(root[1] * d, root[0])


def enumerate_pivotal_structures(category: Category):
    """All pivotal coefficient families on the category's ring and F-data.

    Returns a canonically sorted list of PivotalData, possibly empty; each
    returned family satisfies every defining relation exactly.  The F-data
    must already pass ``validate``: the relations use the closed-form
    double-dual scalar, which holds only on pentagon solutions.  The
    families are memoised per category; each call returns a fresh list.
    """
    return list(_solve_pivotal_structures(category))


@memoised("pivotals")
def _solve_pivotal_structures(category: Category):
    """The sorted families of ``enumerate_pivotal_structures``, solved."""
    ring = category.ring
    unit, dual = ring.unit, ring.dual
    unknowns = [a for a in ring.labels if a != unit]
    pos = {a: i for i, a in enumerate(unknowns)}
    deltas = double_dual_inverses(category)
    # t(a) t(b) t(c)^-1 = delta^-1(a, b, c) per channel, t(a) t(a*) = 1
    relations = [(((a, 1), (b, 1), (c, -1)), value)
                 for (a, b, c), value in deltas.items()]
    relations += [(((a, 1), (dual[a], 1)), ONE) for a in unknowns]
    rows = []
    for terms, _ in relations:
        exps = [0] * len(unknowns)
        for x, s in terms:
            if x != unit:
                exps[pos[x]] += s
        rows.append(exps)

    u, d, v = diagonalize(rows)
    rank = sum(1 for i in range(min(len(rows), len(unknowns))) if d[i][i])
    if rank < len(unknowns):
        raise ArithmeticError(
            "pivotal solution space is not finite; the exponent lattice of "
            "the relations does not have full column rank")
    # the right-hand sides in the diagonal basis: z_i^(d_i) = c_i
    cs = []
    for row in u:
        acc = ONE
        for e, (_, value) in zip(row, relations):
            if e:
                acc = acc * value ** e
        cs.append(acc)
    if any(c != 1 for c in cs[rank:]):
        return ()

    roots = []
    for i in range(rank):
        di = d[i][i]
        zi = _root_of_value(cs[i], di)
        if zi is None:
            raise ArithmeticError(
                f"needed a degree-{di} root of a non-root-of-unity scalar; "
                "this enumeration supports root-of-unity systems only")
        roots.append([zi * root_of_unity(di, j) for j in range(di)])

    solutions = []
    for z in itertools.product(*roots):
        t = {unit: ONE}
        for a, exps in zip(unknowns, v):
            acc = ONE
            for e, root in zip(exps, z):
                if e:
                    acc = acc * root ** e
            t[a] = acc
        monoidal = all(t[a] * t[b] == t[c] * value
                       for (a, b, c), value in deltas.items())
        if monoidal and all(t[a] * t[dual[a]] == 1 for a in unknowns):
            solutions.append(PivotalData(t))
    return tuple(sorted(
        solutions,
        key=lambda piv: tuple(_encode_key(piv.t[a]) for a in ring.labels)))


def _encode_key(value: Cyc):
    enc = value.encode()
    return (enc["N"], tuple(enc["c"]))


def canonical_flags(category: Category, solutions):
    """True where a solution realizes catr(j) = FPdim on every simple."""
    fpdim = {a: fp_dimension(category, a) for a in category.labels}
    flags = []
    for piv in solutions:
        cat = category.with_pivotal(piv)
        flags.append(all(
            abs(pivotal_dimension(cat, a, "right").embed() - fpdim[a]) < 1e-9
            for a in cat.labels))
    return flags


def attach_pivotal(category: Category, choice="canonical") -> Category:
    """Attach an enumerated pivotal structure: 'canonical', 'first', or index."""
    sols = enumerate_pivotal_structures(category)
    if not sols:
        raise ValueError(f"category {category.name!r} admits no pivotal structure")
    if choice == "canonical":
        flags = canonical_flags(category, sols)
        if not any(flags):
            raise ValueError(
                f"category {category.name!r} has no canonical pivotal structure")
        piv = sols[flags.index(True)]
    elif choice == "first":
        piv = sols[0]
    else:
        k = int(choice)
        if not 0 <= k < len(sols):
            raise ValueError(f"pivotal index {k} is not in 0..{len(sols) - 1}")
        piv = sols[k]
    return category.with_pivotal(piv)


# -- dimension theory ---------------------------------------------------------


def normed_square(category: Category, a) -> Cyc:
    """|a|^2 = catr(j) catr(dual(j^-1)); independent of pivotal rescaling."""
    return pivotal_dimension(category, a, "left") * \
        pivotal_dimension(category, a, "right")


def global_dimension(category: Category) -> Cyc:
    total = Cyc.zero()
    for a in category.labels:
        total = total + normed_square(category, a)
    return total


def is_pseudo_unitary(category: Category):
    """(verdict, gap): |dim(C) - sum FPdim^2| < 1e-9 decides the verdict."""
    dim = global_dimension(category).embed()
    fp = sum(fp_dimension(category, a) ** 2 for a in category.labels)
    gap = abs(dim - fp)
    return gap < 1e-9, gap
