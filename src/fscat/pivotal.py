"""Pivotal-structure enumeration and dimension-theoretic diagnostics.

A pivotal structure on skeletal data is one nonzero scalar per simple,
constrained multiplicatively by t(unit) = 1, t(dual a) = t(a)^-1, and the
monoidality condition t(a) t(b) delta(a,b,c) = t(c) on every fusion
channel, where delta is the double-dual tensorator scalar.  delta is read
in closed form from three F-symbols (``homcalc.double_dual_inverse``, kept
per category by ``homcalc.double_dual_inverses``, which ``validate`` fills),
which is exact on F-data that passes the pentagon, so enumeration expects
validated F-data.  The system is solved exactly: write the exponent lattice
of the relations, diagonalize over the integers, extract the required roots
(which are roots of unity for these systems), and enumerate the finite
character torsor on top of one particular solution.
"""

from __future__ import annotations

from .category import Category, PivotalData
from .cyclo import Cyc, root_of_unity
from .homcalc import double_dual_inverses, pivotal_dimension
from .snf import diagonalize

ONE = Cyc.one()


def _unit_root_order(c: Cyc):
    """Multiplicative order of c if it is a root of unity, else None."""
    n = c.reduced_key()[0]
    bound = n if n % 2 == 0 else 2 * n
    acc = ONE
    for m in range(1, bound + 1):
        acc = acc * c
        if acc == 1:
            return m
    return None


def _root_of_value(c: Cyc, d: int):
    """Some x with x^d = c, for c a root of unity; None when unsupported."""
    if d == 1:
        return c
    order = _unit_root_order(c)
    if order is None:
        return None
    for j in range(order):
        if c == root_of_unity(order, j):
            return root_of_unity(order * d, j)
    return None


def enumerate_pivotal_structures(category: Category):
    """All pivotal coefficient families on the category's ring and F-data.

    Returns a canonically sorted list of PivotalData, possibly empty; each
    returned family satisfies every defining relation exactly.  The F-data
    must already pass ``validate``: the relations use the closed-form
    double-dual scalar, which holds only on pentagon solutions.  The
    families are memoised per category; each call returns a fresh list.
    """
    return list(category.cached(
        ("pivotals",), lambda: tuple(_solve_pivotal_structures(category))))


def _solve_pivotal_structures(category: Category):
    """The sorted list of ``enumerate_pivotal_structures``, solved."""
    ring = category.ring
    unit = ring.unit
    unknowns = [a for a in ring.labels if a != unit]
    pos = {a: i for i, a in enumerate(unknowns)}

    rows = []
    rhs = []

    def add_relation(exps, value):
        rows.append(exps)
        rhs.append(value)

    for (a, b, c), delta_inv in double_dual_inverses(category).items():
        exps = [0] * len(unknowns)
        for x, s in ((a, 1), (b, 1), (c, -1)):
            if x != unit:
                exps[pos[x]] += s
        add_relation(exps, delta_inv)
    for a in unknowns:
        exps = [0] * len(unknowns)
        exps[pos[a]] += 1
        if ring.dual[a] != unit:
            exps[pos[ring.dual[a]]] += 1
        add_relation(exps, ONE)

    u, d, v = diagonalize(rows)
    nrows, ncols = len(rows), len(unknowns)

    def u_transform(i):
        acc = ONE
        for k, e in enumerate(u[i]):
            if e:
                acc = acc * rhs[k] ** e
        return acc

    rank = 0
    for i in range(min(nrows, ncols)):
        if d[i][i]:
            rank += 1
    if rank < ncols:
        raise ArithmeticError(
            "pivotal solution space is not finite; the exponent lattice of "
            "the relations does not have full column rank")
    for i in range(nrows):
        if i >= rank:
            if u_transform(i) != 1:
                return []

    particular = []
    orders = []
    for i in range(rank):
        di = d[i][i]
        ci = u_transform(i)
        zi = _root_of_value(ci, di)
        if zi is None:
            raise ArithmeticError(
                f"needed a degree-{di} root of a non-root-of-unity scalar; "
                "this enumeration supports root-of-unity systems only")
        particular.append(zi)
        orders.append(di)

    solutions = []
    combo = [0] * rank

    def emit():
        z = [particular[i] * root_of_unity(orders[i], combo[i])
             for i in range(rank)]
        t = {unit: ONE}
        for a in unknowns:
            acc = ONE
            for i in range(rank):
                e = v[pos[a]][i]
                if e:
                    acc = acc * z[i] ** e
            t[a] = acc
        for exps, value in zip(rows, rhs):
            acc = ONE
            for a in unknowns:
                e = exps[pos[a]]
                if e:
                    acc = acc * t[a] ** e
            if acc != value:
                return
        solutions.append(PivotalData(t))

    def rec(i):
        if i == rank:
            emit()
            return
        for j in range(orders[i]):
            combo[i] = j
            rec(i + 1)

    rec(0)

    def sort_key(piv):
        return tuple(_encode_key(piv.t[a]) for a in ring.labels)

    solutions.sort(key=sort_key)
    return solutions


def _encode_key(value: Cyc):
    enc = value.encode()
    return (enc["N"], tuple(enc["c"]))


def canonical_flags(category: Category, solutions):
    """True where a solution realizes catr(j) = FPdim on every simple."""
    from .category import fp_dimension

    flags = []
    for piv in solutions:
        cat = category.with_pivotal(piv)
        ok = True
        for a in cat.labels:
            tr = pivotal_dimension(cat, a, "right")
            if abs(tr.embed() - fp_dimension(cat, a)) >= 1e-9:
                ok = False
                break
        flags.append(ok)
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
    from .category import fp_dimension

    dim = global_dimension(category).embed()
    fp = sum(fp_dimension(category, a) ** 2 for a in category.labels)
    gap = abs(dim - fp)
    return gap < 1e-9, gap
