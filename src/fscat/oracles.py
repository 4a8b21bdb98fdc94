"""Classical ground truth and constructors for the bundled families.

The character tables of D4 and Q8 and the character-theoretic indicator
``char_indicator`` know nothing about F-symbols; they give the classical
values the categorical machinery must reproduce, and the benchmark goldens
read them.  The constructors build pointed categories, Tambara-Yamagami
categories and the rank-2 pentagon solutions as exact category data (used
by ``fscat emit`` and the bundled-spec generator), and never assume the
pentagon: generated data is certified by the validator.  The other
classical oracles (cyclic and S3 tables, matrix representations and the
brute-force tensor-invariant indicator) are test references.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .category import Category, FSymbolSet, FusionRing, SpecError
from .cyclo import Cyc, root_of_unity

ONE = Cyc.one()
ZERO = Cyc.zero()


class CocycleError(ValueError):
    """The supplied 3-cochain is not a normalized 3-cocycle."""


# -- concrete finite groups -------------------------------------------------


class _Group:
    """A tiny explicit group: element set, multiplication, conjugacy data."""

    def __init__(self, name, elements, mult, identity):
        self.name = name
        self.elements = list(elements)
        self.mult = mult
        self.identity = identity
        self.order = len(self.elements)
        self._classes = None

    def conjugacy_classes(self):
        if self._classes is None:
            seen = set()
            classes = []
            for g in self.elements:
                if g in seen:
                    continue
                cls = {self.mult(self.mult(h, g), self.inverse(h))
                       for h in self.elements}
                seen |= cls
                classes.append(tuple(sorted(cls, key=self.elements.index)))
            self._classes = classes
        return self._classes

    def inverse(self, g):
        for h in self.elements:
            if self.mult(g, h) == self.identity:
                return h
        raise ValueError("not a group")

    def element_order(self, g):
        out, k = g, 1
        while out != self.identity:
            out = self.mult(out, g)
            k += 1
        return k


def d4_group() -> _Group:
    elems = [(r, s) for s in (0, 1) for r in range(4)]

    def mult(x, y):
        r1, s1 = x
        r2, s2 = y
        return ((r1 + (r2 if s1 == 0 else -r2)) % 4, (s1 + s2) % 2)

    return _Group("D4", elems, mult, (0, 0))


def q8_group() -> _Group:
    units = ["e", "i", "j", "k"]
    elems = [(s, u) for u in units for s in (1, -1)]
    table = {
        ("e", "e"): (1, "e"), ("e", "i"): (1, "i"), ("e", "j"): (1, "j"), ("e", "k"): (1, "k"),
        ("i", "e"): (1, "i"), ("i", "i"): (-1, "e"), ("i", "j"): (1, "k"), ("i", "k"): (-1, "j"),
        ("j", "e"): (1, "j"), ("j", "i"): (-1, "k"), ("j", "j"): (-1, "e"), ("j", "k"): (1, "i"),
        ("k", "e"): (1, "k"), ("k", "i"): (1, "j"), ("k", "j"): (-1, "i"), ("k", "k"): (-1, "e"),
    }

    def mult(x, y):
        s, u = table[(x[1], y[1])]
        return (s * x[0] * y[0], u)

    return _Group("Q8", elems, mult, (1, "e"))


# -- character tables --------------------------------------------------------


@dataclass
class CharacterTable:
    """Exact character table with the power maps the indicators need."""

    group: _Group
    class_reps: tuple
    class_sizes: tuple
    characters: dict  # name -> tuple of Cyc per class

    @property
    def order(self) -> int:
        return self.group.order

    def class_of(self, g) -> int:
        for i, cls in enumerate(self.group.conjugacy_classes()):
            if g in cls:
                return i
        raise ValueError("element not in any class")

    def power_class(self, class_index: int, m: int) -> int:
        g = self.class_reps[class_index]
        out = self.group.identity
        for _ in range(m % self.group.element_order(g)):
            out = self.group.mult(out, g)
        return self.class_of(out)


def _table(group: _Group, characters) -> CharacterTable:
    classes = group.conjugacy_classes()
    return CharacterTable(
        group=group,
        class_reps=tuple(cls[0] for cls in classes),
        class_sizes=tuple(len(cls) for cls in classes),
        characters=characters,
    )


def d4_table() -> CharacterTable:
    g = d4_group()
    classes = g.conjugacy_classes()

    def kind(cls):
        rep = cls[0]
        if rep == (0, 0):
            return "e"
        if rep == (2, 0):
            return "z"
        if rep[1] == 0:
            return "r"
        return "s" if rep[0] % 2 == 0 else "rs"

    by_kind = {kind(cls): i for i, cls in enumerate(classes)}
    n = len(classes)

    def from_values(vals):
        out = [None] * n
        for k, v in vals.items():
            out[by_kind[k]] = Cyc.rational(v)
        return tuple(out)

    chars = {}
    for (ea, eb) in [(1, 1), (1, -1), (-1, 1), (-1, -1)]:
        chars[f"lin{(1 - ea) // 2}{(1 - eb) // 2}"] = from_values(
            {"e": 1, "z": 1, "r": ea, "s": eb, "rs": ea * eb})
    chars["dim2"] = from_values({"e": 2, "z": -2, "r": 0, "s": 0, "rs": 0})
    return _table(g, chars)


def q8_table() -> CharacterTable:
    g = q8_group()
    classes = g.conjugacy_classes()

    def kind(cls):
        rep = cls[0]
        if rep == (1, "e"):
            return "e"
        if rep == (-1, "e"):
            return "z"
        return rep[1]

    by_kind = {kind(cls): i for i, cls in enumerate(classes)}
    n = len(classes)

    def from_values(vals):
        out = [None] * n
        for k, v in vals.items():
            out[by_kind[k]] = Cyc.rational(v)
        return tuple(out)

    chars = {}
    for (ei, ej) in [(1, 1), (1, -1), (-1, 1), (-1, -1)]:
        chars[f"lin{(1 - ei) // 2}{(1 - ej) // 2}"] = from_values(
            {"e": 1, "z": 1, "i": ei, "j": ej, "k": ei * ej})
    chars["dim2"] = from_values({"e": 2, "z": -2, "i": 0, "j": 0, "k": 0})
    return _table(g, chars)


def char_indicator(table: CharacterTable, character, n: int, r: int) -> Cyc:
    """(1/|G|) sum_g chi(g^(n/d))^d with d = gcd(n, r mod n), d = n at r = 0.

    This cycle-counting form is a derived permutation-trace identity; the
    test suite gates it behind the brute-force oracle before it is trusted.
    """
    chi = table.characters[character] if isinstance(character, str) else character
    rr = r % n
    d = n if rr == 0 else math.gcd(n, rr)
    m = n // d
    acc = ZERO
    for k, size in enumerate(table.class_sizes):
        acc = acc + size * chi[table.power_class(k, m)] ** d
    return acc / table.order


# -- category constructors ---------------------------------------------------


def sqrt_int(m: int) -> Cyc:
    """Exact square root of a positive integer as a cyclotomic number.

    Square parts come out rational; each remaining prime contributes a
    quadratic Gauss sum (sqrt(2) = zeta_8 + zeta_8^-1, and for odd p the
    sum of Legendre-weighted p-th roots, divided by i when p = 3 mod 4).
    """
    if m < 1:
        raise ValueError("need a positive integer")
    out = Cyc.one()
    square = 1
    rest = m
    p = 2
    while p * p <= rest:
        while rest % (p * p) == 0:
            square *= p
            rest //= p * p
        p += 1
    out = out * square
    n = rest
    p = 2
    while n > 1:
        if n % p == 0:
            n //= p
            if p == 2:
                out = out * (root_of_unity(8, 1) + root_of_unity(8, 7))
            else:
                gauss = ZERO
                for k in range(1, p):
                    legendre = pow(k, (p - 1) // 2, p)
                    sign = 1 if legendre == 1 else -1
                    gauss = gauss + sign * root_of_unity(p, k)
                if p % 4 == 3:
                    gauss = gauss / root_of_unity(4, 1)
                out = out * gauss
        else:
            p += 1
    return out


def _pointed_label(i: int) -> str:
    if i == 0:
        return "1"
    return "g" if i == 1 else f"g{i}"


def standard_cocycle(n: int, q: int):
    """The level-q representative of the cyclic 3-cocycles on Z/n."""
    def omega(a, b, c):
        return root_of_unity(n, q * a * ((b + c) // n))
    return {(a, b, c): omega(a, b, c)
            for a in range(n) for b in range(n) for c in range(n)}


def build_pointed(n: int, omega, name=None, conductor=None) -> Category:
    """Pointed category on Z/n with associator given by the 3-cocycle omega."""
    omega = {k: Cyc._promote(v) for k, v in omega.items()}
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if (a, b, c) not in omega:
                    raise CocycleError(f"cocycle value missing at {(a, b, c)}")
                if 0 in (a, b, c) and omega[(a, b, c)] != 1:
                    raise CocycleError("cocycle is not normalized")
                if not omega[(a, b, c)]:
                    raise CocycleError("cocycle values must be nonzero")
    for a in range(n):
        for b in range(n):
            for c in range(n):
                for d in range(n):
                    lhs = omega[(b, c, d)] * omega[(a, (b + c) % n, d)] * omega[(a, b, c)]
                    rhs = omega[((a + b) % n, c, d)] * omega[(a, b, (c + d) % n)]
                    if lhs != rhs:
                        raise CocycleError(f"cocycle condition fails at {(a, b, c, d)}")
    labels = [_pointed_label(i) for i in range(n)]
    dual = {labels[i]: labels[(-i) % n] for i in range(n)}
    mult = {(labels[a], labels[b], labels[(a + b) % n]): 1
            for a in range(n) for b in range(n)}
    ring = FusionRing(labels, labels[0], dual, mult)
    entries = {}
    cond = 1
    for a in range(n):
        for b in range(n):
            for c in range(n):
                val = omega[(a, b, c)]
                cond = math.lcm(cond, val.reduced_key()[0])
                if val != 1:
                    entries[(labels[a], labels[b], labels[c],
                             labels[(a + b + c) % n],
                             labels[(a + b) % n], labels[(b + c) % n])] = val
    if conductor is not None:
        cond = math.lcm(cond, conductor)
    return Category(name or f"vec_z{n}", ring, FSymbolSet(entries), None, cond)


def _abelian_elements(orders):
    elems = [()]
    for m in orders:
        elems = [e + (k,) for e in elems for k in range(m)]
    return elems


def _abelian_label(elem, orders) -> str:
    if not any(elem):
        return "1"
    if len(elem) == 1:
        return _pointed_label(elem[0])
    if orders == (2, 2):
        return {(1, 0): "a", (0, 1): "b", (1, 1): "ab"}[elem]
    return "g" + "".join(str(x) for x in elem)


def standard_bicharacter(orders):
    """chi(x, y) = prod_i zeta_{n_i}^(x_i y_i): symmetric and nondegenerate."""
    def chi(x, y):
        out = ONE
        for ni, xi, yi in zip(orders, x, y):
            out = out * root_of_unity(ni, xi * yi)
        return out
    return chi


def build_tambara_yamagami(orders, chi, tau, name=None, conductor=None) -> Category:
    """Tambara-Yamagami data for a finite abelian group given by cyclic orders.

    Requires a symmetric nondegenerate bicharacter and tau with
    tau^2 = 1/|A| exactly; the pentagon is certified by the validator on the
    returned data, never assumed.
    """
    orders = tuple(orders)
    elems = _abelian_elements(orders)
    size = len(elems)
    tau = Cyc._promote(tau)
    if tau * tau != Fraction(1, size):
        raise SpecError("tau^2 must equal 1/|A| exactly")
    zero = elems[0]
    for x in elems:
        for y in elems:
            if chi(x, y) != chi(y, x):
                raise SpecError("bicharacter is not symmetric")
    for x in elems:
        if x == zero:
            continue
        if all(chi(x, y) == 1 for y in elems):
            raise SpecError("bicharacter is degenerate")

    lab = {e: _abelian_label(e, orders) for e in elems}
    sigma = "sigma"
    labels = [lab[e] for e in elems] + [sigma]

    def add(x, y):
        return tuple((xi + yi) % ni for xi, yi, ni in zip(x, y, orders))

    def neg(x):
        return tuple((-xi) % ni for xi, ni in zip(x, orders))

    dual = {lab[e]: lab[neg(e)] for e in elems}
    dual[sigma] = sigma
    mult = {}
    for x in elems:
        for y in elems:
            mult[(lab[x], lab[y], lab[add(x, y)])] = 1
        mult[(lab[x], sigma, sigma)] = 1
        mult[(sigma, lab[x], sigma)] = 1
    for x in elems:
        mult[(sigma, sigma, lab[x])] = 1
    ring = FusionRing(labels, lab[zero], dual, mult)

    entries = {}
    cond = 1
    for x in elems:
        for y in elems:
            val = chi(x, y)
            cond = math.lcm(cond, val.reduced_key()[0])
            if val != 1:
                # [F^{a,sigma,b}_sigma] = chi(a, b)
                entries[(lab[x], sigma, lab[y], sigma, sigma, sigma)] = val
                # [F^{sigma,a,sigma}_b] = chi(a, b)
                entries[(sigma, lab[x], sigma, lab[y], sigma, sigma)] = val
            # the associator orientation used here puts the inverse values in
            # the mixed block; for 2-torsion bicharacters the two agree
            mixed = tau * val.inverse()
            if mixed != 1:
                entries[(sigma, sigma, sigma, sigma, lab[x], lab[y])] = mixed
    cond = math.lcm(cond, tau.reduced_key()[0])
    if conductor is not None:
        cond = math.lcm(cond, conductor)
    return Category(name or f"ty_{'x'.join(map(str, orders))}", ring,
                    FSymbolSet(entries), None, cond)


def solve_pentagon_rank2() -> list:
    """All gauge classes of multiplicity-free F-data on the ring t*t = 1 + t.

    Eliminating the pentagon system by hand leaves [F^{ttt}_t]_{11} as a
    root of x^2 + x - 1 (two roots in Q(zeta_5), and a quadratic has no
    others), forces [F^{ttt}_1] = 1, [F^{ttt}_t]_{tt} = -x, and fixes the
    off-diagonal product to x; the off-diagonal split is pure gauge and is
    pinned here to (x, 1) so every entry stays in Q(zeta_5).  The returned
    data is certified against the full pentagon by the validator.
    """
    from .category import pentagon_failures

    z5 = root_of_unity(5, 1)
    roots = [z5 + z5 ** 4, z5 ** 2 + z5 ** 3]
    for x in roots:
        assert x * x + x - 1 == 0
    out = []
    for name, x in zip(("fibonacci", "yang_lee"), roots):
        labels = ["1", "t"]
        ring = FusionRing(labels, "1", {"1": "1", "t": "t"},
                          {("1", "1", "1"): 1, ("1", "t", "t"): 1,
                           ("t", "1", "t"): 1, ("t", "t", "1"): 1,
                           ("t", "t", "t"): 1})
        entries = {
            ("t", "t", "t", "1", "t", "t"): ONE,
            ("t", "t", "t", "t", "1", "1"): x,
            ("t", "t", "t", "t", "1", "t"): x,
            ("t", "t", "t", "t", "t", "1"): ONE,
            ("t", "t", "t", "t", "t", "t"): -x,
        }
        cat = Category(name, ring, FSymbolSet(entries), None, 5)
        assert not pentagon_failures(cat, stop_after=1)
        out.append(cat)
    return out
