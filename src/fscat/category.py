"""Skeletal fusion category data model and axiom validation.

A category is specified by exact finite data: simple-object labels, the
fusion multiplicities N_{ab}^c, the F-symbol family [F^{abc}_d]_{ef} in the
multiplicity-free skeletal model, and optionally one nonzero pivotal
coefficient t(a) per simple.  All scalars live in one cyclotomic field
Q(zeta_N) fixed by the category's conductor.

Conventions used by the whole package:

* the unit object is strict, and every F-block with a unit among the first
  three labels is an identity matrix;
* [F^{abc}_d]_{ef} is the coefficient of the associator
  (a @ b) @ c -> a @ (b @ c) between fusion-channel bases, with e the
  channel of a @ b and f the channel of b @ c;
* coevaluation of a is normalized to coefficient 1 on the (a, dual a)
  channel of the unit; evaluation then carries 1/[F^{a,a*,a}_a]_{11}.
"""

from __future__ import annotations

import functools
import math
from collections import Counter
from dataclasses import dataclass, field

from .cyclo import Cyc, triple_residues
from .linalg import eye, int_det, mat_inv

ONE = Cyc.one()
ZERO = Cyc.zero()
NO_BLOCK = ((), ())  # the layout of an inadmissible (a, b, c, d)


class SpecError(ValueError):
    """Structurally malformed category data."""


class MissingPivotalError(ValueError):
    """An operation needed pivotal data that the category does not carry."""


class FusionRing:
    """Fusion ring on a finite label set; N may exceed 1 here.

    The F-symbol machinery downstream is multiplicity-free, but the ring
    itself supports general nonnegative multiplicities so that
    Frobenius-Perron data can be computed for any ring.
    """

    def __init__(self, labels, unit, dual, multiplicities):
        self.labels = tuple(labels)
        self.unit = unit
        self.dual = dict(dual)
        self.N = {k: int(v) for k, v in multiplicities.items() if v}
        self._index = {a: i for i, a in enumerate(self.labels)}
        self._channels = {}
        self._cache = {}  # the memo kinds of RING_KINDS, for every category
        # {x: the most channels c of any product a (x) x}
        per_pair = Counter((a, b) for a, b, _ in self.N)
        self.fanout = {x: max(per_pair[(a, x)] for a in self.labels)
                       for x in self.labels}

    def index(self, a):
        return self._index[a]

    def n(self, a, b, c) -> int:
        return self.N.get((a, b, c), 0)

    def channels(self, a, b):
        """Labels c with N_{ab}^c > 0, in label order."""
        key = (a, b)
        got = self._channels.get(key)
        if got is None:
            got = tuple(c for c in self.labels if (a, b, c) in self.N)
            self._channels[key] = got
        return got

    def admissible_triples(self):
        return sorted(self.N, key=lambda k: tuple(self._index[x] for x in k))

    def is_multiplicity_free(self) -> bool:
        return all(v == 1 for v in self.N.values())

    def structural_errors(self):
        errs = []
        if self.unit not in self._index:
            errs.append(f"unit {self.unit!r} is not a listed label")
        if len(set(self.labels)) != len(self.labels):
            errs.append("duplicate labels")
        for a in self.labels:
            if a not in self.dual:
                errs.append(f"dual of {a!r} is not defined")
        for a, b in self.dual.items():
            if a not in self._index or b not in self._index:
                errs.append(f"dual entry {a!r} -> {b!r} uses unknown labels")
        for (a, b, c), v in self.N.items():
            if any(x not in self._index for x in (a, b, c)):
                errs.append(f"fusion entry {(a, b, c)} uses unknown labels")
            if v < 0:
                errs.append(f"negative multiplicity at {(a, b, c)}")
        return errs

    @functools.cached_property
    def blocks(self):
        """The F-block layout {(a, b, c, d): (es, fs)}: es lists the
        channels e of a (x) b with N_ec^d > 0, fs the channels f of b (x) c
        with N_af^d > 0, each in label order.  A key is stored when either
        list is nonempty; the two lists are the sides of (a b) c = a (b c)
        that associativity compares.  Every category on this ring reads the
        one layout, so the lists must not be mutated.

        One pass over the stored rows (x, y, z), taken in label order of z,
        appends z to es of each (x, y, c, d) with N_zc^d > 0 and to fs of
        each (a, x, y, d) with N_az^d > 0, so no list is sorted.
        """
        by_first, by_middle, by_last = {}, {}, {}
        for (a, b, c) in self.N:
            by_first.setdefault(a, []).append((b, c))
            by_middle.setdefault(b, []).append((a, c))
            by_last.setdefault(c, []).append((a, b))
        out = {}
        for z in self.labels:
            for x, y in by_last.get(z, ()):
                for c, d in by_first.get(z, ()):
                    out.setdefault((x, y, c, d), ([], []))[0].append(z)
                for a, d in by_middle.get(z, ()):
                    out.setdefault((a, x, y, d), ([], []))[1].append(z)
        return out

    def last(self, keys):
        """The last of ``keys`` (tuples of labels) in label order."""
        return max(keys, key=lambda k: tuple(map(self.index, k)))

    def ring_axiom_checks(self):
        """Exact checks of the fusion-ring axioms, as (name, ok, detail).

        One pass over the stored rows finds every failing case; a detail
        names the last one in label order (pairs (a, b), triples (a, b, c)).
        Associativity compares the N-weighted sums over the two sides of
        each block of ``blocks``.  The ring must be free of structural
        errors.
        """
        unit, dual, labels, N = self.unit, self.dual, self.labels, self.N

        # N(1, a, b) = N(a, 1, b) = delta_ab, and N(a, b, 1) = delta_{b, a*}
        unit_bad = {(a, a) for a in labels
                    if self.n(unit, a, a) != 1 or self.n(a, unit, a) != 1}
        pair_bad = {(a, dual[a]) for a in labels
                    if dual.get(a) in self._index
                    and self.n(a, dual[a], unit) != 1}
        for (a, b, c) in N:
            if a == unit and b != c:
                unit_bad.add((b, c))
            if b == unit and a != c:
                unit_bad.add((a, c))
            if c == unit and b != dual.get(a):
                pair_bad.add((a, b))
        out = [("unit", not unit_bad,
                "unit row fails at ({},{})".format(*self.last(unit_bad))
                if unit_bad else "")]

        dual_bad = ""
        involution_bad = [a for a in labels if dual.get(dual.get(a)) != a]
        if involution_bad:
            dual_bad = f"dual not involutive at {involution_bad[-1]}"
        if pair_bad:
            a, b = self.last(pair_bad)
            dual_bad = f"N_({a},{b})^unit != {1 if b == dual.get(a) else 0}"
        if dual.get(unit) != unit:
            dual_bad = "dual(unit) != unit"
        out.append(("dual", not dual_bad, dual_bad))

        # (a b) c and a (b c) hold d with the same multiplicity
        assoc_bad = {}
        for (a, b, c, d), (es, fs) in self.blocks.items():
            if (sum(N[(a, b, e)] * N[(e, c, d)] for e in es)
                    != sum(N[(b, c, f)] * N[(a, f, d)] for f in fs)):
                assoc_bad.setdefault((a, b, c), []).append(d)
        assoc = ""
        if assoc_bad:
            a, b, c = self.last(assoc_bad)
            d = max(assoc_bad[(a, b, c)], key=self.index)
            assoc = f"associativity fails at ({a},{b},{c})->{d}"
        out.append(("associativity", not assoc, assoc))
        return out


class FSymbolSet:
    """Sparse F-symbol table; omitted admissible entries default to 1."""

    def __init__(self, entries):
        self.entries = dict(entries)

    def get(self, key):
        return self.entries.get(key, ONE)


@dataclass(frozen=True)
class PivotalData:
    """The scalar by which the pivotal isomorphism acts on each simple."""

    t: dict

    def __call__(self, a):
        return self.t[a]


class ObjectExpr:
    """Formal direct sum of simples with nonnegative multiplicities."""

    def __init__(self, terms):
        self.terms = {a: int(m) for a, m in terms.items() if m}
        if not self.terms:
            raise ValueError("the zero object is rejected here")
        if any(m < 0 for m in terms.values()):
            raise ValueError("multiplicities must be nonnegative")

    @staticmethod
    def simple(a) -> "ObjectExpr":
        return ObjectExpr({a: 1})

    @staticmethod
    def parse(text: str, labels) -> "ObjectExpr":
        """Grammar: ``label``, ``k*label``, joined by ``+``; whitespace-free."""
        terms = {}
        for piece in text.replace(" ", "").split("+"):
            if not piece:
                raise ValueError(f"empty summand in object expression {text!r}")
            if "*" in piece:
                k, _, name = piece.partition("*")
                if not k.isdigit():
                    raise ValueError(f"bad multiplicity {k!r} in {text!r}")
                mult = int(k)
            else:
                mult, name = 1, piece
            if name not in labels:
                raise ValueError(f"unknown label {name!r} in object expression")
            terms[name] = terms.get(name, 0) + mult
        return ObjectExpr(terms)

    def support(self):
        return tuple(a for a in self.terms)

    def multiplicity(self, a) -> int:
        return self.terms.get(a, 0)

    def __str__(self):
        return "+".join(a if m == 1 else f"{m}*{a}"
                        for a, m in self.terms.items())

    def __repr__(self):
        return f"ObjectExpr({self.terms!r})"


# The memo kinds kept on the fusion ring, which depend on the fusion rules
# alone; ``memoised(ring=True)`` adds each at import, before its first write.
RING_KINDS = set()


def memoised(kind=None, ring=False):
    """Keep ``build(cat, *args)`` in ``cat.cached`` under ``(kind, *args)``,
    the kind defaulting to the builder's name, and on the fusion ring with
    ``ring`` (``RING_KINDS``).  The arguments are the key as given, so words
    must be tuples; callers share the result and must not mutate it."""
    def decorate(build):
        name = kind or build.__name__
        if ring:
            RING_KINDS.add(name)

        @functools.wraps(build)
        def memo(cat, *args):
            return cat.cached((name, *args), lambda: build(cat, *args))
        memo.kind = name
        return memo
    return decorate


class Category:
    """A skeletal pivotal fusion category given by exact finite data.

    Instances are immutable after construction; derived data is memoized
    through ``cached``, whose writers are idempotent, so concurrent readers
    are safe; each memo kind is declared by ``memoised`` on its builder.
    What depends on the F-symbols or the pivotal data (F-blocks, structural
    matrices, rotations) belongs to one instance, in ``_cache``;
    ``with_pivotal``, ``gauge_transform`` and ``reverse_category`` start
    empty ones.  What depends on the fusion rules alone belongs to the
    fusion ring, which ``with_pivotal`` and ``gauge_transform`` share and
    ``reverse_category`` does not: the F-block layout (``FusionRing.blocks``)
    and the memo kinds of ``RING_KINDS``, the hom-space bases among them.

    Single F and F^-1 entries bypass ``cached``, as do the ring's channel
    lists (``FusionRing._channels``), because the kernels read them most:
    ``f_inv_entry`` about 25,000 times in one ``power-identity`` benchmark
    pass, at 0.25 us per kept entry against 0.40 us through ``cached``
    (Intel Xeon, 2 vCPUs, best of 15).  ``_f_entries`` and
    ``_f_inv_entries`` are keyed by the accessor's 6-tuple, each filled
    from the blocks on its first lookup (exact zero when inadmissible).
    """

    def __init__(self, name, ring, f_symbols, pivotal=None, conductor=1):
        self.name = name
        self.ring = ring
        self.F = f_symbols
        self.pivotal = pivotal
        self.conductor = int(conductor)
        self._cache = {}
        self._f_entries = {}
        self._f_inv_entries = {}

    # -- basic views ----------------------------------------------------

    @property
    def labels(self):
        return self.ring.labels

    @property
    def unit(self):
        return self.ring.unit

    def dual(self, a):
        return self.ring.dual[a]

    def n(self, a, b, c):
        return self.ring.n(a, b, c)

    def channels(self, a, b):
        return self.ring.channels(a, b)

    def label_index(self, a):
        return self.ring.index(a)

    def require_pivotal(self) -> PivotalData:
        if self.pivotal is None:
            raise MissingPivotalError(f"category {self.name!r} has no pivotal data")
        return self.pivotal

    def t(self, a) -> Cyc:
        return self.require_pivotal().t[a]

    def cached(self, key, build):
        """The memo entry ``key`` (a tuple led by its kind), built on a miss;
        kinds of ``RING_KINDS`` are kept on the fusion ring."""
        store = self.ring._cache if key[0] in RING_KINDS else self._cache
        got = store.get(key)
        if got is None:
            got = build()
            store[key] = got
        return got

    def with_pivotal(self, pivotal) -> "Category":
        return Category(self.name, self.ring, self.F, pivotal, self.conductor)

    # -- F-symbol access --------------------------------------------------

    def f_rowcols(self, a, b, c, d):
        """(e-list, f-list) of admissible channels for the block [F^{abc}_d],
        read from the ring's layout (``FusionRing.blocks``)."""
        return self.ring.blocks.get((a, b, c, d), NO_BLOCK)

    def f_block(self, a, b, c, d):
        """The matrix [F^{abc}_d] over (e-list, f-list)."""
        es, fs = self.f_rowcols(a, b, c, d)
        return [[self.F.get((a, b, c, d, e, f)) for f in fs] for e in es]

    @memoised("finv")
    def f_inv_block(self, a, b, c, d):
        """Inverse block, rows indexed by the f-list, columns by the e-list."""
        return mat_inv(self.f_block(a, b, c, d))

    def f_entry(self, a, b, c, d, e, f) -> Cyc:
        """[F^{abc}_d]_{ef}, or exact zero when the tuple is inadmissible."""
        key = (a, b, c, d, e, f)
        got = self._f_entries.get(key)
        if got is None:
            es, fs = self.f_rowcols(a, b, c, d)
            got = self.F.get(key) if e in es and f in fs else ZERO
            self._f_entries[key] = got
        return got

    def f_inv_entry(self, a, b, c, d, f, e) -> Cyc:
        """[(F^{abc}_d)^-1]_{fe}, or exact zero when inadmissible.

        The index order is (..., f, e): the inverse block's rows are the
        f-list and its columns the e-list, the transpose of ``f_entry``.
        """
        key = (a, b, c, d, f, e)
        got = self._f_inv_entries.get(key)
        if got is None:
            es, fs = self.f_rowcols(a, b, c, d)
            got = ZERO
            if e in es and f in fs:
                got = self.f_inv_block(a, b, c, d)[fs.index(f)][es.index(e)]
            self._f_inv_entries[key] = got
        return got

    @memoised("ev")
    def ev_coefficient(self, a) -> Cyc:
        """Scalar on evaluation dual(a) (x) a -> unit fixed by the zig-zags."""
        top = self.f_entry(a, self.dual(a), a, a, self.unit, self.unit)
        if not top:
            raise SpecError(
                f"[F^({a},{self.dual(a)},{a})_{a}] vanishes at the unit "
                "channel; duality cannot be normalized")
        return top.inverse()

    def __repr__(self):
        piv = "with pivotal" if self.pivotal is not None else "no pivotal"
        return f"Category({self.name!r}, {len(self.labels)} simples, {piv})"


# -- validation ----------------------------------------------------------


@dataclass
class CheckItem:
    group: str
    name: str
    ok: bool
    detail: str = ""


@dataclass
class ValidationReport:
    category: str
    items: list = field(default_factory=list)
    structural_errors: list = field(default_factory=list)

    @property
    def valid(self) -> bool:
        return not self.structural_errors and all(i.ok for i in self.items)

    def first_failure(self):
        if self.structural_errors:
            return self.structural_errors[0]
        for i in self.items:
            if not i.ok:
                return f"{i.group}/{i.name}: {i.detail}"
        return None

    def lines(self):
        out = [f"category: {self.category}"]
        for err in self.structural_errors:
            out.append(f"STRUCTURAL {err}")
        for i in self.items:
            mark = "PASS" if i.ok else "FAIL"
            detail = f"  [{i.detail}]" if (i.detail and not i.ok) else ""
            out.append(f"{mark} {i.group}: {i.name}{detail}")
        out.append("valid" if self.valid else "INVALID")
        return out


def validate(category: Category) -> ValidationReport:
    """Exact validation of all axiom groups; see the spec file loader for
    the structural layer that runs before this on raw input.

    F sanity lays out only the blocks it must.  The shape of a block is
    read off the ring's layout (``FusionRing.blocks``), whose two channel
    lists are the sides that associativity compares.  Under the conditions
    that let ``pentagon_failures`` skip the unit tuples, every unit block
    is [1]; otherwise the unit blocks are walked.
    A 1x1 block is singular exactly when its entry is a stored zero; a
    larger square block is certified invertible on the F residues that the
    pentagon reads too (``_f_residues``), and inverted exactly only when
    the certificate fails.  Each detail names its item's last failure in
    label order.
    """
    report = ValidationReport(category=category.name)
    errs = list(category.ring.structural_errors())
    ring = category.ring

    if not ring.is_multiplicity_free():
        errs.append("fusion multiplicities above 1 are not supported by the "
                    "F-symbol machinery")
    for key in category.F.entries:
        if len(key) != 6:
            errs.append(f"malformed F key {key!r}")
            continue
        a, b, c, d, e, f = key
        if any(x not in ring._index for x in key):
            errs.append(f"F entry {key} uses unknown labels")
            continue
        if not (ring.n(a, b, e) and ring.n(e, c, d) and ring.n(b, c, f)
                and ring.n(a, f, d)):
            errs.append(f"F entry {key} is inadmissible for the fusion rules")
    for key, value in category.F.entries.items():
        # a stored conductor dividing N already places the value in Q(zeta_N)
        if category.conductor % value.conductor and \
                category.conductor % value.reduced_key()[0]:
            errs.append(f"F entry {key} does not lie in Q(zeta_{category.conductor})")
    if category.pivotal is not None:
        for a in ring.labels:
            if a not in category.pivotal.t:
                errs.append(f"pivotal coefficient missing for {a!r}")
        for a in category.pivotal.t:
            if a not in ring._index:
                errs.append(f"pivotal coefficient for unknown label {a!r}")
    report.structural_errors = errs
    if errs:
        return report

    for name, ok, detail in ring.ring_axiom_checks():
        report.items.append(CheckItem("ring", name, ok, detail))

    unit_fail = "" if _unit_tuples_implied(ring, category.F.entries) \
        else _unit_block_failure(category)
    report.items.append(CheckItem("F", "unit normalization", not unit_fail,
                                  unit_fail))
    inv_fail = _invertibility_failure(category)
    report.items.append(CheckItem("F", "invertibility", not inv_fail,
                                  inv_fail))

    ok, detail = True, ""
    for a in ring.labels:
        try:
            category.ev_coefficient(a)
        except SpecError as exc:
            ok, detail = False, str(exc)
    report.items.append(CheckItem("F", "duality normalization", ok, detail))

    bad = pentagon_failures(category, stop_after=1)
    report.items.append(CheckItem(
        "pentagon", "pentagon identity", not bad,
        f"first failing 5-tuple (a,b,c,d,e) = {bad[0]}" if bad else ""))

    if category.pivotal is not None:
        report.items.extend(_pivotal_checks(category, report.items))
    return report


def _unit_block_failure(category: Category) -> str:
    """The last unit block in label order that is not the identity, from a
    walk that lays out every admissible block with the unit among its first
    three labels; '' when there is none."""
    fails = [key for key, (es, _) in category.ring.blocks.items()
             if es and category.unit in key[:3]
             and category.f_block(*key) != eye(len(es))]
    return "unit block [F^({},{},{})_{}] is not the identity".format(
        *category.ring.last(fails)) if fails else ""


def _invertibility_failure(category: Category) -> str:
    """The last admissible block in label order that is not square or is
    singular, from the layout ``FusionRing.blocks``; '' when there is none.

    A block is admissible when it has a row.  A 1x1 block is singular
    exactly when its entry is a stored zero (an omitted entry is 1).  A
    larger square block is invertible when the determinant of its residues
    (``_f_residues``; an omitted entry reads ``one``) is nonzero mod m:
    the residue map is a ring map from the scaled entries D F, so det(D F)
    and det F are nonzero.  A determinant that is zero mod m proves
    nothing, and then the block is inverted exactly, which raises when it
    is singular.  No inverse is kept for a certified block: the kernels
    build it at their first read (``Category.f_inv_entry``)."""
    blocks = category.ring.blocks
    m, one, res = _f_residues(category)
    bad = {}
    for key, (es, fs) in blocks.items():
        if es and len(es) != len(fs):
            bad[key] = "not square"
        elif len(es) > 1 and not int_det(
                [[res.get(key + (e, f), one) for f in fs] for e in es]) % m:
            try:
                category.f_inv_block(*key)
            except ValueError:
                bad[key] = "singular"
    for key, value in category.F.entries.items():
        es, fs = blocks[key[:4]]
        if not value and len(es) == 1 == len(fs):
            bad[key[:4]] = "singular"
    if not bad:
        return ""
    a, b, c, d = category.ring.last(bad)
    return f"[F^({a},{b},{c})_{d}] is {bad[(a, b, c, d)]}"


def pentagon_failures(category: Category, stop_after=None):
    """Admissible 5-tuples (a,b,c,d,e) where the pentagon identity fails.

    The identity checked, with all products exact:
        [F^{fcd}_e]_{gl} [F^{abl}_e]_{fk}
            = sum_h [F^{abc}_g]_{fh} [F^{ahd}_e]_{gk} [F^{bcd}_k]_{hl}
    over source labelings (f, g) and target labelings (l, k).  The
    equations come from the F-block layout (``FusionRing.blocks``): each
    block (a, b, c, g) with an f-list is paired with each block
    (b, c, d, k) with an l-list and the same middle (b, c), and for every
    e with N_gd^e N_ak^e each f of the first block meets each l of the
    second.  h runs over the intersection of the two blocks' h-lists,
    the h in b (x) c with N_ah^g N_hd^k > 0, and the left side is zero
    unless N_fl^e > 0.  [F^{ahd}_e]_{gk} does not depend on f or l and is
    read once per (pair, e, h), [F^{abc}_g]_{fh} once per (pair, e, f, h).
    The failing tuples are collected, then listed in label order of
    (a, b, c, d, e): the first ``stop_after`` of them when it is given.

    Tuples with the unit 1 among a, b, c, d are skipped when (i) N(1,x,y)
    = N(x,1,y) = delta_xy for all labels and (ii) every stored entry with 1
    among its first three labels is 1 (unit normalization; unit blocks are
    1x1).  Then (i) pins the inner labels (a = 1: f = b, k = e, h = g;
    b = 1: f = a, k = l, h = c; c = 1: g = f, l = d, h = b; d = 1: e = g,
    l = c, h = k), and both sides are one and the same entry times unit
    entries, which (ii) makes 1.  Otherwise every tuple is checked.  An
    equation is a signed sum of at most W + 1 triple products (the left
    side is 1 times two entries; W is the most channels of any b (x) c),
    decided exactly on the integer residues of ``cyclo.triple_residues``,
    taken once per category (``_f_residues``, which ``validate``'s
    invertibility item reads too); an omitted entry is 1 (residue ``one``).
    """
    ring = category.ring
    N = ring.N
    m, one, res = _f_residues(category)
    get = res.get
    skip = ring.unit if _unit_tuples_implied(ring, category.F.entries) \
        else None
    right = {}  # (b, c) -> the blocks (b, c, d, k) with an l-list
    for (b, c, d, k), (hs, ls) in ring.blocks.items():
        if ls and d != skip:
            right.setdefault((b, c), []).append((d, k, hs, ls))
    fails = set()
    for (a, b, c, g), (fs, hs) in ring.blocks.items():
        if not fs or skip in (a, b, c):
            continue
        for d, k, hs_k, ls in right.get((b, c), ()):
            for e in ring.channels(g, d):
                if (a, k, e) not in N:
                    continue
                mid = []  # (h, [F^{ahd}_e]_{gk}) over the shared h-lists
                for h in hs:
                    if h in hs_k:
                        mid.append((h, get((a, h, d, e, g, k), one)))
                for f in fs:
                    row = []
                    for h, x in mid:
                        row.append((h, get((a, b, c, g, f, h), one) * x))
                    for l in ls:
                        acc = one * get((f, c, d, e, g, l), one) \
                            * get((a, b, l, e, f, k), one) \
                            if (f, l, e) in N else 0
                        for h, x in row:
                            acc -= x * get((b, c, d, k, h, l), one)
                        if acc % m:
                            fails.add((a, b, c, d, e))
    fails = sorted(fails, key=lambda t: tuple(map(ring.index, t)))
    return fails[:stop_after] if stop_after else fails


@memoised("fres")
def _f_residues(category: Category):
    """(m, one, residues), memoised per category: ``residues.get(key, one)``
    is the residue mod m of the F entry ``key`` under the ring map of
    ``cyclo.triple_residues``, exact for the pentagon's sums of at most
    W + 1 triple products (W the most channels of any product)."""
    F = category.F.entries
    m, one, res = triple_residues(
        list(F.values()), max(category.ring.fanout.values()) + 1)
    return m, one, dict(zip(F, res))


def _unit_tuples_implied(ring: FusionRing, F) -> bool:
    """Conditions (i) and (ii) of ``pentagon_failures``."""
    u, N = ring.unit, ring.N
    return all(ring.channels(u, x) == (x,) == ring.channels(x, u)
               and N[(u, x, x)] == 1 == N[(x, u, x)] for x in ring.labels) \
        and all(v == 1 for key, v in F.items() if u in key[:3])


def _pivotal_checks(category: Category, earlier):
    """Pivotal items; monoidality runs only when ``earlier`` (the report's
    items so far) and the other pivotal items all passed."""
    from .homcalc import double_dual_inverses  # one convention source

    piv = category.pivotal
    unit = category.unit
    items = []

    ok = piv.t[unit] == 1
    items.append(CheckItem("pivotal", "t(unit) = 1", ok))

    ok, detail = True, ""
    for a in category.labels:
        if not piv.t[a]:
            ok, detail = False, f"t({a}) = 0"
    items.append(CheckItem("pivotal", "coefficients nonzero", ok, detail))

    ok, detail = True, ""
    for a in category.labels:
        if piv.t[category.dual(a)] * piv.t[a] != 1:
            ok, detail = False, f"t(dual {a}) != t({a})^-1"
    items.append(CheckItem("pivotal", "dual-inverse", ok, detail))

    # the closed-form double-dual scalar holds only on certified F-data
    failed = next((i for i in (*earlier, *items) if not i.ok), None)
    if failed is not None:
        items.append(CheckItem("pivotal", "monoidality", False,
                               f"not checked: {failed.group}/{failed.name}"))
        return items
    ok, detail = True, ""
    for (a, b, c), delta_inv in double_dual_inverses(category).items():
        if piv.t[a] * piv.t[b] != piv.t[c] * delta_inv:
            ok, detail = False, f"monoidality fails on channel ({a},{b};{c})"
            break
    items.append(CheckItem("pivotal", "monoidality", ok, detail))
    return items


# -- Frobenius-Perron dimensions ------------------------------------------


def fp_dimension(category: Category, obj) -> float:
    """Largest nonnegative eigenvalue of the left-multiplication matrix.

    Power iteration from the all-ones vector on the shifted matrix rho + I
    (the shift removes periodicity, e.g. for invertible objects); relative
    tolerance 1e-12, iteration cap 10^5 with failure signaled explicitly.
    """
    if isinstance(obj, str):
        obj = ObjectExpr.simple(obj)
    ring = category.ring
    labels = ring.labels
    for a in obj.support():
        if a not in ring._index:
            raise ValueError(f"unknown label {a!r}")
    rho = [[sum(obj.multiplicity(a) * ring.n(a, vi, vj) for a in obj.support())
            for vj in labels] for vi in labels]
    vec = [1.0] * len(labels)
    prev = None
    stable = 0
    for _ in range(100_000):
        nxt = [sum(rho[i][j] * vec[j] for j in range(len(labels))) + vec[i]
               for i in range(len(labels))]
        est = max(abs(x) for x in nxt)  # vec is sup-normalized, so this is the quotient
        if est == 0.0:
            raise ArithmeticError("zero vector in power iteration")
        vec = [x / est for x in nxt]
        if prev is not None and abs(est - prev) <= 1e-13 * max(1.0, abs(est)):
            stable += 1
            if stable >= 4:
                return est - 1.0
        else:
            stable = 0
        prev = est
    raise ArithmeticError("power iteration did not converge within 10^5 steps")


# -- gauge transformation and reversal -------------------------------------


class GaugeError(ValueError):
    """Missing or zero gauge entries."""


def _gauge_value(u, ring, a, b, c) -> Cyc:
    if a == ring.unit or b == ring.unit:
        got = u.get((a, b, c))
        if got is not None and got != 1:
            raise GaugeError(f"gauge entry {(a, b, c)} must be 1 on unit channels")
        return ONE
    got = u.get((a, b, c))
    if got is None:
        raise GaugeError(f"gauge entry missing for channel {(a, b, c)}")
    got = Cyc._promote(got)
    if not got:
        raise GaugeError(f"gauge entry for channel {(a, b, c)} is zero")
    return got


def gauge_transform(category: Category, u) -> Category:
    """Rescale the fusion-channel bases by u and transport F and t.

    F-symbols pick up the standard four gauge factors: [F^{abc}_d]_{ef}
    is scaled by g(a,b,e) g(e,c,d) g(b,c,f)^-1 g(a,f,d)^-1, where each
    admissible channel's gauge value g and its inverse are read once.  The
    pivotal coefficients are transported so that the identity-on-labels
    functor with structure u preserves the pivotal structure; operationally
    the duality transformation of that functor is the ratio of evaluation
    normalizations times the gauge entry on the (dual a, a; unit) channel.
    """
    ring = category.ring
    # read every entry first, so a bad one is named in label order
    g = {key: _gauge_value(u, ring, *key) for key in ring.admissible_triples()}
    g_inv = {key: val.inverse() for key, val in g.items()}
    entries = {}
    for (a, b, c, d), (es, fs) in ring.blocks.items():
        for e in es:
            for f in fs:
                val = category.F.get((a, b, c, d, e, f)) * g[(a, b, e)] \
                    * g[(e, c, d)] * g_inv[(b, c, f)] * g_inv[(a, f, d)]
                if val != 1:
                    entries[(a, b, c, d, e, f)] = val
    conductor = category.conductor
    for val in entries.values():
        # a stored conductor dividing N leaves the lcm of reduced ones at N
        if conductor % val.conductor:
            conductor = math.lcm(conductor, val.reduced_key()[0])
    out = Category(f"{category.name}~gauged", ring, FSymbolSet(entries),
                   None, conductor)
    if category.pivotal is not None:
        # operational transport: the pivotal coordinate rides along the
        # shift of the evaluation normalization, which is exactly the
        # duality transformation of the identity-on-labels functor
        t = {a: category.pivotal.t[a]
             * out.ev_coefficient(a) / category.ev_coefficient(a)
             for a in ring.labels}
        out = out.with_pivotal(PivotalData(t))
    return out


def reverse_category(category: Category) -> Category:
    """The same data with the tensor product taken in the reverse order.

    Fusion multiplicities transpose and each F-block becomes the inverse of
    the block with the outer labels swapped.  The pivotal coefficients
    invert, t_rev(a) = t(a)^-1 = t(a*): reversal exchanges left and right
    duals, so the left trace of the reversed category is the right trace of
    the original, and nu_{n,k} of the reversal is nu_{n,n-k}.
    """
    ring = category.ring
    n_rev = {(a, b, c): v for (b, a, c), v in ring.N.items()}
    rev_ring = FusionRing(ring.labels, ring.unit, ring.dual, n_rev)
    entries = {}
    # block (a, b, c, d) of the reversal has the channel lists of (c, b, a, d)
    # swapped: its e-list indexes the rows of the inverse of [F^{cba}_d]
    # and its f-list the columns
    for (c, b, a, d), (fs, es) in ring.blocks.items():
        inv = category.f_inv_block(c, b, a, d)
        for i, e in enumerate(es):
            for j, f in enumerate(fs):
                val = inv[i][j]
                if val != 1:
                    entries[(a, b, c, d, e, f)] = val
    pivotal = None if category.pivotal is None else PivotalData(
        {a: t.inverse() for a, t in category.pivotal.t.items()})
    return Category(f"{category.name}~rev", rev_ring, FSymbolSet(entries),
                    pivotal, category.conductor)
