import math
import random
from collections import Counter

import pytest

from conftest import ALL_BUNDLED, bundled, random_gauge, wide_gauge

from fscat import category as category_module
from fscat.category import (Category, FSymbolSet, FusionRing, GaugeError,
                            ObjectExpr, ValidationReport, _unit_tuples_implied,
                            fp_dimension, gauge_transform, pentagon_failures,
                            reverse_category, validate)
from fscat.cli import SplitMix64
from fscat.cyclo import Cyc, root_of_unity
from fscat.indicators import indicator
from fscat.linalg import mat_inv
from fscat.specio import load_bundled
from references import (divided_gauge_transform, walked_f_items,
                        walked_f_layout)


def test_all_bundled_specs_validate(any_bundled):
    report = validate(any_bundled)
    assert report.valid, report.first_failure()


def _negate_entry(cat, key):
    entries = dict(cat.F.entries)
    entries[key] = -entries.get(key, Cyc.one())
    mutated = Category(cat.name + "~mut", cat.ring, FSymbolSet(entries),
                       cat.pivotal, cat.conductor)
    return mutated


def test_every_fibonacci_f_mutation_breaks_the_pentagon():
    fib = bundled("fibonacci")
    assert len(fib.F.entries) == 5
    for key in fib.F.entries:
        mutated = _negate_entry(fib, key)
        report = validate(mutated)
        assert not report.structural_errors
        pent = [i for i in report.items if i.group == "pentagon"]
        assert pent and not pent[0].ok, f"mutation at {key} kept the pentagon"


def test_mutated_pentagon_reports_failing_tuple():
    fib = bundled("fibonacci")
    key = ("t", "t", "t", "t", "1", "1")
    fails = pentagon_failures(_negate_entry(fib, key))
    assert fails and all(len(t) == 5 for t in fails)


def test_vec_z2_trivial_is_valid():
    assert validate(bundled("vec_z2")).valid


def _single_entry_mutations(cat):
    """Every stored F-entry negated, doubled or deleted (deleted means 1)."""
    for key, val in cat.F.entries.items():
        for kind in ("negated", "doubled", "deleted"):
            entries = dict(cat.F.entries)
            if kind == "deleted":
                del entries[key]
            else:
                entries[key] = -val if kind == "negated" else val + val
            yield (key, kind), Category(cat.name + "~mut", cat.ring,
                                        FSymbolSet(entries), cat.pivotal,
                                        cat.conductor)


def _reference_pentagon_failures(category):
    """Five nested label loops over (a, b, c, d, e), skipping inadmissible
    tuples, with every factor read through ``Category.f_entry``; the
    failures come out in label order."""
    ring = category.ring
    fails = []
    for a in ring.labels:
        for b in ring.labels:
            if not ring.channels(a, b):
                continue
            for c in ring.labels:
                for d in ring.labels:
                    for e in ring.labels:
                        sources = [(f, g) for f in ring.channels(a, b)
                                   for g in ring.channels(f, c) if ring.n(g, d, e)]
                        if not sources:
                            continue
                        targets = [(l, k) for l in ring.channels(c, d)
                                   for k in ring.channels(b, l) if ring.n(a, k, e)]
                        bad = False
                        for f, g in sources:
                            for l, k in targets:
                                lhs = category.f_entry(f, c, d, e, g, l) * \
                                    category.f_entry(a, b, l, e, f, k)
                                rhs = Cyc.zero()
                                for h in ring.channels(b, c):
                                    rhs = rhs + (category.f_entry(a, b, c, g, f, h)
                                                 * category.f_entry(a, h, d, e, g, k)
                                                 * category.f_entry(b, c, d, k, h, l))
                                if lhs != rhs:
                                    bad = True
                                    break
                            if bad:
                                break
                        if bad:
                            fails.append((a, b, c, d, e))
    return fails


@pytest.mark.parametrize("name", ALL_BUNDLED)
def test_pentagon_failures_match_the_five_loop_reference(name):
    cat = bundled(name)
    cases = [(None, cat), (None, reverse_category(cat)),
             *_single_entry_mutations(cat)]
    for what, c in cases:
        _assert_pentagon_matches_reference(c, what)


def _assert_pentagon_matches_reference(c, what):
    assert pentagon_failures(c) == _reference_pentagon_failures(c), what


def _unit_keys(cat):
    """Every admissible F key with the unit among its first three labels."""
    for (a, b, c, d), (es, fs) in walked_f_layout(cat.ring).items():
        if cat.unit in (a, b, c):
            yield from ((a, b, c, d, e, f) for e in es for f in fs)


@pytest.mark.parametrize("name", ALL_BUNDLED)
def test_unit_skip_refused_on_a_non_normalized_unit_entry(name):
    # condition (ii) fails, so every unit tuple is checked, as the reference does
    cat = bundled(name)
    assert _unit_tuples_implied(cat)
    keys = list(_unit_keys(cat))
    for key in random.Random(name).sample(keys, min(4, len(keys))):
        for value in (-1, 2):
            entries = {**cat.F.entries, key: Cyc.rational(value)}
            mutated = Category(cat.name + "~unit", cat.ring,
                               FSymbolSet(entries), cat.pivotal, cat.conductor)
            assert not _unit_tuples_implied(mutated)
            _assert_pentagon_matches_reference(mutated, (key, value))


@pytest.mark.parametrize("name", [n for n in ALL_BUNDLED if n != "trivial"])
def test_unit_skip_refused_on_a_broken_unit_row(name):
    # condition (i) fails: the unit times x has a second channel y != x
    cat = bundled(name)
    u, x = cat.unit, cat.labels[-1]
    for key in ((u, x, u), (x, u, u), (u, u, x)):
        ring = FusionRing(cat.labels, u, cat.ring.dual, {**cat.ring.N, key: 1})
        broken = Category(cat.name + "~row", ring, cat.F, cat.pivotal,
                          cat.conductor)
        assert not _unit_tuples_implied(broken)
        _assert_pentagon_matches_reference(broken, key)


@pytest.mark.parametrize("name", ALL_BUNDLED)
def test_pentagon_on_wide_gauges_matches_the_reference(name):
    # every mutation of a small table, 40 drawn ones of a larger table
    gauged = gauge_transform(bundled(name), wide_gauge(bundled(name)))
    mutations = list(_single_entry_mutations(gauged))
    if len(mutations) > 40:
        mutations = random.Random(name).sample(mutations, 40)
    for what, c in [(None, gauged), *mutations]:
        _assert_pentagon_matches_reference(c, what)


def _reference_associativity(ring):
    """The associativity item from five label loops over ``FusionRing.n``."""
    ok, bad = True, ""
    labels = ring.labels
    for a in labels:
        for b in labels:
            for c in labels:
                for d in labels:
                    lhs = sum(ring.n(a, b, e) * ring.n(e, c, d) for e in labels)
                    rhs = sum(ring.n(b, c, f) * ring.n(a, f, d) for f in labels)
                    if lhs != rhs:
                        ok, bad = False, f"associativity fails at ({a},{b},{c})->{d}"
    return ("associativity", ok, bad)


def _ring_mutations(ring, count, rng):
    """Rings with one multiplicity N_{ab}^c set to another value of 0, 1, 2."""
    for _ in range(count):
        key = tuple(rng.choice(ring.labels) for _ in range(3))
        value = rng.choice([v for v in (0, 1, 2) if v != ring.n(*key)])
        yield key, FusionRing(ring.labels, ring.unit, ring.dual,
                              {**ring.N, key: value})


def test_ring_associativity_matches_the_five_loop_reference():
    failing = 0
    for name in ALL_BUNDLED:
        ring = bundled(name).ring
        rng = random.Random(name)
        for what, r in [(None, ring), *_ring_mutations(ring, 30, rng)]:
            got = [item for item in r.ring_axiom_checks()
                   if item[0] == "associativity"]
            assert got == [_reference_associativity(r)], (name, what)
            failing += not got[0][1]
    assert failing  # some mutations break associativity


def _reference_ring_axiom_checks(ring):
    """The ring items from all-pairs and all-triples label loops over
    ``FusionRing.n`` and ``channels``; each detail is the loop's last
    failure."""
    out = []
    unit_ok, unit_bad = True, ""
    for a in ring.labels:
        for b in ring.labels:
            if ring.n(ring.unit, a, b) != (1 if a == b else 0) or \
               ring.n(a, ring.unit, b) != (1 if a == b else 0):
                unit_ok, unit_bad = False, f"unit row fails at ({a},{b})"
    out.append(("unit", unit_ok, unit_bad))

    dual_ok, dual_bad = True, ""
    for a in ring.labels:
        if ring.dual.get(ring.dual.get(a)) != a:
            dual_ok, dual_bad = False, f"dual not involutive at {a}"
    for a in ring.labels:
        for b in ring.labels:
            want = 1 if b == ring.dual.get(a) else 0
            if ring.n(a, b, ring.unit) != want:
                dual_ok, dual_bad = False, f"N_({a},{b})^unit != {want}"
    if ring.dual.get(ring.unit) != ring.unit:
        dual_ok, dual_bad = False, "dual(unit) != unit"
    out.append(("dual", dual_ok, dual_bad))

    assoc_ok, assoc_bad = True, ""
    for a in ring.labels:
        for b in ring.labels:
            for c in ring.labels:
                lhs, rhs = Counter(), Counter()
                for e in ring.channels(a, b):
                    for d in ring.channels(e, c):
                        lhs[d] += ring.n(a, b, e) * ring.n(e, c, d)
                for f in ring.channels(b, c):
                    for d in ring.channels(a, f):
                        rhs[d] += ring.n(b, c, f) * ring.n(a, f, d)
                bad = [d for d in lhs.keys() | rhs.keys() if lhs[d] != rhs[d]]
                if bad:
                    d = max(bad, key=ring.index)
                    assoc_ok = False
                    assoc_bad = f"associativity fails at ({a},{b},{c})->{d}"
    out.append(("associativity", assoc_ok, assoc_bad))
    return out


def _ring_breakages(ring, rng):
    """Rings with one axiom broken on purpose: a unit row, the dual
    involution, N(a, a*, 1) and, through the multiplicities, associativity."""
    labels, unit, dual = ring.labels, ring.unit, ring.dual
    others = [a for a in labels if a != unit]
    for a in others:
        for b in labels:
            yield f"unit row ({a},{b})", FusionRing(
                labels, unit, dual, {**ring.N, (unit, a, b): int(a != b)})
            yield f"right unit row ({a},{b})", FusionRing(
                labels, unit, dual, {**ring.N, (a, unit, b): int(a != b)})
        for b in labels:
            if b != dual[a]:
                yield f"dual of {a} -> {b}", FusionRing(
                    labels, unit, {**dual, a: b}, ring.N)
        yield f"N({a},{a}*,1) = 2", FusionRing(
            labels, unit, dual, {**ring.N, (a, dual[a], unit): 2})
        yield f"N({a},{a}*,1) = 0", FusionRing(
            labels, unit, dual, {**ring.N, (a, dual[a], unit): 0})
    yield "dual(unit)", FusionRing(labels, unit, {**dual, unit: labels[-1]},
                                   ring.N)
    yield from _ring_mutations(ring, 20, rng)


@pytest.mark.parametrize("name", ALL_BUNDLED)
def test_ring_axiom_checks_match_the_label_loops(name):
    # one pass over the stored rows decides each item and names the same
    # last failure as the loops over every label pair and triple
    ring = bundled(name).ring
    rng = random.Random(name)
    failing = set()
    for what, r in [(None, ring), *_ring_breakages(ring, rng)]:
        got = r.ring_axiom_checks()
        assert got == _reference_ring_axiom_checks(r), (name, what)
        failing |= {item for item, ok, _ in got if not ok}
    if len(ring.labels) > 1:
        assert failing == {"unit", "dual", "associativity"}, name


@pytest.mark.parametrize("name", ALL_BUNDLED)
def test_block_layout_matches_the_label_loops(name):
    # one pass over the stored rows lays out every block with both channel
    # lists in label order, on broken and multiplicity-2 rings too
    cat = bundled(name)
    gauged = gauge_transform(cat, random_gauge(cat, SplitMix64(5)))
    assert gauged.ring.blocks is cat.ring.blocks
    rings = [("spec", cat.ring), ("reversed", reverse_category(cat).ring),
             *_ring_breakages(cat.ring, random.Random(name))]
    for what, ring in rings:
        assert ring.blocks == walked_f_layout(ring), (name, what)
    assert any(not r.is_multiplicity_free() for _, r in rings)


def _with_entries(cat, changes):
    return Category(cat.name, cat.ring, FSymbolSet({**cat.F.entries,
                                                    **changes}),
                    cat.pivotal, cat.conductor)


def _f_sanity_cases(name):
    """The spec, its reversal and a wide gauge; every ring breakage; every
    admissible F entry set to 0, and every unit entry set to -1 and 2."""
    cat = bundled(name)
    yield "spec", cat
    yield "reversed", reverse_category(cat)
    yield "wide gauge", gauge_transform(cat, wide_gauge(cat))
    for what, ring in _ring_breakages(cat.ring, random.Random(name)):
        yield what, Category(cat.name, ring, cat.F, cat.pivotal, cat.conductor)
    for (a, b, c, d), (es, fs) in walked_f_layout(cat.ring).items():
        for key in ((a, b, c, d, e, f) for e in es for f in fs):
            yield (key, 0), _with_entries(cat, {key: Cyc.zero()})
    for key in _unit_keys(cat):
        for value in (-1, 2):
            yield (key, value), _with_entries(cat, {key: Cyc.rational(value)})
    if name == "fibonacci":  # a 2x2 block with proportional rows
        yield "proportional rows", _with_entries(cat, {
            tuple("ttttt1"): cat.F.get(tuple("tttt11")),
            tuple("tttttt"): cat.F.get(tuple("tttt1t"))})


@pytest.mark.parametrize("name", ALL_BUNDLED)
def test_f_sanity_matches_the_walk(name):
    # decided from the block shapes and the stored entries, the two items
    # name the same last failure as the walk that lays out every block
    details = set()
    for what, c in _f_sanity_cases(name):
        report = validate(c)
        if report.structural_errors:
            continue
        got = [i for i in report.items if i.group == "F"
               and i.name in ("unit normalization", "invertibility")]
        want = walked_f_items(c)
        assert got == want, (name, what)
        details |= {i.detail.rpartition(" ")[2] for i in got if not i.ok}
    if len(bundled(name).labels) > 1:
        assert details == {"identity", "square", "singular"}, name


def _same_f_table(c1, c2):
    def table(c):
        return {k: v for k, v in c.F.entries.items() if v != 1}
    return c1.ring.N == c2.ring.N and table(c1) == table(c2)


@pytest.mark.parametrize("name", ALL_BUNDLED)
def test_f_mutations_give_a_report_not_an_exception(name):
    # a mutation is valid exactly when its F-table is certified data: a
    # deleted entry that was 1, or semion turned into the trivial Z2 table
    cat = bundled(name)
    certified = [bundled(n) for n in ALL_BUNDLED]
    for what, mutated in _single_entry_mutations(cat):
        expect_valid = any(_same_f_table(mutated, c) for c in certified)
        for c in (mutated, mutated.with_pivotal(None)):
            report = validate(c)
            assert isinstance(report, ValidationReport)
            assert report.valid == expect_valid, (what, report.first_failure())
            if c.pivotal is not None and not expect_valid:
                mono = report.items[-1]
                assert mono.name == "monoidality" and not mono.ok


# -- Frobenius-Perron ---------------------------------------------------------


def test_fp_dimension_fibonacci_matches_eigenvalue():
    # independent oracle: closed form for the largest eigenvalue of [[0,1],[1,1]]
    want = (1 + math.sqrt(5)) / 2
    got = fp_dimension(bundled("fibonacci"), "t")
    assert abs(got - want) < 1e-12
    assert abs(got - 1.618033988749895) < 1e-12


def test_fp_dimension_unit_is_one(any_bundled):
    assert abs(fp_dimension(any_bundled, any_bundled.unit) - 1.0) < 1e-12


def test_fp_dimension_ty_sigma():
    # sigma (x) sigma = sum of 4 invertibles, so rho_sigma pairs the point
    # sector with sigma and the eigenvalue is sqrt(4) = 2
    assert abs(fp_dimension(bundled("ty_z2z2_plus"), "sigma") - 2.0) < 1e-12


def test_fp_dimension_additive_over_sums(any_bundled):
    cat = any_bundled
    labels = cat.labels[: min(3, len(cat.labels))]
    expr = ObjectExpr({a: i + 1 for i, a in enumerate(labels)})
    total = sum((i + 1) * fp_dimension(cat, a) for i, a in enumerate(labels))
    assert abs(fp_dimension(cat, expr) - total) < 1e-9
    for a in cat.labels:
        assert fp_dimension(cat, a) >= 1.0 - 1e-12


def test_zero_object_rejected():
    with pytest.raises(ValueError):
        ObjectExpr({})
    with pytest.raises(ValueError):
        ObjectExpr({"t": 0})


def test_object_expr_grammar():
    fib = bundled("fibonacci")
    e = ObjectExpr.parse("t+2*1", fib.labels)
    assert e.multiplicity("t") == 1 and e.multiplicity("1") == 2
    with pytest.raises(ValueError):
        ObjectExpr.parse("t+", fib.labels)
    with pytest.raises(ValueError):
        ObjectExpr.parse("q", fib.labels)
    with pytest.raises(ValueError):
        ObjectExpr.parse("-1*t", fib.labels)


# -- gauge transformation ------------------------------------------------------


def _same_f_data(c1, c2):
    # omitted admissible entries default to 1, so compare semantically
    for (a, b, c, d), (es, fs) in walked_f_layout(c1.ring).items():
        for e in es:
            for f in fs:
                if c1.f_entry(a, b, c, d, e, f) != c2.f_entry(a, b, c, d, e, f):
                    return False
    return True


def test_identity_gauge_is_identity(any_bundled):
    cat = any_bundled
    u = {(a, b, c): Cyc.one() for (a, b, c) in cat.ring.admissible_triples()}
    out = gauge_transform(cat, u)
    assert _same_f_data(out, cat)
    assert out.pivotal.t == cat.pivotal.t


def test_missing_gauge_entry_rejected():
    fib = bundled("fibonacci")
    with pytest.raises(GaugeError):
        gauge_transform(fib, {})
    with pytest.raises(GaugeError):
        gauge_transform(fib, {("t", "t", "1"): Cyc.zero(),
                              ("t", "t", "t"): Cyc.one()})


def test_gauged_fibonacci_keeps_pentagon():
    fib = bundled("fibonacci")
    u = {("t", "t", "1"): root_of_unity(5, 1), ("t", "t", "t"): Cyc.one()}
    out = gauge_transform(fib, u)
    assert validate(out).valid


def test_vec_z2_gauge_cancels_in_f():
    v2 = bundled("vec_z2")
    u = {("g", "g", "1"): Cyc.rational(-1)}
    out = gauge_transform(v2, u)
    # the four gauge factors cancel on [F^{ggg}_g]
    assert out.f_entry("g", "g", "g", "g", "1", "1") == \
        v2.f_entry("g", "g", "g", "g", "1", "1")
    assert validate(out).valid


@pytest.mark.parametrize("name", ALL_BUNDLED)
def test_randomized_gauges_preserve_validity(name):
    cat = bundled(name)
    rng = SplitMix64(20240809)
    trials = 20
    for _ in range(trials):
        out = gauge_transform(cat, random_gauge(cat, rng))
        report = validate(out)
        assert report.valid, (name, report.first_failure())


@pytest.mark.parametrize("name", ALL_BUNDLED)
def test_gauge_transform_matches_the_division_reference(name):
    # the spec and its reversal, each under a root-of-unity and a wide gauge
    cat = bundled(name)
    for c in (cat, reverse_category(cat)):
        for u in (random_gauge(c, SplitMix64(20261019)), wide_gauge(c)):
            got, want = gauge_transform(c, u), divided_gauge_transform(c, u)
            assert list(got.F.entries.items()) == \
                list(want.F.entries.items()), c.name
            assert got.conductor == want.conductor, c.name
            assert got.pivotal.t == want.pivotal.t, c.name


@pytest.mark.parametrize("name", ALL_BUNDLED)
def test_gauged_conductor_is_the_lcm_of_reduced_conductors(name):
    # gauges at zeta_2N store entries outside Q(zeta_N), which takes the
    # reduced_key branch of the conductor update
    cat = bundled(name)
    rng = SplitMix64(20261018)
    for order in (cat.conductor, 2 * cat.conductor):
        u = {t: root_of_unity(order, rng.next() % order)
             for t in cat.ring.admissible_triples() if cat.unit not in t[:2]}
        out = gauge_transform(cat, u)
        want = math.lcm(cat.conductor, *(v.reduced_key()[0]
                                         for v in out.F.entries.values()))
        assert out.conductor == want, (name, order)


# -- validate report text ---------------------------------------------------------


def _fib_with(changes):
    """Fibonacci with some F entries replaced; a key is its six one-letter
    labels as a string."""
    fib = bundled("fibonacci")
    entries = dict(fib.F.entries)
    entries.update({tuple(k): v for k, v in changes.items()})
    return Category("fibonacci", fib.ring, FSymbolSet(entries), fib.pivotal,
                    fib.conductor)


def _report_lines(*middle, pentagon="", pivotal=""):
    head = ["category: fibonacci", "PASS ring: unit", "PASS ring: dual",
            "PASS ring: associativity", "PASS F: unit normalization"]
    return head + list(middle) + [
        "PASS F: duality normalization",
        "FAIL pentagon: pentagon identity  [first failing 5-tuple "
        f"(a,b,c,d,e) = {pentagon}]",
        "PASS pivotal: t(unit) = 1", "PASS pivotal: coefficients nonzero",
        "PASS pivotal: dual-inverse",
        f"FAIL pivotal: monoidality  [not checked: {pivotal}]", "INVALID"]


def test_report_names_a_zero_one_by_one_block_singular():
    cat = _fib_with({"ttt1tt": Cyc.zero()})
    assert validate(cat).lines() == _report_lines(
        "FAIL F: invertibility  [[F^(t,t,t)_1] is singular]",
        pentagon="('t', 't', 't', 't', '1')", pivotal="F/invertibility")


def test_a_zero_one_by_one_block_raises_the_singular_matrix_error():
    # the 1x1 inverse skips Gauss-Jordan but keeps its error, on the
    # category and on a gauge copy of it; no ZeroDivisionError escapes
    cat = _fib_with({"ttt1tt": Cyc.zero()})
    gauged = gauge_transform(cat, random_gauge(cat, SplitMix64(3)))
    for c in (cat, gauged):
        with pytest.raises(ValueError, match="^singular matrix$"):
            c.f_inv_block("t", "t", "t", "1")
        with pytest.raises(ValueError, match="^singular matrix$"):
            c.f_inv_entry("t", "t", "t", "1", "t", "t")
    assert "FAIL F: invertibility  [[F^(t,t,t)_1] is singular]" in \
        validate(cat).lines()


def test_report_names_a_two_by_two_block_with_proportional_rows_singular():
    fib = bundled("fibonacci")
    cat = _fib_with({"ttttt1": fib.F.get(tuple("tttt11")),
                     "tttttt": fib.F.get(tuple("tttt1t"))})
    assert validate(cat).lines() == _report_lines(
        "FAIL F: invertibility  [[F^(t,t,t)_t] is singular]",
        pentagon="('t', 't', 't', 't', '1')", pivotal="F/invertibility")


def test_report_names_a_unit_block_that_is_not_the_identity():
    cat = _fib_with({"1ttttt": Cyc.rational(2)})
    assert validate(cat).lines() == [
        "category: fibonacci", "PASS ring: unit", "PASS ring: dual",
        "PASS ring: associativity",
        "FAIL F: unit normalization  [unit block [F^(1,t,t)_t] is not the "
        "identity]",
        "PASS F: invertibility", "PASS F: duality normalization",
        "FAIL pentagon: pentagon identity  [first failing 5-tuple "
        "(a,b,c,d,e) = ('1', '1', 't', 't', 't')]",
        "PASS pivotal: t(unit) = 1", "PASS pivotal: coefficients nonzero",
        "PASS pivotal: dual-inverse",
        "FAIL pivotal: monoidality  [not checked: F/unit normalization]",
        "INVALID"]


def test_report_names_a_block_that_is_not_square():
    # g (x) g = 1 + g: (sigma sigma) g -> g has two channels, sigma (sigma g)
    # -> g one
    ising = bundled("ising")
    ring = FusionRing(ising.labels, ising.unit, ising.ring.dual,
                      {**ising.ring.N, ("g", "g", "g"): 1})
    assert ring.is_multiplicity_free()
    cat = Category("ising", ring, ising.F, ising.pivotal, ising.conductor)
    assert validate(cat).lines() == [
        "category: ising", "PASS ring: unit", "PASS ring: dual",
        "FAIL ring: associativity  [associativity fails at (sigma,sigma,g)->g]",
        "PASS F: unit normalization",
        "FAIL F: invertibility  [[F^(sigma,sigma,g)_g] is not square]",
        "PASS F: duality normalization",
        "FAIL pentagon: pentagon identity  [first failing 5-tuple "
        "(a,b,c,d,e) = ('g', 'g', 'g', 'g', '1')]",
        "PASS pivotal: t(unit) = 1", "PASS pivotal: coefficients nonzero",
        "PASS pivotal: dual-inverse",
        "FAIL pivotal: monoidality  [not checked: ring/associativity]",
        "INVALID"]


ISING_KEY = ("g", "sigma", "g", "sigma", "sigma", "sigma")


def _ising_with(change):
    """Ising (conductor 8) with the entry at ISING_KEY mapped by change."""
    ising = bundled("ising")
    entries = {**ising.F.entries, ISING_KEY: change(ising.F.get(ISING_KEY))}
    return Category("ising", ising.ring, FSymbolSet(entries), ising.pivotal,
                    ising.conductor)


def test_entry_stored_at_twice_the_conductor_passes_membership():
    cat = _ising_with(lambda x: x.at_conductor(16))
    assert cat.F.get(ISING_KEY).conductor == 16
    assert validate(cat).lines() == validate(bundled("ising")).lines()


def test_entry_outside_the_field_fails_membership():
    cat = _ising_with(lambda x: x * root_of_unity(16, 1))
    assert validate(cat).lines() == [
        "category: ising",
        "STRUCTURAL F entry ('g', 'sigma', 'g', 'sigma', 'sigma', 'sigma') "
        "does not lie in Q(zeta_8)",
        "INVALID"]


def test_validate_certifies_blocks_without_inverting_them(monkeypatch):
    # each block with more than one channel is certified invertible by its
    # determinant on the F residues, so validate lays out no block and
    # leaves each exact inverse to the first kernel that reads it
    laid_out = []
    real = Category.f_block

    def counted(self, *key):
        laid_out.append(key)
        return real(self, *key)

    cats = []
    for name in ALL_BUNDLED:
        cat = load_bundled(name)
        cats += [cat, reverse_category(load_bundled(name)),
                 gauge_transform(cat, random_gauge(cat, SplitMix64(29)))]
    monkeypatch.setattr(Category, "f_block", counted)
    for c in cats:
        laid_out.clear()
        report = validate(c)
        assert laid_out == [], c.name
        assert not [k for k in c._cache if k[0] == "finv"], c.name
        assert not c._f_inv_entries, c.name
        items = [i for i in report.items if i.group == "F"
                 and i.name in ("unit normalization", "invertibility")]
        assert items == walked_f_items(c), c.name
        assert report.valid, c.name


def test_invertibility_falls_back_to_the_exact_inverse(monkeypatch):
    # a determinant that is zero mod m proves nothing: the block is then
    # inverted exactly, with the same report.  No bundled spec takes this
    # path, so the certificate is made to fail on every block.
    want = {name: validate(load_bundled(name)).lines() for name in ALL_BUNDLED}
    monkeypatch.setattr(category_module, "int_det", lambda rows: 0)
    for name in ALL_BUNDLED:
        cat = load_bundled(name)
        assert validate(cat).lines() == want[name], name
        assert {k[1:] for k in cat._cache if k[0] == "finv"} == {
            k for k, (es, _) in cat.ring.blocks.items() if len(es) > 1}, name


@pytest.mark.parametrize("name", ALL_BUNDLED)
def test_gauge_copies_transport_the_base_inverse_blocks(name, monkeypatch):
    # a gauge copy (and a gauge of it, and its with_pivotal copy) inverts
    # none of its own blocks: a 1x1 block inverts its entry, a larger one
    # scales the base's inverse block, which the base inverts once for all
    inverted = []
    monkeypatch.setattr(category_module, "mat_inv",
                        lambda m: inverted.append(m) or mat_inv(m))
    base = load_bundled(name)
    gauges = [random_gauge(base, SplitMix64(seed)) for seed in (41, 43)]
    gauges.append(wide_gauge(base))
    for i, u in enumerate(gauges):
        gauged = gauge_transform(base, u)
        for c in (gauged, gauge_transform(gauged, gauges[i - 1]),
                  gauged.with_pivotal(gauged.pivotal)):
            for key in c.ring.blocks:
                assert c.f_inv_block(*key) == mat_inv(c.f_block(*key)), \
                    (c.name, key)
    assert inverted == [base.f_block(*key)
                        for key, (es, _) in base.ring.blocks.items()
                        if len(es) > 1]


# -- the F-entry memo ------------------------------------------------------------


@pytest.mark.parametrize("name", ALL_BUNDLED)
def test_f_entry_memo_matches_the_blocks(name):
    cat = bundled(name)
    gauged = gauge_transform(cat, random_gauge(cat, SplitMix64(11)))
    # each category starts with an empty memo; the first sweep over a block
    # fills it and the second reads it back
    for c in (cat.with_pivotal(cat.pivotal), reverse_category(cat), gauged):
        for (a, b, x, d), (es, fs) in walked_f_layout(c.ring).items():
            blk, inv = c.f_block(a, b, x, d), c.f_inv_block(a, b, x, d)
            outside = [(e, fs[0]) for e in c.labels if e not in es] + \
                [(es[0], f) for f in c.labels if f not in fs]
            for _ in range(2):
                for e in es:
                    for f in fs:
                        assert c.f_entry(a, b, x, d, e, f) == \
                            blk[es.index(e)][fs.index(f)], (c.name, a, b, x, d, e, f)
                        assert c.f_inv_entry(a, b, x, d, f, e) == \
                            inv[fs.index(f)][es.index(e)], (c.name, a, b, x, d, f, e)
                for e, f in outside[:1]:
                    assert c.f_entry(a, b, x, d, e, f) == 0
                    assert c.f_inv_entry(a, b, x, d, f, e) == 0


# -- reversal -----------------------------------------------------------------


def test_reverse_category_valid(any_bundled):
    rev = reverse_category(any_bundled)
    assert validate(rev).valid


def test_reverse_twice_gives_back_the_data(any_bundled):
    cat = any_bundled
    twice = reverse_category(reverse_category(cat))
    assert twice.ring.N == cat.ring.N
    assert _same_f_data(twice, cat)
    assert twice.pivotal.t == cat.pivotal.t
    # the second reversal stores the spec's own entries, exactly
    assert twice.F.entries == {k: v for k, v in cat.F.entries.items()
                               if v != 1}
    for a in cat.labels:
        for n in range(1, 5):
            for r in range(n + 1):
                assert indicator(twice, a, n, r) == indicator(cat, a, n, r), \
                    (a, n, r)


def test_reverse_vec_z3_relabels():
    v3 = bundled("vec_z3")
    rev = reverse_category(v3)
    # abelian pointed: the reversed tensor is the original after a <-> -a
    relabel = {"1": "1", "g": "g2", "g2": "g"}
    for (a, b, c), v in v3.ring.N.items():
        assert rev.ring.n(relabel[a], relabel[b], relabel[c]) == v
    for n in range(1, 4):
        assert indicator(rev, "g", n, 1) == indicator(v3, "g2", n, 1)
