import math

import pytest

from conftest import (ALL_BUNDLED, PSEUDO_UNITARY, bundled, random_gauge,
                      wide_gauge)

from fscat.category import (fp_dimension, gauge_transform, reverse_category,
                            validate)
from fscat.cli import SplitMix64
from fscat.cyclo import Cyc, root_of_unity
from fscat.homcalc import LinMap, pivotal_trace
from fscat.pivotal import (_root_of_value, attach_pivotal, canonical_flags,
                           enumerate_pivotal_structures, global_dimension,
                           is_pseudo_unitary, normed_square)


def test_enumerate_vec_z2():
    v2 = bundled("vec_z2")
    sols = enumerate_pivotal_structures(v2)
    assert len(sols) == 2
    values = sorted(repr(s.t["g"]) for s in sols)
    assert values == ["Cyc(-1)", "Cyc(1)"]
    flags = canonical_flags(v2, sols)
    assert sum(flags) == 1


def test_enumerate_trivial():
    cat = bundled("trivial")
    sols = enumerate_pivotal_structures(cat)
    assert len(sols) == 1
    assert sols[0].t == {"1": Cyc.one()}


def test_enumerate_fibonacci():
    fib = bundled("fibonacci")
    sols = enumerate_pivotal_structures(fib)
    # trivial universal grading: the constraint solving leaves one solution
    assert len(sols) == 1
    assert canonical_flags(fib, sols) == [True]


def test_enumerated_solutions_validate(any_bundled):
    cat = any_bundled
    sols = enumerate_pivotal_structures(cat)
    assert sols, "every bundled spec admits a pivotal structure"
    for piv in sols:
        assert validate(cat.with_pivotal(piv)).valid


def test_bundled_pivotal_is_enumerated(any_bundled):
    cat = any_bundled
    sols = enumerate_pivotal_structures(cat)
    assert any(s.t == cat.pivotal.t for s in sols)


def test_attach_pivotal_choices():
    fib = bundled("fibonacci")
    bare = fib.with_pivotal(None)
    assert attach_pivotal(bare, "canonical").pivotal.t == fib.pivotal.t
    assert attach_pivotal(bare, "first").pivotal is not None
    yl = bundled("yang_lee").with_pivotal(None)
    with pytest.raises(ValueError):
        attach_pivotal(yl, "canonical")
    assert attach_pivotal(yl, "first").pivotal is not None


def test_attach_pivotal_refuses_an_index_out_of_range():
    v3 = bundled("vec_z3").with_pivotal(None)
    count = len(enumerate_pivotal_structures(v3))
    assert attach_pivotal(v3, str(count - 1)).pivotal is not None
    for index in (-1, "-1", -count, count):
        with pytest.raises(ValueError, match="pivotal index"):
            attach_pivotal(v3, index)


def _searched_root(c, d):
    """The d-th root of a root of unity c found by search: the order m of c
    by repeated products, then the j with c = z_m^j by comparison, then
    z_(m d)^j; None when no power of c up to the bound is 1."""
    if d == 1:
        return c
    n = c.reduced_key()[0]
    acc = Cyc.one()
    for m in range(1, 2 * n + 1):
        acc = acc * c
        if acc == 1:
            j = next(j for j in range(m) if c == root_of_unity(m, j))
            return root_of_unity(m * d, j)
    return None


def test_roots_are_read_as_the_search_found_them():
    # the same element at the same conductor, so every enumerated t(a)
    # keeps its repr
    for n in (1, 3, 4, 5, 7, 8, 9, 12, 15, 24):
        for k in range(n):
            for s in (1, -1):
                c = s * root_of_unity(n, k)
                for d in (1, 2, 3, 4):
                    got, want = _root_of_value(c, d), _searched_root(c, d)
                    assert (repr(got), got.conductor) == \
                        (repr(want), want.conductor), (n, k, s, d)
                    assert got ** d == c
    for c in (Cyc.rational(2), 1 + root_of_unity(4, 1)):
        assert _root_of_value(c, 1) is c
        assert _root_of_value(c, 3) is None is _searched_root(c, 3)


def _foreign_gauge(cat, m):
    """Gauge entries z_m^j at a conductor m of the gauge's choosing; on
    vec_z3 (m = 7, 8, 12) the relations need roots of z_7, -z_8^3 and
    z_12^3, where the bundled data only ever need roots of 1."""
    triples = [t for t in cat.ring.admissible_triples()
               if cat.unit not in t[:2]]
    return {t: root_of_unity(m, (5 * i + 1) % m) for i, t in enumerate(triples)}


def _families(cat, sols):
    return {tuple(s.t[a] for a in cat.labels) for s in sols}


@pytest.mark.parametrize("name", ALL_BUNDLED)
def test_enumeration_commutes_with_gauges(name):
    # t'(a) = t(a) ev'(a) / ev(a) carries the base's structures onto the
    # gauged category's, as sets, for root-of-unity and wide gauges alike
    base = bundled(name)
    sols = enumerate_pivotal_structures(base)
    gauges = [random_gauge(base, SplitMix64(seed)) for seed in (41, 43)]
    gauges.append(wide_gauge(base))
    gauges += [_foreign_gauge(base, m) for m in (7, 8, 12)]
    for i, u in enumerate(gauges):
        gauged = gauge_transform(base, u)
        if name == "vec_z3" and i == 2:
            # its roots are not roots of unity: refused, not mis-solved
            with pytest.raises(ArithmeticError, match="non-root-of-unity"):
                enumerate_pivotal_structures(gauged)
            continue
        ratio = {a: gauged.ev_coefficient(a) / base.ev_coefficient(a)
                 for a in base.labels}
        want = {tuple(s.t[a] * ratio[a] for a in base.labels) for s in sols}
        assert _families(gauged, enumerate_pivotal_structures(gauged)) == want


@pytest.mark.parametrize("name", ALL_BUNDLED)
def test_enumeration_of_the_reversal_inverts(name):
    base = bundled(name)
    rev = reverse_category(base)
    want = {tuple(s.t[a].inverse() for a in base.labels)
            for s in enumerate_pivotal_structures(base)}
    assert _families(rev, enumerate_pivotal_structures(rev)) == want


# -- dimension theory -----------------------------------------------------------


def test_normed_square_examples():
    v2 = bundled("vec_z2")
    assert normed_square(v2, "g") == 1
    assert normed_square(v2, "1") == 1
    fib = bundled("fibonacci")
    sq = normed_square(fib, "t")
    # |t|^2 = d^2 with d the golden ratio
    want = ((1 + math.sqrt(5)) / 2) ** 2
    assert abs(sq.embed().real - want) < 1e-12
    assert abs(sq.embed().real - 2.618033988749895) < 1e-9
    # independent of the pivotal rescaling: flip to the other solution
    other = [s for s in enumerate_pivotal_structures(v2)
             if s.t != v2.pivotal.t][0]
    assert normed_square(v2.with_pivotal(other), "g") == 1


def test_global_dimension_examples():
    assert global_dimension(bundled("vec_z2")) == 2
    assert global_dimension(bundled("trivial")) == 1
    gd = global_dimension(bundled("fibonacci"))
    assert abs(gd.embed().real - 3.618033988749895) < 1e-9
    assert abs(gd.embed().imag) < 1e-12


def test_global_dimension_is_real(any_bundled):
    gd = global_dimension(any_bundled)
    assert abs(gd.embed().imag) < 1e-12


@pytest.mark.parametrize("name", PSEUDO_UNITARY)
def test_pseudo_unitary_bundles(name):
    ok, gap = is_pseudo_unitary(bundled(name))
    assert ok and gap < 1e-9


def test_fibonacci_pseudo_unitary_gap_is_tiny():
    ok, gap = is_pseudo_unitary(bundled("fibonacci"))
    assert ok and gap < 1e-12


def test_corrupted_pivotal_rejected_by_validate():
    from fscat.category import PivotalData
    fib = bundled("fibonacci")
    bad = fib.with_pivotal(PivotalData({"1": Cyc.one(), "t": Cyc.rational(5)}))
    report = validate(bad)
    assert not report.valid
    assert any(i.group == "pivotal" and not i.ok for i in report.items)


def test_yang_lee_not_pseudo_unitary():
    ok, gap = is_pseudo_unitary(bundled("yang_lee"))
    assert not ok
    # the gap is the exact difference 1 + 1/phi^2 versus 1 + phi^2
    phi = (1 + math.sqrt(5)) / 2
    assert abs(gap - (phi ** 2 - phi ** -2)) < 1e-9


def test_semion_verdict_reported_for_both_pivotals():
    sem = bundled("semion")
    for piv in enumerate_pivotal_structures(sem):
        ok, gap = is_pseudo_unitary(sem.with_pivotal(piv))
        # the normed squares do not depend on the pivotal choice
        assert ok and gap < 1e-12


@pytest.mark.parametrize("name", PSEUDO_UNITARY)
def test_canonical_trace_matches_fpdim(name):
    cat = bundled(name)
    for a in cat.labels:
        tr = pivotal_trace(cat, LinMap.identity(cat, (a,)), "right")
        assert abs(tr.embed() - fp_dimension(cat, a)) < 1e-9
