"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Every tolerance is pinned here; all equalities not marked as numeric
are exact comparisons of cyclotomic numbers.
"""

import itertools
import time

from conftest import ALL_BUNDLED, PSEUDO_UNITARY, bundled

from fscat.category import (Category, FSymbolSet, ObjectExpr, fp_dimension,
                            gauge_transform, validate)
from fscat.cli import SplitMix64
from fscat.cyclo import Cyc, galois_conjugate, root_of_unity
from fscat.homcalc import LinMap, pivotal_trace
from fscat.indicators import (check_power_identity, check_reversal_symmetry,
                              fs_scalar, indicator)
from fscat.oracles import char_indicator, d4_table, q8_table
from references import brute_force_indicator, q8_reps, s3_reps, s3_table


def _line(num, ok, text):
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {text}")
    assert ok, f"criterion {num} failed"


def _pairs(cat):
    return list(itertools.combinations(cat.labels, 2))


def test_criterion_1_validation_and_mutations():
    t0 = time.time()
    ok = True
    for name in ALL_BUNDLED:
        if not validate(bundled(name)).valid:
            ok = False
    fib = bundled("fibonacci")
    for key in fib.F.entries:
        entries = dict(fib.F.entries)
        entries[key] = -entries[key]
        mutated = Category("mut", fib.ring, FSymbolSet(entries), None, 5)
        report = validate(mutated)
        pentagon = [i for i in report.items if i.group == "pentagon"]
        if not pentagon or pentagon[0].ok:
            ok = False
    elapsed = time.time() - t0
    ok = ok and elapsed < 5.0
    _line(1, ok, f"all bundled specs validate; every Fibonacci F-mutation "
          f"breaks the pentagon ({elapsed:.2f}s < 5s)")


def test_criterion_2_power_identity():
    t0 = time.time()
    ok = True
    for name in ALL_BUNDLED:
        cat = bundled(name)
        objects = [ObjectExpr.simple(a) for a in cat.labels]
        objects += [ObjectExpr({a: 1, b: 1}) for a, b in _pairs(cat)]
        for obj in objects:
            for n in range(1, 7):
                if not check_power_identity(cat, obj, n):
                    ok = False
    elapsed = time.time() - t0
    ok = ok and elapsed < 60.0
    _line(2, ok, f"(E^(n))^n = id exactly, simples and two-term sums, "
          f"n = 1..6, all bundled specs ({elapsed:.1f}s < 60s)")


def test_criterion_3_conjugation_symmetry():
    ok = True
    for name in ALL_BUNDLED:
        cat = bundled(name)
        objects = [ObjectExpr.simple(a) for a in cat.labels]
        objects += [ObjectExpr({a: 1, b: 1}) for a, b in _pairs(cat)]
        for obj in objects:
            for n in range(1, 7):
                for r in range(n + 1):
                    lhs = galois_conjugate(indicator(cat, obj, n, r))
                    if lhs != indicator(cat, obj, n, n - r):
                        ok = False
    _line(3, ok, "galois_conjugate(nu(n,r)) = nu(n,n-r) exactly on every "
          "criterion-2 cell")


def test_criterion_4_oracle_agreement():
    ok = True
    tym = bundled("ty_z2z2_minus")
    typ = bundled("ty_z2z2_plus")
    ok &= indicator(tym, "sigma", 2, 1) == Cyc.rational(-1)
    ok &= indicator(typ, "sigma", 2, 1) == Cyc.rational(1)
    ok &= char_indicator(q8_table(), "dim2", 2, 1) == Cyc.rational(-1)
    ok &= char_indicator(d4_table(), "dim2", 2, 1) == Cyc.rational(1)
    for table, reps in ((s3_table(), s3_reps()), (q8_table(), q8_reps())):
        for name, rep in reps.items():
            chi = rep.character()
            for n in range(1, 5):
                for r in range(n + 1):
                    if char_indicator(table, chi, n, r) != \
                            brute_force_indicator(rep, n, r):
                        ok = False
    _line(4, ok, "nu_2(sigma) = -1 on TY(-1/2) and +1 on TY(+1/2), matching "
          "the Q8 and D4 characters; char oracle = brute force on S3, Q8")


def test_criterion_5_nu2_range():
    allowed = (Cyc.zero(), Cyc.one(), Cyc.rational(-1))
    ok = True
    for name in PSEUDO_UNITARY:
        cat = bundled(name)
        for a in cat.labels:
            if indicator(cat, a, 2, 1) not in allowed:
                ok = False
    _line(5, ok, "nu_2 takes values in {0, +1, -1} on every pseudo-unitary "
          "bundled spec with its canonical pivotal structure")


def test_criterion_6_gauge_invariance():
    t0 = time.time()
    ok = True
    for name in ALL_BUNDLED:
        cat = bundled(name)
        base = {}
        for a in cat.labels:
            for n in range(1, 5):
                for r in range(1, n + 1):
                    base[(a, n, r)] = indicator(cat, a, n, r)
        rng = SplitMix64(0)
        for _ in range(20):
            u = {}
            for (a, b, c) in cat.ring.admissible_triples():
                if a == cat.unit or b == cat.unit:
                    continue
                u[(a, b, c)] = root_of_unity(cat.conductor,
                                             rng.next() % cat.conductor)
            gauged = gauge_transform(cat, u)
            for (a, n, r), want in base.items():
                if indicator(gauged, a, n, r) != want:
                    ok = False
    elapsed = time.time() - t0
    ok = ok and elapsed < 120.0
    _line(6, ok, f"20 seeded random gauges per spec leave all nu(n,r) "
          f"(n <= 4) exactly unchanged ({elapsed:.1f}s < 120s)")


def test_criterion_7_trace_formula():
    ok = True
    for name in ALL_BUNDLED:
        cat = bundled(name)
        for a in cat.labels:
            ident = LinMap.identity(cat, (a,))
            ptr_l = pivotal_trace(cat, ident, "left")
            ptr_r = pivotal_trace(cat, ident, "right")
            for n in range(1, 6):
                if indicator(cat, a, n, 1) != ptr_l * fs_scalar(cat, a, n, 0, 0):
                    ok = False
                for k in range(1, n):
                    if indicator(cat, a, n, k) != \
                            ptr_l * fs_scalar(cat, a, n, k - 1, 0):
                        ok = False
                    for ll in range(k):
                        rr = k - 1 - ll
                        if rr < 1:
                            continue
                        lhs = ptr_l * fs_scalar(cat, a, n, ll, rr)
                        rhs = ptr_r * fs_scalar(cat, a, n, ll + 1, rr - 1)
                        if lhs != rhs:
                            ok = False
    _line(7, ok, "nu_n = ptr_l(FS^(n)) and nu(n,k) = ptr_l(FS^(n,k)) exactly, "
          "n <= 5; trace-shift ptr_l FS^(n,l,r) = ptr_r FS^(n,l+1,r-1)")


def test_criterion_8_additivity():
    ok = True
    for name in ALL_BUNDLED:
        cat = bundled(name)
        for a, b in _pairs(cat):
            expr = ObjectExpr({a: 1, b: 1})
            for n in range(1, 5):
                lhs = indicator(cat, expr, n, 1)
                rhs = indicator(cat, a, n, 1) + indicator(cat, b, n, 1)
                if lhs != rhs:
                    ok = False
    _line(8, ok, "nu_n(V + W) = nu_n(V) + nu_n(W) exactly, all unordered "
          "pairs of simples, n <= 4")


def test_criterion_9_reversal_symmetry():
    ok = all(check_reversal_symmetry(bundled(name), n_max=4)
             for name in ALL_BUNDLED)
    _line(9, ok, "nu(n,k) of the reversed category equals nu(n,n-k), "
          "n <= 4, all simples")


def test_criterion_10_dimension_theory():
    ok = True
    fib = bundled("fibonacci")
    ok &= abs(fp_dimension(fib, "t") - 1.618033988749895) < 1e-12
    for name in PSEUDO_UNITARY:
        cat = bundled(name)
        from fscat.pivotal import is_pseudo_unitary
        verdict, gap = is_pseudo_unitary(cat)
        if not verdict or gap >= 1e-9:
            ok = False
        for a in cat.labels:
            tr = pivotal_trace(cat, LinMap.identity(cat, (a,)), "right")
            if abs(tr.embed() - fp_dimension(cat, a)) >= 1e-9:
                ok = False
    _line(10, ok, "FPdim(tau) = 1.618033988749895 (1e-12); catr(j) = FPdim "
          "(1e-9) and pseudo-unitarity gap < 1e-9 on canonical pivotals")
