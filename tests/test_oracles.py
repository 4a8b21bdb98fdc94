import json
import math
from fractions import Fraction

import pytest

from fscat.category import validate
from fscat.cyclo import Cyc, galois_conjugate, root_of_unity
from fscat.oracles import (CocycleError, build_pointed, build_tambara_yamagami,
                           char_indicator, d4_table, q8_table,
                           solve_pentagon_rank2, sqrt_int,
                           standard_bicharacter, standard_cocycle)
from fscat.specio import category_from_dict, category_to_dict
from references import (SizeGuardError, brute_force_indicator, cyclic_table,
                        orthogonality_defect, q8_reps, s3_reps, s3_table)


TABLES = {
    "z4": cyclic_table(4),
    "s3": s3_table(),
    "d4": d4_table(),
    "q8": q8_table(),
}


@pytest.mark.parametrize("name", sorted(TABLES))
def test_character_orthogonality(name):
    table = TABLES[name]
    defect = orthogonality_defect(table)
    assert all(not x for row in defect for x in row)
    assert sum(table.class_sizes) == table.order
    # the power map at m = 1 is the identity
    for k in range(len(table.class_sizes)):
        assert table.power_class(k, 1) == k


def test_char_indicator_values():
    # (1/6) sum chi(g^2) over S3: classes e, transpositions, 3-cycles
    assert char_indicator(s3_table(), "std", 2, 1) == 1
    assert char_indicator(q8_table(), "dim2", 2, 1) == -1
    assert char_indicator(d4_table(), "dim2", 2, 1) == 1
    # Z/3 faithful character at n = 3: g^3 = e for every g
    z3 = cyclic_table(3)
    assert char_indicator(z3, "chi1", 3, 1) == 1
    assert char_indicator(z3, "chi1", 2, 1) == 0


def test_char_indicator_conjugation_symmetry():
    for table in TABLES.values():
        for name in table.characters:
            for n in range(1, 5):
                for r in range(n + 1):
                    lhs = galois_conjugate(char_indicator(table, name, n, r))
                    assert lhs == char_indicator(table, name, n, n - r)


def test_brute_force_trivial_and_sign():
    reps = s3_reps()
    for n in range(1, 5):
        for r in range(n):
            assert brute_force_indicator(reps["trivial"], n, r) == 1
    # invariants of sgn (x) sgn are one-dimensional; rotation acts trivially
    assert brute_force_indicator(reps["sign"], 2, 1) == 1


def test_matrix_reps_are_representations():
    for reps in (s3_reps(), q8_reps()):
        for rep in reps.values():
            table_char = rep.character()
            assert rep.matrices[rep.group.identity][0][0] == 1
            # closure: gh stays in the set with the right matrix
            from fscat.linalg import mat_equal, mat_mul
            elems = rep.group.elements
            for g in elems[:4]:
                for h in elems[:4]:
                    gh = rep.group.mult(g, h)
                    assert mat_equal(mat_mul(rep.matrices[g], rep.matrices[h]),
                                     rep.matrices[gh])


def test_char_indicator_agrees_with_brute_force():
    cases = [(s3_table(), s3_reps()), (q8_table(), q8_reps())]
    for table, reps in cases:
        for name, rep in reps.items():
            chi = rep.character()
            for n in range(1, 5):
                for r in range(n + 1):
                    want = brute_force_indicator(rep, n, r)
                    got = char_indicator(table, chi, n, r)
                    assert got == want, (table.group.name, name, n, r)


def test_group_indicators_are_rational_integers():
    for table in (s3_table(), q8_table(), d4_table()):
        for name in table.characters:
            for n in range(1, 5):
                val = char_indicator(table, name, n, 1)
                assert val.is_rational()
                assert val.rational_value().denominator == 1


def test_brute_force_size_guard():
    reps = s3_reps()
    with pytest.raises(SizeGuardError):
        brute_force_indicator(reps["std"], 6, 1)


# -- constructors -----------------------------------------------------------------


def test_sqrt_int_exact():
    for m in (1, 2, 3, 4, 5, 8, 12):
        v = sqrt_int(m)
        assert v * v == m
        e = v.embed()
        assert abs(e.real - math.sqrt(m)) < 1e-12 and abs(e.imag) < 1e-12


def test_build_pointed_families():
    v2 = build_pointed(2, standard_cocycle(2, 0))
    assert validate(v2).valid
    sem = build_pointed(2, standard_cocycle(2, 1))
    assert validate(sem).valid
    assert sem.f_entry("g", "g", "g", "g", "1", "1") == -1
    v3 = build_pointed(3, standard_cocycle(3, 0))
    assert validate(v3).valid


def test_bad_cocycles_rejected():
    omega = standard_cocycle(2, 0)
    omega[(1, 1, 1)] = root_of_unity(3, 1)  # breaks the cocycle condition
    with pytest.raises(CocycleError):
        build_pointed(2, omega)
    omega = standard_cocycle(2, 1)
    omega[(0, 1, 1)] = Cyc.rational(-1)  # breaks normalization
    with pytest.raises(CocycleError):
        build_pointed(2, omega)


def test_build_ty_ising():
    tau = 1 / sqrt_int(2)
    ising = build_tambara_yamagami((2,), standard_bicharacter((2,)), tau)
    assert validate(ising).valid


def test_build_ty_z2z2_pair():
    chi = standard_bicharacter((2, 2))
    plus = build_tambara_yamagami((2, 2), chi, Fraction(1, 2))
    minus = build_tambara_yamagami((2, 2), chi, Fraction(-1, 2))
    assert validate(plus).valid and validate(minus).valid


def test_ty_rejects_bad_tau_and_degenerate_chi():
    chi = standard_bicharacter((2, 2))
    with pytest.raises(ValueError):
        build_tambara_yamagami((2, 2), chi, Fraction(1, 3))
    with pytest.raises(ValueError):
        build_tambara_yamagami((2, 2), lambda x, y: Cyc.one(), Fraction(1, 2))


def test_rank2_solver():
    sols = solve_pentagon_rank2()
    assert len(sols) == 2
    vals = [c.f_entry("t", "t", "t", "t", "1", "1") for c in sols]
    # the two gauge classes carry Galois-conjugate diagonal entries
    assert galois_conjugate(vals[0]) == vals[0]  # real
    assert vals[0] != vals[1]
    assert vals[0] + vals[1] == -1  # both roots of x^2 + x - 1
    assert vals[0] * vals[1] == -1
    for cat in sols:
        assert validate(cat).valid
        from fscat.pivotal import enumerate_pivotal_structures
        assert enumerate_pivotal_structures(cat)


def test_rank2_mutation_breaks_pentagon():
    from fscat.category import Category, FSymbolSet, pentagon_failures
    fib = solve_pentagon_rank2()[0]
    entries = dict(fib.F.entries)
    entries[("t", "t", "t", "t", "1", "1")] = -entries[("t", "t", "t", "t", "1", "1")]
    mutated = Category("mut", fib.ring, FSymbolSet(entries), None, 5)
    assert pentagon_failures(mutated)


def test_generated_specs_round_trip(any_bundled):
    doc = category_to_dict(any_bundled)
    text = json.dumps(doc, sort_keys=True)
    back = category_from_dict(json.loads(text))
    assert validate(back).valid
    assert back.ring.N == any_bundled.ring.N
    assert back.F.entries == any_bundled.F.entries
    assert back.pivotal.t == any_bundled.pivotal.t
