import copy
import math
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from fscat.cyclo import (Cyc, cyclotomic_polynomial, embed_complex, euler_phi,
                         field_arith, galois_conjugate, root_of_unity)


def z(n, k=1):
    return root_of_unity(n, k)


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    # phi matches the textbook values
    assert [euler_phi(n) for n in (1, 2, 3, 4, 8, 9, 12)] == [1, 1, 2, 2, 4, 6, 4]


def test_euler_phi_is_the_degree_of_the_cyclotomic_polynomial():
    for n in range(1, 301):
        assert euler_phi(n) == len(cyclotomic_polynomial(n)) - 1, n
    with pytest.raises(ValueError):
        euler_phi(0)


@pytest.mark.parametrize("n", [2 ** 40, 2 ** 61 - 1], ids=["2^40", "prime"])
def test_decode_refuses_a_conductor_too_large_for_its_coordinates(n):
    # phi(N) >= sqrt(N / 2), so one coordinate cannot encode these; the
    # refusal comes before phi(N) is computed or N factored
    with pytest.raises(ValueError, match="encoding field 'N'"):
        Cyc.decode({"N": n, "c": ["1"]})
    assert Cyc.decode({"N": 2, "c": ["1"]}) == 1
    assert Cyc.decode({"N": 8, "c": ["0", "0", "1", "0"]}) == z(4)


def test_root_of_unity_identities():
    assert z(1, 0) == 1
    assert z(4, 2) == -1
    assert sum((z(5, k) for k in range(5)), Cyc.zero()) == 0
    assert z(8) * z(8, 7) == 1
    assert z(3) + z(3, 2) == -1


def test_derived_product():
    # hand expansion (1+i)(1-i)/4 = 1/2
    half = Cyc.rational(Fraction(1, 2))
    val = (half + z(4) * half) * (half - z(4) * half)
    assert val == Fraction(1, 2)


def test_field_arith_dispatch():
    a, b = z(8) + 1, z(8, 3)
    assert field_arith(a, b, "add") == a + b
    assert field_arith(a, b, "sub") == a - b
    assert field_arith(a, b, "mul") == a * b
    assert field_arith(a, b, "div") * b == a
    with pytest.raises(ZeroDivisionError):
        field_arith(a, Cyc.zero(), "div")
    with pytest.raises(ValueError):
        field_arith(a, b, "pow")


def _lcg_sample(n, count, seed):
    state = seed
    out = []
    for _ in range(count):
        coeffs = []
        for _ in range(euler_phi(n)):
            state = (state * 6364136223846793005 + 1442695040888963407) % 2**64
            coeffs.append(Fraction(state % 7 - 3, 1 + state % 4))
        out.append(Cyc(n, coeffs))
    return out


@pytest.mark.parametrize("n", range(1, 25))
def test_field_axioms(n):
    a, b, c = _lcg_sample(n, 3, seed=n + 17)
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a + b == b + a
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert a + (-a) == 0
    if a:
        assert a * a.inverse() == 1
        assert (b / a) * a == b


@pytest.mark.parametrize("n", (3, 5, 8, 12, 15, 24))
def test_galois_conjugation_is_a_ring_automorphism(n):
    a, b = _lcg_sample(n, 2, seed=n)
    assert galois_conjugate(a * b) == galois_conjugate(a) * galois_conjugate(b)
    assert galois_conjugate(a + b) == galois_conjugate(a) + galois_conjugate(b)
    assert galois_conjugate(galois_conjugate(a)) == a
    assert galois_conjugate(Cyc.rational(Fraction(7, 3))) == Fraction(7, 3)
    emb = embed_complex(galois_conjugate(a))
    want = embed_complex(a).conjugate()
    assert abs(emb - want) < 1e-12


def test_embed_values():
    e6 = embed_complex(z(6))
    assert abs(e6 - complex(0.5, math.sin(math.pi / 3))) < 1e-14
    assert embed_complex(Cyc.rational(-1)) == complex(-1.0, 0.0)
    # 2 cos 72 = golden ratio - 1
    gold = embed_complex(z(5) + z(5, 4))
    assert abs(gold.real - (math.sqrt(5) - 1) / 2) < 1e-14
    assert abs(gold.imag) < 1e-14


def _reference_embed(v):
    import mpmath
    with mpmath.workdps(80):
        zeta = mpmath.e ** (2j * mpmath.pi / v.conductor)
        acc = mpmath.mpc(0)
        for c in reversed(v.coeffs):
            acc = acc * zeta + mpmath.mpf(c.numerator) / c.denominator
        return acc


def test_embed_accuracy_with_tall_coefficients():
    # height up to 10^6: the embedding must stay a ring homomorphism to
    # 1e-12 absolute, i.e. each embed sits within 1e-12 of the true value
    a = Cyc(8, [Fraction(10**6, 7), Fraction(-123456), Fraction(1, 3), 0])
    b = Cyc(8, [Fraction(3, 2), Fraction(10**5), 1, Fraction(-1, 9)])
    for v in (a, b, a + b):
        ref = _reference_embed(v)
        got = embed_complex(v)
        assert abs(got.real - float(ref.real)) < 1e-12
        assert abs(got.imag - float(ref.imag)) < 1e-12


COLD_PATH = """
import sys
from fractions import Fraction
import fscat, fscat.cli
from fscat.category import validate
from fscat.cyclo import Cyc
from fscat.indicators import indicator
from fscat.pivotal import attach_pivotal, enumerate_pivotal_structures
from fscat.specio import load_bundled
cat = load_bundled("ty_z2z2_plus")
assert validate(cat).valid
index = [s.t for s in enumerate_pivotal_structures(cat)].index(cat.pivotal.t)
indicator(attach_pivotal(cat, index), "sigma", 4, 1)
print("mpmath" in sys.modules)
v = Cyc(8, [Fraction(10**6, 7), Fraction(-123456), Fraction(1, 3), 0])
e = v.embed()
print("mpmath" in sys.modules, repr(e.real), repr(e.imag))
"""


def test_exact_work_never_loads_mpmath():
    # the float embedding imports mpmath at its first call; loading,
    # validating, enumerating pivotals and an exact indicator need no float
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    run = subprocess.run([sys.executable, "-c", COLD_PATH], env=env,
                         capture_output=True, text=True, check=True)
    cold, warm = run.stdout.splitlines()
    assert cold == "False"
    loaded, real, imag = warm.split()
    assert loaded == "True"
    ref = _reference_embed(
        Cyc(8, [Fraction(10**6, 7), Fraction(-123456), Fraction(1, 3), 0]))
    assert abs(float(real) - float(ref.real)) < 1e-12
    assert abs(float(imag) - float(ref.imag)) < 1e-12


def test_canonical_form_and_cross_conductor_equality():
    a = z(3).at_conductor(12)
    assert a == z(3)
    assert a.reduced_key() == z(3).reduced_key()
    assert hash(a) == hash(z(3))
    # a - b == 0 iff identical coefficients at the lcm conductor
    diff = a - z(3)
    assert not diff
    assert z(12) + z(12, 5) == z(4)  # lands in a proper subfield


def test_encode_decode_round_trip():
    vals = [Cyc.zero(), Cyc.rational(Fraction(-7, 2)), z(8) + 1,
            z(5, 2) / 3, z(12) * Fraction(2, 9)]
    for v in vals:
        enc = v.encode()
        assert set(enc) == {"N", "c"}
        assert Cyc.decode(enc) == v
    with pytest.raises(ValueError):
        Cyc.decode({"N": 4})
    with pytest.raises(ValueError):
        Cyc.decode({"N": 4, "c": ["1/2", "x"], "extra": 1})


def test_pow_and_inverse():
    a = z(7) + 2
    assert a ** 3 == a * a * a
    assert a ** -2 == (a * a).inverse()
    assert a ** 0 == 1


@pytest.mark.parametrize("n", [1, 5, 12])
def test_pickle_and_copy_round_trip(n):
    a = Cyc(n, [Fraction(k + 1, 3) for k in range(euler_phi(n))])
    for b in (pickle.loads(pickle.dumps(a)), copy.copy(a), copy.deepcopy(a)):
        assert b == a and hash(b) == hash(a)
        assert (b.conductor, b.num, b.den) == (a.conductor, a.num, a.den)


def test_coordinates_must_be_exact_rationals():
    # floats would be stored as their binary expansion, strings parsed
    with pytest.raises(TypeError):
        Cyc(4, [0.1, 0])
    with pytest.raises(TypeError):
        Cyc(4, ["1/3", 0])
    with pytest.raises(TypeError):
        Cyc.rational(0.5)
    with pytest.raises(TypeError):
        Cyc.one() * 0.1
    v = Cyc(4, [Fraction(1, 3), 2])
    assert v.coeffs == (Fraction(1, 3), Fraction(2))
    assert (v.num, v.den) == ((1, 6), 3)
