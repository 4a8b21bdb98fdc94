"""Property tests of the Cyc kernel against an independent reference.

The reference keeps an element as ``(conductor, Fraction coordinates)`` and
does everything with plain polynomial arithmetic modulo Phi_n, where Phi_n
is rebuilt here from its numeric roots (not from ``cyclotomic_polynomial``).
Every ``Cyc`` result is compared with the reference, and every ``Cyc`` value
the tests see must be in the integer normal form.
"""

import math
from fractions import Fraction
from functools import lru_cache

import mpmath
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fscat import cyclo
from fscat.cyclo import Cyc, root_of_unity, triple_residues
from references import fraction_decode

CONDUCTORS = (1, 3, 4, 5, 7, 8, 9, 12, 15, 24)


# -- reference: Fraction polynomials modulo Phi_n --------------------------


@lru_cache(maxsize=None)
def ref_phi(n):
    """Integer coefficients of prod (x - e^(2 pi i k/n)) over k prime to n."""
    with mpmath.workdps(60):
        poly = [mpmath.mpc(1)]
        for k in range(1, n + 1):
            if math.gcd(k, n) == 1:
                root = mpmath.exp(2j * mpmath.pi * k / n)
                poly = [(poly[i - 1] if i else 0)
                        - root * (poly[i] if i < len(poly) else 0)
                        for i in range(len(poly) + 1)]
        return tuple(int(mpmath.nint(c.real)) for c in poly)


def ref_reduce(n, poly):
    """Remainder of a polynomial (ascending Fractions) modulo Phi_n."""
    mod = ref_phi(n)
    deg = len(mod) - 1
    poly = list(poly) + [Fraction(0)] * max(0, deg - len(poly))
    for k in range(len(poly) - 1, deg - 1, -1):
        c = poly[k]
        if c:
            for i in range(deg + 1):
                poly[k - deg + i] -= c * mod[i]
    return tuple(poly[:deg])


def ref(x):
    return x.conductor, x.coeffs


def ref_subst(r, m, step):
    """sum_j c_j z^(j*step) at conductor m."""
    _, coords = r
    poly = [Fraction(0)] * ((len(coords) - 1) * step + 1)
    for j, c in enumerate(coords):
        poly[j * step] += c
    return m, ref_reduce(m, poly)


def ref_lift(r, m):
    return ref_subst(r, m, m // r[0])


def ref_common(r, s):
    m = math.lcm(r[0], s[0])
    return ref_lift(r, m), ref_lift(s, m)


def ref_add(r, s):
    (m, a), (_, b) = ref_common(r, s)
    return m, tuple(x + y for x, y in zip(a, b))


def ref_mul(r, s):
    (m, a), (_, b) = ref_common(r, s)
    prod = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += x * y
    return m, ref_reduce(m, prod)


def ref_galois(r, k):
    n, coords = r
    return ref_subst((n, coords), n, k % n)


def ref_eq(r, s):
    (_, a), (_, b) = ref_common(r, s)
    return a == b


def ref_rational(q):
    return 1, (Fraction(q),)


def ref_monomial(n, k, q):
    """q z^k at conductor n, reduced modulo the reference Phi_n."""
    return n, ref_reduce(n, [Fraction(0)] * k + [Fraction(q)])


# -- strategies -----------------------------------------------------------

coordinates = st.one_of(
    st.just(0),
    st.integers(-9, 9),
    st.fractions(min_value=-4, max_value=4, max_denominator=6),
)


@st.composite
def elements(draw, conductors=CONDUCTORS, coords=coordinates):
    n = draw(st.sampled_from(conductors))
    phi = len(ref_phi(n)) - 1
    return Cyc(n, draw(st.lists(coords, min_size=phi, max_size=phi)))


@st.composite
def related_triples(draw):
    """Three elements whose conductors divide one conductor of the list."""
    n = draw(st.sampled_from(CONDUCTORS))
    divisors = tuple(d for d in CONDUCTORS if n % d == 0)
    return tuple(draw(elements(divisors)) for _ in range(3))


nonzero_rationals = st.fractions(
    min_value=-5, max_value=5, max_denominator=7).filter(bool)


@st.composite
def monomials(draw):
    """(n, k, q, q zeta_n^k): every conductor of the list, every k < n, so
    the powers with k >= phi(n) come reduced, and a signed rational q."""
    n = draw(st.sampled_from(CONDUCTORS))
    k = draw(st.integers(0, n - 1))
    q = draw(nonzero_rationals)
    return n, k, q, q * root_of_unity(n, k)


def assert_normal(x):
    n, num, den = x.conductor, x.num, x.den
    assert type(den) is int and den > 0
    assert all(type(c) is int for c in num)
    assert len(num) == len(ref_phi(n)) - 1
    assert math.gcd(den, *num) == 1
    if not any(num):
        assert den == 1


def check(x, expected):
    assert_normal(x)
    assert ref_eq(ref(x), expected), (x, expected)


# -- properties -------------------------------------------------------------


@given(elements(), elements())
def test_add_sub_mul_neg_match_reference(a, b):
    check(a + b, ref_add(ref(a), ref(b)))
    check(a * b, ref_mul(ref(a), ref(b)))
    check(-a, (a.conductor, tuple(-c for c in ref(a)[1])))
    check(a - b, ref_add(ref(a), ref_mul(ref(b), ref_rational(-1))))


@given(elements(), st.integers(-20, 20),
       st.fractions(min_value=-5, max_value=5, max_denominator=7))
def test_mixed_operands_match_reference(a, k, q):
    for s in (k, q):
        check(a + s, ref_add(ref(a), ref_rational(s)))
        check(s + a, ref_add(ref(a), ref_rational(s)))
        check(a * s, ref_mul(ref(a), ref_rational(s)))
        check(s * a, ref_mul(ref(a), ref_rational(s)))
        check(s - a, ref_add(ref_rational(s), ref_mul(ref(a), ref_rational(-1))))


@given(related_triples())
def test_ring_axioms(triple):
    a, b, c = triple
    zero, one = Cyc.zero(), Cyc.one()
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a + b == b + a
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert a + zero == a and a * one == a
    assert not (a + (-a))
    assert_normal(a * (b + c))


@given(elements(), elements())
def test_inverse_and_division(a, b):
    if not a:
        with pytest.raises(ZeroDivisionError):
            a.inverse()
        with pytest.raises(ZeroDivisionError):
            b / a
        return
    inv = a.inverse()
    assert_normal(inv)
    assert ref_eq(ref_mul(ref(a), ref(inv)), ref_rational(1))
    quotient = b / a
    check(quotient, ref_mul(ref(b), ref(inv)))
    assert quotient * a == b
    assert a ** -1 == inv


def check_monomial_inverse(n, k, q, m, b):
    check(m, ref_monomial(n, k, q))
    inv = m.inverse()
    check(inv, ref_monomial(n, (n - k) % n, 1 / q))
    quotient = b / m
    check(quotient, ref_mul(ref(b), ref(inv)))
    assert quotient * m == b
    assert m ** -1 == inv


@given(monomials(), elements())
def test_monomial_inverse_and_division(monomial, b):
    check_monomial_inverse(*monomial, b)


def test_every_monomial_power_inverts():
    # each root of unity of each conductor, with both signs
    b = Cyc(3, (Fraction(1, 2), -2))
    for n in CONDUCTORS:
        for k in range(n):
            for q in (Fraction(-3, 7), 1):
                check_monomial_inverse(n, k, q, q * root_of_unity(n, k), b)


@given(st.integers(1, 48), st.integers(-100, 100))
def test_root_of_unity_is_the_power_table_element(n, k):
    # zeta_n^k equals the power-table element z^k at conductor n and the
    # reference monomial; it lives at conductor 1 exactly when it is +-1,
    # 2k = 0 mod n, so the rational fast paths see it, and 1 is the
    # Cyc.one() singleton
    x = root_of_unity(n, k)
    assert x == Cyc(n, cyclo._reduce_power(n, k))
    check(x, ref_monomial(n, k % n, 1))
    assert (x.conductor == 1) == (2 * k % n == 0)
    assert (x is Cyc.one()) == (k % n == 0)


def test_root_exponent_reads_every_root_of_unity():
    # s z_n^k = z_m^j with j / m the reduced k / n, plus 1/2 when s = -1;
    # its rational multiples other than itself are no roots of unity
    for n in CONDUCTORS:
        for k in range(n):
            for s in (1, -1):
                x = s * root_of_unity(n, k)
                want = Fraction(2 * k + (n if s < 0 else 0), 2 * n) % 1
                assert cyclo._root_exponent(x) == \
                    (want.numerator, want.denominator), (n, k, s)
                for q in (2, Fraction(1, 3), Fraction(-3, 7)):
                    assert cyclo._root_exponent(q * x) is None, (n, k, s, q)
    for x in (Cyc.zero(), 1 + root_of_unity(4, 1), 2 + root_of_unity(5, 2)):
        assert cyclo._root_exponent(x) is None, x


@given(elements(), st.fractions(min_value=-5, max_value=5, max_denominator=7))
def test_division_by_rationals(a, q):
    if not q:
        with pytest.raises(ZeroDivisionError):
            a / q
        return
    check(a / q, ref_mul(ref(a), ref_rational(1 / q)))
    check(Cyc.rational(q).inverse(), ref_rational(1 / q))


@given(st.sampled_from(CONDUCTORS).flatmap(
    lambda n: st.tuples(elements((n,)), elements((n,)),
                        st.sampled_from([k for k in range(1, 2 * n + 1)
                                         if math.gcd(k, n) == 1]))))
def test_galois_action_is_a_homomorphism(args):
    a, b, k = args
    check(a.galois(k), ref_galois(ref(a), k))
    assert (a * b).galois(k) == a.galois(k) * b.galois(k)
    assert (a + b).galois(k) == a.galois(k) + b.galois(k)
    assert a.conjugate().conjugate() == a


@given(elements(), st.sampled_from((1, 2, 3, 5)))
def test_at_conductor_and_cross_conductor_identity(a, factor):
    m = a.conductor * factor
    lifted = a.at_conductor(m)
    check(lifted, ref_lift(ref(a), m))
    assert lifted.conductor == m
    assert lifted == a and a == lifted
    assert hash(lifted) == hash(a)
    assert lifted.reduced_key() == a.reduced_key()
    low = a.reduced()
    assert_normal(low)
    assert low == a and hash(low) == hash(a)
    assert a.conductor % low.conductor == 0
    assert all(type(c) is Fraction for c in a.reduced_key()[1])
    # minimal: low lies in no Q(zeta_e) for a proper divisor e, i.e. some
    # Galois map fixing Q(zeta_e) moves it
    d = low.conductor
    for e in range(1, d):
        if d % e == 0:
            assert any(low.galois(k) != low for k in range(1, d + 1)
                       if math.gcd(k, d) == 1 and k % e == 1 % e), (a, e)


@given(elements(), elements())
def test_equality_matches_reference(a, b):
    assert (a == b) == ref_eq(ref(a), ref(b))
    if a == b:
        assert hash(a) == hash(b)


@given(elements())
def test_encode_decode_round_trip(a):
    enc = a.encode()
    back = Cyc.decode(enc)
    assert_normal(back)
    assert back == a and hash(back) == hash(a)
    assert back.encode() == enc


# spellings of a coordinate off the integer reading of ``p`` and ``p/q``,
# one past the interpreter's digit limit for ``int``, and entries that are
# no string
SPELLINGS = ("+3", " 1/2", "3/6", "-0", "0/5", "1/0", "-4/00", "1.5", "1e3",
             "x", "1_000", "\u0663", "1/-2", "--1", "-", "/2", "1/", "1/2/3",
             "9" * 5000, 3, 1.5, None, ["1"])
digits = st.text("0123456789", min_size=1, max_size=25)
coordinate_strings = st.one_of(
    st.integers(-10 ** 30, 10 ** 30).map(str),
    st.builds("{}{}/{}".format, st.sampled_from(("", "-")), digits, digits),
    st.sampled_from(SPELLINGS))


@st.composite
def encodings(draw):
    """{"N": n, "c": strings}: phi(n) coordinates, or one more or fewer."""
    n = draw(st.sampled_from(CONDUCTORS))
    size = max(0, len(ref_phi(n)) - 1 + draw(st.sampled_from((0, 0, -1, 1))))
    return {"N": n, "c": draw(st.lists(coordinate_strings, min_size=size,
                                       max_size=size))}


def decoded(decode, data):
    """(conductor, num, den) of ``decode(data)``, or its ValueError's text."""
    try:
        x = decode(data)
    except ValueError as exc:
        return str(exc)
    return x.conductor, x.num, x.den


@given(encodings())
def test_decode_matches_the_fraction_route(data):
    got = decoded(Cyc.decode, data)
    assert got == decoded(fraction_decode, data)
    if not isinstance(got, str):
        assert_normal(Cyc.decode(data))


@given(elements(), st.integers(-12, 12))
def test_int_equality_agrees_with_rational(a, k):
    rational = Cyc.rational(k)
    assert (a == k) == (a == rational) == (k == a)
    head = a.num[0]
    assert (a == head) == (a == Cyc.rational(head))
    assert (rational == k) and not (rational != k)
    # equal values hash equally, at any conductor and for Fraction operands
    assert hash(rational) == hash(k) and (a != head or hash(a) == hash(head))
    assert hash(Cyc.rational(Fraction(k, 7))) == hash(Fraction(k, 7))


# -- residues of sums of triple products ------------------------------------

RESIDUE_CONDUCTORS = (1, 3, 4, 5, 8, 12)


def _triple_sum(values, products):
    """sum of sign * x_i x_j x_k; an index None stands for 1."""
    total = Cyc.zero()
    for sign, *idx in products:
        term = Cyc.rational(sign)
        for i in idx:
            term = term if i is None else term * values[i]
        total = total + term
    return total


@st.composite
def triple_sums(draw):
    """(values, terms, products) for a signed sum of at most terms triple
    products; half the sums vanish, through the value -sum and the term
    (-sum) * 1 * 1."""
    n = draw(st.sampled_from(RESIDUE_CONDUCTORS))
    divisors = tuple(d for d in RESIDUE_CONDUCTORS if n % d == 0)
    height = draw(st.sampled_from((1, 9, 10 ** 4)))
    den = draw(st.sampled_from((1, 6, 35, 1024)))
    coords = st.fractions(min_value=-height, max_value=height,
                          max_denominator=den)
    values = draw(st.lists(elements(divisors, coords), min_size=1, max_size=5))
    terms = draw(st.integers(2, 5))
    vanish = draw(st.booleans())
    index = st.one_of(st.none(), st.integers(0, len(values) - 1))
    products = draw(st.lists(
        st.tuples(st.sampled_from((1, -1)), index, index, index),
        min_size=1, max_size=terms - vanish))
    if vanish:
        values.append(-_triple_sum(values, products))
        products.append((1, len(values) - 1, None, None))
    return values, terms, products


@given(triple_sums())
def test_triple_residues_vanish_exactly_with_the_sum(case):
    values, terms, products = case
    m, one, res = triple_residues(values, terms)
    acc = 0
    for sign, *idx in products:
        term = sign
        for i in idx:
            term *= one if i is None else res[i]
        acc += term
    assert (acc % m == 0) == (_triple_sum(values, products) == 0)
