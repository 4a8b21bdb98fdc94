"""Exact arithmetic in cyclotomic fields Q(zeta_N).

An element is a triple ``(conductor, num, den)`` of integers standing for
``(num[0] + num[1] z + ... + num[phi-1] z^(phi-1)) / den``: integer
numerators on the power basis of Q(zeta_N), reduced modulo the N-th
cyclotomic polynomial Phi_N, over one common denominator (the form ANTIC
and FLINT use for number-field elements).  The form is normal:
``den > 0``, ``gcd(den, *num) == 1``, and zero is stored with ``den == 1``,
so two equal elements at the same conductor have identical ``(num, den)``.
Operands at different conductors are coerced to the lcm conductor first.
The complex embedding used throughout is ``zeta_N = exp(2*pi*i/N)``; it
is the one use of mpmath, which the first float (``Cyc.embed``) imports, so
a process that computes only exact values never loads it.

Phi_N is monic, so every power z^k reduces to an integer vector; addition,
multiplication, coercion and the Galois action therefore run on Python
integers alone, through one integer power-reduction table per conductor.
``Fraction`` appears only at the edges: the public constructor, the
``coeffs`` view, ``reduced_key`` and the spec encoding; ``decode`` reads
the ``p`` and ``p/q`` strings that ``encode`` writes with ``int``, and
only other spellings of a rational through ``Fraction``.  Division is exact
too: a rational multiple of a root of unity, (p/q) z^j, inverts to
(q/p) z^(N-j); any other x inverts to the product c of its other Galois
conjugates over the field norm c * x, a nonzero rational.

The same numerator layout, evaluated at z = 2^s (Kronecker substitution),
packs whole matrices into Python integers for ``linalg.mat_mul``; the
packing, the slot-width bound and the unpacking live here.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import chain
from math import gcd

_F0 = Fraction(0)


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Integer coefficients of Phi_n, ascending degree, monic."""
    if n < 1:
        raise ValueError("conductor must be positive")
    poly = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            poly = _exact_polydiv(poly, cyclotomic_polynomial(d))
    return tuple(poly)


def _exact_polydiv(num, den):
    # den is monic; the remainder must vanish.
    num = list(num)
    dd = len(den) - 1
    out = [0] * (len(num) - dd)
    for k in range(len(out) - 1, -1, -1):
        c = num[k + dd]
        out[k] = c
        if c:
            for i in range(dd + 1):
                num[k + i] -= c * den[i]
    assert not any(num), "cyclotomic polynomial division left a remainder"
    return out


@lru_cache(maxsize=None)
def euler_phi(n: int) -> int:
    """phi(n), the degree of Phi_n, from the prime factors of n."""
    if n < 1:
        raise ValueError("conductor must be positive")
    phi, m, p = n, n, 2
    while p * p <= m:
        if not m % p:
            phi -= phi // p
            while not m % p:
                m //= p
        p += 1
    return phi - phi // m if m > 1 else phi


@lru_cache(maxsize=None)
def _power_table(n: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Row k = 0..n-1: the nonzero (index, coefficient) pairs of z^k mod Phi_n."""
    phi = euler_phi(n)
    mod = cyclotomic_polynomial(n)
    row = [1] + [0] * (phi - 1)
    rows = []
    for _ in range(n):
        rows.append(tuple((i, c) for i, c in enumerate(row) if c))
        # z^(k+1) = z * z^k, folding the overflow z^phi back with Phi_n
        top = row[-1]
        row = [0] + row[:-1]
        if top:
            for i in range(phi):
                row[i] -= top * mod[i]
    return tuple(rows)


@lru_cache(maxsize=None)
def _mul_plan(n: int):
    """(phi, folds): folds lists (k, row of z^k) for the product overflow."""
    phi = euler_phi(n)
    table = _power_table(n)
    return phi, tuple((k, table[k % n]) for k in range(phi, 2 * phi - 1))


# -- Kronecker packing for exact matrix products --------------------------
#
# A numerator vector v at conductor n packs into the one integer v(2^s) =
# sum_i v[i] 2^(s*i).  Sums of products of packed integers are the packed
# unreduced convolutions: slot k holds the coefficient of z^k, k < 2 phi - 1,
# before folding mod Phi_n.  A dot product of length `terms` has at most
# terms * phi products per slot, so terms * phi * h_a * h_b < 2^(s-1) keeps
# every slot inside the signed range and the unpacking exact.  Such a value
# v then has |v| < 2^(w-1) with w = (2 phi - 1) s, so packed values placed
# w bits apart (one matrix row) split back into signed w-bit chunks.


def kron_operands(a, b, terms: int):
    """Pack the operands of the matrix product a @ b of inner dimension terms.

    Returns (unpack, w, packed_a, packed_b): the mapping from a packed dot
    product to its ``Cyc`` value, the bit width w of one packed dot product,
    and each operand's entries as packed integers (0 for a zero entry).
    """
    n_a, den_a = _scan(a)
    n_b, den_b = _scan(b)
    n = math.lcm(n_a, n_b)
    h_a, num_a = _scaled_numerators(a, n, den_a)
    h_b, num_b = _scaled_numerators(b, n, den_b)
    # the least s with terms * phi * h_a * h_b < 2^(s-1)
    s = (terms * euler_phi(n) * h_a * h_b).bit_length() + 1
    if n != 1:  # at n = 1 an entry packs to its one numerator
        num_a = [[kron_pack(v, s) if v else 0 for v in row] for row in num_a]
        num_b = [[kron_pack(v, s) if v else 0 for v in row] for row in num_b]
    return (KronUnpacker(n, s, den_a * den_b), (2 * euler_phi(n) - 1) * s,
            num_a, num_b)


def _scan(matrix):
    """(least common conductor of the irrational entries, lcm of the
    denominators) of a matrix."""
    n = den = 1
    for row in matrix:
        for x in row:
            if den % x.den:
                den = math.lcm(den, x.den)
            if n % x.conductor and any(x.num[1:]):
                n = math.lcm(n, x.conductor)
    return n, den


def _scaled_numerators(matrix, n: int, den: int):
    """(height, rows): each entry's numerators at conductor n scaled to den,
    one integer per entry when n == 1, else a tuple (empty for a zero
    entry), and the largest absolute value among them."""
    if n == 1:
        rows = [[x.num[0] * (den // x.den) for x in row] for row in matrix]
        return max(map(abs, chain.from_iterable(rows)), default=0), rows
    pad = (0,) * (euler_phi(n) - 1)
    rows = []
    for row in matrix:
        vecs = []
        for x in row:
            num = x.num
            if not any(num):
                vecs.append(())
                continue
            if x.conductor != n:
                if any(num[1:]):
                    num = _image(num, n, n // x.conductor)
                else:
                    num = (num[0],) + pad
            f = den // x.den
            vecs.append(tuple([y * f for y in num]) if f != 1 else num)
        rows.append(vecs)
    coords = chain.from_iterable(chain.from_iterable(rows))
    return max(map(abs, coords), default=0), rows


def kron_pack(coeffs, s: int) -> int:
    """The integer vector evaluated at z = 2^s."""
    acc = 0
    for c in reversed(coeffs):
        acc = (acc << s) + c
    return acc


def signed_slots(v: int, s: int, count: int) -> list:
    """The first count coefficients of v in base 2^s, each in the signed
    range [-2^(s-1), 2^(s-1)): the inverse of kron_pack."""
    mask = (1 << s) - 1
    half = 1 << (s - 1)
    out = []
    for _ in range(count):
        c = v & mask
        if c >= half:
            c -= mask + 1
        out.append(c)
        v = (v - c) >> s
    return out


def triple_residues(values, terms: int):
    """(m, one, residues): a ring map Z[zeta_n] -> Z/m that decides whether
    a signed sum of at most ``terms`` products of three of ``values`` (or 1)
    is zero.

    Each value is scaled by the common denominator D of ``values``, taken
    at the lcm conductor n of the irrational ones, and its numerator vector
    is evaluated at z = 2^s modulo m = Phi_n(2^s).  Value i maps to
    ``residues[i]`` and 1 to ``one`` (= D), so a sum of triple products
    maps to D^3 times itself.

    Exactness: let L be the largest L1 norm of a scaled numerator vector
    (at least D), T the largest |coefficient| of ``_power_table(n)`` and H
    that of Phi_n.  A triple product reduces term by term through one table
    row, so the reduced sum r has coefficients at most B = terms T L^3.
    With s = bitlen(2 (B + H)) + 1, 2^s > 4 (B + H): a nonzero r has
    r(2^s) != 0 (its top coefficient outweighs the rest), and |r(2^s)| <
    2 B 2^(s (phi - 1)) <= 2^(s phi) - 2 H 2^(s (phi - 1)) < m.
    """
    n, den = _scan([values])
    _, (nums,) = _scaled_numerators([values], n, den)
    if n == 1:
        nums = [(v,) for v in nums]
    norm = max(den, max((sum(map(abs, v)) for v in nums), default=0))
    top = max(abs(c) for row in _power_table(n) for _, c in row)
    phi_n = cyclotomic_polynomial(n)
    s = (2 * (terms * top * norm ** 3 + max(map(abs, phi_n)))).bit_length() + 1
    m = kron_pack(phi_n, s)
    return m, den % m, [kron_pack(v, s) % m for v in nums]


class KronUnpacker(dict):
    """Packed dot product -> its Cyc value, for the layout of one product.

    A value splits into 2 phi - 1 signed slots, which fold mod Phi_n over
    den; a rational result comes back at conductor 1.  Each distinct value
    is unpacked once and the immutable result shared.
    """

    __slots__ = ("n", "s", "den")

    def __init__(self, n: int, s: int, den: int):
        super().__init__()
        self.n, self.s, self.den = n, s, den

    def __missing__(self, v):
        n, den = self.n, self.den
        phi, folds = _mul_plan(n)
        if phi == 1:
            x = _make(1, [v], den)
        else:
            conv = signed_slots(v, self.s, 2 * phi - 1)
            for k, row in folds:
                c = conv[k]
                if c:
                    for i, r in row:
                        conv[i] += c * r
            del conv[phi:]
            x = _make(n, conv, den) if any(conv[1:]) else _make(1, conv[:1], den)
        self[v] = x
        return x


def _reduce_power(n: int, k: int) -> list[int]:
    """Integer coordinates of z^k (any integer k) at conductor n."""
    row = [0] * euler_phi(n)
    for i, c in _power_table(n)[k % n]:
        row[i] = c
    return row


@lru_cache(maxsize=None)
def _monomials(n: int) -> dict:
    """{numerators of s z^j at conductor n: (j, s)}, 0 <= j < n, s = +-1.

    Each z^j reduces to a primitive integer vector (z^j / g lies in
    Z[z] for no integer g > 1), so a nonzero element is a rational multiple
    of a power of z exactly when its numerators over their gcd are a key."""
    out = {}
    for j in range(n):
        row = _reduce_power(n, j)
        out.setdefault(tuple(row), (j, 1))
        out.setdefault(tuple(-x for x in row), (j, -1))
    return out


def _root_exponent(x):
    """(k, m) with x = z_m^k, 0 <= k < m and gcd(k, m) = 1, or None when x
    is no root of unity.  A root of unity at conductor n is +-z_n^j, so its
    denominator is 1 and its numerators are a key of ``_monomials(n)``."""
    n = x.conductor
    power = _monomials(n).get(x.num) if x.den == 1 else None
    if power is None:
        return None
    j, s = power
    e = 2 * j if s > 0 else (2 * j + n) % (2 * n)  # x = z_2n^e, -1 = z_2n^n
    g = gcd(e, 2 * n)
    return e // g, 2 * n // g


def _image(num, n: int, step: int) -> list[int]:
    """Numerators of sum_j num[j] z_n^(j*step) on the power basis at n."""
    table = _power_table(n)
    out = [0] * euler_phi(n)
    for j, c in enumerate(num):
        if c:
            for i, r in table[j * step % n]:
                out[i] += c * r
    return out


def _solve_rational(columns, target):
    """Solve sum_j x_j * columns[j] = target over Q; None if inconsistent."""
    rows = len(target)
    ncols = len(columns)
    aug = [[Fraction(columns[j][i]) for j in range(ncols)] + [Fraction(target[i])]
           for i in range(rows)]
    piv_cols = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, rows) if aug[i][c]), None)
        if piv is None:
            continue
        aug[r], aug[piv] = aug[piv], aug[r]
        inv = 1 / aug[r][c]
        aug[r] = [v * inv for v in aug[r]]
        for i in range(rows):
            if i != r and aug[i][c]:
                f = aug[i][c]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[r])]
        piv_cols.append(c)
        r += 1
        if r == rows:
            break
    for i in range(r, rows):
        if aug[i][ncols]:
            return None
    x = [_F0] * ncols
    for i, c in enumerate(piv_cols):
        x[c] = aug[i][ncols]
    # re-check (guards against free columns silently set to zero)
    for i in range(rows):
        if sum(columns[j][i] * x[j] for j in range(ncols)) != target[i]:
            return None
    return x


class Cyc:
    """An exact element of Q(zeta_N): integer numerators over one denominator."""

    __slots__ = ("conductor", "num", "den", "_reduced")

    def __init__(self, conductor: int, coeffs):
        coeffs = tuple(coeffs)
        for c in coeffs:
            if not isinstance(c, (int, Fraction)):
                raise TypeError(
                    f"cyclotomic coordinates must be int or Fraction, got {c!r}")
        if len(coeffs) != euler_phi(conductor):
            raise ValueError("coefficient vector has wrong length for conductor")
        den = math.lcm(*(c.denominator for c in coeffs))
        num = [c.numerator * (den // c.denominator) for c in coeffs]
        g = gcd(den, *num)
        _set_conductor(self, conductor)
        _set_num(self, tuple(x // g for x in num))
        _set_den(self, den // g)

    def __setattr__(self, name, value):
        raise AttributeError("Cyc values are immutable")

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """Rational power-basis coordinates (a read-only view)."""
        den = self.den
        return tuple(Fraction(x, den) for x in self.num)

    # -- constructors ------------------------------------------------

    @staticmethod
    def rational(q) -> "Cyc":
        if not isinstance(q, (int, Fraction)):
            raise TypeError(f"cannot interpret {q!r} as a rational number")
        return _raw(1, (int(q.numerator),), q.denominator)

    @staticmethod
    def zero() -> "Cyc":
        return _ZERO

    @staticmethod
    def one() -> "Cyc":
        return _ONE

    # -- conductor handling -------------------------------------------

    def at_conductor(self, m: int) -> "Cyc":
        """Rewrite at conductor m (m must be a multiple of the current one)."""
        n = self.conductor
        if m == n:
            return self
        if m % n:
            raise ValueError("can only coerce to a multiple of the conductor")
        return _make(m, _image(self.num, m, m // n), self.den)

    @staticmethod
    def _common(a: "Cyc", b: "Cyc"):
        if a.conductor == b.conductor:
            return a, b
        m = math.lcm(a.conductor, b.conductor)
        return a.at_conductor(m), b.at_conductor(m)

    @staticmethod
    def _promote(x) -> "Cyc":
        if isinstance(x, Cyc):
            return x
        return Cyc.rational(x)

    # -- ring operations ----------------------------------------------

    def __add__(self, other):
        if other.__class__ is not Cyc:
            other = Cyc._promote(other)
        a, b = (other, self) if self.conductor == 1 else (self, other)
        if b.conductor == 1:
            # adding a rational p/q moves only the constant coordinate
            p, q = b.num[0], b.den
            if not p:
                return a
            num, d = list(a.num), a.den
            if q == d:
                num[0] += p
            else:
                g = gcd(d, q)
                num = [x * (q // g) for x in num]
                num[0] += p * (d // g)
                d *= q // g
            return _make(a.conductor, num, d)
        if a.conductor != b.conductor:
            a, b = Cyc._common(a, b)
        da, db = a.den, b.den
        if da == db:
            num = [x + y for x, y in zip(a.num, b.num)]
        else:
            g = gcd(da, db)
            fa, fb = db // g, da // g
            num = [x * fa + y * fb for x, y in zip(a.num, b.num)]
            da *= fa
        return _make(a.conductor, num, da)

    __radd__ = __add__

    def __neg__(self):
        return _raw(self.conductor, tuple([-x for x in self.num]), self.den)

    def __sub__(self, other):
        return self + (-Cyc._promote(other))

    def __rsub__(self, other):
        return Cyc._promote(other) - self

    def __mul__(self, other):
        if other.__class__ is not Cyc:
            other = Cyc._promote(other)
        a, b = (other, self) if self.conductor == 1 else (self, other)
        if b.conductor == 1:
            p, q = b.num[0], b.den
            if p == 1 and q == 1:
                return a
            return _make(a.conductor, [x * p for x in a.num], a.den * q)
        if a.conductor != b.conductor:
            a, b = Cyc._common(a, b)
        n = a.conductor
        phi, folds = _mul_plan(n)
        conv = [0] * (2 * phi - 1)
        bn = b.num
        for i, x in enumerate(a.num):
            if x:
                for k, y in enumerate(bn, i):
                    if y:
                        conv[k] += x * y
        for k, row in folds:
            c = conv[k]
            if c:
                for i, r in row:
                    conv[i] += c * r
        del conv[phi:]
        return _make(n, conv, a.den * b.den)

    __rmul__ = __mul__

    def inverse(self) -> "Cyc":
        if not self:
            raise ZeroDivisionError("inverse of zero in a cyclotomic field")
        n = self.conductor
        if n == 1:
            p, q = self.num[0], self.den
            return _raw(1, (q,), p) if p > 0 else _raw(1, (-q,), -p)
        g = gcd(*self.num)
        power = _monomials(n).get(tuple(x // g for x in self.num))
        if power is not None:
            # self = (s g / den) z^j, so its inverse is (s den / g) z^(n - j)
            j, s = power
            q = s * self.den
            out = _make(n, [x * q for x in _reduce_power(n, n - j)], g)
            assert (out * self) == 1, "monomial inverse is wrong"
            return out
        c = _ONE
        for k in range(2, n):
            if gcd(k, n) == 1:
                c = c * self.galois(k)
        # the norm c * self = p / q is a nonzero rational
        norm = c * self
        p, q = norm.num[0], norm.den
        if p < 0:
            p, q = -p, -q
        out = _make(n, [x * q for x in c.num], c.den * p)
        assert (out * self) == 1, "norm division produced a wrong inverse"
        return out

    def __truediv__(self, other):
        other = Cyc._promote(other)
        if not other:
            raise ZeroDivisionError("division by zero in a cyclotomic field")
        return self * other.inverse()

    def __rtruediv__(self, other):
        return Cyc._promote(other) / self

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        out = _ONE
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base if k > 1 else base
            k >>= 1
        return out

    # -- comparisons / hashing ----------------------------------------

    def __eq__(self, other):
        if other.__class__ is int:
            num = self.num
            return self.den == 1 and num[0] == other and not any(num[1:])
        if other.__class__ is not Cyc:
            try:
                other = Cyc._promote(other)
            except TypeError:
                return NotImplemented
        a, b = self, other
        if a.conductor != b.conductor:
            a, b = Cyc._common(a, b)
        return a.den == b.den and a.num == b.num

    def __bool__(self):
        return any(self.num)

    def __hash__(self):
        num = self.num
        if not any(num[1:]):
            # equal to the Fraction (or int) of the same value, so equal hash
            return hash(Fraction(num[0], self.den))
        return hash(("Cyc",) + self.reduced_key())

    def __reduce__(self):
        # through the validating constructor; the default slot-state restore
        # would hit the immutability guard in __setattr__
        return Cyc, (self.conductor, self.coeffs)

    def reduced_key(self):
        """(minimal conductor, Fraction coordinates) -- equal elements share it."""
        try:
            return self._reduced
        except AttributeError:
            pass
        n, coeffs = self.conductor, self.coeffs
        if not any(self.num[1:]):
            key = (1, coeffs[:1])
        else:
            key = (n, coeffs)
            for d in range(2, n):
                if n % d:
                    continue
                cols = [_reduce_power(n, j * (n // d)) for j in range(euler_phi(d))]
                x = _solve_rational(cols, coeffs)
                if x is not None:
                    key = (d, tuple(x))
                    break
        _set_reduced(self, key)
        return key

    def reduced(self) -> "Cyc":
        """Equal element at its minimal conductor dividing the current one."""
        n, coeffs = self.reduced_key()
        return Cyc(n, coeffs)

    # -- Galois action -------------------------------------------------

    def galois(self, k: int) -> "Cyc":
        """Image under zeta_N -> zeta_N^k (requires gcd(k, N) = 1)."""
        n = self.conductor
        if math.gcd(k, n) != 1:
            raise ValueError("Galois maps need gcd(k, conductor) = 1")
        return _make(n, _image(self.num, n, k), self.den)

    def conjugate(self) -> "Cyc":
        """Complex conjugation, realized as zeta_N -> zeta_N^(N-1)."""
        if self.conductor == 1:
            return self
        return self.galois(self.conductor - 1)

    # -- numeric embedding ----------------------------------------------

    def embed(self) -> complex:
        """Evaluate at zeta_N = exp(2*pi*i/N) as a complex double.

        Horner's rule in mpmath at 25 more digits than the tallest
        coefficient has; mpmath is imported by the first call, and zeta_N
        is computed once per (N, digits) (``_mp_zeta``)."""
        coeffs = self.coeffs
        height = 1
        for c in coeffs:
            height = max(height, abs(c.numerator), c.denominator)
        dps = 25 + len(str(height))
        mpmath, z = _mp_zeta(self.conductor, dps)
        with mpmath.workdps(dps):
            acc = mpmath.mpc(0)
            for c in reversed(coeffs):
                acc = acc * z + mpmath.mpf(c.numerator) / c.denominator
        return complex(float(acc.real), float(acc.imag))

    # -- misc -----------------------------------------------------------

    def is_rational(self) -> bool:
        return not any(self.num[1:])

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise ValueError("not a rational number")
        return Fraction(self.num[0], self.den)

    def encode(self) -> dict:
        """Spec-file encoding {"N": conductor, "c": rational strings}."""
        n, coeffs = self.reduced_key()
        return {"N": n, "c": [_fraction_str(c) for c in coeffs]}

    @staticmethod
    def decode(data) -> "Cyc":
        if not isinstance(data, dict) or set(data) != {"N", "c"}:
            raise ValueError(f"bad cyclotomic encoding: {data!r}")
        n, coeffs = data["N"], data["c"]
        if not isinstance(n, int) or isinstance(n, bool) or n < 1:
            raise ValueError(f"bad conductor in encoding: {n!r}")
        if not isinstance(coeffs, list):
            raise ValueError(f"encoding field 'c' must be a list: {coeffs!r}")
        # phi(N) >= sqrt(N / 2), so a larger N cannot have len(c)
        # coordinates; refusing it here keeps phi(N) from factoring N
        if n > 2 * len(coeffs) ** 2:
            raise ValueError(f"encoding field 'N' = {n} is too large for "
                             f"{len(coeffs)} coordinates")
        terms = [_parse_ratio(s) for s in coeffs]
        if len(terms) != euler_phi(n):
            raise ValueError("coefficient vector has wrong length for conductor")
        den = math.lcm(*(q for _, q in terms))
        return _make(n, [p * (den // q) for p, q in terms], den)

    def __repr__(self):
        n, coeffs = self.conductor, self.coeffs
        if not any(coeffs):
            return "Cyc(0)"
        terms = []
        for j, c in enumerate(coeffs):
            if not c:
                continue
            if j == 0:
                terms.append(str(c))
            else:
                z = f"z{n}" if j == 1 else f"z{n}^{j}"
                terms.append(z if c == 1 else f"{c}*{z}")
        return "Cyc(" + " + ".join(terms) + ")"


# Results are built through these slot setters, which skip both __init__
# (and its Fraction parsing) and the immutability guard in __setattr__.
_set_conductor = Cyc.conductor.__set__
_set_num = Cyc.num.__set__
_set_den = Cyc.den.__set__
_set_reduced = Cyc._reduced.__set__
_new = object.__new__


def _raw(n: int, num: tuple, den: int) -> Cyc:
    """Element from numerators and a denominator already in normal form."""
    x = _new(Cyc)
    _set_conductor(x, n)
    _set_num(x, num)
    _set_den(x, den)
    return x


def _make(n: int, num: list, den: int) -> Cyc:
    """Element from integer numerators over den > 0, normalised."""
    if den != 1:
        g = gcd(den, *num)
        if g != 1:
            den //= g
            num = [x // g for x in num]
    return _raw(n, tuple(num), den)


_ZERO = _raw(1, (0,), 1)
_ONE = _raw(1, (1,), 1)
_MINUS_ONE = _raw(1, (-1,), 1)


def _fraction_str(c: Fraction) -> str:
    if c.denominator == 1:
        return str(c.numerator)
    return f"{c.numerator}/{c.denominator}"


def _parse_ratio(s) -> tuple[int, int]:
    """(p, q), q > 0, with p/q the value of the rational string s.

    The spellings ``p`` and ``p/q`` in ASCII digits (p with an optional
    minus sign, q != 0), the ones ``Cyc.encode`` writes, are read with
    ``int`` alone; every other one goes through ``_parse_fraction``, so the
    grammar and its errors are those of ``Fraction``."""
    if isinstance(s, str) and s.isascii():
        p, slash, q = s.partition("/")
        if (p[1:] if p[:1] == "-" else p).isdigit() and (
                not slash or q.isdigit() and q.strip("0")):
            try:
                return int(p), int(q) if slash else 1
            except ValueError:  # past the interpreter's digit limit
                pass
    x = _parse_fraction(s)
    return x.numerator, x.denominator


def _parse_fraction(s) -> Fraction:
    if not isinstance(s, str):
        raise ValueError(f"rational entries must be strings, got {s!r}")
    try:
        q = Fraction(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"bad rational string {s!r}") from exc
    return q


# -- module-level operation surface ------------------------------------


def root_of_unity(n: int, k: int) -> Cyc:
    """zeta_n^k in canonical form at conductor n, or at conductor 1 when it
    is +-1 (2k = 0 mod n), so that the rational fast paths of ``Cyc`` see
    it; 1 is the ``Cyc.one()`` singleton."""
    if n < 1:
        raise ValueError("conductor must be positive")
    if not 2 * k % n:
        return _ONE if not k % n else _MINUS_ONE
    return _raw(n, tuple(_reduce_power(n, k)), 1)


@lru_cache(maxsize=None)
def _mp_zeta(n: int, dps: int):
    """(mpmath, zeta_n = e^(2 pi i / n) at ``dps`` digits), for ``Cyc.embed``.

    mpmath is imported by the first call, not with ``cyclo``.  The keys are
    few: one per conductor and digit count of a coefficient height."""
    import mpmath
    with mpmath.workdps(dps):
        return mpmath, mpmath.e ** (2j * mpmath.pi / n)


def galois_conjugate(a: Cyc) -> Cyc:
    return a.conjugate()
