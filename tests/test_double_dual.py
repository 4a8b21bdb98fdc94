"""The closed-form double-dual scalar against the nested oracle route."""

import math
import random
from fractions import Fraction

import pytest

from conftest import ALL_BUNDLED, bundled
from references import nested_double_dual_coefficient

from fscat import homcalc
from fscat.category import gauge_transform, reverse_category, validate
from fscat.cyclo import Cyc, root_of_unity
from fscat.homcalc import double_dual_inverse
from fscat.oracles import (build_pointed, build_tambara_yamagami,
                           solve_pentagon_rank2, sqrt_int, standard_bicharacter,
                           standard_cocycle)
from fscat.pivotal import enumerate_pivotal_structures


def _gauge(cat, rng, unit_roots):
    """A seeded gauge: roots of unity, or rational and irrational non-units."""
    u = {}
    for (a, b, c) in cat.ring.admissible_triples():
        if a == cat.unit or b == cat.unit:
            continue
        k = rng.randrange(cat.conductor)
        if unit_roots:
            u[(a, b, c)] = root_of_unity(cat.conductor, k)
        elif rng.random() < 0.5:
            u[(a, b, c)] = Cyc.rational(Fraction(rng.choice((-3, -2, 2, 5)),
                                                 rng.choice((1, 3, 7))))
        else:
            # |2 + zeta| >= 1, so the entry is never zero
            u[(a, b, c)] = Cyc.rational(2) + root_of_unity(cat.conductor, k)
    return u


def _gauges(cat, count, seed, non_units=True):
    """Seeded gauges; with ``non_units``, every second one has non-unit entries."""
    rng = random.Random(seed)
    return [gauge_transform(cat, _gauge(cat, rng, not (non_units and i % 2)))
            for i in range(count)]


def _assert_closed_form(cat):
    assert validate(cat).valid, cat.name
    for (a, b, c) in cat.ring.admissible_triples():
        want = nested_double_dual_coefficient(cat, a, b, c).inverse()
        assert double_dual_inverse(cat, a, b, c) == want, (cat.name, a, b, c)


@pytest.mark.parametrize("name", ALL_BUNDLED)
def test_closed_form_matches_nested_route_on_bundled_gauges(name):
    # 20 seeded gauges per spec: ten of the spec and ten of its reversal
    cat = bundled(name)
    for i, base in enumerate((cat, reverse_category(cat))):
        _assert_closed_form(base)
        for gauged in _gauges(base, 10, seed=2 * ALL_BUNDLED.index(name) + i):
            _assert_closed_form(gauged)


def _oracle_families():
    for n in range(1, 7):
        for q in range(n):
            yield pytest.param(build_pointed(n, standard_cocycle(n, q)),
                               id=f"pointed_z{n}_q{q}")
    for orders in ((2,), (3,), (4,), (2, 2), (5,)):
        for sign in (1, -1):
            tau = Cyc.rational(sign) / sqrt_int(math.prod(orders))
            yield pytest.param(
                build_tambara_yamagami(orders, standard_bicharacter(orders), tau),
                id=f"ty_{'x'.join(map(str, orders))}_{sign:+d}")
    for cat in solve_pentagon_rank2():
        yield pytest.param(cat, id=cat.name)


@pytest.mark.parametrize("cat", _oracle_families())
def test_closed_form_matches_nested_route_on_oracle_families(cat):
    for base in (cat, reverse_category(cat)):
        _assert_closed_form(base)
        for gauged in _gauges(base, 2, seed=7):
            _assert_closed_form(gauged)


@pytest.mark.parametrize("name", ALL_BUNDLED)
def test_enumeration_unchanged_under_the_nested_route(name, monkeypatch):
    cats = [bundled(name)] + _gauges(bundled(name), 5, seed=11, non_units=False)
    got = [enumerate_pivotal_structures(c) for c in cats]
    monkeypatch.setattr(
        homcalc, "double_dual_inverse",
        lambda cat, a, b, c: nested_double_dual_coefficient(cat, a, b, c).inverse())
    # the same data on new categories, whose memos are empty
    want = [enumerate_pivotal_structures(c.with_pivotal(c.pivotal))
            for c in cats]
    assert got == want
    assert all(got)
