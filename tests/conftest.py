from fractions import Fraction

import pytest
from hypothesis import settings

# the gauges of ``fscat gauge-check``: entries zeta_N^k, k drawn from a
# ``cli.SplitMix64``, so the tests and the command draw the same ones
from fscat.cli import _random_gauge as random_gauge  # noqa: F401
from fscat.cyclo import Cyc, root_of_unity
from fscat.specio import BUNDLED, load_bundled

# Property tests run the same examples everywhere, never time out on a
# loaded host, and write no example database.
settings.register_profile("fscat", derandomize=True, deadline=None,
                          max_examples=40, database=None)
settings.load_profile("fscat")

_CACHE = {}


def bundled(name):
    """Bundled categories, loaded once per session (they are immutable)."""
    if name not in _CACHE:
        _CACHE[name] = load_bundled(name)
    return _CACHE[name]


ALL_BUNDLED = BUNDLED


def wide_gauge(cat):
    """Gauge entries 2, 3/5 and 1 + zeta_N in turn: not roots of unity, so
    the gauged table has larger heights and denominators."""
    values = (Cyc.rational(2), Cyc.rational(Fraction(3, 5)),
              1 + root_of_unity(cat.conductor, 1))
    triples = [t for t in cat.ring.admissible_triples()
               if cat.unit not in t[:2]]
    return {t: values[i % 3] for i, t in enumerate(triples)}

# every bundled spec that is pseudo-unitary with its canonical pivotal
PSEUDO_UNITARY = tuple(n for n in ALL_BUNDLED if n != "yang_lee")


@pytest.fixture(params=ALL_BUNDLED)
def any_bundled(request):
    return bundled(request.param)
