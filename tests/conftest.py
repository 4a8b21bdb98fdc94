import pytest
from hypothesis import settings

from fscat.specio import bundled_names, load_bundled

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


ALL_BUNDLED = tuple(bundled_names())

# every bundled spec that is pseudo-unitary with its canonical pivotal
PSEUDO_UNITARY = tuple(n for n in ALL_BUNDLED if n != "yang_lee")


@pytest.fixture(params=ALL_BUNDLED)
def any_bundled(request):
    return bundled(request.param)
