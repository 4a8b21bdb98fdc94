"""The four benchmark workloads: inputs, set-up, requests and their checks.

A workload turns its seed into a fixed set of requests (the seed only
chooses their order and, for ``gauge-cold``, the gauge draws), so every seed
does the same amount of work.  One *pass* runs the whole set once on freshly
built categories, so the per-category caches fill inside the pass; the
runner repeats passes for the requested time.  Each request returns the
program's output and is checked exactly against the committed golden
references in ``golden/``.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import random
from dataclasses import dataclass
from typing import Callable

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
GOLDEN = os.path.join(HERE, "golden")

# fixed here, not read from the library, so a new bundled spec does not
# silently change a workload
SPECS = ("trivial", "vec_z2", "semion", "vec_z3", "fibonacci", "yang_lee",
         "ising", "ty_z2z2_plus", "ty_z2z2_minus", "rep_s3")

# `fscat ind` rows: (spec, object, largest n); one request per n.  TY(Z2xZ2)+
# sigma up to n = 8 is the hom-dimension-64 target (about 27 s of the ~32 s
# pass); the others are small rows over the remaining conductors (8, 5, 12)
# and the Q8-type TY, sized so that one pass plus a traced pass stays well
# inside the 180 s a run may take on a contended host.
IND_ROWS = (("ty_z2z2_plus", "sigma", 8), ("ising", "sigma", 8),
            ("fibonacci", "t", 4), ("rep_s3", "sigma", 6),
            ("ty_z2z2_minus", "sigma", 4))
POWER_NMAX = 6
FS_NMAX = 5
GAUGE_NMAX = 4
GAUGE_TRIALS_PER_PASS = 3


def spec_path(name: str) -> str:
    return os.path.join(ROOT, "src", "fscat", "specs", f"{name}.json")


def ind_cases():
    """(spec, object, n) of every `ind-cli` request."""
    return [(spec, obj, n) for spec, obj, nmax in IND_ROWS
            for n in range(1, nmax + 1)]


def ind_argv(spec: str, obj: str, n: int):
    return ["ind", spec_path(spec), "--object", obj, "--n", str(n),
            "--format", "json"]


def run_cli(argv):
    """One in-process CLI invocation: (exit code, captured stdout)."""
    import fscat.cli
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = fscat.cli.main(argv)
    return rc, buf.getvalue()


def power_objects(cat):
    """The criterion-2 objects: every simple and every two-term sum."""
    from fscat.category import ObjectExpr
    objs = [ObjectExpr.simple(a) for a in cat.labels]
    objs += [ObjectExpr({a: 1, b: 1})
             for a, b in itertools.combinations(cat.labels, 2)]
    return objs


def fs_triples(nmax: int):
    """(n, l, r) with l, r >= 0 and l + r + 1 <= n."""
    return [(n, l, r) for n in range(1, nmax + 1)
            for l in range(n) for r in range(n - l)]


def setup_category(name: str):
    """Load, validate and attach the spec's own pivotal structure."""
    from fscat.category import validate
    from fscat.pivotal import attach_pivotal, enumerate_pivotal_structures
    from fscat.specio import load_category
    cat = load_category(spec_path(name))
    report = validate(cat)
    if not report.valid:
        raise ValueError(f"{name}: {report.first_failure()}")
    sols = enumerate_pivotal_structures(cat)
    index = [s.t for s in sols].index(cat.pivotal.t)
    return attach_pivotal(cat, index)


def fresh(cat):
    """The same category with empty caches."""
    return cat.with_pivotal(cat.pivotal)


class SplitMix64:
    """Steele-Lea-Flood 64-bit generator for the gauge draws."""

    MASK = (1 << 64) - 1

    def __init__(self, seed: int):
        self.state = seed & self.MASK

    def next(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & self.MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & self.MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & self.MASK
        return z ^ (z >> 31)


def load_golden(name: str):
    with open(os.path.join(GOLDEN, f"{name}.json"), encoding="utf-8") as fh:
        return json.load(fh)


def cell(n: int, r: int) -> str:
    return f"{n},{r}"


@dataclass
class Request:
    label: str
    call: Callable[[], object]
    check: Callable[[object], bool]


class Workload:
    """Base: the specs it sets up and the requests of one pass."""

    name = ""
    specs: tuple = ()

    def __init__(self, seed: int):
        self.rng = random.Random(seed)

    def prepare(self):
        """Load golden references; runs before set-up is timed."""

    def spec_order(self):
        """The specs in seeded order.  Workloads whose requests share a
        warm category run each spec's requests together, in their natural
        order, on a category built for them and dropped after them: a
        request then finds the same cache state on every seed, so its
        latency and the peak memory do not depend on the draw."""
        order = list(self.specs)
        self.rng.shuffle(order)
        return order

    def pass_requests(self, cats):
        """The requests of one pass, in order (a list or a generator)."""
        raise NotImplementedError


class IndCli(Workload):
    """In-process `fscat ind ... --format json`, cold category per request."""

    name = "ind-cli"
    specs = tuple(dict.fromkeys(spec for spec, _, _ in IND_ROWS))

    def prepare(self):
        self.golden = load_golden("ind_cli")

    def pass_requests(self, cats):
        cases = ind_cases()
        self.rng.shuffle(cases)
        out = []
        for spec, obj, n in cases:
            want = (0, self.golden[f"{spec}|{obj}|{n}"])
            out.append(Request(f"{spec} {obj} n={n}",
                               lambda argv=ind_argv(spec, obj, n): run_cli(argv),
                               lambda got, want=want: got == want))
        return out


class PowerIdentity(Workload):
    """check_power_identity on every simple and two-term sum, n <= 6."""

    name = "power-identity"
    specs = SPECS

    def pass_requests(self, cats):
        from fscat.indicators import check_power_identity
        for name in self.spec_order():
            cat = fresh(cats[name])
            for obj in power_objects(cat):
                for n in range(1, POWER_NMAX + 1):
                    yield Request(f"{name} {obj} n={n}",
                                  lambda c=cat, o=obj, n=n: check_power_identity(c, o, n),
                                  lambda got: got is True)


class FsEndo(Workload):
    """fs_scalar(a, n, l, r) for every simple, n <= 5, l + r + 1 <= n,
    checked against golden nu through the trace formula."""

    name = "fs-endo"
    specs = SPECS

    def prepare(self):
        from fscat.cyclo import Cyc
        nu, fs = load_golden("nu"), load_golden("fs")
        self.expected = {}
        for name in self.specs:
            for a, table in fs[name].items():
                ptr_l = Cyc.decode(table["ptr_l"])
                ptr_r = Cyc.decode(table["ptr_r"])
                for n, l, r in fs_triples(FS_NMAX):
                    # ptr_l^(r+1) FS^(n,l,r) = ptr_r^r nu_(n,l+r+1)
                    want = ptr_r ** r * Cyc.decode(nu[name][a][cell(n, l + r + 1)]) \
                        / ptr_l ** (r + 1)
                    if want != Cyc.decode(table[f"{n},{l},{r}"]):
                        raise ValueError(f"golden FS scalar for {name} {a} "
                                         f"{(n, l, r)} breaks the trace formula")
                    self.expected[(name, a, n, l, r)] = want

    def pass_requests(self, cats):
        from fscat.indicators import fs_scalar
        for spec in self.spec_order():
            cat = fresh(cats[spec])
            for (name, a, n, l, r), want in self.expected.items():
                if name == spec:
                    yield Request(f"{name} {a} {(n, l, r)}",
                                  lambda c=cat, a=a, n=n, l=l, r=r: fs_scalar(c, a, n, l, r),
                                  lambda got, want=want: got == want)


class GaugeCold(Workload):
    """Seeded root-of-unity gauges of every spec, rebuilt from scratch."""

    name = "gauge-cold"
    specs = SPECS

    def __init__(self, seed: int):
        super().__init__(seed)
        self.draws = SplitMix64(seed)

    def prepare(self):
        from fscat.cyclo import Cyc
        nu = load_golden("nu")
        self.pivotal_count = load_golden("pivotal_count")
        self.want = {name: {(a, n, r): Cyc.decode(nu[name][a][cell(n, r)])
                            for a in nu[name]
                            for n in range(1, GAUGE_NMAX + 1)
                            for r in range(1, n + 1)}
                     for name in self.specs}


    def gauge(self, cat):
        from fscat.cyclo import root_of_unity
        m = cat.conductor
        return {(a, b, c): root_of_unity(m, self.draws.next() % m)
                for (a, b, c) in cat.ring.admissible_triples()
                if a != cat.unit and b != cat.unit}

    def pass_requests(self, cats):
        cases = [(name, self.gauge(cats[name]))
                 for _ in range(GAUGE_TRIALS_PER_PASS) for name in self.specs]
        self.rng.shuffle(cases)
        return [Request(f"{name} gauged",
                        lambda base=cats[name], u=u, want=self.want[name]:
                            gauge_request(base, u, tuple(want)),
                        lambda got, want=(True, self.pivotal_count[name], True,
                                          self.want[name]): got == want)
                for name, u in cases]


def gauge_request(base, u, cells):
    """Gauge, validate, enumerate pivotal structures and recompute nu.

    Returns (valid, #pivotal structures, transported pivotal enumerated,
    {(a, n, r): nu}) for the checker to compare with the ungauged golden
    values."""
    from fscat.category import gauge_transform, validate
    from fscat.indicators import indicator
    from fscat.pivotal import enumerate_pivotal_structures
    cat = gauge_transform(base, u)
    valid = validate(cat).valid
    sols = enumerate_pivotal_structures(cat)
    enumerated = cat.pivotal.t in [s.t for s in sols]
    return valid, len(sols), enumerated, {key: indicator(cat, *key) for key in cells}


WORKLOADS = {w.name: w for w in (IndCli, PowerIdentity, FsEndo, GaugeCold)}
