"""Build the golden references in ``golden/`` and cross-check them.

Run from the repository root:

    python3 perfbench/make_golden.py

It writes

* ``ind_cli.json``: the exact stdout of every `fscat ind` request;
* ``nu.json``: nu_(n,r) encodings for every simple of every spec, n <= 5,
  0 <= r <= n;
* ``fs.json``: ptr_l(id_a), ptr_r(id_a) and every FS^(n,l,r) scalar, n <= 5;
* ``pivotal_count.json``: the number of pivotal structures of each spec.

The references must not merely echo the code under test, so before writing
anything the generator checks them against routes that do not share it:

* nu_2(sigma) on TY(Z2xZ2)+ and TY(Z2xZ2)- against the D4 and Q8 character
  oracles (+1 and -1);
* nu_(n,0) = nu_(n,n) = dim Hom(1, a^n), counted by integer fusion-ring
  products, not by fusion paths;
* conjugation symmetry nu_(n,n-r) = conj nu_(n,r);
* the FS trace formula ptr_l^(r+1) FS^(n,l,r) = ptr_r^r nu_(n,l+r+1), which
  ties the FS-endomorphism route to the rotation route;
* every `ind` cell against the nu table (n <= 5), against ptr_l * FS^(n,0,0)
  for n <= 7, and beyond that (where the FS route takes minutes) against
  nu_(n,n-1) of the reversed category, which rotates other F-data the other
  way; and the cell's conjugation and power-identity flags.
"""

from __future__ import annotations

import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from workloads import (FS_NMAX, GOLDEN, SPECS, cell, fs_triples,  # noqa: E402
                       ind_argv, ind_cases, run_cli, setup_category)

# largest n at which `ind` cells are cross-checked through the FS route
FS_CROSS_NMAX = 7


def hom_dimension_by_fusion(cat, a, n: int) -> int:
    """dim Hom(1, a^n) from integer fusion multiplicities."""
    v = {x: int(x == cat.unit) for x in cat.labels}
    for _ in range(n):
        v = {c: sum(v[b] * cat.n(b, a, c) for b in cat.labels) for c in cat.labels}
    return v[cat.unit]


def require(ok: bool, what: str):
    if not ok:
        raise SystemExit(f"golden cross-check failed: {what}")


def main() -> int:
    from fscat.category import reverse_category
    from fscat.cyclo import Cyc, galois_conjugate
    from fscat.homcalc import LinMap, pivotal_trace
    from fscat.indicators import fs_scalar, indicator
    from fscat.oracles import char_indicator, d4_table, q8_table
    from fscat.pivotal import enumerate_pivotal_structures

    t0 = time.perf_counter()
    cats = {name: setup_category(name) for name in SPECS}

    nu, nu_val = {}, {}
    for name, cat in cats.items():
        nu[name] = {}
        for a in cat.labels:
            nu[name][a] = {}
            for n in range(1, FS_NMAX + 1):
                dim = hom_dimension_by_fusion(cat, a, n)
                for r in range(n + 1):
                    val = indicator(cat, a, n, r)
                    nu_val[(name, a, n, r)] = val
                    nu[name][a][cell(n, r)] = val.encode()
                for r in (0, n):
                    require(nu_val[(name, a, n, r)] == dim,
                            f"{name} {a} nu({n},{r}) != hom dimension {dim}")
                for r in range(n + 1):
                    require(galois_conjugate(nu_val[(name, a, n, r)])
                            == nu_val[(name, a, n, n - r)],
                            f"{name} {a} conjugation symmetry at ({n},{r})")
    require(nu_val[("ty_z2z2_plus", "sigma", 2, 1)]
            == char_indicator(d4_table(), "dim2", 2, 1) == 1,
            "TY+ nu_2(sigma) against the D4 character")
    require(nu_val[("ty_z2z2_minus", "sigma", 2, 1)]
            == char_indicator(q8_table(), "dim2", 2, 1) == -1,
            "TY- nu_2(sigma) against the Q8 character")
    print(f"nu table: {len(nu_val)} cells ({time.perf_counter() - t0:.1f}s)")

    fs, ptrs = {}, {}
    for name, cat in cats.items():
        fs[name] = {}
        for a in cat.labels:
            ident = LinMap.identity(cat, (a,))
            ptr_l = pivotal_trace(cat, ident, "left")
            ptr_r = pivotal_trace(cat, ident, "right")
            ptrs[(name, a)] = ptr_l
            table = {"ptr_l": ptr_l.encode(), "ptr_r": ptr_r.encode()}
            for n, l, r in fs_triples(FS_NMAX):
                val = fs_scalar(cat, a, n, l, r)
                require(ptr_l ** (r + 1) * val
                        == ptr_r ** r * nu_val[(name, a, n, l + r + 1)],
                        f"{name} {a} trace formula at {(n, l, r)}")
                table[f"{n},{l},{r}"] = val.encode()
            fs[name][a] = table
    print(f"FS scalars checked ({time.perf_counter() - t0:.1f}s)")

    ind = {}
    for spec, obj, n in ind_cases():
        rc, out = run_cli(ind_argv(spec, obj, n))
        require(rc == 0, f"ind {spec} {obj} n={n} exit code {rc}")
        doc = json.loads(out)
        require(doc["power_identity"] == {str(n): True},
                f"ind {spec} {obj} n={n} power identity")
        for c in doc["cells"]:
            require(c["conjugation_symmetric"], f"ind {spec} {obj} n={n} conjugation")
            got = Cyc.decode(c["value"])
            if c["n"] <= FS_NMAX:
                want = nu_val[(spec, obj, c["n"], c["r"])]
            elif c["n"] <= FS_CROSS_NMAX and c["r"] == 1:
                want = ptrs[(spec, obj)] * fs_scalar(cats[spec], obj, c["n"], 0, 0)
            else:
                want = indicator(reverse_category(cats[spec]), obj, c["n"],
                                 c["n"] - c["r"])
            require(got == want, f"ind {spec} {obj} cell {c['n']},{c['r']}")
        ind[f"{spec}|{obj}|{n}"] = out
        print(f"ind {spec} {obj} n={n} ({time.perf_counter() - t0:.1f}s)", flush=True)

    pivotal_count = {name: len(enumerate_pivotal_structures(cat))
                     for name, cat in cats.items()}

    os.makedirs(GOLDEN, exist_ok=True)
    for fname, data in (("ind_cli", ind), ("nu", nu), ("fs", fs),
                        ("pivotal_count", pivotal_count)):
        with open(os.path.join(GOLDEN, f"{fname}.json"), "w", encoding="utf-8") as fh:
            json.dump(data, fh, sort_keys=True, indent=1)
            fh.write("\n")
    print(f"wrote {GOLDEN} ({time.perf_counter() - t0:.1f}s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
