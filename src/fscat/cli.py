"""Command-line front end: validate, indicator tables, theorem checks,
gauge-invariance trials, and spec generators.

Exit codes: 0 success, 1 semantic failure (axioms, theorem checks, missing
pivotal data), 2 I/O or parse failure.  All randomness flows from one seed
through SplitMix64 (Steele-Lea-Flood constants, 64-bit), so gauge trials
reproduce across implementations.  Identical invocations produce
byte-identical json and csv output.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

from .category import (Category, ObjectExpr, gauge_transform, validate)
from .cyclo import Cyc, root_of_unity
from .indicators import (DimensionGuardError, check_fs_theorems, e_map,
                         indicator, indicator_report, rotation_operator)
from .pivotal import attach_pivotal
from .specio import SpecFormatError, load_category, save_category


class _Semantic(Exception):
    pass


_M64 = (1 << 64) - 1


class SplitMix64:
    """Deterministic 64-bit generator; named so trials reproduce anywhere."""

    def __init__(self, seed: int):
        self.state = seed & _M64

    def next(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _M64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
        return (z ^ (z >> 31)) & _M64


def _parse_range(text: str):
    """The integers of ``K`` or ``LO..HI``, 0 <= LO <= HI; a ValueError
    names the text otherwise."""
    lo, dots, hi = text.partition("..")
    try:
        lo, hi = int(lo), int(hi if dots else lo)
    except ValueError:
        raise ValueError(f"bad range {text!r}") from None
    if lo > hi or lo < 0:
        raise ValueError(f"bad range {text!r}")
    return tuple(range(lo, hi + 1))


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"{value} is not a positive integer")
    return value


PIVOTAL_FORMS = "canonical | first | K | index K"


def _pivotal_choice(text: str):
    """The choice that ``--pivotal`` names for ``attach_pivotal``:
    'canonical', 'first' or an index K (written K or ``index K``)."""
    words = text.split()
    if words in (["canonical"], ["first"]):
        return words[0]
    if len(words) == 2 and words[0] == "index":
        words = words[1:]
    if len(words) == 1:
        try:
            return int(words[0])
        except ValueError:
            pass
    raise ValueError(f"--pivotal {text!r} is not one of: {PIVOTAL_FORMS}")


def _ensure_pivotal(cat: Category, choice) -> Category:
    if cat.pivotal is not None and choice is None:
        return cat
    try:
        return attach_pivotal(cat, "canonical" if choice is None else choice)
    except (ValueError, ArithmeticError) as exc:
        raise _Semantic(f"pivotal data absent and not derivable: {exc}") from None


def _value_csv(value: Cyc) -> str:
    enc = value.encode()
    return f"{enc['N']}:" + ";".join(enc["c"])


def cmd_validate(args) -> int:
    cat = load_category(args.spec)
    report = validate(cat)
    for line in report.lines():
        print(line)
    return 0 if report.valid else 1


def cmd_ind(args) -> int:
    choice = None if args.pivotal is None else _pivotal_choice(args.pivotal)
    cat = load_category(args.spec)
    report_v = validate(cat)
    if not report_v.valid:
        raise _Semantic(f"spec invalid: {report_v.first_failure()}")
    cat = _ensure_pivotal(cat, choice)
    n_values = _parse_range(args.n)
    r_values = _parse_range(args.r) if args.r else (1,)
    obj = ObjectExpr.parse(args.object, cat.labels)
    rep = indicator_report(cat, obj, n_values, r_values)
    if args.dump:
        for n in n_values:
            op = rotation_operator(cat, obj, n)
            for w in op.words:
                if len(w) > 1:
                    print(e_map(cat, w, 1).render())
    if args.format == "json":
        cells = []
        for n, r, val in rep.cells():
            emb = val.embed()
            cells.append({
                "n": n, "r": r, "value": val.encode(),
                "re": emb.real, "im": emb.imag,
                "qn_distance": rep.qn[(n, r)],
                "conjugation_symmetric": rep.conjugation[(n, r)],
            })
        doc = {
            "schema": 1,
            "category": rep.category,
            "object": rep.object_expr,
            "cells": cells,
            "power_identity": {str(n): rep.power_identity[n]
                               for n in rep.n_values},
        }
        print(json.dumps(doc, sort_keys=True))
    elif args.format == "csv":
        print("n,r,value,re,im,qn_distance,power_identity,conjugation")
        for n, r, val in rep.cells():
            emb = val.embed()
            print(f"{n},{r},{_value_csv(val)},{emb.real!r},{emb.imag!r},"
                  f"{rep.qn[(n, r)]!r},{rep.power_identity[n]},"
                  f"{rep.conjugation[(n, r)]}")
    else:
        print(f"category {rep.category}, object {rep.object_expr}")
        for n, r, val in rep.cells():
            emb = val.embed()
            flags = []
            if rep.power_identity[n]:
                flags.append("E^n=id")
            if rep.conjugation[(n, r)]:
                flags.append("conj")
            print(f"nu({n},{r}) = {val!r}  ~ {emb.real:+.12f}{emb.imag:+.12f}i "
                  f"[{' '.join(flags)}]")
    bad = [k for k, ok in rep.conjugation.items() if not ok]
    bad += [n for n, ok in rep.power_identity.items() if not ok]
    return 1 if bad else 0


def cmd_check(args) -> int:
    cat = load_category(args.spec)
    report_v = validate(cat)
    if not report_v.valid:
        print(f"FAIL validate: {report_v.first_failure()}")
        return 1
    if cat.pivotal is None:
        raise _Semantic("spec has no pivotal data; attach one first")
    checks = check_fs_theorems(cat, n_max=args.nmax)
    for c in checks:
        mark = "SKIP" if c.skipped else "PASS" if c.ok else "FAIL"
        note = f"  ({c.detail})" if c.skipped else f"  [{c.detail}]"
        print(f"{mark} {c.name}{note if c.detail else ''}")
    ok = all(c.ok for c in checks)
    print("all checks pass" if ok else "CHECK FAILURES")
    return 0 if ok else 1


def _random_gauge(cat: Category, rng: SplitMix64):
    u = {}
    for (a, b, c) in cat.ring.admissible_triples():
        if a == cat.unit or b == cat.unit:
            continue
        u[(a, b, c)] = root_of_unity(cat.conductor,
                                     rng.next() % cat.conductor)
    return u


def cmd_gauge_check(args) -> int:
    cat = load_category(args.spec)
    report_v = validate(cat)
    if not report_v.valid:
        raise _Semantic(f"spec invalid: {report_v.first_failure()}")
    if cat.pivotal is None:
        raise _Semantic("spec has no pivotal data; attach one first")
    rng = SplitMix64(args.seed)
    base = {}
    for a in cat.labels:
        for n in range(1, 5):
            for r in range(1, n + 1):
                base[(a, n, r)] = indicator(cat, a, n, r)
    for trial in range(args.trials):
        u = _random_gauge(cat, rng)
        gauged = gauge_transform(cat, u)
        for (a, n, r), want in base.items():
            got = indicator(gauged, a, n, r)
            if got != want:
                bad = {f"{k}": v.encode() for k, v in u.items()}
                print(f"FAIL trial {trial}: nu({n},{r})({a}) changed")
                print(json.dumps({"trial": trial, "gauge": bad}, sort_keys=True))
                return 1
    print(f"PASS {args.trials} gauge trials leave all nu(n,r) fixed (n <= 4)")
    return 0


def cmd_emit(args) -> int:
    from .oracles import (build_pointed, build_tambara_yamagami, sqrt_int,
                          standard_bicharacter, standard_cocycle,
                          solve_pentagon_rank2)

    choice = None if args.pivotal == "none" else _pivotal_choice(args.pivotal)
    if args.family == "pointed":
        cat = build_pointed(args.order, standard_cocycle(args.order, args.level),
                            conductor=args.conductor)
    elif args.family == "ty":
        orders = args.orders.split(",")
        bad = [x for x in orders if not x.isdecimal() or int(x) < 1]
        if bad:
            raise ValueError(f"bad entry {bad[0]!r} in --orders "
                             f"{args.orders!r}: need positive integers")
        orders = tuple(map(int, orders))
        size = math.prod(orders)
        tau = Cyc.rational(args.sign) / sqrt_int(size)
        cat = build_tambara_yamagami(orders, standard_bicharacter(orders), tau,
                                     conductor=args.conductor)
    elif args.family == "rank2":
        solutions = solve_pentagon_rank2()
        if not 0 <= args.index < len(solutions):
            raise _Semantic(f"rank2 solution index {args.index} is out of "
                            f"range 0..{len(solutions) - 1}")
        cat = solutions[args.index]
    else:
        raise _Semantic(f"unknown family {args.family!r}")
    report = validate(cat)
    if report.valid and choice is not None:
        cat = attach_pivotal(cat, choice)
        report = validate(cat)
    if not report.valid:
        raise _Semantic(f"generated spec invalid: {report.first_failure()}")
    save_category(cat, args.output)
    print(f"wrote {args.output}")
    return 0


@functools.cache
def build_parser():
    p = argparse.ArgumentParser(prog="fscat", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    v = sub.add_parser("validate", help="validate a category spec file")
    v.add_argument("spec")
    v.set_defaults(fn=cmd_validate)

    i = sub.add_parser("ind", help="compute an indicator table")
    i.add_argument("spec")
    i.add_argument("--object", required=True)
    i.add_argument("--n", required=True, help="range A..B or single value")
    i.add_argument("--r", default=None, help="range A..B (default r = 1)")
    i.add_argument("--format", choices=("json", "csv", "text"), default="text")
    i.add_argument("--pivotal", default=None,
                   help=f"{PIVOTAL_FORMS} (default: the spec's own, else "
                   "canonical)")
    i.add_argument("--dump", action="store_true",
                   help="render the rotation block matrices")
    i.set_defaults(fn=cmd_ind)

    c = sub.add_parser("check", help="run the theorem suite")
    c.add_argument("spec")
    c.add_argument("--nmax", type=_positive_int, default=5)
    c.set_defaults(fn=cmd_check)

    g = sub.add_parser("gauge-check", help="seeded random gauge trials")
    g.add_argument("spec")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--trials", type=_positive_int, default=20)
    g.set_defaults(fn=cmd_gauge_check)

    e = sub.add_parser("emit", help="write a generated spec file")
    e.add_argument("family", choices=("pointed", "ty", "rank2"))
    e.add_argument("-o", "--output", required=True)
    e.add_argument("--order", type=_positive_int, default=2,
                   help="pointed: group order")
    e.add_argument("--level", type=int, default=0, help="pointed: cocycle level")
    e.add_argument("--orders", default="2", help="ty: cyclic orders, comma-separated")
    e.add_argument("--sign", type=int, choices=(1, -1), default=1,
                   help="ty: sign of tau = sign/sqrt(|A|)")
    e.add_argument("--index", type=int, default=0, help="rank2: solution index")
    e.add_argument("--conductor", type=_positive_int, default=None)
    e.add_argument("--pivotal", default="canonical",
                   help=f"{PIVOTAL_FORMS} | none")
    e.set_defaults(fn=cmd_emit)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (SpecFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (_Semantic, DimensionGuardError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
