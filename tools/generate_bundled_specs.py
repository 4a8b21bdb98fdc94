#!/usr/bin/env python3
"""Regenerate the bundled category spec files from the oracle constructors.

Every file is produced by a generator, gets a pivotal structure from the
enumerator (canonical when one exists), and must pass full validation
before being written.

    python3 tools/generate_bundled_specs.py [OUT_DIR]

OUT_DIR defaults to ``src/fscat/specs``.
"""

from __future__ import annotations

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from fractions import Fraction

from fscat.category import validate
from fscat.oracles import (build_pointed, build_tambara_yamagami,
                           solve_pentagon_rank2, sqrt_int,
                           standard_bicharacter, standard_cocycle)
from fscat.pivotal import attach_pivotal
from fscat.specio import save_category

OUT = pathlib.Path(__file__).resolve().parents[1] / "src" / "fscat" / "specs"


def named(cat, name):
    cat.name = name
    return cat


def build_all():
    fib, yang_lee = solve_pentagon_rank2()
    specs = {
        "trivial": attach_pivotal(
            build_pointed(1, standard_cocycle(1, 0), name="trivial")),
        "vec_z2": attach_pivotal(
            build_pointed(2, standard_cocycle(2, 0), name="vec_z2", conductor=4)),
        "semion": attach_pivotal(
            build_pointed(2, standard_cocycle(2, 1), name="semion", conductor=4)),
        "vec_z3": attach_pivotal(
            build_pointed(3, standard_cocycle(3, 0), name="vec_z3", conductor=3)),
        "fibonacci": attach_pivotal(fib),
        "yang_lee": attach_pivotal(yang_lee, "first"),
        "ising": attach_pivotal(build_tambara_yamagami(
            (2,), standard_bicharacter((2,)), 1 / sqrt_int(2), name="ising")),
        "ty_z2z2_plus": attach_pivotal(build_tambara_yamagami(
            (2, 2), standard_bicharacter((2, 2)), Fraction(1, 2),
            name="ty_z2z2_plus", conductor=4)),
        "ty_z2z2_minus": attach_pivotal(build_tambara_yamagami(
            (2, 2), standard_bicharacter((2, 2)), Fraction(-1, 2),
            name="ty_z2z2_minus", conductor=4)),
        "rep_s3": attach_pivotal(build_tambara_yamagami(
            (3,), standard_bicharacter((3,)), 1 / sqrt_int(3),
            name="rep_s3", conductor=12)),
    }
    return specs


def main(out_dir=OUT):
    """Write every bundled spec into out_dir (default: the package specs)."""
    out_dir = pathlib.Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, cat in build_all().items():
        report = validate(cat)
        if not report.valid:
            raise SystemExit(f"{name}: {report.first_failure()}")
        save_category(cat, out_dir / f"{name}.json")
        print(f"wrote {name}.json  ({len(cat.labels)} simples, "
              f"conductor {cat.conductor})")


if __name__ == "__main__":
    main(*sys.argv[1:2])
