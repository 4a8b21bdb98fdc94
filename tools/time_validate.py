#!/usr/bin/env python3
"""Raw time of one cold `validate` per bundled spec, one fresh process per run,
and of the pentagon check after it.

    python3 tools/time_validate.py PARENT_DIR CHANGE_DIR --runs 10

Each run loads one bundled spec of the checkout with
``specio.load_category`` and times ``category.validate`` on it, in a new
subprocess on the checkout's own ``src/``, so every memo starts empty.
The specs are those bundled in the last checkout.  Each round runs every
spec once in each checkout, alternating between them (the first checkout
starts).  After ``validate`` the same child times
``category.pentagon_failures(cat.with_pivotal(cat.pivotal), stop_after=1)``,
the call that decides the report's pentagon item, on a copy with empty
memos: on ``cat`` itself it would read the F residues that ``validate``
memoised, and look nearly free.  For each spec and checkout it prints the
minimum and median milliseconds of the ``validate`` call alone and of that
pentagon call, and whether ``report.lines()`` were byte-identical across
every run of every checkout.  The exit status is 1 when a run exits
non-zero.
"""

from __future__ import annotations

import argparse
import os
import statistics
import sys

from time_ind import run_once, spec_path

# prints the seconds of the validate call and of the pentagon call after it,
# then the report lines
CHILD = """
import sys, time
from fscat.category import pentagon_failures, validate
from fscat.specio import load_category
cat = load_category(sys.argv[1])
start = time.perf_counter()
report = validate(cat)
print(time.perf_counter() - start)
fresh = cat.with_pivotal(cat.pivotal)
start = time.perf_counter()
pentagon_failures(fresh, stop_after=1)
print(time.perf_counter() - start)
print("\\n".join(report.lines()))
"""


def bundled_specs(checkout):
    folder = os.path.join(checkout, "src", "fscat", "specs")
    return sorted(f[:-5] for f in os.listdir(folder) if f.endswith(".json"))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("checkouts", nargs="+", metavar="CHECKOUT",
                   help="one or two checkout directories")
    p.add_argument("--runs", type=int, default=5)
    args = p.parse_args(argv)
    if len(args.checkouts) > 2:
        p.error("give one or two checkouts")

    specs = bundled_specs(args.checkouts[-1])
    times = {(s, c): [] for s in specs for c in args.checkouts}
    pentagon = {(s, c): [] for s in specs for c in args.checkouts}
    reports = {s: set() for s in specs}
    ok = True
    for i in range(args.runs):
        for spec in specs:
            for checkout in args.checkouts:
                _, _, code, out = run_once(checkout, [
                    "-c", CHILD, spec_path(checkout, spec)])
                if code:
                    print(f"run {i + 1}/{args.runs} {checkout} {spec}: "
                          f"exit {code}", file=sys.stderr)
                    ok = False
                    continue
                seconds, pent, lines = out.decode().split("\n", 2)
                times[(spec, checkout)].append(1000 * float(seconds))
                pentagon[(spec, checkout)].append(1000 * float(pent))
                reports[spec].add(lines)
    print(f"cold validate, then pentagon_failures(stop_after=1), "
          f"{args.runs} runs per spec and checkout, ms")
    for spec in specs:
        cells = []
        for checkout in args.checkouts:
            got, pent = times[(spec, checkout)], pentagon[(spec, checkout)]
            cells.append(f"{checkout} validate min {min(got):.2f} / median "
                         f"{statistics.median(got):.2f}, pentagon min "
                         f"{min(pent):.2f} / median "
                         f"{statistics.median(pent):.2f}" if got else
                         f"{checkout} no run exited 0")
        same = "yes" if len(reports[spec]) == 1 else "no"
        print(f"{spec}: {'; '.join(cells)}; report lines identical: {same}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
