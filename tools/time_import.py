#!/usr/bin/env python3
"""Raw import time of `fscat` and `fscat.cli`, one fresh process per run,
and whether mpmath is loaded after one `validate`.

    python3 tools/time_import.py PARENT_DIR CHANGE_DIR --runs 10

Each run is a new subprocess on the checkout's own ``src/`` that times
``import fscat, fscat.cli``, then loads the bundled Fibonacci spec, runs
``category.validate`` on it and reports whether ``mpmath`` is in
``sys.modules``.  With two checkouts the runs alternate between them (the
first checkout starts).  For each checkout it prints the minimum and
median milliseconds of the import and the mpmath states seen after
``validate``.  The exit status is 1 when a run exits non-zero.

The benchmark's ``setup_s`` includes this import, which its layer tracer
cannot see (the tracer is installed after it), so this script gives the
import's share on its own.
"""

from __future__ import annotations

import argparse
import statistics
import sys

from time_ind import run_once

# prints the seconds of the import, then whether mpmath is loaded after a
# validate
CHILD = """
import sys, time
start = time.perf_counter()
import fscat, fscat.cli
print(time.perf_counter() - start)
from fscat.category import validate
from fscat.specio import load_bundled
validate(load_bundled("fibonacci"))
print("mpmath" in sys.modules)
"""


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("checkouts", nargs="+", metavar="CHECKOUT",
                   help="one or two checkout directories")
    p.add_argument("--runs", type=int, default=5)
    args = p.parse_args(argv)
    if len(args.checkouts) > 2:
        p.error("give one or two checkouts")

    times = {c: [] for c in args.checkouts}
    loaded = {c: set() for c in args.checkouts}
    ok = True
    for i in range(args.runs):
        for checkout in args.checkouts:
            _, _, code, out = run_once(checkout, ["-c", CHILD])
            if code:
                print(f"run {i + 1}/{args.runs} {checkout}: exit {code}",
                      file=sys.stderr)
                ok = False
                continue
            seconds, state = out.decode().split()
            times[checkout].append(1000 * float(seconds))
            loaded[checkout].add(state)
    print(f"import fscat, fscat.cli, {args.runs} fresh processes per "
          "checkout, ms")
    for checkout in args.checkouts:
        got = times[checkout]
        print(f"{checkout}: " + (
            f"min {min(got):.1f} / median {statistics.median(got):.1f}; "
            f"mpmath loaded after validate: "
            f"{', '.join(sorted(loaded[checkout]))}" if got else
            "no run exited 0"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
