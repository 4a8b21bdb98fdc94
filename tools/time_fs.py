#!/usr/bin/env python3
"""Raw time and peak memory of one FS endomorphism scalar, or of every
(l, r) of one n, one fresh process per run.

    python3 tools/time_fs.py fibonacci --object t --n 9 --runs 3 \\
        PARENT_DIR CHANGE_DIR
    python3 tools/time_fs.py fibonacci --object t --n 8 --sweep \\
        PARENT_DIR CHANGE_DIR

Each run loads SPEC (a path, or the name of a spec bundled in each
checkout) with its own pivotal data and computes
``fs_scalar(cat, OBJECT, N, L, R)`` (``--l`` and ``--r`` default to 0) in a
new subprocess on the checkout's own ``src/``.  With ``--sweep`` the run
computes ``fs_scalar(cat, OBJECT, N, l, r)`` for every l + r + 1 <= N
instead, in that order on the one category, as ``fscat check`` does, and
times them together.  With two checkouts the runs alternate between them
(the first checkout starts).  For each checkout it prints the run count,
the minimum, median and maximum seconds of the ``fs_scalar`` calls alone
and of the whole process, and the peak resident set size of the runs (from
``os.wait4``, so only this script's own children are measured).  Last it
says whether the scalars' ``repr`` was identical across every run of every
checkout.  The exit status is 1 when a run exits non-zero.
"""

from __future__ import annotations

import argparse
import statistics
import sys

from time_ind import run_once, spec_path

# prints the seconds of the fs_scalar calls, then the scalars' repr; with a
# seventh argument, every (l, r) of n
CHILD = """
import sys, time
from fscat.indicators import fs_scalar
from fscat.specio import load_category
cat = load_category(sys.argv[1])
a, n, l, r = sys.argv[2], *map(int, sys.argv[3:6])
cases = ([(l, r) for l in range(n) for r in range(n - l)] if sys.argv[6:]
         else [(l, r)])
start = time.perf_counter()
values = [fs_scalar(cat, a, n, l, r) for l, r in cases]
print(time.perf_counter() - start)
print(repr(values if sys.argv[6:] else values[0]))
"""


def spread(values):
    values = sorted(values)
    return (f"min {values[0]:.3f} / median {statistics.median(values):.3f} / "
            f"max {values[-1]:.3f} s")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("spec")
    p.add_argument("checkouts", nargs="+", metavar="CHECKOUT",
                   help="one or two checkout directories")
    p.add_argument("--object", required=True, help="a simple label")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--l", type=int, default=0)
    p.add_argument("--r", type=int, default=0)
    p.add_argument("--sweep", action="store_true",
                   help="every l + r + 1 <= N in one process; ignores "
                        "--l and --r")
    p.add_argument("--runs", type=int, default=3)
    args = p.parse_args(argv)
    if len(args.checkouts) > 2:
        p.error("give one or two checkouts")

    runs = {c: [] for c in args.checkouts}
    values = set()
    ok = True
    for i in range(args.runs):
        for checkout in args.checkouts:
            wall, rss, code, out = run_once(checkout, [
                "-c", CHILD, spec_path(checkout, args.spec), args.object,
                str(args.n), str(args.l), str(args.r),
                *(["sweep"] if args.sweep else [])])
            seconds, _, value = out.decode().partition("\n")
            call = float(seconds) if code == 0 else float("nan")
            print(f"run {i + 1}/{args.runs} {checkout}: fs_scalar {call:.3f} s, "
                  f"process {wall:.3f} s, {rss:.1f} MB, exit {code}",
                  file=sys.stderr)
            ok = ok and code == 0
            runs[checkout].append((call, wall, rss))
            values.add(value)
    cases = "every l + r + 1 <= n" if args.sweep else \
        f"l={args.l}, r={args.r}"
    print(f"fs_scalar({args.spec}, {args.object}, n={args.n}, {cases})")
    for checkout, got in runs.items():
        print(f"{checkout}: {len(got)} runs, fs_scalar "
              f"{spread([c for c, _, _ in got])}, process "
              f"{spread([w for _, w, _ in got])}, peak RSS "
              f"{max(r for _, _, r in got):.1f} MB")
    print(f"scalars identical across all runs: "
          f"{'yes' if len(values) == 1 else 'no'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
