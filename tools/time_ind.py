#!/usr/bin/env python3
"""Raw wall time and peak memory of `fscat ind`, one fresh process per run.

    python3 tools/time_ind.py ty_z2z2_plus --object sigma --n 12 --runs 3 \\
        PARENT_DIR CHANGE_DIR

Each run is ``python -m fscat.cli ind SPEC --object X --n N --format json``,
with ``--r R`` when given, in a new subprocess on the checkout's own
``src/``; with two checkouts the runs alternate between them (the first
checkout starts).  SPEC is a path, or
the name of a spec bundled in each checkout.  For each checkout it prints
the run count, how many runs exited non-zero, and over the runs that exited
0 the minimum, median and maximum wall time and the peak resident set size
(from ``os.wait4``, so only this script's own children are measured): a
refused request is not a timing.  Last it says whether stdout was
byte-identical across every run of every checkout.  The exit status is 1
when a run exits non-zero.
"""

from __future__ import annotations

import argparse
import os
import statistics
import subprocess
import sys
import time


def spec_path(checkout, spec):
    if os.path.exists(spec):
        return os.path.abspath(spec)
    return os.path.join(checkout, "src", "fscat", "specs", f"{spec}.json")


def run_once(checkout, argv):
    """(wall seconds, peak RSS in MB, exit code, stdout bytes) of one run of
    ``python ARGV`` on the checkout's own ``src/``."""
    env = dict(os.environ, PYTHONPATH=os.path.join(checkout, "src"))
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, *argv],
                            cwd=checkout, env=env, stdout=subprocess.PIPE)
    out = proc.stdout.read()
    proc.stdout.close()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    # ru_maxrss is in kilobytes on Linux
    return wall, usage.ru_maxrss / 1024, proc.returncode, out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("spec")
    p.add_argument("checkouts", nargs="+", metavar="CHECKOUT",
                   help="one or two checkout directories")
    p.add_argument("--object", required=True)
    p.add_argument("--n", required=True, help="as `fscat ind --n`")
    p.add_argument("--r", help="as `fscat ind --r`")
    p.add_argument("--runs", type=int, default=3)
    args = p.parse_args(argv)
    if len(args.checkouts) > 2:
        p.error("give one or two checkouts")

    runs = {c: [] for c in args.checkouts}
    outputs = set()
    ok = True
    for i in range(args.runs):
        for checkout in args.checkouts:
            wall, rss, code, out = run_once(checkout, [
                "-m", "fscat.cli", "ind", spec_path(checkout, args.spec),
                "--object", args.object, "--n", args.n,
                *(("--r", args.r) if args.r else ()), "--format", "json"])
            print(f"run {i + 1}/{args.runs} {checkout}: {wall:.3f} s, "
                  f"{rss:.1f} MB, exit {code}", file=sys.stderr)
            ok = ok and code == 0
            runs[checkout].append((wall, rss, code))
            outputs.add(out)
    print(f"fscat ind {args.spec} --object {args.object} --n {args.n}"
          + (f" --r {args.r}" if args.r else ""))
    for checkout, got in runs.items():
        passed = [(w, r) for w, r, code in got if code == 0]
        line = (f"{checkout}: {len(got)} runs, "
                f"{len(got) - len(passed)} exited non-zero")
        if passed:
            walls = sorted(w for w, _ in passed)
            line += (f"; over the {len(passed)} that exited 0: wall min "
                     f"{walls[0]:.3f} / median {statistics.median(walls):.3f} / "
                     f"max {walls[-1]:.3f} s, peak RSS "
                     f"{max(r for _, r in passed):.1f} MB")
        print(line)
    print("stdout byte-identical across all runs: "
          f"{'yes' if len(outputs) == 1 else 'no'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
