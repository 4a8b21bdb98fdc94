#!/usr/bin/env python3
"""Raw time and peak memory of one or two checkouts, one fresh process per run.

    python3 tools/time_runs.py ind ty_z2z2_plus --object sigma --n 12 \\
        PARENT_DIR CHANGE_DIR --runs 3
    python3 tools/time_runs.py fs fibonacci --object t --n 9 PARENT_DIR CHANGE_DIR
    python3 tools/time_runs.py fs fibonacci --object t --n 8 --sweep \\
        PARENT_DIR CHANGE_DIR
    python3 tools/time_runs.py gauge rep_s3 --trials 50 PARENT_DIR CHANGE_DIR
    python3 tools/time_runs.py validate PARENT_DIR CHANGE_DIR --runs 10
    python3 tools/time_runs.py import PARENT_DIR CHANGE_DIR --runs 10

Every run is a new subprocess on its checkout's own ``src/``, so every memo
starts empty.  SPEC is a path, or the name of a spec bundled in each
checkout.  Each mode times, and compares as output:

* ``ind``: ``python -m fscat.cli ind SPEC --object X --n N --format json``
  (with ``--r R`` when given); stdout.
* ``fs``: the ``fs_scalar(cat, OBJECT, N, L, R)`` call alone on SPEC with
  its pivotal data, or with ``--sweep`` every l + r + 1 <= N in that order
  on the one category, as ``fscat check`` does; the scalars' ``repr``.
* ``gauge``: the gauge trials of ``fscat gauge-check SPEC --trials T``
  (seed 0) alone: after the validation and the table of every nu_{n,r},
  n <= 4, on SPEC, each trial's ``gauge_transform`` and its nu_{n,r}; the
  trials' values' ``repr`` (a child whose trial changes a value fails).
* ``validate``, per spec bundled in the last checkout: the
  ``load_category`` of the spec file (which decodes every scalar), a cold
  ``category.validate``, then the call that decides its pentagon item,
  ``pentagon_failures``, on a copy with empty memos (on the validated
  category it would read the memoised F residues and look nearly free);
  ``report.lines()``.  The call passes no option, so older checkouts, whose
  ``pentagon_failures`` took a ``stop_after`` limit, run it too.
* ``import``: ``import fscat, fscat.cli``, which the benchmark's
  ``setup_s`` includes but its layer tracer cannot see; whether mpmath is
  loaded after a ``validate`` of the bundled Fibonacci spec, printed too.

Each round runs every case once in each checkout; with two checkouts, odd
rounds start with the second, so a drift in host load falls on both.  For
each case and checkout it prints the run count, how many runs exited
non-zero, and over the runs that exited 0 the minimum / median / maximum of
each timing and of the whole process, and the peak resident set size (from
``os.wait4``, so only this script's children are measured): a refused
request is not a timing.  Then it says whether the output was identical
across the runs that exited 0 in every checkout.  The exit status is 1 when
a run exits non-zero.
"""

from __future__ import annotations

import argparse
import os
import statistics
import subprocess
import sys
import time

from bench_pairs import positive_int

# Each child prints the seconds of its timed calls, one a line, then its
# output; TIMED names those calls with the unit they are reported in.
FS = """
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
GAUGE = """
import sys, time
from fscat.category import gauge_transform, validate
from fscat.cli import SplitMix64, _random_gauge
from fscat.indicators import indicator
from fscat.specio import load_category
cat = load_category(sys.argv[1])
if not validate(cat).valid:
    sys.exit("spec invalid")
cells = [(a, n, r) for a in cat.labels for n in range(1, 5)
         for r in range(1, n + 1)]
base = [indicator(cat, *cell) for cell in cells]
rng = SplitMix64(0)
start = time.perf_counter()
trials = []
for _ in range(int(sys.argv[2])):
    gauged = gauge_transform(cat, _random_gauge(cat, rng))
    trials.append([indicator(gauged, *cell) for cell in cells])
print(time.perf_counter() - start)
if any(values != base for values in trials):
    sys.exit("a gauge trial changed a nu value")
print(repr(trials))
"""
VALIDATE = """
import sys, time
from fscat.category import pentagon_failures, validate
from fscat.specio import load_category
start = time.perf_counter()
cat = load_category(sys.argv[1])
print(time.perf_counter() - start)
start = time.perf_counter()
report = validate(cat)
print(time.perf_counter() - start)
fresh = cat.with_pivotal(cat.pivotal)
start = time.perf_counter()
pentagon_failures(fresh)
print(time.perf_counter() - start)
print("\\n".join(report.lines()))
"""
IMPORT = """
import sys, time
start = time.perf_counter()
import fscat, fscat.cli
print(time.perf_counter() - start)
from fscat.category import validate
from fscat.specio import load_bundled
validate(load_bundled("fibonacci"))
print("mpmath" in sys.modules)
"""
TIMED = {"ind": (), "fs": (("fs_scalar", "s"),),
         "gauge": (("trials", "s"),),
         "validate": (("load_category", "ms"), ("validate", "ms"),
                      ("pentagon", "ms")),
         "import": (("import", "ms"),)}
DEFAULT_RUNS = {"ind": 3, "fs": 3, "gauge": 3, "validate": 5, "import": 5}


def non_negative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"{value} is negative")
    return value


def spec_path(checkout, spec):
    if os.path.exists(spec):
        return os.path.abspath(spec)
    return os.path.join(checkout, "src", "fscat", "specs", f"{spec}.json")


def bundled_specs(checkout):
    folder = os.path.join(checkout, "src", "fscat", "specs")
    return sorted(f[:-5] for f in os.listdir(folder) if f.endswith(".json"))


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
    # the child is reaped here, so tell the Popen object, which would
    # otherwise warn that it is collected while still running
    proc.returncode = os.waitstatus_to_exitcode(status)
    # ru_maxrss is in kilobytes on Linux
    return wall, usage.ru_maxrss / 1024, proc.returncode, out


def child_argv(args, checkout, case):
    if args.mode == "ind":
        return ["-m", "fscat.cli", "ind", spec_path(checkout, args.spec),
                "--object", args.object, "--n", args.n,
                *(("--r", args.r) if args.r else ()), "--format", "json"]
    if args.mode == "fs":
        return ["-c", FS, spec_path(checkout, args.spec), args.object,
                str(args.n), str(args.l), str(args.r),
                *(["sweep"] if args.sweep else [])]
    if args.mode == "gauge":
        return ["-c", GAUGE, spec_path(checkout, args.spec), str(args.trials)]
    if args.mode == "validate":
        return ["-c", VALIDATE, spec_path(checkout, case)]
    return ["-c", IMPORT]


def spread(name, values, unit):
    values = sorted(values)
    return (f"{name} min {values[0]:.4g} / median "
            f"{statistics.median(values):.4g} / max {values[-1]:.4g} {unit}")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    modes = p.add_subparsers(dest="mode", required=True)
    sub = {}
    for mode, runs in DEFAULT_RUNS.items():
        m = sub[mode] = modes.add_parser(mode)
        if mode in ("ind", "fs", "gauge"):
            m.add_argument("spec")
        if mode in ("ind", "fs"):
            m.add_argument("--object", required=True, help="a simple label")
        m.add_argument("checkouts", nargs="+", metavar="CHECKOUT",
                       help="one or two checkout directories")
        m.add_argument("--runs", type=positive_int, default=runs)
    sub["ind"].add_argument("--n", required=True, help="as `fscat ind --n`")
    sub["ind"].add_argument("--r", help="as `fscat ind --r`")
    sub["fs"].add_argument("--n", type=positive_int, required=True)
    sub["fs"].add_argument("--l", type=non_negative_int, default=0)
    sub["fs"].add_argument("--r", type=non_negative_int, default=0)
    sub["fs"].add_argument("--sweep", action="store_true",
                           help="every l + r + 1 <= N in one process; "
                                "ignores --l and --r")
    sub["gauge"].add_argument("--trials", type=positive_int, default=20,
                              help="as `fscat gauge-check --trials`")
    args = p.parse_args(argv)
    if len(args.checkouts) > 2:
        sub[args.mode].error("give one or two checkouts")
    if args.mode == "fs" and not args.sweep and args.l + args.r + 1 > args.n:
        sub["fs"].error("need --l + --r + 1 <= --n")
    return args


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = parse_args(argv)
    checkouts, timed = args.checkouts, TIMED[args.mode]
    cases = bundled_specs(checkouts[-1]) if args.mode == "validate" else [""]
    # (case, checkout) -> the runs that exited 0, each its timings in the
    # units of TIMED, process seconds and MB; their outputs; the failures
    runs = {(case, c): [] for case in cases for c in checkouts}
    outputs = {key: set() for key in runs}
    failed = dict.fromkeys(runs, 0)
    for i in range(args.runs):
        order = checkouts if i % 2 == 0 else checkouts[::-1]
        for case in cases:
            for checkout in order:
                wall, rss, code, out = run_once(
                    checkout, child_argv(args, checkout, case))
                print(f"{case} run {i + 1}/{args.runs} {checkout}: "
                      f"{wall:.3f} s, {rss:.1f} MB, exit {code}".lstrip(),
                      file=sys.stderr)
                if code:
                    failed[(case, checkout)] += 1
                    continue
                *seconds, output = out.decode().split("\n", len(timed))
                runs[(case, checkout)].append(
                    [float(s) * (1000 if unit == "ms" else 1)
                     for s, (_, unit) in zip(seconds, timed)] + [wall, rss])
                outputs[(case, checkout)].add(output)
    print(" ".join(["time_runs.py", *argv]))
    for case in cases:
        label = f"{case}: " if case else ""
        for checkout in checkouts:
            passed, bad = runs[(case, checkout)], failed[(case, checkout)]
            line = (f"{label}{checkout}: {len(passed) + bad} runs, {bad} "
                    "exited non-zero")
            if passed:
                figures = [spread(name, [r[j] for r in passed], unit)
                           for j, (name, unit)
                           in enumerate((*timed, ("process", "s")))]
                line += (f"; over the {len(passed)} that exited 0: "
                         f"{', '.join(figures)}, peak RSS "
                         f"{max(r[-1] for r in passed):.1f} MB")
            if args.mode == "import":
                seen = sorted(s.strip() for s in outputs[(case, checkout)])
                line += f"; mpmath loaded after validate: {', '.join(seen)}"
            print(line)
        seen = set().union(*(outputs[(case, c)] for c in checkouts))
        print(f"{label}output identical across the runs that exited 0: "
              f"{'yes' if len(seen) == 1 else 'no'}")
    return 1 if any(failed.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
