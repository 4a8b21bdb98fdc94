#!/usr/bin/env python3
"""Compare two checkouts on benchmark workloads in alternating pairs.

    python3 tools/bench_pairs.py PARENT_DIR CHANGE_DIR --workload fs-endo \\
        --pairs 10 --seed0 1

``--workload`` may be given more than once, or as ``all`` for every
workload of CHANGE_DIR's ``BENCHMARK.json``; the workloads run one after
the other, each with its own pairs and its own report table.  Pair i runs
``perfbench/run.py --workload W --seed SEED0+i`` once in each checkout, for
the ``run_seconds`` that CHANGE_DIR's ``BENCHMARK.json`` sets; even pairs
run the parent first and odd pairs the change, so a drift in host load
falls on both sides.  Each checkout runs its own ``perfbench/`` on its own
``src/``.  For every end-to-end metric of ``BENCHMARK.json`` the report
gives each side's median and quartiles, the relative change of the median
against the metric's regression bound, and the number of pairs the change
wins (ties count for neither side).  A gain holds when the change wins at
least nine tenths of the pairs and the medians differ by more than the
parent's interquartile range.

Each metric also gets a no-regression verdict:

* ``regress``: the change's median is worse than the parent's by more
  than the metric's bound;
* ``unresolved``: the parent's interquartile range, relative to its
  median, is wider than the bound, and not every change run is better than
  every parent run;
* ``ok``: otherwise.

The exit status is 1 when any metric of any workload regresses, or when
any run reports ``correct: false`` or exits non-zero.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys


def run_once(checkout, workload, seed, seconds):
    """The result object of one run (its last stdout line), or None."""
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds)],
        cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        print(f"run in {checkout} (seed {seed}) exited {proc.returncode}:\n"
              f"{proc.stderr}", file=sys.stderr)
        return None
    return json.loads(lines[-1])


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def regression_verdict(parent, change, bound, sign):
    """``regress``, ``unresolved`` or ``ok`` for one metric's runs; sign is
    1 when lower is better and -1 when higher is."""
    p_med = statistics.median(parent)
    if sign * (statistics.median(change) - p_med) > bound * abs(p_med):
        return "regress"
    q1, q3 = quartiles(parent)
    # sign * value is lower for the better run on either kind of metric
    all_better = max(sign * c for c in change) < min(sign * p for p in parent)
    if q3 - q1 > bound * abs(p_med) and not all_better:
        return "unresolved"
    return "ok"


def report(spec, results):
    """Lines of the per-metric comparison and the names of the metrics that
    regress; results is [(parent, change)]."""
    n = len(results)
    lines = [f"{'metric':<12} {'parent median [q1, q3]':>28} "
             f"{'change median [q1, q3]':>28} {'change':>7} {'bound':>5} "
             f"{'wins':>6}  gain  verdict"]
    regressed = []
    for metric in spec["end_to_end"]:
        name, sign = metric["name"], 1 if metric["better"] == "lower" else -1
        sides = [[r[k]["metrics"][name]["value"] for r in results]
                 for k in (0, 1)]
        p_med, c_med = (statistics.median(s) for s in sides)
        (p_q1, p_q3), (c_q1, c_q3) = (quartiles(s) for s in sides)
        wins = sum(sign * (p - c) > 0 for p, c in zip(*sides))
        rel = (c_med - p_med) / p_med if p_med else 0.0
        gain = wins >= 0.9 * n and sign * (p_med - c_med) > p_q3 - p_q1
        verdict = regression_verdict(*sides, metric["bound"], sign)
        if verdict == "regress":
            regressed.append(name)
        lines.append(f"{name:<12} {f'{p_med:.4g} [{p_q1:.4g}, {p_q3:.4g}]':>28} "
                     f"{f'{c_med:.4g} [{c_q1:.4g}, {c_q3:.4g}]':>28} "
                     f"{rel:>+7.1%} {metric['bound']:>5.0%} {wins:>3}/{n:<2}  "
                     f"{'yes' if gain else 'no':<4}  {verdict}")
    return lines, regressed


def compare(spec, dirs, workload, pairs, seed0):
    """Run the pairs of one workload and print its report; False when a run
    failed or reported ``correct: false``, or a metric regressed."""
    results, ok = [], True
    for i in range(pairs):
        seed = seed0 + i
        order = (0, 1) if i % 2 == 0 else (1, 0)
        pair = [None, None]
        for side in order:
            pair[side] = got = run_once(dirs[side], workload, seed,
                                        spec["run_seconds"])
            if got is None or not got["correct"]:
                ok = False
            if got is not None:
                wall = got["metrics"]["wall_s"]["value"]
                print(f"{workload} pair {i + 1}/{pairs} seed {seed} "
                      f"{('parent', 'change')[side]}: wall_s {wall:.4g} "
                      f"correct {got['correct']} failed {got['failed']}",
                      file=sys.stderr)
        if None not in pair:
            results.append(pair)
    print(f"workload {workload}: {len(results)} pairs, seeds "
          f"{seed0}..{seed0 + pairs - 1}")
    if results:
        lines, regressed = report(spec, results)
        print("\n".join(lines))
        if regressed:
            print(f"error: {workload} regresses on {', '.join(regressed)}",
                  file=sys.stderr)
            ok = False
    return ok


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"{value} is not a positive integer")
    return value


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("parent_dir")
    p.add_argument("change_dir")
    p.add_argument("--workload", action="append", required=True,
                   help="a workload name, or all; may be repeated")
    p.add_argument("--pairs", type=positive_int, required=True)
    p.add_argument("--seed0", type=int, required=True)
    args = p.parse_args(argv)

    with open(os.path.join(args.change_dir, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    known = [w["name"] for w in spec["workloads"]]
    workloads = []
    for name in args.workload:
        for w in known if name == "all" else [name]:
            if w not in workloads:
                workloads.append(w)
    unknown = [w for w in workloads if w not in known]
    if unknown:
        p.error(f"unknown workload {', '.join(unknown)}; choose from "
                f"{', '.join(known)} or all")
    dirs = (args.parent_dir, args.change_dir)
    ok = True
    for i, workload in enumerate(workloads):
        if i:
            print()
        ok = compare(spec, dirs, workload, args.pairs, args.seed0) and ok
    if not ok:
        print("error: a run failed, reported correct: false, or a metric "
              "regressed", file=sys.stderr)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
