"""Run every workload over several seeds and summarise each metric.

    python3 perfbench/sweep.py                       # all workloads, seeds 1..10
    python3 perfbench/sweep.py --workloads fs-endo --seeds 5
    python3 perfbench/sweep.py --trace-repeats 2 --out perfbench/baseline/BENCH_x.json

Run it from the repository root.  Runs are sequential, one process each,
with ``run_seconds`` from BENCHMARK.json.  For every end-to-end metric it
prints the median, the quartiles (``statistics.quantiles(n=4)``) and the
spread (Q3 - Q1) / median against the metric's bound; a spread above a third
of the bound is flagged as unsteady.  With ``--trace-repeats K`` it also
makes K traced runs of one seed per workload, checks that every count
repeats exactly, and prints every per-layer metric.  Every run must report
correct = true with no failed request.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(bench, workload, seed, trace):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]),
                              "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=180)
    elapsed = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} trace {trace}: exit "
                         f"{proc.returncode}\n{proc.stderr}")
    result = json.loads(lines[-1])
    want = [m["name"] for m in bench["per_layer" if trace else "end_to_end"]]
    if set(result) != {"correct", "attempted", "failed", "metrics"} \
            or sorted(result["metrics"]) != sorted(want):
        raise SystemExit(f"{workload} seed {seed}: malformed result {lines[-1]}")
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect run\n{proc.stderr}")
    return result, elapsed


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads", default=",".join(names))
    p.add_argument("--seeds", type=int, default=10)
    p.add_argument("--trace-repeats", type=int, default=0)
    p.add_argument("--out", default=None, help="write the summary as JSON")
    p.add_argument("--label", default="", help="commit or note for the summary")
    args = p.parse_args()

    summary = {
        "label": args.label,
        "machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                    "platform": platform.platform()},
        "run_seconds": bench["run_seconds"],
        "seeds": list(range(1, args.seeds + 1)),
        "workloads": {},
    }
    steady = True
    for workload in args.workloads.split(","):
        values = {m["name"]: [] for m in bench["end_to_end"]}
        attempted = failed = 0
        run_s = []
        for seed in summary["seeds"]:
            result, elapsed = run_once(bench, workload, seed, 0)
            run_s.append(elapsed)
            attempted += result["attempted"]
            failed += result["failed"]
            for name, m in result["metrics"].items():
                values[name].append(m["value"])
        entry = {"attempted": attempted, "failed": failed,
                 "fail_frac": failed / attempted,
                 "run_s_max": max(run_s), "run_s_total": sum(run_s),
                 "end_to_end": {}}
        print(f"== {workload}: {len(run_s)} runs, {attempted} requests, "
              f"{failed} failed, longest run {max(run_s):.1f}s, "
              f"total {sum(run_s):.0f}s")
        for m in bench["end_to_end"]:
            vals = values[m["name"]]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            ok = spread < m["bound"] / 3 or m["name"] == "setup_s"
            steady &= ok
            entry["end_to_end"][m["name"]] = {
                "unit": m["unit"], "median": med, "q1": q1, "q3": q3,
                "spread": spread, "bound": m["bound"], "values": vals}
            print(f"  {m['name']:>12} median {med:12.6g} {m['unit']:<3} "
                  f"q1 {q1:10.6g} q3 {q3:10.6g} spread {spread:7.2%} "
                  f"(bound {m['bound']:.0%}){'' if ok else '  UNSTEADY'}")
        if args.trace_repeats:
            seed = summary["seeds"][0]
            traced = [run_once(bench, workload, seed, 1)[0]["metrics"]
                      for _ in range(args.trace_repeats)]
            counts = [{k: v["value"] for k, v in t.items() if v["unit"] == "count"}
                      for t in traced]
            repeat = all(c == counts[0] for c in counts)
            steady &= repeat
            entry["per_layer"] = {k: v["value"] for k, v in traced[0].items()}
            entry["per_layer_counts_repeat"] = repeat
            print(f"  traced seed {seed} x{args.trace_repeats}: counts "
                  f"{'repeat exactly' if repeat else 'DIFFER'}")
            for k, v in traced[0].items():
                print(f"    {k} = {v['value']:.6g} {v['unit']}")
        summary["workloads"][workload] = entry
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=1, sort_keys=True)
            fh.write("\n")
    print("all spreads within a third of their bounds" if steady
          else "UNSTEADY: see flagged lines")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
