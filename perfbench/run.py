"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload ind-cli --seed 1 --seconds 10 --trace 0

Run it from the repository root (the library is imported from ``src/``).
Workloads: ind-cli, power-identity, fs-endo, gauge-cold (see README.md).

The process is single-threaded.  It first times set-up (import once, then
load, validate and pivotal attach of every spec the workload uses, repeated
and reported as the median), then repeats passes of the workload's fixed
request set until ``--seconds`` would be exceeded (at least one pass).

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` then installs the
layer tracer and runs one traced set-up and one traced pass, and prints the
per-layer metrics instead.  Every request runs inside its own guard: a wrong
output or any exception counts as a failure and the run goes on.  The last
line of stdout is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import sys
import time
import traceback

from speed import SpeedProbe

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

SETUP_REPEATS = 3
GUARD_ENV = "FSCAT_NMAX_GUARD"

# layers each workload must exercise in its traced pass; a zero count here
# means the trace wrappers missed a binding or the workload lost its purpose
REQUIRED_SPANS = {
    "ind-cli": ("cli.main", "indicators.indicator_report",
                "indicators.e_map_matrix", "indicators.indicator",
                "linalg.mat_mul", "linalg.check", "homcalc.paths",
                "homcalc.splice", "homcalc.contract", "category.validate",
                "specio.load_category"),
    "power-identity": ("indicators.check_power_identity",
                       "indicators.e_map_matrix", "indicators.rotation_operator",
                       "linalg.mat_mul", "linalg.check", "homcalc.paths",
                       "homcalc.splice", "homcalc.contract"),
    "fs-endo": ("indicators.fs_scalar", "homcalc.paths", "homcalc.insert",
                "homcalc.step", "homcalc.contract", "homcalc.splice",
                "linalg.mat_vec"),
    "gauge-cold": ("category.gauge_transform", "category.validate",
                   "pivotal.enumerate_pivotal_structures",
                   "indicators.indicator", "linalg.mat_mul", "linalg.mat_inv",
                   "homcalc.paths"),
}
SETUP_SPANS = ("specio.load_category", "category.validate",
               "pivotal.enumerate_pivotal_structures", "pivotal.attach_pivotal")
REQUIRED_COUNTS = ("mul", "add")
# spans that must see no call at all on a workload (the bypass prediction)
FORBIDDEN_SPANS = {"fs-endo": ("indicators.e_map_matrix",)}


def percentile(sorted_values, pct: int):
    """Nearest-rank percentile of an ascending list."""
    k = max(1, math.ceil(pct / 100 * len(sorted_values)))
    return sorted_values[k - 1]


class Runner:
    def __init__(self, workload, probe, tracer=None):
        self.workload = workload
        self.probe = probe
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def run_pass(self, cats):
        """One pass: (reference wall s, reference CPU s, raw wall s,
        reference latency of each request)."""
        requests = self.workload.pass_requests(cats)
        marks = []
        for req in requests:
            self.attempted += 1
            ok = False
            start = self.probe.mark()
            try:
                if self.tracer:
                    self.tracer.active = True
                try:
                    got = req.call()
                finally:
                    if self.tracer:
                        self.tracer.active = False
                    marks.append((start, self.probe.mark()))
                ok = bool(req.check(got))
                detail = "wrong output"
            except Exception:  # any exception fails this request only
                detail = traceback.format_exc(limit=3)
            if not ok:
                self.failed += 1
                if len(self.failures) < 5:
                    self.failures.append(f"{req.label}: {detail}")
        timed = [self.probe.measure(a, b) for a, b in marks]
        return (sum(t[2] for t in timed), sum(t[3] for t in timed),
                sum(t[0] for t in timed), [t[2] for t in timed])

    def setup(self, repeats: int):
        """(median reference seconds, categories of the last repeat)."""
        from workloads import setup_category
        marks = []
        for _ in range(repeats):
            start = self.probe.mark()
            cats = {name: setup_category(name) for name in self.workload.specs}
            marks.append((start, self.probe.mark()))
        return statistics.median(self.probe.measure(a, b)[2] for a, b in marks), cats


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "fscat", "__init__.py")):
        print(f"error: no fscat sources under {SRC}", file=sys.stderr)
        return 2
    # hom-space guard stays at the library default on every workload
    os.environ.pop(GUARD_ENV, None)
    sys.path.insert(0, SRC)

    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    with SpeedProbe() as probe:
        start = probe.mark()
        import fscat
        import fscat.cli  # noqa: F401  (the CLI entry point is part of set-up)
        import_mark = probe.mark()
        if not os.path.realpath(fscat.__file__).startswith(os.path.realpath(SRC)):
            print(f"error: fscat imported from {fscat.__file__}, not {SRC}",
                  file=sys.stderr)
            return 2
        workload = workloads.WORKLOADS[args.workload](args.seed)
        workload.prepare()
        runner = Runner(workload, probe)
        setup_s, cats = runner.setup(SETUP_REPEATS)
        setup_s += probe.measure(start, import_mark)[2]

        passes = []
        latencies = []
        raw_walls = []
        start = time.perf_counter()
        while True:
            p0 = time.perf_counter()
            wall, cpu, raw_wall, lat = runner.run_pass(cats)
            passes.append((wall, cpu))
            raw_walls.append(raw_wall)
            latencies += lat
            elapsed = time.perf_counter() - start
            if elapsed + (time.perf_counter() - p0) > args.seconds:
                break
        traced = Traced(workload, probe) if args.trace else None
    per_pass = len(latencies) // len(passes)
    # highest whole percentile that leaves >= 10 samples of one pass beyond it
    tail_pct = math.floor(100 * (1 - 10 / per_pass))
    latencies.sort()
    wall_s = statistics.median(w for w, _ in passes)
    cpu_s = statistics.median(c for _, c in passes)
    failures = runner.failures + (traced.runner.failures if traced else [])
    attempted = runner.attempted + (traced.runner.attempted if traced else 0)
    failed = runner.failed + (traced.runner.failed if traced else 0)

    if traced:
        metrics = traced.metrics
        metrics["trace.overhead_ratio"] = (traced.wall / wall_s, "ratio")
        problems = self_check(args.workload, traced.tracer)
        for msg in problems:
            print(f"trace self-check failed: {msg}", file=sys.stderr)
    else:
        problems = []
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = {
            "setup_s": (setup_s, "s"),
            "wall_s": (wall_s, "s"),
            "cpu_s": (cpu_s, "s"),
            "req_p50_ms": (1e3 * percentile(latencies, 50), "ms"),
            "req_tail_ms": (1e3 * percentile(latencies, tail_pct), "ms"),
            "peak_rss_mb": (rss_mb, "MB"),
        }

    for msg in failures:
        print(f"FAILED {msg}", file=sys.stderr)
    beyond = len(latencies) - math.ceil(tail_pct / 100 * len(latencies))
    print(f"workload {args.workload} seed {args.seed}: {len(passes)} pass(es) "
          f"of {per_pass} requests; req_tail_ms is p{tail_pct} of "
          f"{len(latencies)} samples ({beyond} beyond); raw wall_s "
          f"{statistics.median(raw_walls):.6g}; fail_frac {failed / attempted:g}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


class Traced:
    """One traced set-up and one traced pass, with the layer metrics.

    Per-layer times are rescaled to reference speed by the pass's own
    reference/raw ratio, like the end-to-end times."""

    def __init__(self, workload, probe):
        from tracing import Tracer
        self.tracer = Tracer()
        self.runner = Runner(workload, probe, self.tracer)
        self.tracer.install()
        try:
            self.tracer.active = True
            try:
                _, cats = self.runner.setup(1)
            finally:
                self.tracer.active = False
            self.wall, _, raw_wall, _ = self.runner.run_pass(cats)
        finally:
            self.tracer.uninstall()
        scale = self.wall / raw_wall
        self.metrics = {name: (value * scale if unit in ("s", "us") else value, unit)
                        for name, (value, unit) in self.tracer.metrics().items()}


def self_check(workload: str, tracer) -> list:
    """Layers the workload must (or must not) reach, as failure messages."""
    problems = [f"{name} has no calls" for name in
                REQUIRED_SPANS[workload] + SETUP_SPANS
                if tracer.span_calls(name) == 0]
    problems += [f"cyclo.{op} has no calls" for op in REQUIRED_COUNTS
                 if tracer.counts[op] == 0]
    problems += [f"{name} has {tracer.span_calls(name)} calls, expected 0"
                 for name in FORBIDDEN_SPANS.get(workload, ())
                 if tracer.span_calls(name)]
    return problems


if __name__ == "__main__":
    sys.exit(main())
