"""The benchmark's traced run binds its wrappers to library names.

``perfbench/tracing.py`` wraps fscat functions by name and its self-check
needs some of them to receive calls.  This test installs the tracer, runs a
power-identity check, an indicator report and an FS scalar on a freshly
loaded category (so no cached matrix hides a call), and asserts that the
spans the benchmark depends on were entered.  A second test reads every
``from fscat.<mod> import <names>`` in the benchmark scripts, without running
them, and asserts that each name resolves.
"""

import ast
import glob
import importlib
import os
import sys

import fscat.cli  # noqa: F401  (the tracer wraps names in every layer)
from fscat.indicators import check_power_identity, fs_scalar, indicator_report
from fscat.specio import load_bundled

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench")
sys.path.insert(0, PERFBENCH)

from tracing import Tracer  # noqa: E402


def test_traced_spans_receive_calls():
    fib = load_bundled("fibonacci")
    tracer = Tracer()
    tracer.install()  # raises if any wrapper is left unbound
    try:
        tracer.active = True
        assert check_power_identity(fib, "t", 3)
        indicator_report(fib, "t", (3,))
        fs_scalar(fib, "t", 3, 1, 1)
    finally:
        tracer.active = False
        tracer.uninstall()
    for span in ("homcalc.splice", "homcalc.insert", "homcalc.step",
                 "homcalc.contract", "linalg.mat_vec",
                 "indicators.e_map_matrix", "indicators.indicator",
                 "indicators.rotation_operator", "linalg.mat_mul",
                 "linalg.check"):
        assert tracer.span_calls(span) > 0, span


def test_perfbench_imports_resolve():
    # every ``from fscat.<mod> import <names>`` in the benchmark scripts,
    # also those inside functions the benchmark itself never runs
    found = 0
    for path in sorted(glob.glob(os.path.join(PERFBENCH, "*.py"))):
        with open(path) as fh:
            tree = ast.parse(fh.read(), path)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 0 and \
                    (node.module or "").startswith("fscat."):
                mod = importlib.import_module(node.module)
                for alias in node.names:
                    found += 1
                    assert hasattr(mod, alias.name), \
                        (os.path.basename(path), node.module, alias.name)
    assert found
