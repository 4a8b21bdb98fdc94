"""The benchmark's traced run binds its wrappers to library names.

``perfbench/tracing.py`` wraps fscat functions by name, and the self-check
of ``perfbench/run.py`` needs the spans it lists (``REQUIRED_SPANS`` per
workload, ``SETUP_SPANS`` for all) to receive calls.  This test installs the
tracer, runs the workload set-up on Fibonacci and one miniature request of
each workload, and runs that self-check, so a library change that leaves a
listed span unreachable fails here and not only in a traced benchmark run.
A second test reads every ``from fscat.<mod> import <names>`` in the
benchmark scripts, without running them, and asserts that each name
resolves, and so does each attribute the scripts read off an imported name
(``LinMap.identity``, say).
"""

import ast
import glob
import importlib
import os
import sys

import fscat.cli  # noqa: F401  (the tracer wraps names in every layer)
from fscat import indicators

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench")
sys.path.insert(0, PERFBENCH)

import workloads  # noqa: E402
from run import REQUIRED_SPANS, self_check  # noqa: E402
from tracing import Tracer  # noqa: E402

# one small request per workload, on the set-up category; library functions
# are looked up on their module at call time, where the tracer rebinds them
MINIATURES = {
    "ind-cli": lambda cat: workloads.run_cli(
        workloads.ind_argv("fibonacci", "t", 3)),
    "power-identity": lambda cat: indicators.check_power_identity(cat, "t", 3),
    "fs-endo": lambda cat: indicators.fs_scalar(workloads.fresh(cat), "t", 3,
                                                1, 1),
    "gauge-cold": lambda cat: workloads.gauge_request(
        cat, workloads.GaugeCold(1).gauge(cat), (("t", 3, 1),)),
}


def test_traced_spans_receive_calls():
    assert set(MINIATURES) == set(REQUIRED_SPANS)
    for name, request in MINIATURES.items():
        tracer = Tracer()
        tracer.install()  # raises if any wrapper is left unbound
        try:
            tracer.active = True
            request(workloads.setup_category("fibonacci"))
        finally:
            tracer.active = False
            tracer.uninstall()
        assert self_check(name, tracer) == [], name


def test_perfbench_imports_resolve():
    # every ``from fscat.<mod> import <names>`` in the benchmark scripts,
    # also those inside functions the benchmark itself never runs (such as
    # ``make_golden.py``, which reads pivotal traces of identities), and
    # every ``name.attr`` read off a name so imported
    found = 0
    attrs = 0
    for path in sorted(glob.glob(os.path.join(PERFBENCH, "*.py"))):
        with open(path) as fh:
            tree = ast.parse(fh.read(), path)
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 0 and \
                    (node.module or "").startswith("fscat."):
                mod = importlib.import_module(node.module)
                for alias in node.names:
                    found += 1
                    assert hasattr(mod, alias.name), \
                        (os.path.basename(path), node.module, alias.name)
                    imported[alias.asname or alias.name] = \
                        getattr(mod, alias.name)
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and \
                    isinstance(node.value, ast.Name) and \
                    node.value.id in imported:
                attrs += 1
                assert hasattr(imported[node.value.id], node.attr), \
                    (os.path.basename(path), node.value.id, node.attr)
    assert found and attrs
