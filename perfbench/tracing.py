"""Per-layer tracing for the benchmark, installed from outside the library.

The tracer wraps the public functions of each fscat module and rebinds the
wrapper under every name that refers to the original, in every loaded
``fscat`` module and on the ``Cyc`` and ``Category`` classes.  That matters
because ``indicators``, ``homcalc`` and ``category`` import ``mat_mul`` and
friends by name, and ``Cyc`` aliases ``__radd__``/``__rmul__`` to
``__add__``/``__mul__``: patching only the defining module would miss them.

Two kinds of record are kept, both aggregated in memory:

* spans (calls, inclusive and self seconds) around linalg, homcalc,
  indicators and the L4 entry points.  Self time is a span's duration minus
  the time covered by the spans it caused;
* counters around the ``Cyc`` field operations, which run millions of times.
  They are not spans, so field time stays inside the self time of the
  calling span (``linalg.mat_mul.self_s`` includes its ``Cyc`` products).

``Category.cached`` is counted by key kind (hits and misses); a miss is a
cache build, so ``homcalc.paths.builds`` and ``indicators.e_map_matrix.builds``
are the ``paths`` and ``emap`` misses.
"""

from __future__ import annotations

import functools
import sys
import weakref
from collections import Counter, defaultdict
from time import perf_counter

CACHE_KINDS = ("paths", "pidx", "emap", "frc", "fblk", "finv")
MUL_CONDUCTORS = (1, 3, 4, 5, 8, 12)

# span name -> (module, attribute) of the original
SPANS = {
    "linalg.mat_mul": ("fscat.linalg", "mat_mul"),
    "linalg.mat_vec": ("fscat.linalg", "mat_vec"),
    "linalg.mat_inv": ("fscat.linalg", "mat_inv"),
    "linalg.check": [("fscat.linalg", "is_identity"),
                     ("fscat.linalg", "mat_equal"),
                     ("fscat.linalg", "mat_trace")],
    "homcalc.paths": ("fscat.homcalc", "paths"),
    "homcalc.splice": ("fscat.homcalc", "splice_host_matrix"),
    "homcalc.insert": ("fscat.homcalc", "insert_vector_matrix"),
    "homcalc.contract": ("fscat.homcalc", "contract_pair_matrix"),
    "homcalc.step": [("fscat.homcalc", "fuse_step_matrix"),
                     ("fscat.homcalc", "split_step_matrix")],
    "indicators.e_map_matrix": ("fscat.indicators", "e_map_matrix"),
    "indicators.indicator": ("fscat.indicators", "indicator"),
    "indicators.check_power_identity": ("fscat.indicators", "check_power_identity"),
    "indicators.fs_scalar": ("fscat.indicators", "fs_scalar"),
    "indicators.rotation_operator": ("fscat.indicators", "rotation_operator"),
    "indicators.indicator_report": ("fscat.indicators", "indicator_report"),
    "category.validate": ("fscat.category", "validate"),
    "category.gauge_transform": ("fscat.category", "gauge_transform"),
    "pivotal.enumerate_pivotal_structures": ("fscat.pivotal",
                                             "enumerate_pivotal_structures"),
    "pivotal.attach_pivotal": ("fscat.pivotal", "attach_pivotal"),
    "specio.load_category": ("fscat.specio", "load_category"),
    "cli.main": ("fscat.cli", "main"),
}


def _nnz(m):
    return sum(1 for row in m for x in row if x)


class Tracer:
    """Wraps the fscat layers while installed; ``active`` gates recording."""

    def __init__(self):
        self.active = False
        self.spans = defaultdict(lambda: [0, 0.0, 0.0])  # calls, incl, self
        self.counts = Counter()
        self.times = Counter()
        self.maxima = Counter()
        self._stack = []           # child seconds of each open span
        self._depth = Counter()    # nesting of each field operation
        self._entries = weakref.WeakKeyDictionary()  # category -> cache size
        self._undo = []

    # -- installation ------------------------------------------------------

    def install(self):
        import fscat.category
        import fscat.cyclo
        replace = {}
        for name, targets in SPANS.items():
            for mod, attr in (targets if isinstance(targets, list) else [targets]):
                orig = getattr(sys.modules[mod], attr)
                replace[orig] = self._span(name, orig)
        cyc = fscat.cyclo.Cyc
        for attr, op in (("__mul__", "mul"), ("__add__", "add"),
                         ("inverse", "inverse"), ("reduced_key", "reduced_key")):
            orig = cyc.__dict__[attr]
            replace[orig] = self._field_op(op, orig)
        coerce = cyc.__dict__["at_conductor"]
        replace[coerce] = self._coerce(coerce)
        cached = fscat.category.Category.__dict__["cached"]
        replace[cached] = self._cached(cached)

        namespaces = [vars(m) for name, m in sorted(sys.modules.items())
                      if name == "fscat" or name.startswith("fscat.")]
        classes = [cyc, fscat.category.Category]
        by_id = {id(orig): wrapper for orig, wrapper in replace.items()}
        for ns in namespaces:
            for attr, value in list(ns.items()):
                if id(value) in by_id:
                    self._undo.append((ns, attr, value))
                    ns[attr] = by_id[id(value)]
        for cls in classes:
            for attr, value in list(vars(cls).items()):
                if id(value) in by_id:
                    self._undo.append((cls, attr, value))
                    setattr(cls, attr, by_id[id(value)])
        bound = {id(orig) for _, _, orig in self._undo}
        missing = [f.__qualname__ for f in replace if id(f) not in bound]
        if missing:
            raise RuntimeError(f"trace wrappers left unbound: {missing}")

    def uninstall(self):
        for owner, attr, orig in reversed(self._undo):
            if isinstance(owner, dict):
                owner[attr] = orig
            else:
                setattr(owner, attr, orig)
        self._undo.clear()

    # -- wrappers ----------------------------------------------------------

    def _span(self, name, fn):
        rec = self.spans[name]
        stack = self._stack
        hook = _HOOKS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            if hook is not None and hook[0] is not None:
                t_hook = perf_counter()
                hook[0](self, args)
                if stack:
                    stack[-1] += perf_counter() - t_hook
            stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                child = stack.pop()
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - child
                if stack:
                    stack[-1] += dt
            if hook is not None and hook[1] is not None:
                hook[1](self, args, result)
            return result
        return wrapper

    def _field_op(self, op, fn):
        counts, times, depth = self.counts, self.times, self._depth
        per_conductor = op == "mul"

        @functools.wraps(fn)
        def wrapper(*args):
            if not self.active:
                return fn(*args)
            counts[op] += 1
            if depth[op]:  # nested call (re-dispatch); timed by the outer one
                result = fn(*args)
            else:
                depth[op] += 1
                t0 = perf_counter()
                try:
                    result = fn(*args)
                finally:
                    times[op] += perf_counter() - t0
                    depth[op] -= 1
            if per_conductor:
                c = result.conductor
                counts[f"mul.c{c}" if c in MUL_CONDUCTORS else "mul.other"] += 1
            return result
        return wrapper

    def _coerce(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(value, m):
            if self.active and m != value.conductor:
                counts["coerce"] += 1
            return fn(value, m)
        return wrapper

    def _cached(self, fn):
        counts, entries = self.counts, self._entries

        @functools.wraps(fn)
        def wrapper(cat, key, build):
            if not self.active:
                return fn(cat, key, build)
            kind = key[0] if isinstance(key, tuple) and key[0] in CACHE_KINDS \
                else "other"
            built = False

            def counted_build():
                nonlocal built
                built = True
                return build()

            result = fn(cat, key, counted_build)
            if built:
                counts[f"cache.{kind}.misses"] += 1
                size = entries.get(cat, 0) + 1
                entries[cat] = size
                if size > self.maxima["cache.entries"]:
                    self.maxima["cache.entries"] = size
            else:
                counts[f"cache.{kind}.hits"] += 1
            return result
        return wrapper

    # -- results -----------------------------------------------------------

    def span_calls(self, name) -> int:
        return self.spans[name][0]

    def metrics(self) -> dict:
        """Every per-layer metric by name, as (value, unit)."""
        c, t, mx = self.counts, self.times, self.maxima
        out = {}

        def put(name, value, unit):
            out[name] = (value, unit)

        for op in ("mul", "add", "inverse"):
            put(f"cyclo.{op}.calls", c[op], "count")
            put(f"cyclo.{op}.incl_s", t[op], "s")
        put("cyclo.mul.mean_us", 1e6 * t["mul"] / c["mul"] if c["mul"] else 0.0, "us")
        for cond in MUL_CONDUCTORS:
            put(f"cyclo.mul.calls.c{cond}", c[f"mul.c{cond}"], "count")
        put("cyclo.mul.calls.other", c["mul.other"], "count")
        put("cyclo.coerce.calls", c["coerce"], "count")
        put("cyclo.reduced_key.calls", c["reduced_key"], "count")
        put("cyclo.reduced_key.incl_s", t["reduced_key"], "s")

        def span(name, *fields):
            calls, _, self_s = self.spans[name]
            if "calls" in fields:
                put(f"{name}.calls", calls, "count")
            if "self_s" in fields:
                put(f"{name}.self_s", self_s, "s")

        span("linalg.mat_mul", "calls", "self_s")
        put("linalg.mat_mul.max_dim", mx["mat_mul.dim"], "count")
        put("linalg.mat_mul.density",
            c["mat_mul.nnz"] / c["mat_mul.size"] if c["mat_mul.size"] else 0.0,
            "ratio")
        span("linalg.mat_vec", "calls", "self_s")
        span("linalg.mat_inv", "calls", "self_s")
        span("linalg.check", "self_s")

        span("homcalc.paths", "calls")
        put("homcalc.paths.builds", c["cache.paths.misses"], "count")
        span("homcalc.paths", "self_s")
        put("homcalc.max_word_len", mx["word_len"], "count")
        put("homcalc.max_hom_dim", mx["hom_dim"], "count")
        for part in ("splice", "insert", "contract", "step"):
            span(f"homcalc.{part}", "calls", "self_s")

        hits = misses = 0
        for kind in CACHE_KINDS + ("other",):
            h, m = c[f"cache.{kind}.hits"], c[f"cache.{kind}.misses"]
            hits, misses = hits + h, misses + m
            put(f"category.cache.{kind}.hits", h, "count")
            put(f"category.cache.{kind}.misses", m, "count")
        put("category.cache.entries", mx["cache.entries"], "count")
        put("category.cache.hit_ratio",
            hits / (hits + misses) if hits + misses else 0.0, "ratio")

        span("indicators.e_map_matrix", "calls")
        put("indicators.e_map_matrix.builds", c["cache.emap.misses"], "count")
        span("indicators.e_map_matrix", "self_s")
        for fn in ("indicator", "check_power_identity", "fs_scalar",
                   "rotation_operator", "indicator_report"):
            span(f"indicators.{fn}", "calls", "self_s")

        for name in ("category.validate", "category.gauge_transform",
                     "pivotal.enumerate_pivotal_structures",
                     "pivotal.attach_pivotal", "specio.load_category",
                     "cli.main"):
            span(name, "self_s")
        return out


def _mat_mul_before(tracer, args):
    a, b = args
    dim = max(len(a), len(b), len(b[0]) if b else 0)
    if dim > tracer.maxima["mat_mul.dim"]:
        tracer.maxima["mat_mul.dim"] = dim
    tracer.counts["mat_mul.nnz"] += _nnz(a) + _nnz(b)
    tracer.counts["mat_mul.size"] += sum(map(len, a)) + sum(map(len, b))


def _paths_after(tracer, args, result):
    letters = args[1]
    mx = tracer.maxima
    n = len(letters.letters if hasattr(letters, "letters") else letters)
    if n > mx["word_len"]:
        mx["word_len"] = n
    if len(result) > mx["hom_dim"]:
        mx["hom_dim"] = len(result)


# span name -> (before(tracer, args), after(tracer, args, result)); the
# "before" bookkeeping is charged to no span
_HOOKS = {
    "linalg.mat_mul": (_mat_mul_before, None),
    "homcalc.paths": (None, _paths_after),
}
