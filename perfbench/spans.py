"""Span tracing of homcert's layers from outside the package.

While a Tracer is active, every public function of the traced modules
(and every method of the exact-polynomial classes in homcert.poly) is
replaced by a wrapper that records one span: name, start, end and the
span that was open when it was called.  Functions imported by value
(`from homcert.graphs import canonical_form`) live in several module
namespaces, so each namespace holding the same function object is
patched.  Nothing under src/ changes; the originals come back on exit.

Self time of a span is its duration minus the durations of its direct
children, which never overlap because the benchmark is single-threaded.
"""

from __future__ import annotations

import importlib
import inspect
from array import array
from time import perf_counter

LAYERS = (
    "kernels",
    "graphs",
    "homomorphism",
    "poly",
    "spectral",
    "bounds",
    "optimize",
    "harness",
    "cli",
)

# Methods of the immutable polynomial classes that are not worth a span.
_POLY_SKIP = {"__setattr__", "__repr__", "__hash__"}


class Tracer:
    def __init__(self):
        self.names = []
        self._name_id = {}
        self.name_of = array("H")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self._stack = []
        self.accepted = 0  # is_canonical_max calls that returned True
        self.yielded = 0  # raw representatives from enumerate_regular_rows
        self.classes = {}  # enumerate_regular span -> distinct canonical rows
        self.cache_hits = 0  # of spectral's trace-power lru_cache
        self.cache_lookups = 0
        self._saved = []
        self._cache_before = None

    # -- recording ---------------------------------------------------------

    def _wrap(self, name, fn, observe=None):
        nid = self._name_id.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        name_of, parent, start, end = self.name_of, self.parent, self.start, self.end
        stack = self._stack

        def span(*args, **kwargs):
            sid = len(start)
            name_of.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(sid)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[sid] = perf_counter()
                stack.pop()
            if observe is not None:
                observe(result, sid)
            return result

        return span

    def _on_canonical_max(self, result, sid):
        self.accepted += bool(result)

    def _on_enumerate_rows(self, result, sid):
        self.yielded += len(result)

    def _on_canonical_rows(self, result, sid):
        p = self.parent[sid]
        if p >= 0 and self.names[self.name_of[p]] == "graphs.enumerate_regular":
            self.classes.setdefault(p, set()).add(result)

    # -- patching ----------------------------------------------------------

    @staticmethod
    def _trace_cache():
        return importlib.import_module("homcert.spectral")._power_diag_and_trace

    def __enter__(self):
        modules = {m: importlib.import_module(f"homcert.{m}") for m in LAYERS}
        pykernels = importlib.import_module("homcert._pykernels")
        namespaces = list(modules.values()) + [pykernels]
        observers = {
            "kernels.is_canonical_max": self._on_canonical_max,
            "kernels.enumerate_regular_rows": self._on_enumerate_rows,
            "kernels.canonical_min_rows": self._on_canonical_rows,
        }
        targets = {}
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if (
                    inspect.isfunction(obj)
                    and not attr.startswith("_")
                    and obj.__module__ == mod.__name__
                ):
                    targets[obj] = f"{layer}.{attr}"
        # The orderly enumerator calls its canonicity test inside
        # _pykernels, never through the kernels dispatcher, so the
        # Python-backend function is the one that can be seen.
        del targets[modules["kernels"].is_canonical_max]
        targets[pykernels.is_canonical_max] = "kernels.is_canonical_max"

        wrappers = {
            fn: self._wrap(name, fn, observers.get(name))
            for fn, name in targets.items()
        }
        for ns in namespaces:
            for attr, obj in list(vars(ns).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._saved.append((ns, attr, obj))
                    setattr(ns, attr, wrappers[obj])
        poly = modules["poly"]
        for cls in (poly.BivarPoly, poly.UniPoly):
            for attr, raw in list(vars(cls).items()):
                if attr in _POLY_SKIP:
                    continue
                name = f"poly.{cls.__name__}.{attr}"
                if inspect.isfunction(raw):
                    new = self._wrap(name, raw)
                elif isinstance(raw, classmethod):
                    new = classmethod(self._wrap(name, raw.__func__))
                else:
                    continue
                self._saved.append((cls, attr, raw))
                setattr(cls, attr, new)
        self._cache_before = self._trace_cache().cache_info()
        return self

    def __exit__(self, *exc):
        for owner, attr, obj in reversed(self._saved):
            setattr(owner, attr, obj)
        self._saved.clear()
        before, after = self._cache_before, self._trace_cache().cache_info()
        self.cache_hits = after.hits - before.hits
        self.cache_lookups = self.cache_hits + after.misses - before.misses
        return False

    # -- analysis ----------------------------------------------------------

    def summary(self):
        """{name: [calls, total_s, self_s]} over all recorded spans."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        parent = self.parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += dur[i]
        stats = {name: [0, 0.0, 0.0] for name in self.names}
        names, name_of = self.names, self.name_of
        for i in range(n):
            s = stats[names[name_of[i]]]
            s[0] += 1
            s[1] += dur[i]
            s[2] += dur[i] - child[i]
        return stats

    def time_under(self, name, ancestor):
        """Total duration of `name` spans that run inside an `ancestor` span."""
        nid = self._name_id.get(name)
        aid = self._name_id.get(ancestor)
        if nid is None or aid is None:
            return 0.0
        total = 0.0
        for i in range(len(self.start)):
            if self.name_of[i] != nid:
                continue
            p = self.parent[i]
            while p >= 0 and self.name_of[p] != aid:
                p = self.parent[p]
            if p >= 0:
                total += self.end[i] - self.start[i]
        return total

    def layer_metrics(self):
        """The per-layer metrics of BENCHMARK.json, from the recorded spans."""
        stats = self.summary()

        def calls(name):
            return stats.get(name, (0, 0.0, 0.0))[0]

        def self_s(name):
            return stats.get(name, (0, 0.0, 0.0))[2]

        out = {}
        for name in (
            "kernels.enumerate_regular_rows",
            "kernels.is_canonical_max",
            "kernels.canonical_min_rows",
            "kernels.inj_count",
            "graphs.metrics",
            "homomorphism.enumerate_partitions",
            "homomorphism.quotient",
            "optimize.majorant_check",
            "optimize.sturm_nonneg_on_interval",
            "optimize.isolate_roots",
            "spectral.trace_power",
            "spectral.eval_poly_sum",
            "spectral.eigenvalues",
        ):
            out[f"{name}.calls"] = (calls(name), "count")
            out[f"{name}.self_s"] = (self_s(name), "s")
        for name in (
            "graphs.enumerate_regular",
            "bounds.build_bound_poly",
            "bounds.verify_bound",
            "harness.search_max_density",
            "cli.main",
        ):
            out[f"{name}.self_s"] = (self_s(name), "s")
        out["graphs.canonical_form.calls"] = (
            calls("graphs.canonical_form"),
            "count",
        )
        out["kernels.enumerate_regular_rows.yielded"] = (self.yielded, "count")
        n_canon = calls("kernels.is_canonical_max")
        out["kernels.is_canonical_max.accept_ratio"] = (
            self.accepted / n_canon if n_canon else 0.0,
            "ratio",
        )
        classes = sum(len(s) for s in self.classes.values())
        out["graphs.enumerate_regular.classes_per_raw"] = (
            classes / self.yielded if self.yielded else 0.0,
            "ratio",
        )
        out["bounds.build_bound_poly.inj_count_s"] = (
            self.time_under("kernels.inj_count", "bounds.build_bound_poly"),
            "s",
        )
        for layer in LAYERS:
            out[f"{layer}.self_s"] = (
                sum(
                    s[2]
                    for name, s in stats.items()
                    if name.split(".", 1)[0] == layer
                ),
                "s",
            )
        out["spectral.trace_cache_hit_ratio"] = (
            self.cache_hits / self.cache_lookups if self.cache_lookups else 0.0,
            "ratio",
        )
        out["trace.spans"] = (len(self.start), "count")
        return out
