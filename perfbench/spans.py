"""In-memory spans around tailward's public functions, installed from outside.

``Tracer.install`` replaces each traced function by a wrapper in every
``tailward`` module that binds it by name (``fbm_path`` and ``block_rng``
are imported by name in several modules), and ``uninstall`` puts every
original back.  A wrapper only records a span and passes arguments and
results through untouched, so traced results are bitwise those of an
untraced run.

A span records its layer, start, end, parent span and the item it belongs
to.  Spans opened on a worker thread with no open span of their own take
the innermost open span of the installing thread as parent: that is the
estimator call waiting on the pool.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import itertools
import statistics
import sys
import threading
from collections import defaultdict
from time import perf_counter

import numpy as np

MARK = "__perfbench_wrapped__"

# Span record fields; ITEM is the index of the item the span belongs to.
ID, LAYER, T0, T1, PARENT, ITEM, DATA = range(7)

# Layers whose median span duration is reported.
P50_LAYERS = ("oracle", "bm_oracle", "fbm")

# (module, layer, function names); None means every function in __all__.
LAYERS = (
    ("tailward.oracle", "oracle", ("sf_sum_exact", "sf_product_exact")),
    ("tailward.laplace_kernel", "laplace_kernel", None),
    ("tailward.gp_extremes.bm_oracle", "bm_oracle", ("bm_exact_oracle",)),
    ("tailward.gp_extremes.fbm", "fbm", ("fbm_path",)),
    ("tailward.montecarlo", "montecarlo", ("estimate_sf", "conditional_sf")),
    ("tailward.montecarlo", "montecarlo.stream", ("block_rng",)),
    ("tailward.gp_extremes.estimators", "estimators",
     ("pickands_estimate", "econst_estimate", "sup_exceedance_mc")),
    ("tailward.reports", "reports", ("run_fixture", "run_gp_fixture")),
    ("tailward.asymptotic_engine", "asymptotic_engine", None),
    ("tailward.gp_extremes.trend", "trend", None),
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []
        self._main_stack: list[int] = []
        self._main_ident = None
        self.item = None  # index of the item being run; shared by its spans

    # -- span bookkeeping ---------------------------------------------------

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._main_ident:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, layer: str, data=None) -> tuple[list, list[int]]:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._main_stack[-1] if self._main_stack else None
        rec = [next(self._ids), layer, perf_counter(), 0.0, parent, self.item, data]
        stack.append(rec[ID])
        self.spans.append(rec)
        return rec, stack

    @staticmethod
    def _close(rec: list, stack: list[int]) -> None:
        rec[T1] = perf_counter()
        stack.pop()

    @contextlib.contextmanager
    def span(self, layer: str, data=None):
        """A span opened by the benchmark itself."""
        rec, stack = self._open(layer, data)
        try:
            yield rec
        finally:
            self._close(rec, stack)

    # -- wrappers -----------------------------------------------------------

    def _wrap(self, layer: str, fn, data_fn=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            data = data_fn(args, kwargs) if data_fn else None
            rec, stack = tracer._open(layer, data)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(rec, stack)
            return result

        setattr(wrapper, MARK, fn)
        return wrapper

    def _wrap_quad(self, fn):
        """log_quad_result: one span per call, one per integrand callback."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(log_f, *args, **kwargs):
            def timed_log_f(x):
                rec, stack = tracer._open("quadrature.integrand")
                try:
                    return log_f(x)
                finally:
                    tracer._close(rec, stack)

            rec, stack = tracer._open("quadrature")
            try:
                res = fn(timed_log_f, *args, **kwargs)
            finally:
                tracer._close(rec, stack)
            rec[DATA] = (res.n_nodes, res.converged, res.rel_error)
            return res

        setattr(wrapper, MARK, fn)
        return wrapper

    def _wrappers(self) -> list[tuple[object, object]]:
        """(original, wrapper) for every traced function."""
        mods = sys.modules
        resolve = mods["tailward.montecarlo"].resolve_workers
        data = {  # function name -> argument names recorded with its spans
            "fbm_path": ("n_steps",),
            "estimate_sf": ("n",),
            "conditional_sf": ("n",),
            "pickands_estimate": ("n_paths", "workers"),
            "econst_estimate": ("n_paths", "workers"),
            "sup_exceedance_mc": ("n_paths", "workers"),
            "sample": ("size",),
        }
        quad = mods["tailward.quadrature"].log_quad_result
        out = [(quad, self._wrap_quad(quad))]
        sample = mods["tailward.tail_model"].DistributionModel.sample
        targets = [("tail_model.sample", sample)]
        for mod_name, layer, names in LAYERS:
            mod = mods[mod_name]
            if names is None:
                names = [n for n in mod.__all__ if inspect.isfunction(getattr(mod, n))]
            targets.extend((layer, getattr(mod, n)) for n in names)
        for layer, fn in targets:
            data_fn = None
            if fn.__name__ in data:
                data_fn = _argument_reader(fn, data[fn.__name__], resolve)
            out.append((fn, self._wrap(layer, fn, data_fn)))
        return out

    def install(self) -> None:
        """Replace every binding of the traced functions in tailward."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        self._main_ident = threading.get_ident()
        pairs = self._wrappers()
        by_id = {id(orig): wrapper for orig, wrapper in pairs}
        try:
            for mod in _tailward_modules():
                for attr, val in list(vars(mod).items()):
                    wrapper = by_id.get(id(val))
                    if wrapper is not None:
                        self._patches.append((mod, attr, val))
                        setattr(mod, attr, wrapper)
            model_cls = sys.modules["tailward.tail_model"].DistributionModel
            sample = model_cls.__dict__["sample"]
            self._patches.append((model_cls, "sample", sample))
            setattr(model_cls, "sample", by_id[id(sample)])
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)
        self._main_ident = None


def _tailward_modules() -> list:
    return [m for name, m in list(sys.modules.items())
            if name == "tailward" or name.startswith("tailward.")]


def _argument_reader(fn, names, resolve_workers):
    """data_fn recording the named arguments of fn, defaults applied.

    ``size`` is turned into a sample count and ``workers`` into the worker
    count the call resolves to under TAILWARD_THREADS.
    """
    sig = inspect.signature(fn)

    def read(args, kwargs):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        vals = []
        for n in names:
            v = bound.arguments[n]
            if n == "size":
                v = 1 if v is None else int(np.prod(v))
            elif n == "workers":
                v = resolve_workers(v)
            vals.append(v)
        return tuple(vals)

    return read


def leftover_wrappers() -> list[str]:
    """Names of tailward attributes that are still tracing wrappers."""
    found = []
    for mod in _tailward_modules():
        for attr, val in list(vars(mod).items()):
            if hasattr(val, MARK):
                found.append(f"{mod.__name__}.{attr}")
            elif isinstance(val, type):
                found.extend(f"{mod.__name__}.{attr}.{a}" for a, v in vars(val).items()
                             if hasattr(v, MARK))
    return found


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------

def _union(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals clipped to [lo, hi]."""
    total, end = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


class Aggregate:
    """Per-layer totals over traced passes; metrics are per pass."""

    def __init__(self):
        self.passes = 0
        self.sums = defaultdict(float)
        self.maxima = defaultdict(float)
        self.durations = defaultdict(list)

    def add_pass(self, spans: list[list]) -> None:
        self.passes += 1
        by_id = {s[ID]: s for s in spans}
        children = defaultdict(list)
        for s in spans:
            if s[PARENT] is not None:
                children[s[PARENT]].append(s)

        def ancestors(s):
            p = s[PARENT]
            while p is not None and p in by_id:
                yield by_id[p]
                p = by_id[p][PARENT]

        add, mx = self.sums, self.maxima
        for s in spans:
            layer, dur = s[LAYER], s[T1] - s[T0]
            kids = children.get(s[ID], ())
            self_t = dur - _union([(k[T0], k[T1]) for k in kids], s[T0], s[T1])
            add[f"{layer}.calls"] += 1
            add[f"{layer}.self_s"] += self_t
            add[f"{layer}.span_s"] += dur
            if layer in P50_LAYERS:
                self.durations[layer].append(dur)
            if not any(a[LAYER] == layer for a in ancestors(s)):
                add[f"{layer}.busy_s"] += dur
            if layer == "quadrature":
                nodes, converged, rel_err = s[DATA]
                add["quadrature.nodes"] += nodes
                add["quadrature.unconverged"] += not converged
                mx["quadrature.worst_rel_error"] = max(mx["quadrature.worst_rel_error"], rel_err)
                for a in ancestors(s):
                    if a[LAYER] in ("oracle", "bm_oracle"):
                        add[f"{a[LAYER]}.quad_calls"] += 1
                        add[f"{a[LAYER]}.quad_nodes"] += nodes
            elif layer == "fbm":
                add["fbm.path_steps"] += s[DATA][0]
            elif layer == "montecarlo":
                add["montecarlo.samples"] += s[DATA][0]
            elif layer == "tail_model.sample":
                add["tail_model.samples"] += s[DATA][0]
            elif layer == "estimators":
                n_paths, workers = s[DATA]
                add["estimators.paths"] += n_paths
                add["estimators.capacity_s"] += dur * workers
                add["estimators.child_s"] += sum(k[T1] - k[T0] for k in kids)

    def metrics(self) -> dict[str, float]:
        n = max(self.passes, 1)
        s = {k: v / n for k, v in self.sums.items()}

        def g(key):
            return s.get(key, 0.0)

        def ratio(a, b):
            return a / b if b else 0.0

        def p50_ms(layer):
            d = self.durations.get(layer)
            return statistics.median(d) * 1e3 if d else 0.0

        return {
            "quadrature.calls": g("quadrature.calls"),
            "quadrature.nodes": g("quadrature.nodes"),
            "quadrature.unconverged": g("quadrature.unconverged"),
            "quadrature.worst_rel_error": self.maxima.get("quadrature.worst_rel_error", 0.0),
            "quadrature.busy_s": g("quadrature.busy_s"),
            "quadrature.integrand_s": g("quadrature.integrand.self_s"),
            "quadrature.self_s": g("quadrature.self_s"),
            "quadrature.ns_per_node": 1e9 * ratio(g("quadrature.self_s"), g("quadrature.nodes")),
            "oracle.levels": g("oracle.calls"),
            "oracle.busy_s": g("oracle.busy_s"),
            "oracle.level_ms_p50": p50_ms("oracle"),
            "oracle.quad_calls_per_level": ratio(g("oracle.quad_calls"), g("oracle.calls")),
            "laplace_kernel.calls": g("laplace_kernel.calls"),
            "laplace_kernel.busy_s": g("laplace_kernel.busy_s"),
            "bm_oracle.calls": g("bm_oracle.calls"),
            "bm_oracle.busy_s": g("bm_oracle.busy_s"),
            "bm_oracle.call_ms_p50": p50_ms("bm_oracle"),
            "bm_oracle.quad_calls_per_call": ratio(g("bm_oracle.quad_calls"), g("bm_oracle.calls")),
            "bm_oracle.nodes_per_call": ratio(g("bm_oracle.quad_nodes"), g("bm_oracle.calls")),
            "fbm.paths": g("fbm.calls"),
            "fbm.path_steps": g("fbm.path_steps"),
            "fbm.busy_s": g("fbm.busy_s"),
            "fbm.path_ms_p50": p50_ms("fbm"),
            "fbm.steps_per_s": ratio(g("fbm.path_steps"), g("fbm.busy_s")),
            "montecarlo.streams": g("montecarlo.stream.calls"),
            "montecarlo.stream_s": g("montecarlo.stream.span_s"),
            "montecarlo.samples": g("montecarlo.samples"),
            "montecarlo.busy_s": g("montecarlo.busy_s"),
            "montecarlo.samples_per_s": ratio(g("montecarlo.samples"), g("montecarlo.busy_s")),
            "tail_model.samples": g("tail_model.samples"),
            "tail_model.sample_s": g("tail_model.sample.span_s"),
            "estimators.calls": g("estimators.calls"),
            "estimators.paths": g("estimators.paths"),
            "estimators.busy_s": g("estimators.busy_s"),
            "estimators.self_s": g("estimators.self_s"),
            "estimators.worker_util": ratio(g("estimators.child_s"), g("estimators.capacity_s")),
            "reports.fixtures": g("reports.calls"),
            "reports.self_s": g("reports.self_s"),
            "asymptotic_engine.calls": g("asymptotic_engine.calls"),
            "asymptotic_engine.busy_s": g("asymptotic_engine.busy_s"),
            "trend.calls": g("trend.calls"),
            "trend.busy_s": g("trend.busy_s"),
        }
