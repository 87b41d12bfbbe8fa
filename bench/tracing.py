"""Per-layer spans and counters for a traced benchmark run.

The tracer wraps the public call boundaries of each ``diracobs`` layer from
the outside: every module or class attribute that binds a wrapped function
is rebound to the wrapper, so calls made through names other modules
imported (``frames.bracket_truncated``, ``observables._CATALOG`` entries,
``diracobs.adjoint``) are seen too.  Nothing under ``src/`` is edited.

Spans are aggregated per boundary into call count, total time and self
time (total minus the time of nested spans), because the hot boundaries
see hundreds of thousands of calls.  ``clifford`` has no boundary on the
hot path: ``NCElement._mul_impl`` reads ``clifford._TABLE`` directly, so
its work is part of ``ncalg.mul`` self time.

Counters that are too cheap to carry a timer (``GRat.__mul__``, the trial
division in ``Scalar.__init__``) are counted only.
"""

from __future__ import annotations

import gc
import sys
import time

LAYERS = ("scalars", "ncalg", "observables", "frames", "suite", "exprcli")

#: Families whose summed entry times are reported as suite.family.<f>_s.
FAMILIES = ("s5.recip", "s5.traE", "s5.inv", "s5.traP", "s5.hom", "s5.traG")


class Tracer:
    """Aggregated spans, counters, top-level span records and GC pauses."""

    def __init__(self):
        self.aggs: dict = {}      # boundary -> [calls, total_s, self_s]
        self.counts: dict = {}    # counter -> int
        self.stack: list = []     # child-time accumulators of open spans
        self.spans: list = []     # individual top-level spans
        self.reports: list = []   # run_suite reports seen
        self.gc_collections = 0
        self.gc_s = 0.0
        self._gc_t0 = 0.0
        self._caches: dict = {}   # layer -> [lru-cached functions]
        self._cache0: dict = {}

    # -- span and counter primitives -----------------------------------------

    def _agg(self, name):
        return self.aggs.setdefault(name, [0, 0.0, 0.0])

    def timed(self, name, fn, after=None):
        """Wrap ``fn`` in a span; ``after(args, result)`` may add counts."""
        agg = self._agg(name)
        stack = self.stack
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = perf()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                child = stack.pop()
                agg[0] += 1
                agg[1] += dt
                agg[2] += dt - child
                if stack:
                    stack[-1] += dt
            if after is not None:
                after(args, out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def counter(self, name):
        """A one-element list used as a fast mutable counter."""
        cell = self.counts.get(name)
        if cell is None:
            cell = self.counts[name] = [0]
        return cell

    # -- GC pauses ------------------------------------------------------------

    def _gc_callback(self, phase, info):
        if phase == "start":
            self._gc_t0 = time.perf_counter()
        else:
            self.gc_s += time.perf_counter() - self._gc_t0
            self.gc_collections += 1

    # -- installation ---------------------------------------------------------

    def install(self):
        """Wrap every layer boundary of the imported ``diracobs`` package."""
        from diracobs import (exprcli, frames, ncalg, observables, scalars,
                              suite)
        self._install_scalars(scalars)
        self._install_ncalg(ncalg)
        self._install_observables(observables)
        self._install_frames(frames)
        self._install_suite(suite)
        for fn_name in ("parse", "evaluate"):
            self._rebind(getattr(exprcli, fn_name),
                         self.timed(f"exprcli.{fn_name}", getattr(exprcli, fn_name)))
        self._rebind(exprcli.render_element,
                     self.timed("exprcli.render", exprcli.render_element))
        gc.callbacks.append(self._gc_callback)

    def uninstall_gc(self):
        if self._gc_callback in gc.callbacks:
            gc.callbacks.remove(self._gc_callback)

    @staticmethod
    def _rebind(orig, new):
        """Point every binding of ``orig`` in the package's modules at ``new``."""
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "diracobs" or name.startswith("diracobs.")):
                continue
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, attr, new)

    def _install_scalars(self, scalars):
        Scalar, GRat = scalars.Scalar, scalars.GRat
        terms = self.counter("scalars.terms_out")

        def count_terms(args, out):
            if isinstance(out, Scalar):
                terms[0] += len(out._a) + len(out._b)

        mul = self.timed("scalars.mul", Scalar.__mul__, count_terms)
        Scalar.__mul__ = Scalar.__rmul__ = mul
        add = self.timed("scalars.add", Scalar.__add__)
        Scalar.__add__ = Scalar.__radd__ = add
        Scalar.pderiv = self.timed("scalars.pderiv", Scalar.pderiv, count_terms)

        gmul_orig = GRat.__mul__
        gmuls = self.counter("scalars.grat_mul.calls")

        def grat_mul(self, other):
            gmuls[0] += 1
            return gmul_orig(self, other)

        GRat.__mul__ = grat_mul

        init_orig = Scalar.__init__
        attempts = self.counter("scalars.trial_div.attempts")
        useful = self.counter("scalars.trial_div.useful")

        def init(self, a=None, b=None, m=0, normalize=True):
            init_orig(self, a, b, m, normalize)
            if normalize and m > 0:
                attempts[0] += 1
                if self._m < m:
                    useful[0] += 1

        Scalar.__init__ = init

    def _install_ncalg(self, ncalg):
        NCElement = ncalg.NCElement
        pairs = self.counter("ncalg.mul.pairs")
        terms = self.counter("ncalg.mul.terms_out")
        mul_orig = NCElement.__mul__
        product = self.timed("ncalg.mul", mul_orig)

        def mul(self, other):
            # Only operator products are spans; scaling by a coefficient is
            # part of the caller's work.
            if not isinstance(other, NCElement):
                return mul_orig(self, other)
            out = product(self, other)
            pairs[0] += len(self._t) * len(other._t)
            terms[0] += len(out._t)
            return out

        NCElement.__mul__ = mul
        add = self.timed("ncalg.add", NCElement.__add__)
        NCElement.__add__ = NCElement.__radd__ = add
        ncalg.Involution.__call__ = self.timed("ncalg.involution",
                                               ncalg.Involution.__call__)
        for fn_name in ("bracket", "dot", "mul_truncated", "bracket_truncated",
                        "dot_truncated", "geometric_inverse"):
            fn = getattr(ncalg, fn_name)
            self._rebind(fn, self.timed(f"ncalg.{fn_name}", fn))

    def _install_observables(self, obs):
        cached = [v for v in vars(obs).values() if hasattr(v, "cache_info")]
        self._caches["observables"] = cached
        for fn in cached:
            wrapped = self.timed("observables.build", fn)
            self._rebind(fn, wrapped)
            for key, (entry, arity) in list(obs._CATALOG.items()):
                if entry is fn:
                    obs._CATALOG[key] = (wrapped, arity)
        self._rebind(obs.involution, self.timed("observables.build", obs.involution))
        self._rebind(obs.adjoint, self.timed("observables.adjoint", obs.adjoint))

    def _install_frames(self, frames):
        cached = [v for v in vars(frames).values() if hasattr(v, "cache_info")]
        self._caches["frames"] = cached
        for fn in cached:
            self._rebind(fn, self.timed("frames.build", fn))
        self._rebind(frames.conjugate, self.timed("frames.conjugate", frames.conjugate))
        self._rebind(frames.check_hermitian_forms,
                     self.timed("frames.hermitian_forms", frames.check_hermitian_forms))
        for fn_name in ("xderiv", "xderiv_up"):
            fn = getattr(frames, fn_name)
            self._rebind(fn, self.timed("frames.xderiv", fn))

    def _install_suite(self, suite):
        for fn_name, span in (("parse_manifest", "suite.parse_manifest"),
                              ("load_default_manifest", "suite.load_manifest"),
                              ("report_markdown", "suite.report")):
            fn = getattr(suite, fn_name)
            self._rebind(fn, self.timed(span, fn))
        reports = self.reports
        self._rebind(suite.run_suite,
                     self.timed("suite.run_suite", suite.run_suite,
                                lambda args, out: reports.append(out)))

        entry_orig = suite._evaluate_entry
        entry_span = self.timed("suite.entry", entry_orig)
        spans = self.spans
        perf = time.perf_counter

        def evaluate_entry(e, order):
            t0 = perf()
            out = entry_span(e, order)
            spans.append({"kind": "entry", "name": e.name, "parent": "check",
                          "start": t0, "dur_s": perf() - t0, "ms": out["ms"],
                          "status": out["status"]})
            return out

        self._rebind(entry_orig, evaluate_entry)

    # -- snapshots ------------------------------------------------------------

    def cache_snapshot(self):
        """Summed lru_cache hits and misses per layer."""
        out = {}
        for layer, fns in self._caches.items():
            hits = misses = 0
            for fn in fns:
                info = fn.cache_info()
                hits += info.hits
                misses += info.misses
            out[layer] = (hits, misses)
        return out

    def start(self):
        """Mark the start of the traced operations (cache deltas count from here)."""
        self._cache0 = self.cache_snapshot()

    def summary(self) -> dict:
        """Aggregates, counters and cache deltas as one JSON-ready dict."""
        now = self.cache_snapshot()
        caches = {}
        for layer, (hits, misses) in now.items():
            h0, m0 = self._cache0.get(layer, (0, 0))
            caches[layer] = [hits - h0, misses - m0]
        entries = [e for rep in self.reports for e in rep["entries"]]
        return {"aggs": self.aggs,
                "counts": {k: v[0] for k, v in self.counts.items()},
                "caches": caches,
                "gc": [self.gc_collections, self.gc_s],
                "suite": {"entries": [[e["name"], e["ms"]] for e in entries]},
                "spans": self.spans}


def merge(summaries) -> dict:
    """Add up several summaries (one per traced process)."""
    aggs: dict = {}
    counts: dict = {}
    caches: dict = {}
    gc_n, gc_s = 0, 0.0
    entries, spans = [], []
    for s in summaries:
        for k, (n, tot, own) in s["aggs"].items():
            a = aggs.setdefault(k, [0, 0.0, 0.0])
            a[0] += n
            a[1] += tot
            a[2] += own
        for k, v in s["counts"].items():
            counts[k] = counts.get(k, 0) + v
        for k, (h, m) in s["caches"].items():
            c = caches.setdefault(k, [0, 0])
            c[0] += h
            c[1] += m
        gc_n += s["gc"][0]
        gc_s += s["gc"][1]
        entries += s["suite"]["entries"]
        spans += s["spans"]
    return {"aggs": aggs, "counts": counts, "caches": caches, "gc": [gc_n, gc_s],
            "suite": {"entries": entries}, "spans": spans}


def layer_metrics(summary: dict, wall_s: float) -> dict:
    """The per-layer metrics of one traced workload, by name.

    ``wall_s`` is the end-to-end time of the traced operations; what the
    layer spans do not cover is reported as ``trace.unattributed_share``.
    """
    aggs, counts, caches = summary["aggs"], summary["counts"], summary["caches"]

    def agg(name):
        return aggs.get(name, [0, 0.0, 0.0])

    out = {}
    for name in ("scalars.mul", "scalars.add", "scalars.pderiv", "ncalg.mul",
                 "ncalg.mul_truncated", "ncalg.involution", "observables.adjoint",
                 "frames.conjugate", "frames.hermitian_forms", "ncalg.bracket",
                 "ncalg.bracket_truncated"):
        out[f"{name}.calls"] = (agg(name)[0], "count")
    for name in ("scalars.mul", "scalars.add", "scalars.pderiv", "ncalg.mul",
                 "ncalg.add", "ncalg.mul_truncated", "ncalg.involution",
                 "observables.adjoint", "observables.build", "frames.conjugate",
                 "exprcli.parse", "exprcli.evaluate", "exprcli.render"):
        out[f"{name}.self_s"] = (agg(name)[2], "s")
    out["frames.hermitian_forms.s"] = (agg("frames.hermitian_forms")[1], "s")

    attempts = counts.get("scalars.trial_div.attempts", 0)
    out["scalars.trial_div.attempts"] = (attempts, "count")
    out["scalars.trial_div.useful_share"] = (
        counts.get("scalars.trial_div.useful", 0) / attempts if attempts else 0.0, "share")
    out["scalars.grat_mul.calls"] = (counts.get("scalars.grat_mul.calls", 0), "count")
    out["scalars.terms_out"] = (counts.get("scalars.terms_out", 0), "count")
    out["ncalg.mul.pairs"] = (counts.get("ncalg.mul.pairs", 0), "count")
    out["ncalg.mul.terms_out"] = (counts.get("ncalg.mul.terms_out", 0), "count")

    for layer in ("observables", "frames"):
        hits, misses = caches.get(layer, [0, 0])
        out[f"{layer}.cache.misses"] = (misses, "count")
        out[f"{layer}.cache.hit_share"] = (
            hits / (hits + misses) if hits + misses else 0.0, "share")

    entries = summary["suite"]["entries"]
    entries_s = sum(ms for _, ms in entries) / 1000
    out["suite.parse_manifest_s"] = (agg("suite.parse_manifest")[1], "s")
    out["suite.entries_s"] = (entries_s, "s")
    run_s = agg("suite.run_suite")[1]
    out["suite.unattributed_s"] = (run_s - entries_s if run_s else 0.0, "s")
    for fam in FAMILIES:
        fam_s = sum(ms for name, ms in entries
                    if name.startswith(fam + ".")) / 1000
        out[f"suite.family.{fam}_s"] = (fam_s, "s")

    layer_self = {layer: 0.0 for layer in LAYERS}
    for name, (_, _, own) in aggs.items():
        layer = name.split(".", 1)[0]
        if layer in layer_self:
            layer_self[layer] += own
    for layer, own in layer_self.items():
        out[f"{layer}.self_s"] = (own, "s")

    out["runtime.gc_collections"] = (summary["gc"][0], "count")
    out["runtime.gc_s"] = (summary["gc"][1], "s")
    out["trace.wall_s"] = (wall_s, "s")
    covered = sum(layer_self.values())
    out["trace.unattributed_share"] = ((wall_s - covered) / wall_s if wall_s else 0.0,
                                       "share")
    return out
