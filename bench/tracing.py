"""Spans and exact counts at the package's module boundaries.

The traced run replaces functions by recording wrappers at every module
attribute through which the package's own callers resolve them: the
package imports functions by name into several modules, so wrapping one
binding would miss the calls made through the others.  Factories whose
products the filter calls (measurement models, conjugate families,
bridge builders) are wrapped so that what they return records spans too.
Nothing under src/ changes, and the wrappers are removed after each
traced call.

A span is (id, name, start, end, parent id, run id); spans stay in
memory and are written as JSON lines when the run ends.  Busy seconds
sum span durations (thread-seconds when chunks run on two threads);
self seconds subtract the union of the span's children.
"""

import collections
import contextlib
import dataclasses
import functools
import itertools
import json
import threading
import time

import numpy as np

import sdepf
import sdepf._linalg
import sdepf.cli
import sdepf.filtering
import sdepf.girsanov
import sdepf.models
import sdepf.proposals
import sdepf.raoblackwell

_F = sdepf.filtering
_R = sdepf.raoblackwell
_G = sdepf.girsanov
_L = sdepf._linalg
_P = sdepf.proposals
_M = sdepf.models
_C = sdepf.cli

# Span names whose busy seconds make up filtering.measurement.s: the
# Gaussian measurement density (cd_sir), the conjugate predictive
# (cdrb_param) and the Kalman update with its density (cdrb_gauss).
MEASUREMENT_SPANS = ("filtering.measurement", "conjugate.log_marginal",
                     "raoblackwell.kalman_condition",
                     "raoblackwell.log_mvn_density")


# Spans recorded but not subtracted from their parent's self time: the
# phase closures that _chunk_map runs belong to its caller (run_filter's
# sir loop, rb_gauss_step's inline Euler/moment loop, rb_param_step).
TRANSPARENT = ("filtering.chunk_map",)


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _batch(arr):
    return int(np.prod(np.shape(arr)[:-1]))


class Tracer:
    """Records spans, counts and samples while its wrappers are installed."""

    def __init__(self):
        self.epoch = time.perf_counter()
        self.spans = []
        self.counts = collections.defaultdict(collections.Counter)
        self.samples = collections.defaultdict(lambda: collections.defaultdict(list))
        self.run = None
        self.missing = []
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._patches = self._make_patches()

    # -- recording ---------------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, name, value=1):
        with self._lock:
            self.counts[self.run][name] += value

    def sample(self, name, value):
        with self._lock:
            self.samples[self.run][name].append(value)

    def span(self, name, fn, after=None, enter=None):
        """fn wrapped to record a span.

        after(args, kwargs, out) records counts once fn has returned;
        enter(span_id, args, kwargs) may rewrite the arguments.
        """
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            sid = next(self._ids)
            parent = stack[-1] if stack else None
            if enter is not None:
                args, kwargs = enter(sid, args, kwargs)
            stack.append(sid)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append((sid, name, start, end, parent, self.run))
            if after is not None:
                after(args, kwargs, out)
            return out
        return wrapper

    # -- hooks -------------------------------------------------------------

    def _noise(self, args, kwargs, out):
        self.count("filtering.draw_increments.calls")
        self.count("noise.bytes", out.values.nbytes)

    def _kernel(self, state_index, state_name):
        def after(args, kwargs, out):
            grid = _arg(args, kwargs, state_index + 1, "grid")
            state = _arg(args, kwargs, state_index, state_name)
            self.count("kernel.particle_steps", _batch(state) * grid.n_steps)
        return after

    def _rb_gauss(self, args, kwargs, out):
        pset = _arg(args, kwargs, 0, "pset")
        grid = _arg(args, kwargs, 4, "grid")
        self.count("kernel.particle_steps", pset.n * grid.n_steps)

    def _inv(self, args, kwargs, out):
        mat = _arg(args, kwargs, 0, "mat")
        self.count("linalg.guarded_inv.calls")
        self.count("linalg.guarded_inv.matrices", int(np.prod(np.shape(mat)[:-2])))

    def _ess(self, args, kwargs, out):
        pset = _arg(args, kwargs, 0, "pset")
        self.sample("ess_frac", out[1].ess / pset.n)

    def _ancestors(self, args, kwargs, out):
        self.count("filtering.resample.count")
        unique = np.count_nonzero(np.bincount(out, minlength=out.size))
        self.sample("unique_ancestors_frac", unique / out.size)

    def _chunk_enter(self, sid, args, kwargs):
        pset = _arg(args, kwargs, 0, "pset")
        threads = _arg(args, kwargs, 1, "threads")
        phase = _arg(args, kwargs, 2, "phase")

        def traced_phase(chunk):
            # Worker threads start with an empty stack: parent them here.
            self.count("filtering.chunk_map.chunks")
            stack = self._stack()
            stack.append(sid)
            try:
                return phase(chunk)
            finally:
                stack.pop()

        return (pset, threads, traced_phase), {}

    def _family(self, factory):
        @functools.wraps(factory)
        def make(*args, **kwargs):
            fam = factory(*args, **kwargs)
            return dataclasses.replace(fam, **{
                attr: self.span("conjugate." + attr, getattr(fam, attr))
                for attr in ("update", "log_marginal", "mean",
                             "point_estimate", "sample")})
        return make

    def _builder(self, factory):
        @functools.wraps(factory)
        def make(*args, **kwargs):
            return self.span("proposals.builder", factory(*args, **kwargs))
        return make

    def _measurement(self, factory):
        @functools.wraps(factory)
        def make(*args, **kwargs):
            mm = factory(*args, **kwargs)
            return dataclasses.replace(mm, log_likelihood=self.span(
                "filtering.measurement", mm.log_likelihood))
        return make

    # -- bindings ----------------------------------------------------------

    def _make_patches(self):
        """[(module, attribute, original, wrapper)] for every binding that
        exists; missing ones are listed in self.missing."""
        spans = [
            ((sdepf, _F, _C), "run_filter", "filtering.run_filter", None),
            ((_F,), "seed_streams", "filtering.seed_streams", None),
            ((_F, _R), "init_particle_set", "filtering.init_particle_set", None),
            ((_F, _R), "draw_increments", "filtering.draw_increments", self._noise),
            ((_F, _R), "propagate_coupled", "girsanov.propagate_coupled",
             self._kernel(2, "x_prev")),
            ((_F, _R), "propagate_coupled_split",
             "girsanov.propagate_coupled_split", self._kernel(3, "x2_prev")),
            ((_L, _G, _R), "guarded_inv", "linalg.guarded_inv", self._inv),
            ((_M, _C, _P), "ekf_predict", "proposals.ekf_predict", None),
            ((_M, _C, _P), "ekf_condition", "proposals.ekf_condition", None),
            ((_M, _C, _P), "build_bridge", "proposals.build_bridge", None),
            ((_R,), "rb_gauss_step", "raoblackwell.rb_gauss_step", self._rb_gauss),
            ((_R,), "rb_param_step", "raoblackwell.rb_param_step", None),
            ((_R,), "_gaussian_condition", "raoblackwell.kalman_condition", None),
            ((_R,), "log_mvn_density", "raoblackwell.log_mvn_density", None),
            ((_F, _R), "finish_step", "filtering.finish_step", self._ess),
            ((_F,), "systematic_resample", "filtering.systematic_resample", None),
            ((_F,), "systematic_resample_indices",
             "filtering.systematic_resample_indices", self._ancestors),
            ((_M,), "epidemic_theta", "models.epidemic_theta", None),
            ((_M,), "epidemic_indicator", "models.epidemic_indicator", None),
            ((_C,), "main", "cli.main", None),
        ]
        factories = [
            ((_F, _R), "_chunk_map",
             lambda fn: self.span("filtering.chunk_map", fn,
                                  enter=self._chunk_enter)),
            ((sdepf, _F, _C), "gaussian_measurement", self._measurement),
            ((sdepf, _R, _C), "invchi2_family", self._family),
            ((sdepf, _R, _C), "gamma_poisson_family", self._family),
            ((_M,), "pendulum_bridge_builder", self._builder),
            ((_M,), "epidemic_bridge_builder", self._builder),
            ((_C,), "_linear_bridge_builder", self._builder),
        ]
        wrap = [(mods, attr, functools.partial(self.span, name, after=after))
                for mods, attr, name, after in spans] + factories
        patches, done = [], {}
        for mods, attr, make in wrap:
            for mod in mods:
                orig = getattr(mod, attr, None)
                if orig is None:
                    self.missing.append("%s.%s" % (mod.__name__, attr))
                    continue
                # One wrapper per function object, shared by its bindings.
                if id(orig) not in done:
                    done[id(orig)] = make(orig)
                patches.append((mod, attr, orig, done[id(orig)]))
        return patches

    @contextlib.contextmanager
    def installed(self, run=None):
        """Replace every binding by its wrapper; restore on exit."""
        self.run = run
        for mod, attr, _, new in self._patches:
            setattr(mod, attr, new)
        try:
            yield self
        finally:
            for mod, attr, orig, _ in self._patches:
                setattr(mod, attr, orig)

    # -- reduction ---------------------------------------------------------

    def summarize(self, run):
        """Busy seconds, self seconds and call counts per span name."""
        spans = [s for s in self.spans if s[5] == run]
        children = collections.defaultdict(list)
        for s in spans:
            children[s[4]].append(s)

        def effective(sid):
            # A transparent span's children count as its parent's.
            for c in children[sid]:
                if c[1] in TRANSPARENT:
                    yield from effective(c[0])
                else:
                    yield c
        busy = collections.Counter()
        own = collections.Counter()
        calls = collections.Counter()
        roots = []
        for sid, name, start, end, parent, _ in spans:
            covered = _union([(max(c[2], start), min(c[3], end))
                              for c in effective(sid)])
            busy[name] += end - start
            own[name] += end - start - covered
            calls[name] += 1
            if parent is None:
                roots.append((end - start, end - start - covered))
        return busy, own, calls, roots

    def layer_metrics(self, run):
        """The per-layer metrics of one traced call."""
        busy, own, calls, roots = self.summarize(run)
        counts = self.counts[run]
        samples = self.samples[run]
        m = {
            "filtering.seed_streams.s": busy["filtering.seed_streams"],
            "filtering.init_particle_set.s": busy["filtering.init_particle_set"],
            "filtering.draw_increments.s": busy["filtering.draw_increments"],
            "filtering.draw_increments.calls": counts["filtering.draw_increments.calls"],
            "noise.bytes": counts["noise.bytes"],
            "girsanov.propagate.self_s": own["girsanov.propagate_coupled"]
            + own["girsanov.propagate_coupled_split"],
            "kernel.particle_steps": counts["kernel.particle_steps"],
            "proposals.builder.self_s": own["proposals.builder"],
            "proposals.ekf_predict.s": busy["proposals.ekf_predict"],
            "proposals.ekf_condition.s": busy["proposals.ekf_condition"],
            "proposals.build_bridge.s": busy["proposals.build_bridge"],
            "linalg.guarded_inv.s": busy["linalg.guarded_inv"],
            "linalg.guarded_inv.calls": counts["linalg.guarded_inv.calls"],
            "linalg.guarded_inv.matrices": counts["linalg.guarded_inv.matrices"],
            "raoblackwell.rb_gauss_step.self_s": own["raoblackwell.rb_gauss_step"],
            "raoblackwell.rb_param_step.self_s": own["raoblackwell.rb_param_step"],
            "conjugate.log_marginal.s": busy["conjugate.log_marginal"],
            "conjugate.update.s": busy["conjugate.update"],
            "conjugate.sample.s": busy["conjugate.sample"],
            "filtering.run_filter.self_s": own["filtering.run_filter"],
            "filtering.measurement.s": sum(busy[n] for n in MEASUREMENT_SPANS),
            "filtering.finish_step.self_s": own["filtering.finish_step"],
            "filtering.systematic_resample.s": busy["filtering.systematic_resample"],
            "filtering.resample.count": counts["filtering.resample.count"],
            "filtering.ess_frac_mean": float(np.mean(samples["ess_frac"]))
            if samples["ess_frac"] else 0.0,
            # With no resampling every particle is its own ancestor.
            "filtering.unique_ancestors_frac":
                float(np.mean(samples["unique_ancestors_frac"]))
                if samples["unique_ancestors_frac"] else 1.0,
            "filtering.chunk_map.chunks": counts["filtering.chunk_map.chunks"],
            "cli.self_s": own["cli.main"],
            "trace.uncovered_frac": sum(r[1] for r in roots)
            / max(sum(r[0] for r in roots), 1e-12),
        }
        exact = dict(counts)
        exact.update(("calls." + k, v) for k, v in calls.items())
        exact["unique_ancestors"] = tuple(samples["unique_ancestors_frac"])
        return m, calls, exact

    def write_jsonl(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, start, end, parent, run in self.spans:
                fh.write(json.dumps({
                    "id": sid, "name": name, "start": start - self.epoch,
                    "end": end - self.epoch, "parent": parent,
                    "run": run}) + "\n")
            for run in sorted(self.counts, key=str):
                fh.write(json.dumps({"run": run,
                                     "counts": dict(self.counts[run])}) + "\n")


def _union(intervals):
    """Total length covered by possibly overlapping intervals."""
    total, reach = 0.0, float("-inf")
    for a, b in sorted(i for i in intervals if i[1] > i[0]):
        if b <= reach:
            continue
        total += b - max(a, reach)
        reach = b
    return total
