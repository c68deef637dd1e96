"""Span recorder for the traced run.

The package is not instrumented.  ``Tracer.install`` replaces every public
function of the layer modules, plus a few hot methods, by a wrapper that
records a span, under every name a caller uses: a function imported by name
into another module (``content.eval_p1``), re-exported by the package
(``heatlab.eval_p1``) or held in a dispatch table (``cli._DISPATCH``,
``acceptance._CRITERIA``) is patched wherever the same object is bound.
``uninstall`` puts the originals back, so untraced passes in the same process
run the unmodified code.

A span is ``(id, parent id, name, thread id, start, end, phase, info)``.
Parents are tracked per thread, so work a thread pool runs shows up as root
spans on the pool threads and the caller's self time holds its wait.
``info`` is a work count (radii, samples, bytes) or a key, taken from the
arguments or the result.  Spans stay in memory until ``write`` at exit.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import sys
import threading
from time import perf_counter

LAYERS = ("stable", "kernel", "geometry", "content", "oracle", "reporting", "acceptance", "cli")

# Public functions left unwrapped: O(1) scalar helpers called thousands of
# times per pass (and the recursive JSON converter), whose own work is smaller
# than the ~2 us a span costs.  Their time counts in the caller's self time.
UNTRACED = {
    "kernel.unit_ball_volume",
    "kernel.unit_sphere_area",
    "kernel.poisson_constant",
    "kernel.stable_tail_constant",
    "kernel.l1_norm_closed_form",
    "content.regime_of",
    "reporting.to_jsonable",
}

# Methods traced besides the module-level public functions.
METHODS = {
    "stable": {"StableDensity": ("__init__", "evaluate")},
    "geometry": {"CovarianceProfile": ("ghat",)},
}


def _size(x):
    return getattr(x, "size", 1)


def _param(fn, name, transform=lambda v: v):
    """Extractor returning ``transform(value of parameter name)`` for a call."""
    try:
        params = list(inspect.signature(fn).parameters.values())
    except (TypeError, ValueError):
        return None
    names = [p.name for p in params]
    if name not in names:
        return None
    idx = names.index(name)
    default = params[idx].default

    def extract(args, kwargs, _result):
        if len(args) > idx:
            return transform(args[idx])
        return transform(kwargs.get(name, default))

    return extract


def _scaled_deficit_key(spec, profile, t):
    # one (case, t) point: kernel, shape profile and time
    return (repr(spec), profile.angular_method, profile.volume, profile.support_radius, float(t))


def _extractors(key, fn):
    """Work-count extractor for the spans that feed a ratio, else None."""
    if key in ("stable.StableDensity.evaluate", "stable.series_eval", "kernel.eval_p1"):
        return _param(fn, "r", _size)
    if key == "geometry.CovarianceProfile.ghat":
        return _param(fn, "rho", _size)
    if key in ("oracle.mc_heat_content", "oracle.mc_alpha_perimeter"):
        return _param(fn, "samples", int)
    if key == "content.scaled_deficit":
        return lambda args, kwargs, _r: _scaled_deficit_key(*args[:3])
    if key == "acceptance.run_criterion":
        return lambda _a, _k, res: None if res is None else (res.cid, res.seconds)
    if key.startswith("reporting."):
        return lambda _a, _k, res: len(res) if isinstance(res, str) else 0
    return None


class Tracer:
    """Records spans around the package's public entry points."""

    def __init__(self):
        self.spans = []
        self.names = []
        self.phase = "setup"
        self._ids = itertools.count()
        self._local = threading.local()
        self._patches = []
        self._wrappers = None

    def _wrap(self, name, fn, extract):
        key = len(self.names)
        self.names.append(name)
        spans, local, ids, tracer = self.spans, self._local, self._ids, self
        get_ident = threading.get_ident

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            try:
                stack = local.stack
            except AttributeError:
                stack = local.stack = []
            sid = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            result = None
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = perf_counter()
                stack.pop()
                info = None
                if extract is not None:
                    try:
                        info = extract(args, kwargs, result)
                    except (AttributeError, IndexError, TypeError, ValueError):
                        info = None
                spans.append((sid, parent, key, get_ident(), t0, t1, tracer.phase, info))

        return traced

    def _build_wrappers(self):
        """{id(original): (original, wrapper)} plus the class methods to patch."""
        wrappers, classes = {}, []
        for layer in LAYERS:
            mod = importlib.import_module(f"heatlab.{layer}")
            for name, obj in sorted(vars(mod).items()):
                if name.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                    continue
                key = f"{layer}.{name}"
                if key in UNTRACED:
                    continue
                wrappers[id(obj)] = (obj, self._wrap(key, obj, _extractors(key, obj)))
            for cls_name, meths in METHODS.get(layer, {}).items():
                cls = getattr(mod, cls_name)
                for meth in meths:
                    obj = cls.__dict__[meth]
                    key = f"{layer}.{cls_name}.{meth}"
                    wrappers[id(obj)] = (obj, self._wrap(key, obj, _extractors(key, obj)))
                    classes.append(cls)
        return wrappers, classes

    def install(self):
        if self._wrappers is None:
            self._wrappers = self._build_wrappers()
        wrappers, classes = self._wrappers
        owners = [m for n, m in sorted(sys.modules.items()) if n == "heatlab" or n.startswith("heatlab.")]
        for owner in owners + list(dict.fromkeys(classes)):
            namespace = vars(owner)
            for name, value in list(namespace.items()):
                if name.startswith("__") and name != "__init__" and name != "__call__":
                    continue
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(owner, name, hit[1])
                    self._patches.append((owner, name, value))
                elif isinstance(value, dict):
                    for k, v in list(value.items()):
                        hit = wrappers.get(id(v))
                        if hit is not None and hit[0] is v:
                            value[k] = hit[1]
                            self._patches.append((value, k, v))

    def uninstall(self):
        for owner, name, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[name] = original
            else:
                setattr(owner, name, original)
        self._patches.clear()

    def write(self, path):
        """Spans as JSON lines: a header naming the fields, then one per span."""
        with open(path, "w") as fh:
            fh.write(json.dumps({"fields": ["id", "parent", "name", "thread", "start", "end", "phase", "info"]}) + "\n")
            for sid, parent, key, tid, t0, t1, phase, info in self.spans:
                fh.write(json.dumps([sid, parent, self.names[key], tid, t0, t1, phase, info], default=repr) + "\n")


# --- per-layer metrics ---------------------------------------------------------


class SpanIndex:
    """Lookups over recorded spans: durations, self times, ancestry."""

    def __init__(self, tracer):
        self.names = tracer.names
        self.spans = {s[0]: s for s in tracer.spans}
        self.child_time = {}
        self.by_name = {}
        for s in tracer.spans:
            if s[1] >= 0:
                self.child_time[s[1]] = self.child_time.get(s[1], 0.0) + (s[5] - s[4])
            self.by_name.setdefault(self.names[s[2]], []).append(s)

    def name(self, span):
        return self.names[span[2]]

    def ancestors(self, span):
        parent = span[1]
        while parent >= 0:
            span = self.spans[parent]
            yield span
            parent = span[1]

    def self_time(self, span):
        return (span[5] - span[4]) - self.child_time.get(span[0], 0.0)

    def select(self, name, phases=None):
        return [s for s in self.by_name.get(name, ()) if phases is None or s[6] in phases]

    def outermost(self, spans, pred):
        """Spans with no ancestor satisfying ``pred`` (avoids double counting)."""
        return [s for s in spans if not any(pred(self.name(a)) for a in self.ancestors(s))]

    def inclusive(self, name, phases):
        spans = self.outermost(self.select(name, phases), lambda n: n == name)
        return sum(s[5] - s[4] for s in spans)


def _peak_concurrency(spans):
    events = sorted([(s[4], 1) for s in spans] + [(s[5], -1) for s in spans])
    peak = cur = 0
    for _, step in events:
        cur += step
        peak = max(peak, cur)
    return peak


def layer_metrics(tracer, n_passes):
    """Per-layer metrics from the spans; pass metrics are per traced pass."""
    idx = SpanIndex(tracer)
    passes = set(range(n_passes))
    per = 1.0 / max(n_passes, 1)
    in_pass = [s for s in idx.spans.values() if s[6] in passes]
    out = {}

    builds = idx.select("stable.StableDensity.__init__")
    out["stable.build_s"] = sum(s[5] - s[4] for s in builds)
    out["stable.builds"] = len(builds)
    calls = idx.select("stable.density", passes)
    built = {s[1] for s in builds}
    hits = sum(1 for s in calls if s[0] not in built)
    out["stable.cache_hit_ratio"] = hits / len(calls) if calls else 0.0
    evals = idx.select("stable.StableDensity.evaluate", passes)
    radii = sum(s[7] or 0 for s in evals)
    eval_s = sum(s[5] - s[4] for s in evals)
    eval_ids = {s[0] for s in evals}
    series_radii = sum(s[7] or 0 for s in idx.select("stable.series_eval", passes) if s[1] in eval_ids)
    out["stable.eval_s"] = eval_s * per
    out["stable.eval_radii"] = radii * per
    out["stable.ns_per_radius"] = 1e9 * eval_s / radii if radii else 0.0
    out["stable.series_share"] = series_radii / radii if radii else 0.0

    out["kernel.eval_p1_s"] = sum(idx.self_time(s) for s in idx.select("kernel.eval_p1", passes)) * per
    out["kernel.eval_pt_calls"] = len(idx.select("kernel.eval_pt", passes)) * per
    out["kernel.tail_mass_s"] = idx.inclusive("kernel.tail_mass", passes) * per
    out["kernel.moment_d_s"] = idx.inclusive("kernel.moment_d", passes) * per

    ghats = idx.select("geometry.CovarianceProfile.ghat", passes)
    ghat_s = sum(s[5] - s[4] for s in ghats)
    ghat_radii = sum(s[7] or 0 for s in ghats)
    out["geometry.ghat_s"] = ghat_s * per
    out["geometry.ghat_radii"] = ghat_radii * per
    out["geometry.ns_per_ghat_radius"] = 1e9 * ghat_s / ghat_radii if ghat_radii else 0.0
    for name in ("radial_profile", "alpha_perimeter", "covariance_mc"):
        out[f"geometry.{name}_s"] = idx.inclusive(f"geometry.{name}", passes) * per

    deficits = idx.select("content.scaled_deficit", passes)
    distinct = {s[7] for s in deficits}
    out["content.scaled_deficit_calls"] = len(deficits) * per
    out["content.recompute_ratio"] = len(deficits) / (len(distinct) * n_passes) if distinct else 0.0
    out["content.scaled_deficit_s"] = sum(idx.self_time(s) for s in deficits) * per
    out["content.sweep_s"] = idx.inclusive("content.asymptotic_sweep", passes) * per
    out["content.bound_check_s"] = sum(
        idx.inclusive(f"content.bound_check_part_{p}", passes) for p in ("i", "ii")
    ) * per
    out["content.sweep_threads"] = _peak_concurrency(deficits)

    for name, unit_name in (("mc_heat_content", "pair"), ("mc_alpha_perimeter", "chord")):
        spans = idx.select(f"oracle.{name}", passes)
        secs = sum(s[5] - s[4] for s in spans)
        samples = sum(s[7] or 0 for s in spans)
        out[f"oracle.{name}_s"] = secs * per
        out[f"oracle.{unit_name}_samples_per_s"] = samples / secs if secs else 0.0

    emits = idx.outermost(
        [s for s in in_pass if idx.name(s).startswith("reporting.")], lambda n: n.startswith("reporting.")
    )
    out["reporting.emit_s"] = sum(s[5] - s[4] for s in emits) * per
    out["reporting.bytes"] = sum(s[7] or 0 for s in emits) * per

    crit = {cid: 0.0 for cid in range(1, 18)}
    for s in idx.select("acceptance.run_criterion", passes):
        batteries = [a for a in idx.ancestors(s) if idx.name(a) == "acceptance.run_battery"]
        if len(batteries) == 1 and s[7] is not None and s[7][0] in crit:
            crit[s[7][0]] += s[7][1] * per
    for cid, secs in crit.items():
        out[f"acceptance.c{cid:02d}_s"] = secs

    self_by_layer = dict.fromkeys(LAYERS, 0.0)
    for s in in_pass:
        self_by_layer[idx.name(s).split(".", 1)[0]] += idx.self_time(s)
    for layer, secs in self_by_layer.items():
        out["cli.overhead_s" if layer == "cli" else f"{layer}.self_s"] = secs * per

    out["trace.spans"] = len(in_pass) * per
    out["trace.busy_s"] = sum(s[5] - s[4] for s in in_pass if s[1] < 0) * per
    return out
