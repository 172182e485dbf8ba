"""Span tracer installed around the public functions of each layer.

The wrappers are installed from the benchmark's own files: each traced name
is replaced in every module of ``MODULES`` that binds it, so the package's
own calls, which look the name up at run time, go through the wrapper; and
``uninstall`` puts the original objects back.  A span records its name, start, end and parent span;
all spans of one traced scenario run share one run id.  Self time is a
span's duration minus the time covered by its child spans.
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array
from collections import Counter

import numpy as np

PACKAGE = "finslercut"
MODULES = ("dual", "metric", "geodesic", "submanifold", "cutlocus",
           "topology", "loops", "scenario")

# (defining module, function) -> span name
FUNCTIONS = {
    ("dual", "hessian"): "dual.hessian",
    ("metric", "legendre_inverse"): "metric.legendre_inverse",
    ("metric", "validate_metric"): "metric.validate_metric",
    ("geodesic", "integrate_geodesic"): "geodesic.integrate_geodesic",
    ("geodesic", "linearized_flow"): "geodesic.linearized_flow",
    ("geodesic", "first_degeneracy"): "geodesic.first_degeneracy",
    ("submanifold", "sample_unit_cone"): "submanifold.sample_unit_cone",
    ("submanifold", "unit_normal"): "submanifold.unit_normal",
    ("topology", "inverse_normal_exp"): "topology.inverse_normal_exp",
    ("topology", "retract_to_N"): "topology.retract_to_N",
    ("topology", "retract_to_cut"): "topology.retract_to_cut",
    ("topology", "check_first_variation"): "topology.check_first_variation",
    ("loops", "find_geodesic_loop"): "loops.find_geodesic_loop",
}
SHOOTING_METHODS = ("cut_time", "distance", "approach", "refine_arrival",
                    "samples", "focal_time", "classify")
METRIC_METHODS = ("fundamental", "spray_generic")


def _rk_steps(path):
    """Accepted integrator steps, counted from the knots of the path."""
    return sum(len(seg.knots) - 1 for seg in path.segments)


# span name -> (counter, value of the counter for one returned call)
_VALUE_COUNTERS = {
    "geodesic.integrate_geodesic":
        ("geodesic.integrate_geodesic.rk_steps", _rk_steps),
    "geodesic.linearized_flow":
        ("geodesic.linearized_flow.rk_steps",
         lambda res: _rk_steps(res.path)),
    "cutlocus.cut_time":
        ("cutlocus.cut_time.bisection_steps", lambda res: res.bisection_iters),
    "cutlocus.refine_arrival":
        ("cutlocus.refine_arrival.converged", lambda res: int(res is not None)),
}
# span name -> (counter, exception class name counted when raised)
_ERROR_COUNTERS = {
    "cutlocus.distance": ("cutlocus.distance.unreached", "UnreachedPointError"),
}


class Tracer:
    def __init__(self, run_id=""):
        self.run_id = run_id
        self.names = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._self_s = []           # per name id
        self._pairs = Counter()     # (name id, parent name id) -> calls
        self.counts = Counter()     # value and error counters
        self._stack = []            # open spans: [index, child seconds, name id]
        self._patches = []

    # -- spans -----------------------------------------------------------

    def _name_id(self, name):
        if name not in self.names:
            self.names.append(name)
            self._self_s.append(0.0)
        return self.names.index(name)

    def call(self, name, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        return self._span(self._name_id(name), fn, args, kwargs)

    def _span(self, nid, fn, args, kwargs):
        stack = self._stack
        pidx, pnid = (stack[-1][0], stack[-1][2]) if stack else (-1, -1)
        index = len(self.span_start)
        self.span_name.append(nid)
        self.span_parent.append(pidx)
        self.span_start.append(0.0)
        self.span_end.append(0.0)
        frame = [index, 0.0, nid]
        stack.append(frame)
        result = error = None
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            return result
        except BaseException as exc:
            error = exc
            raise
        finally:
            t1 = time.perf_counter()
            stack.pop()
            dur = t1 - t0
            if stack:
                stack[-1][1] += dur
            self.span_start[index] = t0
            self.span_end[index] = t1
            self._self_s[nid] += dur - frame[1]
            self._pairs[nid, pnid] += 1
            self._count(self.names[nid], result, error)

    def _count(self, name, result, error):
        if error is None and name in _VALUE_COUNTERS:
            key, value = _VALUE_COUNTERS[name]
            self.counts[key] += value(result)
        elif error is not None and name in _ERROR_COUNTERS:
            key, cls = _ERROR_COUNTERS[name]
            self.counts[key] += int(type(error).__name__ == cls)

    def _wrap(self, name, fn):
        nid = self._name_id(name)
        span = self._span

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return span(nid, fn, args, kwargs)

        return traced

    # -- installation ----------------------------------------------------

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self):
        mods = {m: importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES}
        for (home, attr), name in FUNCTIONS.items():
            original = getattr(mods[home], attr)
            traced = self._wrap(name, original)
            for mod in mods.values():
                if mod.__dict__.get(attr) is original:
                    self._patch(mod, attr, traced)
        shooting = mods["cutlocus"].NormalShooting
        for attr in SHOOTING_METHODS:
            self._patch(shooting, attr,
                        self._wrap(f"cutlocus.{attr}", shooting.__dict__[attr]))
        base = mods["metric"].MetricField
        for cls in vars(mods["metric"]).values():
            if not (isinstance(cls, type) and issubclass(cls, base)):
                continue
            for attr in METRIC_METHODS:
                if attr in cls.__dict__:
                    self._patch(cls, attr, self._wrap(f"metric.{attr}",
                                                      cls.__dict__[attr]))
        return self

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- output ----------------------------------------------------------

    def write(self, path):
        """Write every span as columns of an ``.npz`` archive."""
        np.savez(path, names=np.array(self.names), run_id=self.run_id,
                 name=np.frombuffer(self.span_name, dtype=np.int32),
                 parent=np.frombuffer(self.span_parent, dtype=np.int32),
                 start=np.frombuffer(self.span_start, dtype=np.float64),
                 end=np.frombuffer(self.span_end, dtype=np.float64))

    def layer_metrics(self):
        """Values of every metric in ``SPAN_METRICS``, by name."""
        ids = {name: i for i, name in enumerate(self.names)}
        calls = Counter()
        pairs = Counter()
        for (nid, pnid), n in self._pairs.items():
            name = self.names[nid]
            calls[name] += n
            pairs[name, self.names[pnid] if pnid >= 0 else None] += n

        def ratio(a, b):
            return a / b if b else 0.0

        out = {}
        for name, _, _ in SPAN_METRICS:
            span, _, quantity = name.rpartition(".")
            if quantity == "calls":
                out[name] = calls[span]
            elif quantity == "self_s":
                out[name] = self._self_s[ids[span]] if span in ids else 0.0
            elif name in _COUNTER_NAMES:
                out[name] = self.counts[name]
        out["metric.legendre_inverse.fundamental_per_call"] = ratio(
            pairs["metric.fundamental", "metric.legendre_inverse"],
            calls["metric.legendre_inverse"])
        out["cutlocus.distance.per_cut_time"] = ratio(
            pairs["cutlocus.distance", "cutlocus.cut_time"],
            calls["cutlocus.cut_time"])
        out["cutlocus.refine_arrival.converged_frac"] = ratio(
            self.counts["cutlocus.refine_arrival.converged"],
            calls["cutlocus.refine_arrival"])
        out["cutlocus.arrival_integrations"] = pairs[
            "geodesic.integrate_geodesic", "cutlocus.refine_arrival"]
        return out


_COUNTER_NAMES = ({key for key, _ in _VALUE_COUNTERS.values()}
                  | {key for key, _ in _ERROR_COUNTERS.values()})


def _group(spans, quantities):
    unit = {"calls": "count", "self_s": "s"}
    return [(f"{span}.{q}", unit[q], "lower")
            for span in spans for q in quantities]


# (name, unit, better) of every metric the spans give, in report order
SPAN_METRICS = (
    _group(["metric.fundamental", "dual.hessian",
            "metric.legendre_inverse"], ["calls", "self_s"])
    + [("metric.legendre_inverse.fundamental_per_call", "calls/call",
        "lower"),
       ("metric.validate_metric.self_s", "s", "lower")]
    + _group(["metric.spray_generic", "geodesic.integrate_geodesic",
              "geodesic.linearized_flow", "geodesic.first_degeneracy"],
             ["calls", "self_s"])
    + [("geodesic.integrate_geodesic.rk_steps", "count", "lower"),
       ("geodesic.linearized_flow.rk_steps", "count", "lower"),
       ("submanifold.sample_unit_cone.self_s", "s", "lower")]
    + _group(["submanifold.unit_normal", "cutlocus.cut_time",
              "cutlocus.distance", "cutlocus.approach",
              "cutlocus.refine_arrival", "cutlocus.focal_time",
              "cutlocus.classify"], ["calls", "self_s"])
    + [("cutlocus.cut_time.bisection_steps", "count", "lower"),
       ("cutlocus.distance.per_cut_time", "calls/call", "lower"),
       ("cutlocus.distance.unreached", "count", "lower"),
       ("cutlocus.refine_arrival.converged_frac", "1", "higher"),
       ("cutlocus.arrival_integrations", "count", "lower"),
       ("cutlocus.samples.calls", "count", "lower")]
    + _group(["topology.inverse_normal_exp", "topology.retract_to_N",
              "topology.retract_to_cut", "topology.check_first_variation",
              "loops.find_geodesic_loop"], ["calls", "self_s"])
)
