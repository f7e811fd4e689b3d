"""Outside-in tracing: wrap the library's public functions from the
benchmark's side, record one span per call, and derive per-layer metrics.

Nothing in the library changes.  A function is wrapped in every module
namespace that bound it (modules import names such as `cone_rule` or
`eval_m` at import time), methods are wrapped on their class.  Spans stay
in memory and are written out once the run ends.

The polynomial operators (`MultiPoly.__mul__`, `__add__`, `partial`, every
`UniPoly` operator) are deliberately left alone: two d = 3 identity
requests make tens of thousands of `__mul__` calls, so wrapping them would
distort the trace.  Their cost lands in their callers' self time.
"""

from __future__ import annotations

import functools
import os
import sys
from array import array
from time import perf_counter

# (module, qualname, reported stats).  Every entry is wrapped; its self time
# also enters the share table whether or not self_s is reported.
LAYERS = (
    ("polyalg", "MultiPoly.evaluate_many", ("calls", "self_s", "point_terms")),
    ("cone_solid", "cone_gram", ("calls", "self_s", "total_s")),
    ("cone_surface", "surface_gram", ("calls", "self_s", "total_s")),
    ("univariate", "eval_m", ("calls", "self_s")),
    ("univariate", "eval_n", ("calls", "self_s")),
    ("univariate", "eval_laguerre", ("calls", "self_s")),
    ("quadrature", "cone_rule", ("calls", "self_s", "points")),
    ("quadrature", "surface_rule", ("calls", "self_s", "points")),
    ("quadrature", "ball_rule", ("calls", "self_s")),
    ("quadrature", "gauss_jacobi", ("calls", "self_s")),
    ("quadrature", "gauss_laguerre", ("calls", "self_s")),
    ("harmonics", "sphere_rule", ("calls", "self_s")),
    ("polyalg", "apply_operator", ("calls", "self_s")),
    ("polyalg", "OperatorSpec.from_pseudo", ("calls", "self_s")),
    ("cone_solid", "solid_m_operator", ("calls", "distinct_ratio")),
    ("cone_solid", "diffdiff_operator", ("calls", "distinct_ratio")),
    ("cone_solid", "operator_residual_m", ("total_s",)),
    ("cone_solid", "diffdiff_residual_n", ("total_s",)),
    ("cone_solid", "recurrence_residual", ("total_s",)),
    ("cone_solid", "limit_to_laguerre", ("total_s",)),
    ("cone_solid", "laguerre_cone_checks", ("total_s",)),
    ("cone_surface", "surface_ode_residual_m", ("total_s",)),
    ("cone_surface", "surface_diffdiff_residual_n", ("total_s",)),
    ("cone_surface", "surface_limit_m", ("total_s",)),
    ("univariate", "coeffs_m_rodrigues", ("calls", "total_s")),
    ("univariate", "coeffs_n_rodrigues", ("calls", "total_s")),
    ("ball", "ball_basis", ("calls", "distinct_ratio", "total_s")),
    ("harmonics", "harmonic_basis", ("calls", "distinct_ratio", "total_s")),
    ("cone_solid", "cone_basis", ("calls", "distinct_ratio", "self_s")),
    ("cone_surface", "surface_basis", ("calls", "distinct_ratio", "self_s")),
    ("polyalg", "homogenize", ("calls", "total_s")),
    ("univariate", "coeffs_m", ("calls", "total_s")),
    ("univariate", "coeffs_n", ("calls", "total_s")),
    ("univariate", "coeffs_jacobi", ("calls", "total_s")),
    ("verifier", "run_suite", ("calls", "raised", "self_s")),
    ("verifier", "Report.to_json", ("calls", "self_s")),
    ("cli", "main", ("calls", "nonzero", "self_s")),
)

UNITS = {
    "calls": "count", "raised": "count", "nonzero": "count", "points": "count",
    "point_terms": "count", "total_s": "s", "self_s": "s", "distinct_ratio": "ratio",
}

QUADRATURE = ("quadrature.cone_rule", "quadrature.surface_rule", "quadrature.ball_rule",
              "quadrature.gauss_jacobi", "quadrature.gauss_laguerre")
GRAM_SIDE = ("polyalg.MultiPoly.evaluate_many", "cone_solid.cone_gram", "cone_surface.surface_gram")


def metric_names():
    """Every per-layer metric name with its unit, in table order."""
    names = [(f"{m}.{q}.{stat}", UNITS[stat]) for m, q, stats in LAYERS for stat in stats]
    return names + [("trace.overhead_s", "s")]


class _Layer:
    __slots__ = ("calls", "raised", "nonzero", "points", "point_terms", "keys", "active")

    def __init__(self):
        self.calls = self.raised = self.nonzero = self.points = self.point_terms = 0
        self.keys = set()
        self.active = 0


def _arg_key(args, kwargs):
    key = (args, tuple(sorted(kwargs.items())))
    try:
        hash(key)
    except TypeError:
        return repr(key)
    return key


class Tracer:
    """Span recorder.  Span i is column i of flat typed arrays: layer,
    start, end, parent span, request, and `outer`, which is false for a call
    nested in a call of the same layer, so total_s counts recursive time
    once.  The arrays hold no Python objects, so the garbage collection run
    between requests does not walk the spans, however many accumulate."""

    def __init__(self):
        self.names = []  # layer name by layer id
        self.span_layer = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("q")
        self.span_request = array("i")
        self.span_outer = array("b")
        self.stack = []
        self.request = -1
        self.layers = {}

    def span_count(self) -> int:
        return len(self.span_layer)

    def install(self, modules: dict):
        """Wrap every LAYERS entry.  modules maps a short module name
        ("polyalg") to the loaded module; all loaded finitecone modules are
        searched for other bindings of each function."""
        bound = [m for name, m in sys.modules.items() if name.split(".")[0] == "finitecone"]
        for mod_name, qualname, stats in LAYERS:
            name = f"{mod_name}.{qualname}"
            self.layers[name] = layer = _Layer()
            self.names.append(name)
            owner = modules[mod_name]
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                cls = getattr(owner, cls_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, staticmethod):
                    setattr(cls, attr, staticmethod(self._wrap(raw.__func__, layer, stats)))
                else:
                    setattr(cls, attr, self._wrap(raw, layer, stats))
                continue
            orig = getattr(owner, qualname)
            wrapped = self._wrap(orig, layer, stats)
            for mod in bound:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, attr, wrapped)

    def _wrap(self, fn, layer, stats):
        layer_id = len(self.names) - 1
        stack = self.stack
        layers, starts, ends = self.span_layer, self.span_start, self.span_end
        parents, requests, outers = self.span_parent, self.span_request, self.span_outer
        distinct = "distinct_ratio" in stats
        point_terms = "point_terms" in stats
        points = "points" in stats
        nonzero = "nonzero" in stats

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            layer.calls += 1
            if distinct:
                layer.keys.add(_arg_key(args, kwargs))
            if point_terms:
                layer.point_terms += len(args[1]) * len(args[0].terms)
            index = len(layers)
            layers.append(layer_id)
            starts.append(0.0)
            ends.append(0.0)
            parents.append(stack[-1] if stack else -1)
            requests.append(self.request)
            outers.append(layer.active == 0)
            stack.append(index)
            layer.active += 1
            starts[index] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                layer.raised += 1
                raise
            finally:
                ends[index] = perf_counter()
                layer.active -= 1
                stack.pop()
            if points:
                layer.points += len(result.points)
            if nonzero and result != 0:
                layer.nonzero += 1
            return result

        return traced

    def self_times(self):
        """Per-layer self time: span duration minus its direct children's."""
        durations = [end - start for start, end in zip(self.span_start, self.span_end)]
        child = [0.0] * len(durations)
        for parent, duration in zip(self.span_parent, durations):
            if parent >= 0:
                child[parent] += duration
        selfs = [0.0] * len(self.names)
        totals = [0.0] * len(self.names)
        for layer_id, duration, child_s, outer in zip(self.span_layer, durations, child,
                                                      self.span_outer):
            selfs[layer_id] += duration - child_s
            if outer:
                totals[layer_id] += duration
        return dict(zip(self.names, selfs)), dict(zip(self.names, totals))

    def metrics(self, overhead_s: float):
        selfs, totals = self.self_times()
        out = {}
        for mod_name, qualname, stats in LAYERS:
            name = f"{mod_name}.{qualname}"
            layer = self.layers[name]
            for stat in stats:
                if stat == "self_s":
                    value = selfs[name]
                elif stat == "total_s":
                    value = totals[name]
                elif stat == "distinct_ratio":
                    value = len(layer.keys) / layer.calls if layer.calls else 0.0
                else:
                    value = getattr(layer, stat)
                out[f"{name}.{stat}"] = value
        out["trace.overhead_s"] = overhead_s
        return out

    def shares(self, wall_s: float):
        """Each layer's self time as a share of traced wall time, largest
        first; the remainder is the benchmark and unwrapped code."""
        selfs, _ = self.self_times()
        rows = sorted(selfs.items(), key=lambda kv: -kv[1])
        rows.append(("(unwrapped)", wall_s - sum(selfs.values())))
        return [(name, value, value / wall_s) for name, value in rows]

    def write(self, path: str):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("layer\tstart\tend\tparent\trequest\n")
            for layer_id, start, end, parent, req in zip(
                    self.span_layer, self.span_start, self.span_end, self.span_parent,
                    self.span_request):
                fh.write(f"{self.names[layer_id]}\t{start:.9f}\t{end:.9f}\t{parent}\t{req}\n")


def predictions(workload: str, metrics: dict, shares):
    """The two stated layer predictions, as (statement, held) pairs."""
    share = {name: frac for name, _value, frac in shares}
    layer_shares = {k: v for k, v in share.items() if k != "(unwrapped)"}
    out = []
    if workload == "gram-deep":
        gram = sum(layer_shares[name] for name in GRAM_SIDE)
        others = max(v for k, v in layer_shares.items() if k not in GRAM_SIDE)
        out.append((
            f"gram-deep: evaluate_many + Gram self share {gram:.1%} is the largest "
            f"(next layer {others:.1%})",
            gram > others,
        ))
    if workload == "identities-deep":
        top = max(layer_shares, key=layer_shares.get)
        out.append((
            f"identities-deep: apply_operator self share "
            f"{layer_shares['polyalg.apply_operator']:.1%} is the largest (largest: {top})",
            top == "polyalg.apply_operator",
        ))
        calls = {name: metrics[f"{name}.calls"] for name in QUADRATURE}
        out.append((
            f"identities-deep: every quadrature.*.calls is 0 ({calls})",
            not any(calls.values()),
        ))
    return out
