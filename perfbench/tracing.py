"""Per-layer tracing of webgeo from outside its source.

`Tracer.install()` replaces every public function and public method of
the eight layer modules with a wrapper that records a span: the name,
start, end, the enclosing span and the job id.  Functions are replaced
under every name other modules hold them by: module attributes (so
`from .taylor import jet_mul` in exprlang is covered), the package's
re-exports, and module-level dispatch tables (`exprlang._JET_OPS`,
`taylor._ARITH`, `taylor._ELEMENTARY`).  `uninstall()` puts the originals
back.  No file of the package changes.

Not wrapped, and listed by `unmeasured`: generator functions (a wrapper
would time only the creation of the generator), constructors and operator
methods (names starting with an underscore, like every private helper).
Their time counts toward the span that calls them.

A span's self time is its duration minus the durations of its child
spans; a layer's self time is the sum over its spans.  Each job runs
inside a root span of layer "bench", whose self time is the harness time
not spent inside webgeo, so the layer self times plus the harness time
add up to the traced job time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
import types
from collections import defaultdict

LAYERS = ("taylor", "exprlang", "geometry", "geodesy", "projective", "eulerweb", "render", "cli")

#: Metric groups: a metric prefix and the functions it covers.  A group's
#: calls count the spans whose parent is not in the same group.
GROUPS = {
    "taylor.jet_mul": ("taylor.jet_mul",),
    "taylor.jet_div": ("taylor.jet_div",),
    "taylor.jet_elementary": ("taylor.jet_elementary",),
    "exprlang.parse": ("exprlang.parse",),
    "exprlang.evaluate_jet": ("exprlang.evaluate_jet", "exprlang.evaluate_jet_with"),
    "exprlang.evaluate": ("exprlang.evaluate",),
    "exprlang.evaluate_gradient": ("exprlang.evaluate_gradient",),
    "exprlang.to_source": ("exprlang.to_source",),
    "geometry.components_at": ("geometry.ChristoffelField.components_at",),
    "geometry.curvature_components": ("geometry.curvature_components",),
    "geodesy.residual": (
        "geodesy.flex_residual",
        "geodesy.projective_flex_residual",
        "geodesy.constant_curvature_residual",
        "geodesy.graph_surface_residual",
    ),
    "geodesy.geodesic_web_report": ("geodesy.geodesic_web_report",),
    "projective.fit": ("projective.fit_projective_structure", "projective.fit_by_linear_solve"),
    "projective.alpha_beta": ("projective.alpha_beta",),
    "projective.integrate": ("projective.integrate_symmetric_connection",),
    "eulerweb.characteristic_roots": ("eulerweb.characteristic_roots",),
    "eulerweb.datum_value": ("eulerweb.CauchyDatum.value",),
    "eulerweb.residual": (
        "eulerweb.euler_residual",
        "eulerweb.connection_euler_residual",
        "eulerweb.euler_residual_of_jet",
        "eulerweb.connection_euler_residual_of_jet",
    ),
    "eulerweb.generate_linear_web": ("eulerweb.generate_linear_web",),
    "render.trace_level_curve": ("render.trace_level_curve",),
    "render.render_svg": ("render.render_svg",),
    "render.write_report": ("render.write_report",),
}

_GROUP_OF = {name: group for group, names in GROUPS.items() for name in names}

#: Spans kept for the span file; aggregates always cover every span.
SPAN_LIMIT = 50_000


class Tracer:
    """Wraps webgeo's public functions and aggregates their spans."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.spans_dropped = 0
        self.record_spans = False
        self.unmeasured: list[str] = []
        self.wrapped: list[str] = []
        self._stack: list[list] = []
        self._restore: list[tuple] = []
        self._next_id = 1
        self.job_id = None
        self.reset()

    # ---------------------------------------------------------- counters

    def reset(self):
        """Start a fresh set of aggregates (one per pass)."""
        self.layer_self = defaultdict(float)
        self.group_self = defaultdict(float)
        self.group_calls = defaultdict(int)
        self.errors = defaultdict(int)
        self.counts = defaultdict(int)
        self.job_time = 0.0

    def _close(self, frame, parent, name, layer, group, exc, result):
        end = time.perf_counter()
        self._stack.pop()
        duration = end - frame[0]
        self.layer_self[layer] += duration - frame[1]
        if parent is not None:
            parent[1] += duration
            if exc is not None and parent[2] != layer:
                self.errors[(layer, type(exc).__name__)] += 1
        if group is not None:
            self.group_self[group] += duration - frame[1]
            if parent is None or parent[3] != group:
                self.group_calls[group] += 1
            hook = _HOOKS.get(group)
            if hook is not None:
                hook(self.counts, result, exc)
        if self.record_spans:
            if len(self.spans) < SPAN_LIMIT:
                self.spans.append((frame[4], parent[4] if parent else None, self.job_id,
                                   name, frame[0], end))
            else:
                self.spans_dropped += 1
        return duration

    def begin_job(self, job_id):
        self.job_id = job_id
        self._stack.append([time.perf_counter(), 0.0, "bench", None, self._span_id()])

    def end_job(self):
        frame = self._stack[-1]
        self.job_time += self._close(frame, None, "job", "bench", None, None, None)

    def _span_id(self):
        sid = self._next_id
        self._next_id += 1
        return sid

    # ---------------------------------------------------------- wrapping

    def _wrap(self, fn, name: str, layer: str):
        tracer = self
        stack = self._stack
        clock = time.perf_counter
        group = _GROUP_OF.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [clock(), 0.0, layer, group, tracer._span_id()]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer._close(frame, parent, name, layer, group, exc, None)
                raise
            tracer._close(frame, parent, name, layer, group, None, result)
            return result

        self.wrapped.append(name)
        return wrapper

    def install(self):
        """Wrap every public function and method of the layer modules."""
        replacements = {}
        for layer in LAYERS:
            module = importlib.import_module(f"webgeo.{layer}")
            for attr, value in list(vars(module).items()):
                if attr.startswith("_"):
                    continue
                name = f"{layer}.{attr}"
                if inspect.isfunction(value) and value.__module__ == module.__name__:
                    if inspect.isgeneratorfunction(value):
                        self.unmeasured.append(f"{name} (generator)")
                        continue
                    replacements[value] = self._wrap(value, name, layer)
                elif inspect.isclass(value) and value.__module__ == module.__name__:
                    self._wrap_class(value, name, layer)
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == "webgeo" or module_name.startswith("webgeo.")):
                continue
            for attr, value in list(vars(module).items()):
                if isinstance(value, types.FunctionType) and value in replacements:
                    self._replace(module, attr, value, replacements[value], setattr)
                elif type(value) is dict:
                    for key, item in list(value.items()):
                        if isinstance(item, types.FunctionType) and item in replacements:
                            self._replace(value, key, item, replacements[item], dict.__setitem__)
        return self

    def _wrap_class(self, cls, qualname: str, layer: str):
        for attr, value in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{qualname}.{attr}"
            if isinstance(value, staticmethod):
                new = staticmethod(self._wrap(value.__func__, name, layer))
            elif isinstance(value, property) and value.fget is not None:
                new = property(self._wrap(value.fget, name, layer), value.fset, value.fdel,
                               value.__doc__)
            elif inspect.isfunction(value):
                if inspect.isgeneratorfunction(value):
                    self.unmeasured.append(f"{name} (generator)")
                    continue
                new = self._wrap(value, name, layer)
            else:
                continue
            self._replace(cls, attr, value, new, setattr)

    def _replace(self, holder, key, original, new, setter):
        setter(holder, key, new)
        self._restore.append((holder, key, original, setter))

    def uninstall(self):
        """Put every original function back."""
        for holder, key, original, setter in reversed(self._restore):
            setter(holder, key, original)
        self._restore.clear()

    # ---------------------------------------------------------- results

    def metrics(self) -> dict:
        """Per-layer metrics of the aggregates since the last reset."""
        out = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self.layer_self[layer]
        for group in GROUPS:
            out[f"{group}.calls"] = self.group_calls[group]
            out[f"{group}.self_s"] = self.group_self[group]
        out["taylor.domain_errors"] = self.errors[("taylor", "JetDomainError")]
        out["exprlang.evaluation_errors"] = self.errors[("exprlang", "EvaluationError")]
        residuals = self.group_calls["geodesy.residual"]
        out["geodesy.degenerate_ratio"] = (
            self.counts["geodesy.degenerate_samples"] / residuals if residuals else 0.0)
        fits = self.group_calls["projective.fit"]
        out["projective.degenerate_ratio"] = (
            self.counts["projective.degenerate_fits"] / fits if fits else 0.0)
        out["render.leaf_points"] = self.counts["render.leaf_points"]
        out["render.write_report.bytes"] = self.counts["render.write_report.bytes"]
        out["trace.job_s"] = self.job_time
        out["trace.harness_s"] = self.layer_self["bench"]
        return out

    def write_spans(self, path):
        """Write the recorded spans as JSON lines."""
        with open(path, "w", encoding="utf-8") as handle:
            for sid, parent, job, name, start, end in self.spans:
                handle.write(json.dumps({"id": sid, "parent": parent, "job": job, "name": name,
                                         "start": start, "end": end}) + "\n")


def _count_degenerate(counts, result, exc):
    if result is not None and result.degenerate:
        counts["geodesy.degenerate_samples"] += 1


def _count_degenerate_fit(counts, result, exc):
    if exc is not None and type(exc).__name__ == "DegenerateWebError":
        counts["projective.degenerate_fits"] += 1


def _count_leaf_points(counts, result, exc):
    if result is not None:
        counts["render.leaf_points"] += len(result.points)


def _count_report_bytes(counts, result, exc):
    if result is not None:
        counts["render.write_report.bytes"] += len(result.encode("utf-8"))


_HOOKS = {
    "geodesy.residual": _count_degenerate,
    "projective.fit": _count_degenerate_fit,
    "render.trace_level_curve": _count_leaf_points,
    "render.write_report": _count_report_bytes,
}
