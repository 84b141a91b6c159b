"""Per-layer tracing of ultracalc, installed from outside the program.

``Tracer.install`` replaces the public functions and methods of the
seven layer modules with wrappers.  A function imported by name into
another module (``verify`` and ``probe`` import ``phi``) is replaced in
that module too, and module-level functions that recurse (``phi``,
``upsilon``) look themselves up through their module's globals, so every
call, recursive or not, goes through a wrapper.

Each wrapped call is timed on one stack.  A layer's self time is the
duration of its calls minus the time their wrapped callees cover.  A
call that crosses into another layer is also kept as a span (name,
parent span, start, end) in memory and written out by ``write_spans``
when the run ends.  Scalar and vector arithmetic in ``field`` is counted
and timed but kept out of the span list: a verify pass makes millions of
those calls.
"""

from __future__ import annotations

import enum
import functools
import importlib
import json
import sys
import time
import types
from collections import Counter

LAYERS = ("field", "functions", "engine", "verify", "probe", "gallery", "cli")
CHECKS = (
    "leibniz",
    "scaling",
    "symmetry",
    "closed_form",
    "restriction",
    "rank",
    "sup_bound",
    "chain",
)
SCALAR_OPS = {
    "add": "__add__",
    "sub": "__sub__",
    "mul": "__mul__",
    "div": "__truediv__",
    "pow": "__pow__",
}
# Dunders worth a wrapper: construction, arithmetic and comparison.
_DUNDERS = {
    "__init__",
    "__add__",
    "__sub__",
    "__mul__",
    "__rmul__",
    "__truediv__",
    "__pow__",
    "__neg__",
    "__radd__",
    "__rsub__",
    "__rtruediv__",
    "__eq__",
    "__call__",
}
_VECTOR_OPS = ("__add__", "__sub__", "__neg__", "__mul__", "__rmul__", "__truediv__")
_CORPUS = (
    "random_unit",
    "random_increment",
    "random_unit_bounded",
    "random_nonneg_unit_bounded",
    "random_integral_vector",
    "random_poly",
    "random_phi_point",
    "random_upsilon_point",
    "standard_corpus",
)

# (name, unit, better) of every per-layer metric, in report order.
PER_LAYER = (
    [
        (f"field.{backend}.{op}", "count", "lower")
        for backend in ("exact", "digits")
        for op in SCALAR_OPS
    ]
    + [
        ("field.scalars_built", "count", "lower"),
        ("field.contexts_built", "count", "lower"),
        ("field.vector_ops", "count", "lower"),
        ("field.self_s", "s", "lower"),
        ("functions.poly_evals", "count", "lower"),
        ("functions.poly_terms", "count", "lower"),
        ("functions.leaf_evals", "count", "lower"),
        ("functions.self_s", "s", "lower"),
        ("engine.phi_calls", "count", "lower"),
        ("engine.phi_leaves", "count", "lower"),
        ("engine.upsilon_calls", "count", "lower"),
        ("engine.upsilon_leaves", "count", "lower"),
        ("engine.self_s", "s", "lower"),
    ]
    + [
        metric
        for check in CHECKS
        for metric in (
            (f"verify.{check}_s", "s", "lower"),
            (f"verify.{check}_samples", "count", "higher"),
        )
    ]
    + [
        ("verify.corpus_s", "s", "lower"),
        ("probe.continuity_s", "s", "lower"),
        ("probe.lipschitz_s", "s", "lower"),
        ("probe.points", "count", "higher"),
        ("gallery.h_evals", "count", "lower"),
        ("gallery.witness_s", "s", "lower"),
        ("gallery.flatness_s", "s", "lower"),
        ("gallery.patchwork_s", "s", "lower"),
        ("gallery.self_s", "s", "lower"),
        ("cli.self_s", "s", "lower"),
        ("cli.report_bytes", "B", "lower"),
    ]
    + [(f"{layer}.import_us", "us", "lower") for layer in LAYERS]
    + [("trace.overhead_pct", "%", "lower")]
)


class Tracer:
    """Counters, per-layer self time and layer-crossing spans of one run."""

    def __init__(self):
        self.counts = Counter()
        self.seconds = Counter()
        self.spans = []
        self.problems = []
        self._stack = []
        self._depth = Counter()
        self._t0 = time.perf_counter()

    def reset(self) -> None:
        """Forget everything recorded; the installed wrappers stay."""
        self.counts.clear()
        self.seconds.clear()
        self.spans.clear()
        self.problems.clear()
        self._depth.clear()
        self._t0 = time.perf_counter()

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, fn, layer, name, count=None, extra=None, after=None, group=None):
        """Timed wrapper of ``fn``.

        ``count`` names a counter bumped per call, ``extra(args)`` and
        ``after(result)`` bump further counters, and ``group`` names an
        inclusive time summed over the outermost calls in that group.
        """
        stack = self._stack
        seconds = self.seconds
        counts = self.counts
        spans = self.spans
        depth = self._depth
        self_key = f"{layer}.self_s"
        keep_spans = layer != "field"
        perf = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if count is not None:
                counts[count] += 1
            if extra is not None:
                extra(args)
            if group is not None:
                depth[group] += 1
            parent = stack[-1] if stack else None
            span = parent[3] if parent is not None else None
            own = keep_spans and (parent is None or parent[2] != layer)
            if own:
                spans.append([name, span, 0.0, 0.0])
                span = len(spans) - 1
            frame = [perf(), 0.0, layer, span]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                duration = end - frame[0]
                seconds[self_key] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                if own:
                    spans[span][2] = frame[0] - tracer._t0
                    spans[span][3] = end - tracer._t0
                if group is not None:
                    depth[group] -= 1
                    if depth[group] == 0:
                        seconds[group] += duration
            if after is not None:
                after(result)
            return result

        traced.__traced__ = True
        return traced

    def _tower(self, fn, name):
        """Wrapper of a quotient tower that checks its leaf count.

        A top-level call at order n that returns must have made exactly
        2**n order-0 calls through the recursion.
        """
        timed = self._wrap(fn, "engine", name)
        counts = self.counts
        calls, leaves = f"engine.{name}_calls", f"engine.{name}_leaves"
        problems = self.problems
        depth = [0]

        @functools.wraps(fn)
        def traced(f, pt):
            order = pt.order
            top = not depth[0]
            if top:
                counts[calls] += 1
                before = counts[leaves]
            if order == 0:
                counts[leaves] += 1
            depth[0] += 1
            try:
                result = timed(f, pt)
            finally:
                depth[0] -= 1
            if top and counts[leaves] - before != 2**order and len(problems) < 20:
                problems.append(
                    f"{name} at order {order} made {counts[leaves] - before} "
                    f"leaf calls, not {2**order}"
                )
            return result

        traced.__traced__ = True
        return traced

    def _hooks(self, layer, qualname):
        """Counters and time groups attached to one wrapped name."""
        counts = self.counts
        if layer == "field":
            if qualname in ("ExactScalar.__init__", "DigitScalar.__init__"):
                return {"count": "field.scalars_built"}
            if qualname == "FieldContext.__init__":
                return {"count": "field.contexts_built"}
            if qualname.startswith("PadicVector.") and qualname[12:] in _VECTOR_OPS:
                return {"count": "field.vector_ops"}
        if layer == "functions":
            if qualname == "MultiPolynomial.evaluate":

                def terms(args):
                    counts["functions.poly_terms"] += len(args[0].terms)

                return {"count": "functions.poly_evals", "extra": terms}
            if qualname in ("Poly.evaluate", "BallIndicator.evaluate", "GalleryFn.evaluate"):
                return {"count": "functions.leaf_evals"}
        if layer == "verify":
            check = qualname[: -len("_suite")] if qualname.endswith("_suite") else None
            if check in CHECKS:

                def samples(report, key=f"verify.{check}_samples"):
                    counts[key] += report.samples

                return {"group": f"verify.{check}_s", "after": samples}
            if qualname in _CORPUS:
                return {"group": "verify.corpus_s"}
        if layer == "probe":
            if qualname == "continuity_probe":

                def rows(report):
                    counts["probe.points"] += len(report.rows)

                return {"group": "probe.continuity_s", "after": rows}
            if qualname == "lipschitz_fit":

                def pairs(fit):
                    counts["probe.points"] += fit.samples

                return {"group": "probe.lipschitz_s", "after": pairs}
        if layer == "gallery":
            if qualname == "HFamily.eval":
                return {"count": "gallery.h_evals"}
            if qualname == "discontinuity_witness":
                return {"group": "gallery.witness_s"}
            if qualname == "curve_flatness_check":
                return {"group": "gallery.flatness_s"}
            if qualname == "patchwork_curve" or qualname.startswith("PatchworkCurve."):
                return {"group": "gallery.patchwork_s"}
        return {}

    def install(self) -> None:
        """Wrap the layers of the imported ``ultracalc`` package in place."""
        modules = {layer: importlib.import_module(f"ultracalc.{layer}") for layer in LAYERS}
        replaced = {}
        field = modules["field"]
        # Scalar arithmetic first, per backend: __sub__ and __pow__ are
        # inherited from PadicScalar, so each subclass gets its own wrapper.
        for cls, backend in ((field.ExactScalar, "exact"), (field.DigitScalar, "digits")):
            for op, dunder in SCALAR_OPS.items():
                original = getattr(cls, dunder)
                setattr(
                    cls,
                    dunder,
                    self._wrap(
                        original,
                        "field",
                        f"{cls.__name__}.{dunder}",
                        count=f"field.{backend}.{op}",
                    ),
                )
        skip_on_base = set(SCALAR_OPS.values())
        for layer, module in modules.items():
            for name, obj in list(vars(module).items()):
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                if isinstance(obj, types.FunctionType) and not name.startswith("_"):
                    if name in ("phi", "upsilon"):
                        wrapper = self._tower(obj, name)
                    else:
                        wrapper = self._wrap(obj, layer, name, **self._hooks(layer, name))
                    replaced[id(obj)] = wrapper
                    setattr(module, name, wrapper)
                elif isinstance(obj, type) and not issubclass(obj, (BaseException, enum.Enum)):
                    skip = skip_on_base if obj is field.PadicScalar else ()
                    self._wrap_class(obj, layer, skip)
        for module_name, module in list(sys.modules.items()):
            if module_name != "ultracalc" and not module_name.startswith("ultracalc."):
                continue
            for name, obj in list(vars(module).items()):
                if isinstance(obj, types.FunctionType) and id(obj) in replaced:
                    setattr(module, name, replaced[id(obj)])

    def _wrap_class(self, cls, layer, skip) -> None:
        for name, attr in list(vars(cls).items()):
            if name in skip or (name.startswith("_") and name not in _DUNDERS):
                continue
            qualname = f"{cls.__name__}.{name}"
            hooks = self._hooks(layer, qualname)
            if isinstance(attr, types.FunctionType):
                if getattr(attr, "__traced__", False):
                    continue
                setattr(cls, name, self._wrap(attr, layer, qualname, **hooks))
            elif isinstance(attr, classmethod):
                setattr(cls, name, classmethod(self._wrap(attr.__func__, layer, qualname, **hooks)))
            elif isinstance(attr, staticmethod):
                setattr(cls, name, staticmethod(self._wrap(attr.__func__, layer, qualname, **hooks)))

    # -- results -------------------------------------------------------------

    def deterministic_counts(self) -> dict:
        return dict(sorted(self.counts.items()))

    def metrics(self) -> dict:
        """Counts and seconds of the per-layer metrics this tracer records."""
        out = {}
        for name, unit, _ in PER_LAYER:
            if unit == "count":
                out[name] = self.counts[name]
            elif unit == "s":
                out[name] = self.seconds[name]
        return out

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, parent, start, end) in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {"id": i, "parent": parent, "name": name, "start": start, "end": end}
                    )
                    + "\n"
                )
