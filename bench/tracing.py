"""Outside-in tracing of the ``diskmod`` layers, installed by monkey-patching.

Every public function of the layer modules, and every public method of their
classes, is replaced by a wrapper.  The wrapper is installed in the module
that defines the function and in every namespace that imported it by name
(``cli`` imports ``certify_spec`` and friends directly, ``corona`` and
``curvature`` both import ``derivative``), and on ``HoloFun.__call__`` as well
as ``HoloFun.eval`` because the class body binds ``__call__ = eval``.

Each wrapper keeps, per function: calls, inclusive seconds (outermost frame
only, so recursion is not double counted) and self seconds (minus the wrapped
calls made inside it).  A span with a parent id and the invocation id is kept
in memory for every call that crosses from one layer into another; hot calls
(``HOT``) and everything beneath them only update the counters.
"""

from __future__ import annotations

import inspect
import os
import time
from collections import defaultdict

import numpy as np

LAYERS = ("holofun", "rkhs", "curvature", "corona", "equivalence", "oracle", "cli")
HOT = frozenset({
    "holofun.HoloFun.eval",
    "holofun.derivative",
    "curvature.fd_laplacian",
    "rkhs.shift_weight",
})
# groups whose outermost inclusive time is reported as a share of the run
GROUPS = {
    "corona_eval": lambda name: name.startswith("corona.") or name == "holofun.HoloFun.eval",
    "curvature_decide": lambda name: name.startswith("curvature.")
    or name == "equivalence.decide_equivalence",
    "oracle_probe": lambda name: name.startswith("oracle.")
    or name == "equivalence.lemma46_probe",
}


def dim_ker_model_flops(n):
    """Real floating-point operations of ``dim_ker_estimate`` at degree n.

    Model of its dense kernels on complex matrices (4 real flops per complex
    multiply-add pair counted as 8): complete Householder QR of the
    (2k x k) multiplier block with k = n + 1, two products with the
    (2k x 2k) doubled shift, and a values-only SVD of the (k x k) result.
    """
    k = n + 1
    m = 2 * k
    qr = 4 * (2 * m * k * k - 2 * k**3 / 3) + 4 * (4 * m * m * k - 2 * m * k * k + 4 * k**3 / 3)
    products = 8 * k * m * m + 8 * k * k * m
    svd = 4 * (8 * k**3 / 3)
    return qr + products + svd


class Tracer:
    def __init__(self, package):
        self.pkg = package
        self.modules = [getattr(package, layer) for layer in LAYERS]
        self.stats = defaultdict(lambda: [0, 0.0, 0.0])  # calls, inclusive, self
        self.extra = defaultdict(float)
        self.spans = []
        self.invocation = None
        self._children = []  # child-time accumulators, one per active wrapped frame
        self._span_stack = [None]
        self._hot = 0
        self._group_depth = defaultdict(int)
        self._patches = {}  # (id(owner), attr) -> (owner, attr, original)
        self._wrappers = None
        self._derivative = package.holofun.derivative
        self._hooks = {
            "curvature.laplacian_log_sumsq": self._points_hook,
            "curvature.CurvatureField.to_csv": self._csv_hook,
            "equivalence.decide_equivalence": self._decide_hook,
            "oracle.dim_ker_estimate": self._dim_ker_hook,
        }

    # -- installation ------------------------------------------------------

    def _targets(self):
        """(name, layer, original) for every public function and method."""
        seen = {}
        for mod in self.modules:
            layer = mod.__name__.rsplit(".", 1)[1]
            for attr, value in vars(mod).items():
                if attr.startswith("_") or getattr(value, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(value) or hasattr(value, "cache_info"):
                    seen[id(value)] = (f"{layer}.{attr}", layer, value)
                elif inspect.isclass(value) and not issubclass(value, BaseException):
                    for mname, meth in vars(value).items():
                        if inspect.isfunction(meth) and not mname.startswith("_"):
                            seen[id(meth)] = (f"{layer}.{value.__name__}.{mname}", layer, meth)
        return seen

    def install(self):
        if self._wrappers is None:
            self._wrappers = {key: self._wrap(*spec) for key, spec in self._targets().items()}
        wrappers = self._wrappers
        namespaces = [self.pkg] + self.modules
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                if id(value) in wrappers:
                    self._patch(ns, attr, value, wrappers[id(value)])
                elif inspect.isclass(value) and value.__module__.startswith(self.pkg.__name__):
                    for mname, meth in list(vars(value).items()):
                        if id(meth) in wrappers and (mname == "__call__" or not mname.startswith("_")):
                            self._patch(value, mname, meth, wrappers[id(meth)])

    def _patch(self, owner, attr, original, wrapper):
        key = (id(owner), attr)
        if key not in self._patches:
            setattr(owner, attr, wrapper)
            self._patches[key] = (owner, attr, original)

    def uninstall(self):
        for owner, attr, original in self._patches.values():
            setattr(owner, attr, original)
        self._patches.clear()

    # -- the wrapper -------------------------------------------------------

    def _wrap(self, name, layer, fn):
        if name == "holofun.HoloFun.eval":
            return self._eval_wrapper(name, fn)
        if name in HOT:
            return self._hot_wrapper(name, fn)
        tracer = self
        hook = self._hooks.get(name)
        groups = [g for g, pred in GROUPS.items() if pred(name)]
        rec = self.stats[name]
        depth = [0]

        def wrapper(*args, **kwargs):
            parent_span = tracer._span_stack[-1]
            span = None
            if not tracer._hot and (parent_span is None or tracer.spans[parent_span][2] != layer):
                span = len(tracer.spans)
                tracer.spans.append([span, parent_span, layer, name, tracer.invocation, 0.0, 0.0])
            tracer._span_stack.append(span if span is not None else parent_span)
            depth[0] += 1
            for g in groups:
                tracer._group_depth[g] += 1
            children = tracer._children
            children.append(0.0)
            exc = None
            result = None
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as err:
                exc = err
                raise
            finally:
                dt = time.perf_counter() - t0
                child = children.pop()
                if children:
                    children[-1] += dt
                rec[0] += 1
                rec[2] += dt - child
                depth[0] -= 1
                if depth[0] == 0:
                    rec[1] += dt
                for g in groups:
                    tracer._group_depth[g] -= 1
                    if tracer._group_depth[g] == 0:
                        tracer.extra[f"group.{g}"] += dt
                tracer._span_stack.pop()
                if span is not None:
                    tracer.spans[span][5] = t0
                    tracer.spans[span][6] = t0 + dt
                if hook is not None:
                    hook(args, kwargs, result, exc, dt)

        wrapper.__wrapped__ = fn
        if name == "corona.certify":
            return self._certify_wrapper(wrapper)
        return wrapper

    def _hot_wrapper(self, name, fn):
        """Counters only, and no spans beneath: these run tens of thousands of times."""
        tracer = self
        rec = self.stats[name]
        children = self._children
        group_depth = self._group_depth
        groups = [g for g, pred in GROUPS.items() if pred(name)]
        group = groups[0] if groups else None
        extra = self.extra
        clock = time.perf_counter
        depth = [0]

        def wrapper(*args, **kwargs):
            tracer._hot += 1
            depth[0] += 1
            children.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = children.pop()
                if children:
                    children[-1] += dt
                rec[0] += 1
                rec[2] += dt - child
                depth[0] -= 1
                if not depth[0]:
                    rec[1] += dt
                tracer._hot -= 1
                if group is not None and not group_depth[group]:
                    extra["group." + group] += dt

        wrapper.__wrapped__ = fn
        return wrapper

    def _eval_wrapper(self, name, fn):
        """``HoloFun.eval`` calls nothing wrapped, so it skips the frame stack."""
        rec = self.stats[name]
        children = self._children
        group_depth = self._group_depth
        extra = self.extra
        clock = time.perf_counter
        scalars = frozenset({complex, float, int})

        def wrapper(self, z):
            t0 = clock()
            try:
                return fn(self, z)
            finally:
                dt = clock() - t0
                if children:
                    children[-1] += dt
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt
                if not group_depth["corona_eval"]:
                    extra["group.corona_eval"] += dt
                extra["holofun.eval.points"] += 1 if type(z) in scalars else np.size(z)

        wrapper.__wrapped__ = fn
        return wrapper

    def _certify_wrapper(self, inner):
        tracer = self
        eval_rec = self.stats["holofun.HoloFun.eval"]
        errors = self.pkg.errors

        def certify(*args, **kwargs):
            calls_before = eval_rec[0]
            t0 = time.perf_counter()
            try:
                cert = inner(*args, **kwargs)
            except errors.CoronaFailure:
                tracer.extra["corona.outcome.corona_failure"] += 1
                raise
            except errors.DepthExceeded:
                tracer.extra["corona.outcome.depth_exceeded"] += 1
                raise
            tracer.extra["corona.outcome.certified"] += 1
            tracer.extra["corona.certified_s"] += time.perf_counter() - t0
            tracer.extra["corona.boxes"] += cert.boxes_checked
            tracer.extra["corona.certified_eval_calls"] += eval_rec[0] - calls_before
            return cert

        return certify

    # -- per-function extras -----------------------------------------------

    def _points_hook(self, args, kwargs, result, exc, dt):
        z = args[1] if len(args) > 1 else kwargs.get("z")
        self.extra["curvature.laplacian_log_sumsq.points"] += np.size(z)

    def _csv_hook(self, args, kwargs, result, exc, dt):
        target = args[1] if len(args) > 1 else kwargs.get("path_or_buf")
        if isinstance(target, str) and exc is None:
            self.extra["curvature.to_csv.bytes"] += os.path.getsize(target)

    def _decide_hook(self, args, kwargs, result, exc, dt):
        grid = args[2] if len(args) > 2 else kwargs.get("grid")
        if grid is None:
            grid = self.pkg.curvature.DiskGrid()
        self.extra["equivalence.decide.grid_points"] += len(grid)

    def _dim_ker_hook(self, args, kwargs, result, exc, dt):
        n = args[2] if len(args) > 2 else kwargs.get("n", self.pkg.oracle.DEFAULT_DEGREE)
        self.extra["oracle.dim_ker_estimate.flops_computed"] += dim_ker_model_flops(n)

    # -- reading the results -----------------------------------------------

    def derivative_cache(self):
        info = self._derivative.cache_info()
        return info.hits, info.misses

    def layer_self_seconds(self):
        out = dict.fromkeys(LAYERS, 0.0)
        for name, (_, _, self_s) in self.stats.items():
            out[name.split(".", 1)[0]] += self_s
        return out

    def calls(self, name):
        return self.stats[name][0] if name in self.stats else 0

    def inclusive(self, name):
        return self.stats[name][1] if name in self.stats else 0.0

    def self_seconds(self, name):
        return self.stats[name][2] if name in self.stats else 0.0

    def function_table(self):
        return {
            name: {"calls": c, "inclusive_s": inc, "self_s": slf}
            for name, (c, inc, slf) in sorted(self.stats.items())
            if c
        }
