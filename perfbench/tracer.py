"""Span tracing of qmalcev from outside the package.

`Tracer.install()` replaces each public function listed in LAYERS, in
every `qmalcev.*` namespace that binds it (`decompose` does
`from .core import center`, for example), and `QuadraticAlgebra.validate`
with a wrapper that records a span: name, parent span, start, end and an
exact work count.  Spans stay in memory until the run ends.  Time spent in
a function that is not listed counts as self time of the nearest listed
caller, so a module's self time is the time in its listed functions minus
the time in the listed functions they call.
"""

from __future__ import annotations

import importlib
import sys
from time import perf_counter

# module -> listed functions.
LAYERS = {
    "cli": ("run",),
    "document": ("parse_document", "parse_tree", "emit_tree",
                 "emit_document"),
    "core": ("check_malcev", "check_jacobi", "center", "simplicity",
             "ideal_closure", "change_basis"),
    "quadratic": ("validate", "check_form", "b_irreducible_components",
                  "orthogonal_split"),
    "operators": ("check_malcev_operator",),
    "extensions": ("verify_gde_data", "generalized_double_extension",
                   "double_extension_even"),
    "decompose": ("inductive_decompose", "check_reductive_even",
                  "classify_U", "reduce_odd", "reduce_even", "rebuild"),
    "linalg": ("mat_mul", "det", "kernel", "inverse", "solve"),
}

# Scans whose work is counted: the first argument is the algebra, and the
# scan visits dim ** exponent basis tuples.
WORK = {
    "core.check_malcev": 4,
    "core.check_jacobi": 3,
    "quadratic.check_form": 3,
    "operators.check_malcev_operator": 3,
}

ROOT = "cli.run"

# The per-layer metrics: (name, unit, better).  Inclusive seconds of a
# function count only its outermost spans, so recursion is not counted
# twice.  Every value is per pass over the job list.
_S = "s"
_N = "count"
METRICS = (
    ("cli.self_s", _S, "lower"),
    ("document.parse_document.s", _S, "lower"),
    ("document.parse_tree.s", _S, "lower"),
    ("document.emit_tree.s", _S, "lower"),
    ("document.emit_document.s", _S, "lower"),
    ("document.self_s", _S, "lower"),
    ("core.check_malcev.s", _S, "lower"),
    ("core.check_malcev.calls", _N, "lower"),
    ("core.check_malcev.quadruples", _N, "lower"),
    ("core.check_jacobi.s", _S, "lower"),
    ("core.check_jacobi.triples", _N, "lower"),
    ("core.center.s", _S, "lower"),
    ("core.simplicity.s", _S, "lower"),
    ("core.simplicity.calls", _N, "lower"),
    ("core.ideal_closure.s", _S, "lower"),
    ("core.ideal_closure.calls", _N, "lower"),
    ("core.change_basis.s", _S, "lower"),
    ("core.self_s", _S, "lower"),
    ("quadratic.validate.calls", _N, "lower"),
    ("quadratic.validate.s", _S, "lower"),
    ("quadratic.check_form.s", _S, "lower"),
    ("quadratic.check_form.triples", _N, "lower"),
    ("quadratic.b_irreducible_components.s", _S, "lower"),
    ("quadratic.orthogonal_split.s", _S, "lower"),
    ("quadratic.self_s", _S, "lower"),
    ("operators.check_malcev_operator.s", _S, "lower"),
    ("operators.check_malcev_operator.triples", _N, "lower"),
    ("operators.self_s", _S, "lower"),
    ("extensions.verify_gde_data.s", _S, "lower"),
    ("extensions.generalized_double_extension.s", _S, "lower"),
    ("extensions.double_extension_even.s", _S, "lower"),
    ("extensions.self_s", _S, "lower"),
    ("decompose.inductive_decompose.s", _S, "lower"),
    ("decompose.check_reductive_even.s", _S, "lower"),
    ("decompose.classify_U.s", _S, "lower"),
    ("decompose.reduce_odd.s", _S, "lower"),
    ("decompose.reduce_even.s", _S, "lower"),
    ("decompose.rebuild.s", _S, "lower"),
    ("decompose.scans_per_job", "count/job", "lower"),
    ("decompose.self_s", _S, "lower"),
    ("linalg.mat_mul.s", _S, "lower"),
    ("linalg.mat_mul.calls", _N, "lower"),
    ("linalg.det.calls", _N, "lower"),
    ("linalg.kernel.calls", _N, "lower"),
    ("linalg.inverse.calls", _N, "lower"),
    ("linalg.solve.calls", _N, "lower"),
    ("linalg.self_s", _S, "lower"),
    ("trace.overhead_ratio", "ratio", "higher"),
)

# Counters that must repeat exactly between two runs with the same seed.
EXACT = tuple(name for name, unit, _ in METRICS
              if unit in (_N, "count/job"))


class Tracer:
    """Records spans of the listed functions while `active` is true."""

    def __init__(self):
        self.active = False
        self.spans = []   # [name, parent index or -1, start, end, work]
        self._stack = []

    def _wrap(self, name, fn):
        exponent = WORK.get(name)
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer._stack
            span = [name, stack[-1] if stack else -1, 0.0, 0.0,
                    args[0].dim ** exponent if exponent else 0]
            stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span[2] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[3] = perf_counter()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Wrap every listed function wherever a qmalcev module binds it."""
        owners = {layer: importlib.import_module("qmalcev." + layer)
                  for layer in LAYERS}
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "qmalcev" or name.startswith("qmalcev.")]
        for layer, names in LAYERS.items():
            owner = owners[layer]
            for fn_name in names:
                full = "%s.%s" % (layer, fn_name)
                if full == "quadratic.validate":
                    cls = owner.QuadraticAlgebra
                    fn = cls.__dict__["validate"].__func__
                    cls.validate = classmethod(self._wrap(full, fn))
                    continue
                fn = getattr(owner, fn_name)
                wrapped = self._wrap(full, fn)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is fn:
                            setattr(mod, attr, wrapped)
        return self

    def summary(self, jobs):
        """Per-layer values of the recorded spans, per pass of `jobs` jobs,
        and the self time of each listed function."""
        spans = self.spans
        dur = [s[3] - s[2] for s in spans]
        child_time = [0.0] * len(spans)
        for i, s in enumerate(spans):
            if s[1] >= 0:
                child_time[s[1]] += dur[i]
        inclusive, calls, work, self_by_layer, self_by_fn = {}, {}, {}, {}, {}
        for i, s in enumerate(spans):
            name = s[0]
            layer = name.split(".", 1)[0]
            own = dur[i] - child_time[i]
            self_by_layer[layer] = self_by_layer.get(layer, 0.0) + own
            self_by_fn[name] = self_by_fn.get(name, 0.0) + own
            calls[name] = calls.get(name, 0) + 1
            work[name] = work.get(name, 0) + s[4]
            if not _has_ancestor(spans, i, name):
                inclusive[name] = inclusive.get(name, 0.0) + dur[i]
        root_time = sum(dur[i] for i, s in enumerate(spans) if s[1] < 0)
        self_total = sum(self_by_layer.values())
        if abs(self_total - root_time) > 1e-6 * max(1.0, root_time):
            raise AssertionError("layer self times sum to %.9f s, traced "
                                 "jobs took %.9f s" % (self_total, root_time))
        if any(s[0] != ROOT for s in spans if s[1] < 0):
            raise AssertionError("a traced call ran outside a job")
        values = {}
        for name, unit, _better in METRICS:
            layer, rest = name.split(".", 1)
            if rest == "self_s":
                values[name] = self_by_layer.get(layer, 0.0)
            elif name == "decompose.scans_per_job":
                values[name] = calls.get("core.check_malcev", 0) / jobs
            elif name == "trace.overhead_ratio":
                continue
            else:
                fn, kind = name.rsplit(".", 1)
                if kind == "s":
                    values[name] = inclusive.get(fn, 0.0)
                elif kind == "calls":
                    values[name] = calls.get(fn, 0)
                else:
                    values[name] = work.get(fn, 0)
        shares = {
            "root_s": root_time,
            "self_by_function_s": {k: round(v, 6) for k, v in
                                   sorted(self_by_fn.items())},
            "check_malcev_under_parse_tree_s": _time_under(
                spans, dur, "core.check_malcev", "document.parse_tree"),
        }
        return values, shares


def _has_ancestor(spans, i, name):
    p = spans[i][1]
    while p >= 0:
        if spans[p][0] == name:
            return True
        p = spans[p][1]
    return False


def _time_under(spans, dur, name, ancestor):
    """Inclusive time of outermost `name` spans below an `ancestor` span."""
    total = 0.0
    for i, s in enumerate(spans):
        if (s[0] == name and _has_ancestor(spans, i, ancestor)
                and not _has_ancestor(spans, i, name)):
            total += dur[i]
    return total
