"""Per-layer instrumentation, installed from outside the library.

Two instruments, never active together:

* ``Spans`` wraps the public functions of the ten modules, and the public
  and arithmetic methods of their public classes, in timing spans.  A
  span's self time is its duration minus the durations of the spans it
  directly encloses, so summing self time per module attributes every
  traced second to exactly one module.  The element classes of ``groups``
  and ``fields`` are not spanned: they are the inner loop, and a span per
  exponent comparison would swamp the times it is meant to attribute.
* ``ElementCounter`` counts those element operations instead: group
  comparisons and arithmetic, field multiplications by field kind, and
  field inversions.  It records no times, so the span pass stays
  uninflated by counting.

Each wrapper replaces every binding of the original in every loaded module
of the package, because modules import names such as ``mul_series`` and
``GF`` directly; patching only the defining module would miss those calls.
"""

import importlib
import inspect
import sys
import time
from collections import Counter

MODULES = (
    "cli", "expr", "gallery", "artinschreier", "places",
    "hensel", "series", "polys", "fields", "groups",
)
ARITH_DUNDERS = {"__add__", "__sub__", "__neg__", "__mul__", "__pow__", "__truediv__"}
COUNTED_ONLY = {"groups", "fields"}  # their classes are counted, not spanned

# Functions each workload must reach; a zero count on any of them means a
# wrapper missed a binding, and the traced run fails rather than report 0.
EXERCISED = {
    "lift-deep": (
        "cli.main", "expr.expr_to_ratfn", "polys.MPoly.make",
        "artinschreier.poly_to_series", "series.make_series", "series.mul_series",
        "series.invert", "hensel.hensel_lift", "hensel.SeriesPoly.eval", "fields.GF",
        "groups.cmp.calls", "groups.arith.calls", "fields.mul.calls.Fp",
        "fields.inverse.calls",
    ),
    "places-eval": (
        "places.place_value", "places.place_residue", "polys.MPoly.make",
        "hensel.eval_poly_at_series", "series.mul_series", "series.make_series",
        "groups.cmp.calls", "groups.arith.calls", "fields.mul.calls.Q",
        "fields.mul.calls.Fp", "fields.inverse.calls",
    ),
    "gallery": (
        "cli.main", "expr.expr_to_ratfn", "gallery.run_scenario", "artinschreier.analyze",
        "artinschreier.classify", "places.place_value", "hensel.hensel_lift",
        "series.mul_series", "series.invert", "series.unit_nth_root", "series.make_series",
        "fields.GF", "fields.embed", "groups.cmp.calls", "groups.arith.calls",
        "fields.mul.calls.Fp", "fields.mul.calls.Fpn", "fields.mul.calls.Q",
        "fields.inverse.calls",
    ),
}


def _package_modules():
    return [m for name, m in sys.modules.items() if name.split(".")[0] == "valuedfields"]


class _Patcher:
    """Replaces attributes and puts the originals back on exit."""

    def __init__(self):
        self._saved = []

    def set(self, owner, name, value):
        self._saved.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def rebind_everywhere(self, replacements):
        """Point every module-level binding of an original at its wrapper,
        then check that no binding of an original is left.  replacements
        maps id(original) to (original, wrapper); holding the original keeps
        its id from being reused."""
        for mod in _package_modules():
            for name, value in list(vars(mod).items()):
                if callable(value) and id(value) in replacements:
                    self.set(mod, name, replacements[id(value)][1])
        for mod in _package_modules():
            for name, value in vars(mod).items():
                if callable(value) and id(value) in replacements:
                    raise RuntimeError(f"{mod.__name__}.{name} still bound to the original")

    def restore(self):
        for owner, name, value in reversed(self._saved):
            setattr(owner, name, value)
        self._saved.clear()


class Spans:
    """Self time and call count per wrapped function, plus the layer
    counters that need the call's arguments or result."""

    def __init__(self):
        self.self_s = {}
        self.calls = {}
        self.extra = Counter()
        self.total_s = Counter()  # inclusive time of outermost calls
        self._stack = []  # time covered by child spans, per open span
        self._invert_depth = 0
        self._patcher = _Patcher()

    def __enter__(self):
        replacements = {}  # id(original) -> (original, wrapper)
        for m in MODULES:
            mod = importlib.import_module(f"valuedfields.{m}")
            for name, value in vars(mod).items():
                if name.startswith("_"):
                    continue
                if inspect.isfunction(value) and value.__module__ == mod.__name__:
                    replacements[id(value)] = (value, self._span(f"{m}.{name}", value))
                elif (
                    inspect.isclass(value)
                    and value.__module__ == mod.__name__
                    and m not in COUNTED_ONLY
                ):
                    self._wrap_methods(m, value)
        self._patcher.rebind_everywhere(replacements)
        return self

    def __exit__(self, *exc):
        self._patcher.restore()

    def _wrap_methods(self, m, cls):
        for name, attr in list(vars(cls).items()):
            if name.startswith("_") and name not in ARITH_DUNDERS:
                continue
            key = f"{m}.{cls.__name__}.{name}"
            if isinstance(attr, staticmethod):
                self._patcher.set(cls, name, staticmethod(self._span(key, attr.__func__)))
            elif inspect.isfunction(attr):
                self._patcher.set(cls, name, self._span(key, attr))

    def _span(self, key, fn):
        fn = self._hook(key, fn)
        stack, self_s, calls = self._stack, self.self_s, self.calls
        self_s[key] = 0.0
        calls[key] = 0
        clock = time.perf_counter

        def span(*args, **kwargs):
            calls[key] += 1
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                d = clock() - t0
                self_s[key] += d - stack.pop()
                if stack:
                    stack[-1] += d

        return span

    def _hook(self, key, fn):
        """Counters that need a call's operands or result."""
        extra = self.extra
        if key == "series.mul_series":
            def mul(a, b):
                extra["series.mul_series.term_pairs"] += len(a.terms) * len(b.terms)
                if self._invert_depth:
                    extra["series.invert.mul_calls"] += 1
                return fn(a, b)
            return mul
        if key == "series.invert":
            def inv(*args, **kwargs):
                outermost = not self._invert_depth
                self._invert_depth += 1
                t0 = time.perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    self._invert_depth -= 1
                    if outermost:
                        self.total_s["series.invert"] += time.perf_counter() - t0
            return inv
        if key == "series.make_series":
            def make(field, group, terms, *rest, **kwargs):
                terms = list(terms)
                extra["series.make_series.terms_in"] += len(terms)
                return fn(field, group, terms, *rest, **kwargs)
            return make
        if key in ("hensel.hensel_lift", "hensel.newton_system", "hensel.implicit_solve"):
            def newton(*args, **kwargs):
                result = fn(*args, **kwargs)
                extra["hensel.newton_steps"] += len(result.steps)
                return result
            return newton
        return fn

    def module_self_s(self, m):
        return sum(s for k, s in self.self_s.items() if k.split(".")[0] == m)

    def module_calls(self, m):
        return sum(c for k, c in self.calls.items() if k.split(".")[0] == m)


class ElementCounter:
    """Counts of group-element and field-element operations."""

    def __init__(self):
        self.counts = Counter()
        self._patcher = _Patcher()

    def __enter__(self):
        from valuedfields import fields, groups

        elem = groups.GroupElem
        for name in ("__lt__", "__le__", "__gt__", "__ge__"):
            self._patcher.set(elem, name, self._counted("groups.cmp.calls", vars(elem)[name]))
        for name in ("__add__", "__neg__", "__sub__", "scale"):
            self._patcher.set(elem, name, self._counted("groups.arith.calls", vars(elem)[name]))
        cmp = groups.cmp
        self._patcher.rebind_everywhere({id(cmp): (cmp, self._counted("groups.cmp.calls", cmp))})

        felem = fields.FieldElement
        self._patcher.set(felem, "__mul__", self._counted_mul(felem.__mul__, fields.RationalField))
        self._patcher.set(felem, "inverse", self._counted("fields.inverse.calls", felem.inverse))
        return self

    def __exit__(self, *exc):
        self._patcher.restore()

    def _counted(self, key, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    def _counted_mul(self, fn, rational):
        counts = self.counts

        def mul(a, b):
            f = a.field
            if isinstance(f, rational):
                counts["fields.mul.calls.Q"] += 1
            elif f.n == 1:
                counts["fields.mul.calls.Fp"] += 1
            else:
                counts["fields.mul.calls.Fpn"] += 1
            return fn(a, b)

        return mul
