"""Layer spans for the traced benchmark run.

The tracer wraps the entry points of each fockcorr layer from outside the
package and removes the wrappers afterwards; nothing under ``src/`` knows
about it.  A wrapped call opens a span when it crosses into its layer from
another one (or has an inclusive-time metric of its own); a call from
inside the same layer is only counted, so that its time stays in the self
time of the enclosing span of that layer.  Fraction arithmetic is never
wrapped, so its time is self time of the layer that called it.

Spans are kept in memory in flat arrays (name, parent, start, end) and are
turned into metrics, or written out, after the run.
"""

from __future__ import annotations

import functools
import sys
from array import array
from collections import Counter
from time import perf_counter

# top of the stack first; the module name is the layer name
LAYERS = ("cli", "identities", "correlators", "weyl", "characters", "combinat",
          "fock_oracle", "qseries", "laurent", "diskcache")

# class methods wrapped besides the public ones
DUNDERS = frozenset({
    "__init__", "__add__", "__radd__", "__sub__", "__rsub__", "__neg__",
    "__mul__", "__rmul__", "__truediv__", "__pow__", "__eq__", "__hash__",
})

# (de)serialization belongs to whoever reads or prints the series, so that
# cli self time covers parsing, rendering and ``dumps``
SERIALIZATION = frozenset({"to_json", "from_json", "dumps", "loads",
                           "coeff_json", "coeff_from_json"})

# coefficient-ring adapters: one-line forwards to the ring element types;
# wrapping them would only add a call per Fraction operation in eval mode
SKIPPED_CLASSES = frozenset({"RationalRing", "LaurentRing", "RatFuncRing"})

# spans whose inclusive time is reported (outermost occurrence only)
INCLUSIVE = ("correlators.f_bo", "correlators.eps_inner_sum",
             "correlators.weyl_correlator", "correlators.half_level_base",
             "correlators.graded_trace_F")

# metric -> span names whose calls it counts
CALL_METRICS = {
    "qseries.mul.calls": ("qseries.QSeries.__mul__", "qseries.QSeries.__rmul__"),
    "qseries.inverse.calls": ("qseries.QSeries.inverse",),
    "laurent.ratfunc_add.calls": ("laurent.RationalFunction.__add__",
                                  "laurent.RationalFunction.__radd__"),
    "laurent.ratfunc_mul.calls": ("laurent.RationalFunction.__mul__",
                                  "laurent.RationalFunction.__rmul__"),
    "laurent.poly_mul.calls": ("laurent.LaurentPoly.__mul__",
                               "laurent.LaurentPoly.__rmul__"),
    "laurent.exact_div.calls": ("laurent.exact_div",),
    "fock_oracle.trace.calls": ("fock_oracle.trace",),
}


def _term_pairs(counter_name):
    def hook(counters, args):
        a, b = args[0], args[1]
        if type(a) is type(b):
            counters[counter_name] += len(a.terms) * len(b.terms)
    return hook


def _max_den_terms(counters, series):
    for c in series.terms.values():
        den = getattr(c, "den", None)
        if den is not None and len(den.terms) > counters["laurent.max_den_terms"]:
            counters["laurent.max_den_terms"] = len(den.terms)


def _oracle_terms(counters, series):
    counters["fock_oracle.output_terms"] += len(series.terms)


def _report_checks(counters, report):
    counters["identities.checks"] += report.checks


def _cache_lookup(counters, blob):
    diskcache = sys.modules["fockcorr.diskcache"]
    enabled = getattr(diskcache.enabled, "__wrapped__", diskcache.enabled)
    if enabled():
        counters["diskcache.gets"] += 1
        counters["diskcache.hits"] += blob is not None


def _inexact(counters, exc):
    if type(exc).__name__ == "InexactDivisionError":
        counters["laurent.exact_div.fails"] += 1


# name -> hook(counters, args), run before every call
ARG_HOOKS = {
    "qseries.QSeries.__mul__": _term_pairs("qseries.mul.term_pairs"),
    "qseries.QSeries.__rmul__": _term_pairs("qseries.mul.term_pairs"),
    "laurent.LaurentPoly.__mul__": _term_pairs("laurent.poly_mul.term_pairs"),
    "laurent.LaurentPoly.__rmul__": _term_pairs("laurent.poly_mul.term_pairs"),
}
# name -> hook(counters, result), run after every call; such names always span
RESULT_HOOKS = {
    "correlators.correlator": _max_den_terms,
    "fock_oracle.trace": _oracle_terms,
    "identities.run": _report_checks,
    "diskcache.get": _cache_lookup,
}
# name -> hook(counters, exception); such names always span
ERROR_HOOKS = {"laurent.exact_div": _inexact}


class Tracer:
    """In-memory span store plus call counters for one traced pass."""

    def __init__(self):
        self.names = []            # name id -> span name
        self._ids = {}
        self.name_ids = array("l")
        self.parents = array("l")
        self.starts = array("d")
        self.ends = array("d")
        self.calls = Counter()
        self.counters = Counter()
        self._stack = []           # (layer, span index) of open spans

    def name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def spans(self):
        """(name, start, end, parent index or -1) for every recorded span."""
        names = self.names
        return [(names[n], s, e, p) for n, s, e, p in
                zip(self.name_ids, self.starts, self.ends, self.parents)]

    def wrap(self, fn, name):
        """A wrapper of ``fn`` recording calls of the span ``name``."""
        layer = name.split(".", 1)[0]
        nid = self.name_id(name)
        always = name in INCLUSIVE or name in RESULT_HOOKS or name in ERROR_HOOKS
        on_args = ARG_HOOKS.get(name)
        on_result = RESULT_HOOKS.get(name)
        on_error = ERROR_HOOKS.get(name)
        stack, calls, counters = self._stack, self.calls, self.counters
        name_ids, parents, starts, ends = self.name_ids, self.parents, self.starts, self.ends

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            if on_args is not None:
                on_args(counters, args)
            if not always and stack and stack[-1][0] == layer:
                return fn(*args, **kwargs)
            idx = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1][1] if stack else -1)
            ends.append(0.0)
            stack.append((layer, idx))
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if on_error is not None:
                    on_error(counters, exc)
                raise
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            if on_result is not None:
                on_result(counters, result)
            return result

        return wrapper


def _entry_points(module, layer):
    """(owner, attribute, raw value, span name) for every wrapped entry point."""
    out = []
    for attr, obj in list(vars(module).items()):
        if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if isinstance(obj, type):
            if obj.__name__ in SKIPPED_CLASSES or issubclass(obj, BaseException):
                continue
            for meth, raw in list(vars(obj).items()):
                public = not meth.startswith("_") and meth not in SERIALIZATION
                if (public or meth in DUNDERS) and callable(
                        getattr(raw, "__func__", raw)):
                    out.append((obj, meth, raw, f"{layer}.{attr}.{meth}"))
        elif callable(obj):
            out.append((module, attr, obj, f"{layer}.{attr}"))
    return out


class Installed:
    """The wrappers put in place by :func:`install`; ``restore`` undoes them."""

    def __init__(self):
        self.patches = []          # (namespace or class, attribute, original)

    def restore(self):
        for owner, attr, original in reversed(self.patches):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self.patches.clear()


def install(tracer):
    """Wrap every layer entry point, in every fockcorr module that binds it.

    ``from .x import y`` copies the binding, so a module-level function is
    replaced in each namespace of the package that holds the same object.
    """
    namespaces = [vars(m) for n, m in sorted(sys.modules.items())
                  if n == "fockcorr" or n.startswith("fockcorr.")]
    installed = Installed()
    try:
        for layer in LAYERS:
            module = sys.modules[f"fockcorr.{layer}"]
            for owner, attr, raw, name in _entry_points(module, layer):
                if owner is module:
                    wrapper = tracer.wrap(raw, name)
                    for ns in namespaces:
                        for key, value in list(ns.items()):
                            if value is raw:
                                installed.patches.append((ns, key, raw))
                                ns[key] = wrapper
                else:
                    if isinstance(raw, (classmethod, staticmethod)):
                        wrapper = type(raw)(tracer.wrap(raw.__func__, name))
                    else:
                        wrapper = tracer.wrap(raw, name)
                    installed.patches.append((owner, attr, raw))
                    setattr(owner, attr, wrapper)
    except BaseException:
        installed.restore()
        raise
    return installed


# ---------------------------------------------------------------------------
# span arithmetic
# ---------------------------------------------------------------------------

def layer_of(name):
    return name.split(".", 1)[0]


def self_times(spans):
    """Self time per layer: each span's duration minus its children's."""
    child = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    out = {}
    for (name, start, end, _), inner in zip(spans, child):
        layer = layer_of(name)
        out[layer] = out.get(layer, 0.0) + (end - start) - inner
    return out


def inclusive_times(spans, names):
    """Inclusive time per name, counting only outermost spans of that name,
    so that a recursive call is not counted twice."""
    out = dict.fromkeys(names, 0.0)
    for name, start, end, parent in spans:
        if name not in out:
            continue
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            out[name] += end - start
    return out


def layer_metrics(tracer):
    """Per-layer metrics of one traced pass, by metric name."""
    spans = tracer.spans()
    selfs = self_times(spans)
    out = {f"{layer}.self_s": selfs.get(layer, 0.0) for layer in LAYERS}
    for name, value in inclusive_times(spans, INCLUSIVE).items():
        out[f"{name}.s"] = value
    for metric, names in CALL_METRICS.items():
        out[metric] = sum(tracer.calls[n] for n in names)
    c = tracer.counters
    out["qseries.mul.term_pairs"] = c["qseries.mul.term_pairs"]
    out["laurent.poly_mul.term_pairs"] = c["laurent.poly_mul.term_pairs"]
    divs = out["laurent.exact_div.calls"]
    out["laurent.exact_div.fail_ratio"] = (
        c["laurent.exact_div.fails"] / divs if divs else 0.0)
    out["laurent.max_den_terms"] = c["laurent.max_den_terms"]
    out["identities.checks"] = c["identities.checks"]
    out["fock_oracle.output_terms"] = c["fock_oracle.output_terms"]
    gets = c["diskcache.gets"]
    out["diskcache.hit_ratio"] = c["diskcache.hits"] / gets if gets else 0.0
    return out


def write_spans(tracer, path):
    """Write the spans as tab-separated lines: index, parent, name, start, end."""
    with open(path, "w") as fh:
        fh.write("index\tparent\tname\tstart\tend\n")
        for i, (name, start, end, parent) in enumerate(tracer.spans()):
            fh.write(f"{i}\t{parent}\t{name}\t{start:.9f}\t{end:.9f}\n")
