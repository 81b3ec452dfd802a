"""Spans and counters around plexus's layers, installed from outside the
package.

`Tracer.install` wraps every public function of each layer module in a span
and rebinds the wrapper at every plexus module that holds the function,
because callers bind names at import time (`rewrite` holds its own
`canonical_form`, `cli` its own `evaluate`, and so on). The hottest methods,
`Semiring.add`/`mul`, `Array.entry` and `Array.__eq__`, are counted, not
timed. A span records its name, start, end, parent span and op id; spans
stay in memory until `write_spans`.
"""
from __future__ import annotations

import functools
import inspect
import json
import os
import sys
from collections import Counter
from time import perf_counter

LAYERS = ("semiring", "arrays", "diagram", "evaluator", "rewrite", "ternary", "workspace", "cli")
HOT_METHODS = (
    ("semiring", "Semiring", "add", "semiring.add_calls"),
    ("semiring", "Semiring", "mul", "semiring.mul_calls"),
    ("arrays", "Array", "entry", "arrays.entry_calls"),
    ("arrays", "Array", "__eq__", "arrays.eq_calls"),
)
TABLE_FUNCTIONS = {
    "group_heap", "relation_semiheap", "bijection_heap", "vector_heap", "make_ternary_table",
    "check_semiheap", "check_heap", "find_biunits", "involuted_monoid", "biunit_transport",
    "reverse_table", "check_reverse_semiheap", "check_homomorphism", "check_isotropy_biinvariance",
}
LOADERS = {"load_workspace", "load_diagram", "load_bindings", "parse_workspace", "parse_diagram"}


def _multiway_sizes(tracer, args, graph):
    tracer.extras["rewrite.multiway_states"] += len(graph.states)
    tracer.extras["rewrite.multiway_transitions"] += len(graph.transitions)


def _census_classes(tracer, args, result):
    tracer.extras["rewrite.census_classes"] += len(result[0])


def _file_bytes(tracer, args, result):
    tracer.extras["workspace.bytes_parsed"] += os.path.getsize(args[0])


HOOKS = {
    "rewrite.multiway": _multiway_sizes,
    "rewrite.enumerate_compositions": _census_classes,
    "workspace.load_workspace": _file_bytes,
    "workspace.load_diagram": _file_bytes,
    "workspace.load_bindings": _file_bytes,
}


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index, op id]
        self.stack = []
        self.op = -1
        self.hot = {key: [0] for *_, key in HOT_METHODS}
        self.errors = Counter()  # (layer, PlexusError code or exception type)
        self.extras = Counter()
        self._seen_errors = set()
        self._undo = []

    # -- installation ---------------------------------------------------

    def install(self):
        modules = [m for n, m in list(sys.modules.items()) if n == "plexus" or n.startswith("plexus.")]
        for layer in LAYERS:
            mod = sys.modules["plexus." + layer]
            for name, fn in list(vars(mod).items()):
                if name.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                wrapper = self._span(layer, name, fn)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is fn:
                            setattr(m, attr, wrapper)
                            self._undo.append((m, attr, fn))
        for layer, cls_name, method, key in HOT_METHODS:
            cls = getattr(sys.modules["plexus." + layer], cls_name)
            fn = cls.__dict__[method]
            setattr(cls, method, _counted(self.hot[key], fn))
            self._undo.append((cls, method, fn))

    def uninstall(self):
        for target, attr, fn in reversed(self._undo):
            setattr(target, attr, fn)
        self._undo.clear()

    def begin_op(self, op_id):
        self.op = op_id
        self._seen_errors.clear()

    def _span(self, layer, name, fn):
        key = f"{layer}.{name}"
        hook = HOOKS.get(key)
        spans, stack = self.spans, self.stack
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [key, 0.0, 0.0, stack[-1] if stack else -1, tracer.op]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as err:
                # count an error once, at the innermost span it left
                if id(err) not in tracer._seen_errors:
                    tracer._seen_errors.add(id(err))
                    tracer.errors[layer, getattr(err, "code", type(err).__name__)] += 1
                raise
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if hook:
                hook(tracer, args, result)
            return result

        return traced

    # -- results ----------------------------------------------------------

    def layer_metrics(self):
        """Per-layer metrics over everything traced."""
        spans = self.spans
        child = [0.0] * len(spans)
        for rec in spans:
            if rec[3] >= 0:
                child[rec[3]] += rec[2] - rec[1]
        calls, self_s = Counter(), Counter()
        census_cf = 0
        for k, (name, start, end, parent, _) in enumerate(spans):
            layer, fn = name.split(".", 1)
            own = end - start - child[k]
            calls[name] += 1
            calls[layer] += 1
            self_s[name] += own
            self_s[layer] += own
            if fn in TABLE_FUNCTIONS:
                self_s["ternary.tables"] += own
            if fn in LOADERS:
                self_s["workspace.load"] += own
            if fn in ("array_to_json", "diagram_to_json"):
                self_s["workspace.to_json"] += own
            if name == "diagram.canonical_form":
                p = parent
                while p >= 0 and spans[p][0] != "rewrite.enumerate_compositions":
                    p = spans[p][3]
                census_cf += p >= 0
        m = {
            "semiring.add_calls": self.hot["semiring.add_calls"][0],
            "semiring.mul_calls": self.hot["semiring.mul_calls"][0],
            "arrays.entry_calls": self.hot["arrays.entry_calls"][0],
            "arrays.eq_calls": self.hot["arrays.eq_calls"][0],
            "diagram.canonical_form_calls": calls["diagram.canonical_form"],
            "diagram.canonical_form_self_s": self_s["diagram.canonical_form"],
            "evaluator.evaluate_calls": calls["evaluator.evaluate"],
            "evaluator.evaluate_self_s": self_s["evaluator.evaluate"],
            "rewrite.find_matches_calls": calls["rewrite.find_matches"],
            "rewrite.find_matches_self_s": self_s["rewrite.find_matches"],
            "rewrite.motif_automorphisms_calls": calls["rewrite.motif_automorphisms"],
            "rewrite.enumerate_self_s": self_s["rewrite.enumerate_compositions"],
            "rewrite.multiway_states": self.extras["rewrite.multiway_states"],
            "rewrite.multiway_transitions": self.extras["rewrite.multiway_transitions"],
            "ternary.fish_calls": calls["ternary.fish"],
            "ternary.fish_self_s": self_s["ternary.fish"],
            "ternary.tables_self_s": self_s["ternary.tables"],
            "ternary.heapoid_self_s": self_s["ternary.heapoid_check"],
            "workspace.load_self_s": self_s["workspace.load"],
            "workspace.bytes_parsed": self.extras["workspace.bytes_parsed"],
            "workspace.to_json_self_s": self_s["workspace.to_json"],
        }
        for layer in LAYERS:
            if layer != "semiring":
                m[f"{layer}.calls"] = calls[layer]
                m[f"{layer}.self_s"] = self_s[layer]
            m[f"{layer}.errors"] = sum(n for (lay, _), n in self.errors.items() if lay == layer)
        # the census yield is the first over the second; both are counts,
        # so that a workload without a census reports 0 and 0, not 0/0
        m["rewrite.census_classes"] = self.extras["rewrite.census_classes"]
        m["rewrite.census_canonical_form_calls"] = census_cf
        m["trace.spans"] = len(spans)
        return m

    def error_codes(self):
        return {f"{layer}.errors.{code}": n for (layer, code), n in sorted(self.errors.items())}

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent, "op": op}))
                fh.write("\n")


def unit_of(metric):
    if metric.endswith(("_calls", ".calls", ".errors", "_states", "_transitions", "_classes", ".spans")):
        return "count"
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("bytes_parsed"):
        return "bytes"
    return "ratio"


def _counted(cell, fn):
    @functools.wraps(fn)
    def counted(*args):
        cell[0] += 1
        return fn(*args)

    return counted
