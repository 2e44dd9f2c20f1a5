"""Per-layer spans and counters for a traced pass, with no change to linser.

install() replaces each traced function under every name its callers look
it up by: a module that does ``from .bipoly import pullback_blowup`` holds
its own reference, so the wrapper goes into that module too.  Spans
(name, start, end, parent) and counters stay in memory; a layer's self
time is its spans' durations minus the time covered by their child spans.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict

# span name -> the (module, attribute) names its function is looked up by
SPANS = {
    "factorize.factor": [("factorize", "factor_univariate"), ("zeroset", "factor_univariate")],
    "factorize.adjoin": [("factorize", "adjoin_roots"), ("zeroset", "adjoin_roots")],
    "zeroset.solve": [("zeroset", "zero_set"), ("baselocus", "zero_set")],
    "bipoly.resultant": [("bipoly", "resultant"), ("zeroset", "resultant"),
                         ("factorize", "resultant")],
    "bipoly.unigcd": [("bipoly", "UniPoly.gcd")],
    "bipoly.gcd": [("bipoly", "gcd_tuple"), ("baselocus", "gcd_tuple"), ("zeroset", "gcd_tuple")],
    "bipoly.pullback": [("bipoly", "pullback_blowup"), ("baselocus", "pullback_blowup"),
                        ("linseries", "pullback_blowup")],
    "bipoly.deriv_eval": [("bipoly", "deriv_eval"), ("linseries", "deriv_eval")],
    "baselocus.recurse": [("baselocus", "get_basepoints"), ("linseries", "get_basepoints")],
    "baselocus.tree_io": [("baselocus", "tree_to_json"), ("baselocus", "tree_from_json")],
    "linseries.conditions": [("linseries", "set_basepoints"), ("nslattice", "set_basepoints")],
    "linseries.kernel": [("linseries", "kernel_basis"), ("nslattice", "kernel_basis")],
    "gauss.rref": [("_gauss", "rref")],
    "nslattice.h0": [("nslattice", "h0_of_class")],
    "nslattice.classes": [("nslattice", "class_of_series")],
    "numfield.conjugation": [("numfield", "conjugation"), ("nslattice", "conjugation")],
    "parsing.parse": [("parsing", "parse_bipoly"), ("parsing", "parse_element"),
                      ("parsing", "parse_unipoly")],
}
# counter name -> names, for functions too hot or too small for a span
COUNTERS = {
    "numfield.mul": [("numfield", "FieldElement.__mul__")],
    "numfield.inverse": [("numfield", "FieldElement.inverse")],
    "numfield.extend": [("numfield", "extend_field"), ("factorize", "extend_field"),
                        ("parsing", "extend_field")],
}
CASE_SPAN = "cli.io"

# reported metric -> (kind, source): "s" self time of a span, "calls" its
# count, "count" a counter, "max" a running maximum, "entries" matrix sizes
METRICS = {
    "factorize.factor_s": ("s", "factorize.factor"),
    "factorize.factor_calls": ("calls", "factorize.factor"),
    "factorize.adjoin_s": ("s", "factorize.adjoin"),
    "factorize.adjoin_calls": ("calls", "factorize.adjoin"),
    "zeroset.solve_s": ("s", "zeroset.solve"),
    "zeroset.solve_calls": ("calls", "zeroset.solve"),
    "bipoly.resultant_s": ("s", "bipoly.resultant"),
    "bipoly.resultant_calls": ("calls", "bipoly.resultant"),
    "bipoly.unigcd_s": ("s", "bipoly.unigcd"),
    "bipoly.unigcd_calls": ("calls", "bipoly.unigcd"),
    "bipoly.gcd_s": ("s", "bipoly.gcd"),
    "bipoly.gcd_calls": ("calls", "bipoly.gcd"),
    "bipoly.pullback_s": ("s", "bipoly.pullback"),
    "bipoly.pullback_calls": ("calls", "bipoly.pullback"),
    "bipoly.deriv_eval_s": ("s", "bipoly.deriv_eval"),
    "bipoly.deriv_eval_calls": ("calls", "bipoly.deriv_eval"),
    "baselocus.recurse_s": ("s", "baselocus.recurse"),
    "baselocus.tree_io_s": ("s", "baselocus.tree_io"),
    "linseries.conditions_s": ("s", "linseries.conditions"),
    "linseries.set_basepoints_calls": ("calls", "linseries.conditions"),
    "linseries.kernel_s": ("s", "linseries.kernel"),
    "gauss.rref_s": ("s", "gauss.rref"),
    "gauss.rref_calls": ("calls", "gauss.rref"),
    "gauss.rref_entries": ("entries", "gauss.rref"),
    "nslattice.h0_s": ("s", "nslattice.h0"),
    "nslattice.h0_calls": ("calls", "nslattice.h0"),
    "nslattice.classes_s": ("s", "nslattice.classes"),
    "numfield.mul_calls": ("count", "numfield.mul"),
    "numfield.inverse_calls": ("count", "numfield.inverse"),
    "numfield.extend_calls": ("count", "numfield.extend"),
    "numfield.tower_degree_max": ("max", "numfield.extend"),
    "numfield.conjugation_s": ("s", "numfield.conjugation"),
    "parsing.parse_s": ("s", "parsing.parse"),
    "parsing.parse_calls": ("calls", "parsing.parse"),
    "cli.io_s": ("s", CASE_SPAN),
}


class Recorder:
    """Spans and counters of one pass, totalled case by case."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index]
        self.stack = []  # [span index, time covered by child spans]
        self.new_case()

    def new_case(self):
        self.totals = defaultdict(float)  # "s", "calls", "count", "entries" per name
        self.maxima = defaultdict(int)
        self.case_start = len(self.spans)

    def drop_case(self):
        """Forget a case that ran out of its budget: its counts depend on timing."""
        del self.spans[self.case_start:]
        self.stack.clear()
        self.new_case()

    def case_totals(self):
        out = {}
        for metric, (kind, name) in METRICS.items():
            if kind == "max":
                out[metric] = self.maxima[name]
            else:
                out[metric] = self.totals[(kind, name)]
        self.new_case()
        return out

    def enter(self, name):
        parent = self.stack[-1][0] if self.stack else -1
        self.stack.append([len(self.spans), 0.0])
        self.spans.append([name, time.perf_counter(), None, parent])
        self.totals[("calls", name)] += 1

    def exit(self):
        end = time.perf_counter()
        index, covered = self.stack.pop()
        span = self.spans[index]
        span[2] = end
        duration = end - span[1]
        self.totals[("s", span[0])] += duration - covered
        if self.stack:
            self.stack[-1][1] += duration

    def span(self, name, fn):
        def traced(*args, **kwargs):
            self.enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.exit()

        return traced

    def counter(self, name, fn):
        key = ("count", name)

        def counted(*args, **kwargs):
            self.totals[key] += 1
            return fn(*args, **kwargs)

        return counted


def _lookup(module, attr):
    owner = module
    *path, last = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, last


def install(rec: Recorder):
    """Put the recorder's wrappers in place of every traced name."""
    wrapped = {}

    def wrap(name, places, make):
        for mod_name, attr in places:
            module = importlib.import_module(f"linser.{mod_name}")
            owner, last = _lookup(module, attr)
            fn = getattr(owner, last)
            if fn not in wrapped:
                wrapped[fn] = make(name, fn)
            setattr(owner, last, wrapped[fn])

    for name, places in SPANS.items():
        wrap(name, places, rec.span)
    for name, places in COUNTERS.items():
        wrap(name, places, rec.counter)

    rref_traced = importlib.import_module("linser._gauss").rref

    def rref(rows):
        rows = list(rows)
        rec.totals[("entries", "gauss.rref")] += len(rows) * (len(rows[0]) if rows else 0)
        return rref_traced(rows)

    importlib.import_module("linser._gauss").rref = rref

    numfield = importlib.import_module("linser.numfield")
    extend_counted = numfield.extend_field

    def extend_field(*args, **kwargs):
        out = extend_counted(*args, **kwargs)
        key = "numfield.extend"
        rec.maxima[key] = max(rec.maxima[key], out[0].degree())
        return out

    for mod_name in ("numfield", "factorize", "parsing"):
        setattr(importlib.import_module(f"linser.{mod_name}"), "extend_field", extend_field)
