"""Spans and counters recorded from the benchmark's side of each layer boundary.

The traced run replaces public functions of `prevision` with wrappers, in the
namespace where their caller looks them up (for example
`prevision.coherence.solve_feasibility`, not `prevision.lp.solve_feasibility`,
because `coherence` imported the name).  Each wrapper records a span; a few
also read the returned value to count work (unknowns, infeasible systems,
entry bit lengths).  Nothing inside the program is edited.
"""

from __future__ import annotations

import sys
import time
from contextlib import contextmanager

# (module, attribute, layer).  One entry per place a caller looks a name up;
# a name is patched only where a traced caller reads it, so a call is never
# counted twice.
LAYERS = (
    ("prevision", "build_world_space", "events.build_world_space"),
    ("prevision.cli", "build_world_space", "events.build_world_space"),
    ("prevision.coherence", "quantity_constituents", "geometry.partition"),
    ("prevision.geometry", "quantity_constituents", "geometry.partition"),
    ("prevision.coherence", "enumerate_constituents", "geometry.partition"),
    ("prevision.coherence", "constituents_in_all_antecedents", "geometry.partition"),
    ("prevision.coherence", "build_sigma", "geometry.build_sigma"),
    ("prevision.coherence", "solve_feasibility", "lp.feasibility"),
    ("prevision.coherence", "maximize_component_sum", "lp.maximize"),
    ("prevision.coherence", "maximize_linear", "lp.maximize"),
    ("prevision", "check_coherence", "coherence.check"),
    ("prevision.coherence", "check_coherence", "coherence.check"),
    ("prevision.cli", "check_coherence", "coherence.check"),
    ("prevision.coherence", "dutch_book_gains", "coherence.book_verify"),
    ("prevision", "extension_interval", "coherence.extension"),
    ("prevision.cli", "extension_interval", "coherence.extension"),
    ("prevision.coherence", "family7_bounds", "closed_form"),
    ("prevision.coherence", "frechet_bounds_conjunction", "frank"),
    ("prevision.coherence", "frechet_bounds_disjunction", "frank"),
    ("prevision.cli", "frechet_bounds_conjunction", "frank"),
    ("prevision.cli", "frechet_bounds_disjunction", "frank"),
    ("prevision.cli", "tnorm", "frank"),
    ("prevision.cli", "tconorm", "frank"),
    ("prevision.cli", "solve_lambda", "frank"),
)


def entry_bits(values) -> int:
    """Largest numerator or denominator bit length among Fractions."""
    best = 0
    for v in values:
        if v is not None:
            best = max(best, v.numerator.bit_length(), v.denominator.bit_length())
    return best


class Tracer:
    """In-memory spans plus counters, for one single-threaded process.

    A span is (op, name, parent, start, end): `op` is the operation the span
    belongs to, so every span of one operation shares it, and `parent` is
    the index of the enclosing span or None.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.counters = {}
        self.maxima = {}
        self.enabled = True
        self.op = None
        self._stack = []

    @contextmanager
    def span(self, name):
        if not self.enabled:
            yield
            return
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([self.op, name, parent, self.clock(), None])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index][4] = self.clock()

    def count(self, name, amount=1):
        if self.enabled:
            self.counters[name] = self.counters.get(name, 0) + amount

    def record_max(self, name, value):
        if self.enabled:
            self.maxima[name] = max(self.maxima.get(name, value), value)

    def layer_totals(self):
        """name -> [calls, duration_s, self_s]; self time is the duration
        minus the part covered by direct child spans."""
        child = [0.0] * len(self.spans)
        for _, _, parent, start, end in self.spans:
            if parent is not None:
                child[parent] += end - start
        totals = {}
        for i, (_, name, _, start, end) in enumerate(self.spans):
            entry = totals.setdefault(name, [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += end - start
            entry[2] += end - start - child[i]
        return totals

    def summary(self):
        """Plain-data totals, mergeable across processes with `merge`."""
        return {
            "layers": self.layer_totals(),
            "counters": dict(self.counters),
            "maxima": dict(self.maxima),
        }


def merge(into, other):
    for name, (calls, total, own) in other["layers"].items():
        entry = into["layers"].setdefault(name, [0, 0.0, 0.0])
        entry[0] += calls
        entry[1] += total
        entry[2] += own
    for name, value in other["counters"].items():
        into["counters"][name] = into["counters"].get(name, 0) + value
    for name, value in other["maxima"].items():
        into["maxima"][name] = max(into["maxima"].get(name, value), value)
    return into


def _observe(tracer, layer, result):
    """Counters read from a layer's return value, after its span closed."""
    if layer == "geometry.build_sigma":
        tracer.count("geometry.unknowns.sum", result.n_unknowns)
        tracer.record_max("geometry.unknowns.max", result.n_unknowns)
    elif layer == "lp.feasibility":
        if not result.feasible:
            tracer.count("lp.feasibility.infeasible")
        values = list(result.solution or ()) + list(result.dual or ())
        tracer.record_max("lp.entry_bits.max", entry_bits(values + [result.margin]))
    elif layer == "lp.maximize":
        tracer.record_max(
            "lp.entry_bits.max", entry_bits(list(result.solution or ()) + [result.value])
        )
    elif layer == "coherence.check":
        tracer.count("coherence.levels", len(result.trace))
    elif layer == "events.build_world_space":
        tracer.count("events.worlds", len(result))


def _wrapper(tracer, layer, fn):
    def traced(*args, **kwargs):
        if not tracer.enabled:
            return fn(*args, **kwargs)
        if layer == "coherence.check":
            tracer.count("coherence.check.calls")
        checks_before = tracer.counters.get("coherence.check.calls", 0)
        try:
            with tracer.span(layer):
                result = fn(*args, **kwargs)
        finally:
            if layer == "coherence.extension":
                tracer.count(
                    "coherence.extension.probes",
                    tracer.counters.get("coherence.check.calls", 0) - checks_before,
                )
        _observe(tracer, layer, result)
        return result

    traced.__wrapped__ = fn
    return traced


@contextmanager
def patched(tracer, layers=LAYERS):
    """Install a traced wrapper at every (module, attribute) in `layers`
    whose module is loaded, restoring the originals on exit."""
    saved = []
    try:
        for module_name, attr, layer in layers:
            module = sys.modules.get(module_name)
            if module is None:
                continue
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, _wrapper(tracer, layer, original))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)
