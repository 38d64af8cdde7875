"""In-memory spans for the traced run.

A span records one call into a layer: its id, the id of the span that
was open when it started (0 at top level), the layer, the function name
and start/end times in nanoseconds. The benchmark opens spans around its
own calls into the library (``Tracer.call``) and around the functions
that a layer looks up in another layer's module (``Tracer.wrap``), so a
count's time splits into regions, geometry and feasibility without any
change to the library. Spans stay in memory and are written out once, at
the end of the run.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict

# (module, attribute, layer): the attribute a caller looks up at run time.
INNER = (
    ("torusarr.regions", "relative_dim_is", "feasibility"),
    ("torusarr.feasibility", "feasible", "feasibility"),
    ("torusarr.regions", "int_rank", "geometry"),
    ("torusarr.regions", "hulls_overlap_h", "geometry"),
    ("torusarr.regions", "hull_h", "geometry"),
    ("torusarr.regions", "affine_rank", "geometry"),
    ("torusarr.theory", "count_regions", "regions"),
)


class Tracer:
    def __init__(self):
        self.spans: list[tuple[int, int, str, str, int, int]] = []
        self.calls: Counter = Counter()
        self.truthy: Counter = Counter()
        self._stack = [0]
        self._next_id = 1
        self._saved: list = []

    def call(self, layer, name, fn, *args):
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1]
        self._stack.append(sid)
        t0 = time.perf_counter_ns()
        try:
            out = fn(*args)
        finally:
            t1 = time.perf_counter_ns()
            self._stack.pop()
            self.spans.append((sid, parent, layer, name, t0, t1))
        self.calls[name] += 1
        if out:
            self.truthy[name] += 1
        return out

    def install(self, modules) -> None:
        """Wrap every INNER attribute; ``modules`` maps names to module objects."""
        for mod_name, attr, layer in INNER:
            module = modules[mod_name]
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrapper(layer, attr, original))

    def _wrapper(self, layer, name, fn):
        def traced(*args):
            return self.call(layer, name, fn, *args)

        return traced

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def self_ns_by_layer(self) -> dict[str, int]:
        """Span time not covered by direct children, summed per layer."""
        child_ns: defaultdict[int, int] = defaultdict(int)
        for _, parent, _, _, t0, t1 in self.spans:
            child_ns[parent] += t1 - t0
        out: defaultdict[str, int] = defaultdict(int)
        for sid, _, layer, _, t0, t1 in self.spans:
            out[layer] += t1 - t0 - child_ns[sid]
        return dict(out)

    def total_ns(self, name) -> int:
        return sum(t1 - t0 for _, _, _, n, t0, t1 in self.spans if n == name)

    def write(self, path) -> None:
        keys = ("id", "parent", "layer", "name", "start_ns", "end_ns")
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")
