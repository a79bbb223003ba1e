"""Spans around the calls into each polyvol layer, recorded from outside
the program by replacing module attributes with timing wrappers.

Each wrapper is installed under the name its callers look up (cli.py
calls `rvf_volume` through its own module globals, ehrhart.py calls
`lattice_count` through its), so every call the program makes into a
layer opens one span. A span is [name, parent index, start, end, note];
spans stay in memory until the run writes them out.
"""

import importlib
import math
from functools import lru_cache
from time import perf_counter

from . import oracles

# (module, attribute, layer metric that takes the span's self time)
TARGETS = (
    ("polyvol.cli", "main", "cli.self_s"),
    ("polyvol.cli", "parse_spec", "graphs.parse_s"),
    ("polyvol.cli", "load_edge_list", "graphs.parse_s"),
    ("polyvol.graphs", "parse_edge_list", "graphs.parse_s"),
    ("polyvol.cli", "build_family", "graphs.build_s"),
    ("polyvol.graphs", "from_edges", "graphs.build_s"),
    ("polyvol.cli", "bipartition", "graphs.bipartition_s"),
    ("polyvol.bipartite", "bipartition", "graphs.bipartition_s"),
    ("polyvol.ehrhart", "bipartition", "graphs.bipartition_s"),
    ("polyvol.cli", "rvf_volume", "rvf.self_s"),
    ("polyvol.cli", "from_graph", "bipartite.self_s"),
    ("polyvol.cli", "perm_volume", "bipartite.self_s"),
    ("polyvol.cli", "symmetric_volume", "bipartite.self_s"),
    ("polyvol.cli", "lattice_count", "ehrhart.count_s"),
    ("polyvol.ehrhart", "lattice_count", "ehrhart.count_s"),
    ("polyvol.cli", "ehrhart_fit", "ehrhart.fit_s"),
    ("polyvol.ehrhart", "ehrhart_fit", "ehrhart.fit_s"),
    ("polyvol.cli", "ehrhart_volume", "ehrhart.fit_s"),
    ("polyvol.cli", "hstar", "ehrhart.hstar_s"),
    ("polyvol.ehrhart", "interpolate", "poly.interpolate_s"),
    ("polyvol.closed", "family_volume", "closed.self_s"),
    ("polyvol.closed", "has_closed_form", "closed.self_s"),
    ("polyvol.cli", "sliced_null", "slices.self_s"),
    ("polyvol.cli", "sliced_join", "slices.self_s"),
    ("polyvol.cli", "sliced_multiple", "slices.self_s"),
    ("polyvol.cli", "sliced_complete_bipartite", "slices.self_s"),
    ("polyvol.cli", "series_partial", "series.self_s"),
    ("polyvol.cli", "series_target", "series.self_s"),
    ("polyvol.cli", "format_rational", "rational.render_s"),
    ("polyvol.cli", "approx_decimal", "rational.render_s"),
    ("polyvol.rational", "approx_decimal", "rational.render_s"),
    ("polyvol.cli", "mc_volume", "mc.self_s"),
)

# What a span keeps besides its times, taken from (args, result).
NOTES = {
    "polyvol.cli.rvf_volume": lambda args, result: args[0],
    "polyvol.cli.perm_volume": lambda args, result: args[0].n,
    "polyvol.cli.lattice_count": lambda args, result: result,
    "polyvol.ehrhart.lattice_count": lambda args, result: result,
    "polyvol.cli.mc_volume": lambda args, result: args[1],
}

# Per-layer metrics in report order, with their units.
METRICS = {
    "cli.self_s": "s",
    "graphs.parse_s": "s",
    "graphs.build_s": "s",
    "graphs.bipartition_s": "s",
    "rvf.self_s": "s",
    "rvf.calls": "count",
    "rvf.states": "count",
    "rvf.ns_per_state": "ns",
    "bipartite.self_s": "s",
    "bipartite.calls": "count",
    "bipartite.orderings": "count",
    "ehrhart.count_s": "s",
    "ehrhart.count_calls": "count",
    "ehrhart.points": "count",
    "ehrhart.fit_s": "s",
    "ehrhart.hstar_s": "s",
    "poly.interpolate_s": "s",
    "closed.self_s": "s",
    "slices.self_s": "s",
    "series.self_s": "s",
    "rational.render_s": "s",
    "mc.self_s": "s",
    "mc.samples": "count",
}

LAYER = {f"{module}.{attr}": metric for module, attr, metric in TARGETS}


class Tracer:
    """Installs the wrappers on start() and removes them on stop()."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._saved = []

    def start(self):
        for module_name, attr, _ in TARGETS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(f"{module_name}.{attr}", original))

    def stop(self):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def _wrap(self, name, fn):
        spans, stack, note = self.spans, self._stack, NOTES.get(name)

        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, 0.0, 0.0, None]
            stack.append(len(spans))
            spans.append(span)
            span[2] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = perf_counter()
                stack.pop()
            if note is not None:
                span[4] = note(args, result)
            return result

        traced.__wrapped__ = fn
        return traced


def self_times(spans):
    """Each span's duration minus the durations of its direct children."""
    own = [end - start for _, _, start, end, _ in spans]
    for _, parent, start, end, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


@lru_cache(maxsize=None)
def rvf_states(n, adj):
    """Connected induced subgraphs with >= 2 vertices: the recursion's memo states."""
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if adj[u] >> v & 1]
    return oracles.connected_states(n, edges)[0]


def layer_metrics(spans):
    """Totals of every per-layer metric over the given spans."""
    totals = dict.fromkeys(METRICS, 0)
    for span, own in zip(spans, self_times(spans)):
        name, note = span[0], span[4]
        totals[LAYER[name]] += own
        if name == "polyvol.cli.rvf_volume":
            totals["rvf.calls"] += 1
            if note is not None:
                totals["rvf.states"] += rvf_states(note.n, note.adj)
        elif name in ("polyvol.cli.perm_volume", "polyvol.cli.symmetric_volume"):
            totals["bipartite.calls"] += 1
            if note is not None:
                totals["bipartite.orderings"] += math.factorial(note)
        elif name.endswith(".lattice_count"):
            totals["ehrhart.count_calls"] += 1
            totals["ehrhart.points"] += note or 0
        elif name == "polyvol.cli.mc_volume":
            totals["mc.samples"] += note or 0
    return totals


def per_pass(spans, passes):
    """Per-layer metrics of one pass: the totals over `passes` passes divided
    by their number; rvf.ns_per_state is a ratio of two of them."""
    totals = layer_metrics(spans)
    out = {name: value / passes for name, value in totals.items()}
    if totals["rvf.states"]:
        out["rvf.ns_per_state"] = totals["rvf.self_s"] / totals["rvf.states"] * 1e9
    return out
