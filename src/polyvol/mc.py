"""Seeded Monte Carlo volume estimation: the method-independent
statistical cross-check.

A point x of the unit cube lies in P(G) when x_u + x_v <= 1 on every
edge. Points are drawn from numpy's default PCG64 stream seeded by the
caller, in chunks of _CHUNK_VALUES // n rows, and within a chunk one
vertex at a time. The vertices with a neighbour are drawn in one fixed
order: next comes the undrawn vertex with the most neighbours already
drawn, ties going to the lowest label. A vertex's column is drawn only
for the rows still alive, those that passed every edge among the
vertices before it; its edges to earlier vertices are then tested, and
the new column and the kept ones are compressed to the rows that pass.
A column is dropped once its last neighbour is drawn, and a chunk stops
when no row is alive. Isolated vertices are free coordinates and are
never drawn.

Every value drawn is a fresh uniform, and a row meets a coordinate only
once it has been drawn for that row; a coordinate never drawn is never
looked at. So each row is still a uniform point of the cube as far as
the tests can tell, and the hit count keeps the Binomial(samples, vol)
law of drawing every coordinate. The stream is read in the same order on
every run, so a (graph, samples, seed) triple fixes the output bit for
bit.
"""

import math

from .errors import ParameterError, SizeError
from .graphs import Graph, _bits

# Doubles per chunk (8 MiB), which bounds the kernel's memory on any graph.
_CHUNK_VALUES = 1 << 20

# Most samples * (1 + vertices + edges) one estimate may cost: the default
# 10^5 samples on the largest graph (63 vertices, 1953 edges) come to
# 2.017e8 units and take under 10 ms on a 2-core KVM guest, since no row
# outlives the first few vertices. A graph with no edges returns without
# drawing and isolated vertices are never drawn, so one edge among 63
# vertices at 3.8e6 samples draws 7.7e6 values in about 40 ms. The slowest
# admitted call found is the star kbip:1,62 at 2.0e6 samples, about 0.1 s:
# a share 1/(k + 1) of the rows passes the first k leaves. The 1 keeps the
# sample count bounded on a graph with no vertices.
MAX_MC_WORK = 250_000_000


def _draw_plan(g: Graph) -> list:
    """One step per vertex with a neighbour, in drawing order: (vertex,
    its earlier neighbours, the drawn vertices whose columns no later
    vertex needs once it is drawn)."""
    adj = g.adj
    left = [v for v in range(g.n) if adj[v]]
    met = [0] * g.n  # neighbours drawn so far
    drawn = 0
    plan = []
    while left:
        v = max(left, key=met.__getitem__)  # the first maximum: lowest label
        left.remove(v)
        earlier = list(_bits(adj[v] & drawn))
        drawn |= 1 << v
        for u in _bits(adj[v] & ~drawn):
            met[u] += 1
        done = [u for u in [*earlier, v] if not adj[u] & ~drawn]
        plan.append((v, earlier, done))
    return plan


def mc_volume(g: Graph, samples: int, seed: int):
    """Hit-rate estimate of vol(P(G)) and its binomial standard error."""
    if samples < 1:
        raise ParameterError("need at least one sample")
    if seed < 0:
        raise ParameterError(f"seed {seed} is negative")
    edges = g.edge_count()
    if samples * (1 + g.n + edges) > MAX_MC_WORK:
        raise SizeError(
            f"{samples} samples on {g.n} vertices and {edges} edges "
            f"exceed MAX_MC_WORK = {MAX_MC_WORK}"
        )
    if not edges:
        return 1.0, 0.0  # every point of the cube is inside
    import numpy as np

    plan = _draw_plan(g)
    rng = np.random.default_rng(seed)
    rows = _CHUNK_VALUES // g.n
    hits = 0
    remaining = samples
    while remaining:
        alive = min(rows, remaining)
        remaining -= alive
        cols = {}
        for v, earlier, done in plan:
            x = cols[v] = rng.random(alive)
            if not earlier:
                continue  # the first of its component: nothing to test yet
            ok = x + cols[earlier[0]] <= 1.0
            for u in earlier[1:]:
                ok &= x + cols[u] <= 1.0
            for u in done:
                del cols[u]
            kept = np.flatnonzero(ok)
            alive = len(kept)
            if not alive:
                break
            for u, col in cols.items():
                cols[u] = col.take(kept)
        hits += alive
    p = hits / samples
    stderr = math.sqrt(p * (1.0 - p) / samples)
    return p, stderr
