"""Seeded Monte Carlo volume estimation: the method-independent
statistical cross-check.

Points are drawn row by row from numpy's default PCG64 stream seeded by
the caller, in chunks that hold a fixed number of values (_CHUNK_VALUES
doubles, so fewer rows on larger graphs). The stream does not depend on
how it is chunked, so a given (graph, samples, seed) triple reproduces
bit-for-bit and gives the same points as one draw of all the samples.
Edges are tested in order; once few of a chunk's rows still pass, the
survivors are gathered and only they meet the remaining edges.
"""

import math

import numpy as np

from .errors import ParameterError, SizeError
from .graphs import Graph

# Doubles per chunk (8 MiB), which bounds the kernel's memory on any graph.
_CHUNK_VALUES = 1 << 20

# At most this many rows are never gathered: at that size a gather
# saved no time on graphs with 7 to 22 vertices.
_GATHER_MIN_ROWS = 2048

# Most samples * (1 + vertices + edges) one estimate may cost: the default
# 10^5 samples on the largest graph (63 vertices, 1953 edges) come to
# 2.017e8 units and take about 0.1 s on a 2-core KVM guest. A graph with no
# edges returns without drawing (null:63 at 3.9e6 samples takes under 1 ms),
# so the slowest admitted call found is one edge among 63 vertices at
# 3.8e6 samples (half the points pass, too many to gather): 0.9-1.1 s. The
# 1 keeps the sample count bounded on a graph with no vertices.
MAX_MC_WORK = 250_000_000


def _hits(pts: np.ndarray, edges) -> int:
    """How many rows of pts satisfy x_i + x_j <= 1 on every edge."""
    ok = np.ones(len(pts), dtype=bool)
    for i, j in edges:
        ok &= pts[:, i] + pts[:, j] <= 1.0
        if len(ok) > _GATHER_MIN_ROWS and 4 * np.count_nonzero(ok) <= len(ok):
            pts = pts.take(np.flatnonzero(ok), axis=0)
            ok = np.ones(len(pts), dtype=bool)
    return int(np.count_nonzero(ok))


def mc_volume(g: Graph, samples: int, seed: int):
    """Hit-rate estimate of vol(P(G)) and its binomial standard error."""
    if samples < 1:
        raise ParameterError("need at least one sample")
    edges = g.edges()
    if samples * (1 + g.n + len(edges)) > MAX_MC_WORK:
        raise SizeError(
            f"{samples} samples on {g.n} vertices and {len(edges)} edges "
            f"exceed MAX_MC_WORK = {MAX_MC_WORK}"
        )
    if not edges:
        return 1.0, 0.0  # every point of the cube is inside
    rng = np.random.default_rng(seed)
    rows = _CHUNK_VALUES // max(g.n, 1)
    hits = 0
    remaining = samples
    while remaining:
        m = min(rows, remaining)
        hits += _hits(rng.random((m, g.n)), edges)
        remaining -= m
    p = hits / samples
    stderr = math.sqrt(p * (1.0 - p) / samples)
    return p, stderr
