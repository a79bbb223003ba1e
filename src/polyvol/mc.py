"""Seeded Monte Carlo volume estimation: the method-independent
statistical cross-check.

Points are drawn from numpy's default PCG64 stream seeded by the caller,
consumed in fixed-size chunks, so a given (graph, samples, seed) triple
reproduces bit-for-bit.
"""

import math

import numpy as np

from .errors import ParameterError, SizeError
from .graphs import Graph

_CHUNK = 1 << 18

# Most samples * (1 + vertices + edges) one estimate may cost: 2e8 units take
# about 1.7 s on a 2-core KVM guest, and the default 10^5 samples on the largest
# graph (63 vertices, 1953 edges) come to 2.017e8. The 1 bounds the per-sample
# cost of an empty graph.
MAX_MC_WORK = 250_000_000


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
    rng = np.random.default_rng(seed)
    hits = 0
    remaining = samples
    while remaining:
        m = min(_CHUNK, remaining)
        pts = rng.random((m, g.n))
        ok = np.ones(m, dtype=bool)
        for i, j in edges:
            ok &= pts[:, i] + pts[:, j] <= 1.0
        hits += int(ok.sum())
        remaining -= m
    p = hits / samples
    stderr = math.sqrt(p * (1.0 - p) / samples)
    return p, stderr
