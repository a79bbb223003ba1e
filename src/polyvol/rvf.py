"""Exact volume of any graph polytope by the recursive vertex-deletion
formula, memoized over vertex-subset bitmasks.

For a graph without isolated vertices, the volume equals the average of
the facet volumes vol(G - i) over all n vertices, divided by 2. Isolated
vertices (a free coordinate integrates to 1) and connected components
split off as factors, so only connected vertex sets are memoized. The
cost grows with the number of connected induced subgraphs, which
HARD_MAX_N bounds only loosely.
"""

import os
from fractions import Fraction
from math import factorial

from .errors import ParameterError, SizeError
from .graphs import Graph, component_masks

HARD_MAX_N = 26


def size_limit() -> int:
    """Vertex-count ceiling; POLYVOL_MAX_N may lower (never raise) it."""
    env = os.environ.get("POLYVOL_MAX_N")
    if env is None:
        return HARD_MAX_N
    if not (env.isascii() and env.isdigit()):
        raise ParameterError(
            f"POLYVOL_MAX_N must be a non-negative integer, got {env!r}"
        )
    return min(HARD_MAX_N, int(env))


def rvf_volume(g: Graph) -> Fraction:
    """Exact vol(P(G)) for an arbitrary simple graph.

    The recursion runs on the integers W(S) = 2^|S| |S|! vol(S). For a
    connected S of k >= 2 vertices, vol(S) = sum_i vol(S - i) / (2k)
    becomes W(S) = sum_i W(S - i); a vertex set T with components C_j
    (isolated vertices included, W = 2 each) has
    W(T) = |T|! / prod |C_j|! * prod W(C_j).
    """
    limit = size_limit()
    n = g.n
    if n > limit:
        raise SizeError(
            f"graph has {n} vertices; the recursive method is capped at {limit}"
        )
    adj = g.adj
    fact = [factorial(k) for k in range(n + 1)]
    # connected vertex sets -> W; singletons seeded, the rest filled on demand
    memo = {1 << v: 2 for v in range(n)}

    def weight(mask: int) -> int:
        """W(mask) for any vertex set."""
        if not mask:
            return 1
        cached = memo.get(mask)
        if cached is not None:
            return cached
        comps = component_masks(adj, mask)
        if len(comps) == 1:
            total = 0
            rest = mask
            while rest:
                low = rest & -rest
                total += weight(mask ^ low)
                rest ^= low
            memo[mask] = total
            return total
        coef = fact[mask.bit_count()]
        for comp in comps:
            coef //= fact[comp.bit_count()]
        for comp in comps:
            coef *= weight(comp)
        return coef

    return Fraction(weight((1 << n) - 1), fact[n] << n)
