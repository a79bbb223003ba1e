"""Exact volume of any graph polytope by the recursive vertex-deletion
formula, memoized over vertex-subset bitmasks.

For a graph without isolated vertices, the volume equals the average of
the facet volumes vol(G - i) over all n vertices, divided by 2. A
disconnected vertex set splits into the component of its lowest vertex
and the rest, each a factor, so isolated vertices (a free coordinate
integrates to 1) fall out too. Every vertex set the recursion reaches,
connected or not, is memoized, so each one is decomposed at most once.

Two caps guard the kernel: MAX_RVF_N on the vertex count, and
MAX_RVF_STATES on the memo (about 100 bytes per entry), which bounds
the memory of graphs with many connected induced subgraphs, such as
stars and dense graphs, below that vertex count.
"""

from fractions import Fraction
from math import comb, factorial

from .errors import SizeError
from .graphs import Graph

MAX_RVF_N = 26
MAX_RVF_STATES = 1 << 20


def _byte_tables(adj, n):
    """tables[k][b] = union of the neighbourhoods of vertices 8k + i, i in b."""
    tables = []
    for base in range(0, n, 8):
        table = [0] * 256
        for b in range(1, 256):
            low = b & -b
            v = base + low.bit_length() - 1
            table[b] = table[b ^ low] | (adj[v] if v < n else 0)
        tables.append(table)
    return tables


def rvf_volume(g: Graph) -> Fraction:
    """Exact vol(P(G)) for an arbitrary simple graph.

    The recursion runs on the integers W(S) = 2^|S| |S|! vol(S). For a
    connected S of k >= 2 vertices, vol(S) = sum_i vol(S - i) / (2k)
    becomes W(S) = sum_i W(S - i); a vertex set S whose lowest vertex
    lies in the component C != S has W(S) = C(|S|, |C|) W(C) W(S - C),
    and a single vertex has W = 2.
    """
    n = g.n
    if n > MAX_RVF_N:
        raise SizeError(
            f"graph has {n} vertices; the recursive method is capped at {MAX_RVF_N}"
        )
    budget = MAX_RVF_STATES
    adj = g.adj
    tables = _byte_tables(adj, n)
    memo = {0: 1}
    memo.update((1 << v, 2) for v in range(n))

    def weight(mask: int) -> int:
        """W(mask) for a vertex set not yet in the memo."""
        low = mask & -mask
        comp = low | (adj[low.bit_length() - 1] & mask)
        frontier = comp ^ low
        while frontier:
            reach = 0
            for table in tables:
                reach |= table[frontier & 255]
                frontier >>= 8
                if not frontier:
                    break
            frontier = reach & mask & ~comp
            comp |= frontier
        # every W is a positive integer, so `memo.get(s) or weight(s)` looks up first
        if comp == mask:
            total = 0
            rest = mask
            while rest:
                low = rest & -rest
                sub = mask ^ low
                total += memo.get(sub) or weight(sub)
                rest ^= low
        else:
            rest = mask ^ comp
            total = comb(mask.bit_count(), comp.bit_count())
            total *= memo.get(comp) or weight(comp)
            total *= memo.get(rest) or weight(rest)
        if len(memo) >= budget:
            raise SizeError(
                f"rvf memo passed MAX_RVF_STATES = {budget} vertex sets; "
                "the graph has too many connected induced subgraphs"
            )
        memo[mask] = total
        return total

    full = (1 << n) - 1
    try:
        return Fraction(memo.get(full) or weight(full), factorial(n) << n)
    finally:
        # weight's closure holds weight itself; emptying that cell frees the
        # memo now rather than at the next cyclic garbage collection
        del weight
