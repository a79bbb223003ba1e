"""Exact volume of any graph polytope by the recursive vertex-deletion
formula, run on integers over vertex-subset bitmasks.

The recursion runs on W(S) = 2^|S| |S|! vol(S), the volume of the graph
induced on the vertex set S scaled to an integer, with W(∅) = 1 and
vol(G) = W(V) / (2^n n!). For a graph without isolated vertices the
volume is the average of the facet volumes vol(G - v) over its n
vertices, divided by 2, i.e. W(S) = Σ_{v∈S} W(S - v). An isolated vertex
is a free coordinate, W(S) = 2|S| W(S - v), and both fold into one
identity over all subsets, connected or not:

    W(S) = Σ_{v∈S} (1 + [v has no neighbour in S]) · W(S - v).

Up to DENSE_N = 16 vertices this identity is evaluated bottom-up over
all 2^n subsets, one popcount layer at a time, in an int64 numpy array
holding W(S) at index S; no component is ever searched for. W is largest
on the null graph, where it reaches 2^n n!, and no sum or product formed
exceeds the W it makes, so the table is exact while 2^n n! < 2^63:
2^16 16! ≈ 1.37e18, while 2^17 17! ≈ 4.7e19 would overflow. The index
tables (each layer's sets and each set less each of its vertices) are
kept once built: (n + 2) · 2^(n+2) - 8 bytes for one n, 0.22 MiB at
n = 12, 0.47 MiB at 13, 4.5 MiB at 16, and 8.5 MiB for all n together.

From 17 to MAX_RVF_N = 26 vertices a memo over the vertex sets the
recursion reaches is used instead. There a disconnected set splits into
the component C of its lowest vertex and the rest, W(S) = C(|S|, |C|)
W(C) W(S - C), so each set is decomposed at most once. MAX_RVF_STATES
caps the memo (about 100 bytes per entry), which bounds the memory of
graphs with many connected induced subgraphs, such as stars and dense
graphs, below that vertex count. The memo holds at least n + 2^d sets,
d the largest degree (∅, the single vertices, and a vertex of degree d
with each nonempty set of its neighbours, all connected and so reached),
and a graph needing more is refused before any work.
"""

from fractions import Fraction
from functools import cache
from math import comb, factorial

from .errors import SizeError
from .graphs import Graph

MAX_RVF_N = 26
MAX_RVF_STATES = 1 << 20
# Largest n whose W fits int64: 2^16 16! < 2^63 < 2^17 17!.
DENSE_N = 16


@cache
def _layers(n):
    """The subsets of n vertices, one entry per popcount layer k = 1..n: the
    layer's sets as increasing bitmasks, and a (k, C(n, k)) array whose
    column j holds the j-th set less each of its vertices: indices of a
    table kept by set, (n + 2) 2^(n+2) - 8 bytes in all. Nothing returned
    is writable."""
    import numpy as np

    every = np.arange(1 << n)
    count = np.bitwise_count(every)
    layers = []
    for k in range(1, n + 1):
        sets = every[count == k]
        rows = np.empty((k, len(sets)), dtype=sets.dtype)
        rest = sets.copy()
        for row in rows:
            low = rest & -rest
            np.bitwise_xor(sets, low, out=row)
            rest ^= low
        sets.flags.writeable = rows.flags.writeable = False
        layers.append((sets, rows))
    return tuple(layers)


def _dense_weight(g: Graph) -> int:
    """W(V) over the table of all 2^n subsets, for n <= DENSE_N, kept at
    index S. With iso(S) = S - N(S) the vertices isolated in S, N(S) the
    union of the neighbourhoods of S, and u the lowest of them,
    W(S) = 2|S| W(S - u), which the row sum of W(S - v) over v in S falls
    short of by |iso(S)| W(S - u); with no isolated vertex W(S) is the row
    sum. So W(S) = max(row sum, 2|S| W(S - u))."""
    import numpy as np

    every = np.arange(1 << g.n)
    nbr = np.zeros_like(every)
    for v, a in enumerate(g.adj):
        np.bitwise_or(nbr[: 1 << v], a, out=nbr[1 << v : 2 << v])
    iso = every & ~nbr
    # with no isolated vertex this is S itself, whose W is still 0 below
    fix = every ^ (iso & -iso)
    w = np.zeros(1 << g.n, dtype=np.int64)
    w[0] = 1
    for k, (sets, rows) in enumerate(_layers(g.n), start=1):
        w[sets] = np.maximum(w.take(rows).sum(axis=0), w.take(fix.take(sets)) * (2 * k))
    return int(w[-1])


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


def _memo_weight(g: Graph) -> int:
    """W(V) by the memo over reached vertex sets, for any n <= MAX_RVF_N.

    A connected S of k >= 2 vertices has W(S) = sum_i W(S - i); a vertex
    set S whose lowest vertex lies in the component C != S has
    W(S) = C(|S|, |C|) W(C) W(S - C), and a single vertex has W = 2.
    """
    n = g.n
    budget = MAX_RVF_STATES
    adj = g.adj
    message = (
        f"rvf memo passed MAX_RVF_STATES = {budget} vertex sets; "
        "the graph has too many connected induced subgraphs"
    )
    if n + (1 << max([a.bit_count() for a in adj], default=0)) > budget:
        raise SizeError(message)
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
            raise SizeError(message)
        memo[mask] = total
        return total

    full = (1 << n) - 1
    try:
        return memo.get(full) or weight(full)
    finally:
        # weight's closure holds weight itself; emptying that cell frees the
        # memo now rather than at the next cyclic garbage collection
        del weight


def rvf_volume(g: Graph) -> Fraction:
    """Exact vol(P(G)) = W(V) / (2^n n!) for an arbitrary simple graph:
    by the table over all subsets up to DENSE_N vertices, by the memo
    above that."""
    n = g.n
    if n > MAX_RVF_N:
        raise SizeError(
            f"graph has {n} vertices; the recursive method is capped at {MAX_RVF_N}"
        )
    weight = _dense_weight(g) if n <= DENSE_N else _memo_weight(g)
    return Fraction(weight, factorial(n) << n)
