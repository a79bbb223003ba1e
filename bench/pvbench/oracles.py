"""Independent computations the benchmark checks polyvol's outputs against.

Standard library only, and written apart from the package: nothing here
imports polyvol. A graph is a pair (n, edges) with edges a list of
(u, v) pairs on vertices 0..n-1.
"""

import math
import random
from fractions import Fraction
from functools import lru_cache


def adjacency(n, edges):
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return adj


def two_coloring(n, edges):
    """(side 0, side 1) as vertex lists, or None if the graph has an odd cycle."""
    adj = adjacency(n, edges)
    color = [-1] * n
    for s in range(n):
        if color[s] != -1:
            continue
        color[s] = 0
        stack = [s]
        while stack:
            u = stack.pop()
            for v in range(n):
                if adj[u] >> v & 1:
                    if color[v] == -1:
                        color[v] = 1 - color[u]
                        stack.append(v)
                    elif color[v] == color[u]:
                        return None
    return [v for v in range(n) if color[v] == 0], [v for v in range(n) if color[v] == 1]


def recursion_volume(n, edges):
    """vol(P(G)) by the paper's recursion vol(G) = sum_i vol(G - i) / (2n)
    for graphs without isolated vertices, run over every vertex subset in
    integer form: W(S) = 2^|S| |S|! vol(G[S]) satisfies W(S) = sum_i W(S - i)
    when G[S] has no isolated vertex, and an isolated vertex only rescales."""
    adj = adjacency(n, edges)
    w = [0] * (1 << n)
    w[0] = 1
    for mask in range(1, 1 << n):
        core = mask
        rest = mask
        while rest:
            low = rest & -rest
            rest ^= low
            if not adj[low.bit_length() - 1] & mask:
                core ^= low
        k = mask.bit_count()
        if core != mask:
            # vol(S) = vol(core): rescale W(core) from |core| to |S| vertices
            c = core.bit_count()
            w[mask] = w[core] * 2 ** (k - c) * math.factorial(k) // math.factorial(c)
            continue
        total = 0
        rest = mask
        while rest:
            low = rest & -rest
            rest ^= low
            total += w[mask ^ low]
        w[mask] = total
    return Fraction(w[-1], 2 ** n * math.factorial(n))


def linear_extension_volume(n, edges):
    """vol(P(G)) = e(P) / n! for a bipartite G, where P is the poset with
    i < j for every edge ij, the smaller side below the other; e(P) is
    counted by a DP over the down-sets of P. A down-set is a set S of
    low elements plus j high elements whose neighbours all lie in S; the
    high elements are maximal, so down-sets with the same S and j have
    the same number of extensions, and the state is (S, j)."""
    sides = two_coloring(n, edges)
    if sides is None:
        raise ValueError("graph is not bipartite")
    low, high = sorted(sides, key=len)
    bit = {v: 1 << i for i, v in enumerate(low)}
    below = dict.fromkeys(high, 0)  # high element -> its low neighbours
    for u, v in edges:
        if u in below:
            u, v = v, u
        below[v] |= bit[u]
    k, full = len(low), (1 << len(low)) - 1
    ready = [sum(1 for need in below.values() if not need & ~s) for s in range(full + 1)]
    ways = [[0] * (len(high) + 1) for _ in range(full + 1)]
    ways[0][0] = 1
    for s in range(full + 1):  # every S comes before its supersets
        for j in range(ready[s] + 1):
            w = ways[s][j]
            if not w:
                continue
            if j < ready[s]:  # place one of the ready_S - j unplaced high elements
                ways[s][j + 1] += w * (ready[s] - j)
            for i in range(k):  # place a low element
                if not s >> i & 1:
                    ways[s | 1 << i][j] += w
    return Fraction(ways[full][len(high)], math.factorial(n))


def independent_sets(n, edges):
    """Number of vertex subsets spanning no edge (the lattice points at t = 1)."""
    adj = adjacency(n, edges)
    return sum(
        1
        for mask in range(1 << n)
        if all(not (mask >> v & 1 and adj[v] & mask) for v in range(n))
    )


def lattice_points(n, edges, t):
    """Integer points of [0,t]^n with x_i + x_j <= t per edge, by a DP that
    places vertices in label order and memoizes on the remaining bounds."""
    adj = adjacency(n, edges)

    @lru_cache(maxsize=None)
    def count(i, bounds):
        if i == n:
            return 1
        total = 0
        for x in range(bounds[0] + 1):
            cap = t - x
            nxt = tuple(
                min(b, cap) if adj[i] >> (i + 1 + k) & 1 else b
                for k, b in enumerate(bounds[1:])
            )
            total += count(i + 1, nxt)
        return total

    return count(0, (t,) * n) if n else 1


def connected_states(n, edges):
    """(states, work): the number of connected induced subgraphs with at
    least two vertices -- the memo states of the recursion -- and the sum
    of their sizes, which is the number of deletions the recursion makes."""
    adj = adjacency(n, edges)
    conn = bytearray(1 << n)
    states = work = 0
    for mask in range(1, 1 << n):
        if mask & (mask - 1) == 0:
            conn[mask] = 1
            continue
        rest = mask
        while rest:
            bit = rest & -rest
            rest ^= bit
            # a connected set minus a non-cut vertex stays connected
            if conn[mask ^ bit] and adj[bit.bit_length() - 1] & mask:
                conn[mask] = 1
                states += 1
                work += mask.bit_count()
                break
    return states, work


def zigzag_numbers(n_max):
    """E_0..E_N (1, 1, 1, 2, 5, 16, 61, ...) by the Seidel-Entringer triangle."""
    out = [1]
    row = [1]
    for k in range(1, n_max + 1):
        nxt = [0]
        for v in reversed(row):
            nxt.append(nxt[-1] + v)
        row = nxt
        out.append(row[-1])
    return out


def path_volume(n):
    return Fraction(zigzag_numbers(n)[n], math.factorial(n))


def cycle_volume(n):
    return Fraction(zigzag_numbers(n - 1)[n - 1], 2 * math.factorial(n - 1))


def wilson_interval(hits, samples, z=5.0):
    """Score interval for a binomial proportion; valid at hits = 0."""
    p = hits / samples
    denom = 1 + z * z / samples
    centre = (p + z * z / (2 * samples)) / denom
    half = z * math.sqrt(p * (1 - p) / samples + z * z / (4 * samples * samples)) / denom
    return max(0.0, centre - half), min(1.0, centre + half)


def mc_hits(n, edges, samples, seed):
    """Hits of uniform points of [0,1]^n inside P(G), drawn with stdlib random."""
    rng = random.Random(seed)
    draw = rng.random
    hits = 0
    for _ in range(samples):
        x = [draw() for _ in range(n)]
        if all(x[u] + x[v] <= 1.0 for u, v in edges):
            hits += 1
    return hits


# -- the named families of the polyvol graph language ------------------------


def family_graph(kind, *args):
    """(n, edges) of a named family: path, cycle, complete, kbip, bn, null."""
    if kind == "null":
        return args[0], []
    if kind == "path":
        n = args[0]
        return n, [(i, i + 1) for i in range(n - 1)]
    if kind == "cycle":
        n = args[0]
        return n, [(i, (i + 1) % n) for i in range(n)]
    if kind == "complete":
        n = args[0]
        return n, [(i, j) for i in range(n) for j in range(i + 1, n)]
    if kind == "kbip":
        a, b = args
        return a + b, [(i, a + j) for i in range(a) for j in range(b)]
    if kind == "bn":
        n = args[0]
        return 2 * n, [(i, n + j) for i in range(n) for j in range(n) if i != j]
    raise ValueError(f"unknown family {kind!r}")


def join(g, h):
    (a, ea), (b, eb) = g, h
    edges = list(ea) + [(u + a, v + a) for u, v in eb]
    edges += [(u, a + v) for u in range(a) for v in range(b)]
    return a + b, edges


def union(g, h):
    (a, ea), (b, eb) = g, h
    return a + b, list(ea) + [(u + a, v + a) for u, v in eb]


def exact_volume(n, edges):
    """The volume by whichever independent route fits the graph."""
    if two_coloring(n, edges) is not None:
        return linear_extension_volume(n, edges)
    return recursion_volume(n, edges)
