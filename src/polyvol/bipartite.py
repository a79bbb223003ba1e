"""Exact bipartite volumes by the order-cell sum.

Sorting the side-V1 coordinates splits the cube into n! order cells; on
each cell the integrand is a monomial whose exponents are the counts
alpha_i of V2-vertices that first see a neighbor at sorted position i.
Each cell then integrates to a product of reciprocals, and symmetric
graphs collapse the sum to a single term times n!.

The reciprocal at position i depends only on the set S of the first i
vertices: it is 1/d(S) with d(S) = |S| + #{w in V2 : N(w) meets S}. So
the n! terms fold into a recursion over subsets,
f(S) = sum_{v in S} f(S - v) / d(S), with vol = f(V1).
"""

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from .errors import MethodNotApplicable, SizeError
from .graphs import Graph, bipartition, strip_isolated, _bits

# the subset recursion visits 2^n sets of side V1; `auto` uses the same cap
MAX_PERM_SIDE = 16


@dataclass(frozen=True)
class BipartiteGraph:
    n: int  # size of side V1, vertices 0..n-1
    neighborhoods: tuple  # one frozenset per V2-vertex, subset of 0..n-1

    def __post_init__(self):
        # empty neighborhoods contribute a factor 1 and are dropped up front
        object.__setattr__(
            self, "neighborhoods", tuple(s for s in self.neighborhoods if s)
        )


def from_graph(g: Graph) -> BipartiteGraph:
    """Orient a bipartite graph: V1 = the smaller side (ties broken toward
    the side holding the lowest-index vertex), isolated vertices stripped."""
    stripped, _ = strip_isolated(g)
    sides = bipartition(stripped)
    if sides is None:
        raise MethodNotApplicable("graph is not bipartite")
    a, b = sides
    if len(a) != len(b):
        v1 = a if len(a) < len(b) else b
    else:
        v1 = a if (not a and not b) or min(a | {stripped.n}) < min(b | {stripped.n}) else b
    v2 = (a | b) - v1
    index = {v: k for k, v in enumerate(sorted(v1))}
    hoods = tuple(
        frozenset(index[u] for u in _bits(stripped.adj[w])) for w in sorted(v2)
    )
    return BipartiteGraph(len(v1), hoods)


def alpha_profile(b: BipartiteGraph, sigma) -> list:
    """alpha_i = number of V2-vertices whose earliest neighbor under the
    ordering sigma (sigma[i] = vertex at position i) sits at position i."""
    position = {v: i for i, v in enumerate(sigma)}
    alphas = [0] * b.n
    for hood in b.neighborhoods:
        alphas[min(position[v] for v in hood)] += 1
    return alphas


def _cell_product(alphas) -> Fraction:
    value = Fraction(1)
    running = 0
    for i, a in enumerate(alphas, start=1):
        running += a
        value /= i + running
    return value


def perm_volume(b: BipartiteGraph) -> Fraction:
    """Exact volume as the order-cell sum, by the subset recursion run on
    the integers h(S) = N! f(S), N = d(V1): each chain term is 1 over a
    product of distinct d-values <= N, so every division below is exact."""
    n = b.n
    if n > MAX_PERM_SIDE:
        raise SizeError(
            f"side V1 has {n} vertices; the order-cell sum is capped at "
            f"{MAX_PERM_SIDE}"
        )
    # reach[v]: v itself (bit v) and its V2-neighbors (bits n and up)
    reach = [1 << v for v in range(n)]
    for w, hood in enumerate(b.neighborhoods):
        for v in hood:
            reach[v] |= 1 << (n + w)
    size = 1 << n
    union = [0] * size
    scale = factorial(n + len(b.neighborhoods))
    h = [scale] * size
    for s in range(1, size):
        low = s & -s
        union[s] = union[s ^ low] | reach[low.bit_length() - 1]
        total = 0
        rest = s
        while rest:
            low = rest & -rest
            total += h[s ^ low]
            rest ^= low
        h[s] = total // union[s].bit_count()
    return Fraction(h[size - 1], scale)


def is_side_symmetric(b: BipartiteGraph) -> bool:
    """True iff every relabeling of V1 can be matched by a relabeling of V2.

    Checked on transpositions only, which generate the full symmetric
    group; the condition is multiset equality of the relabeled
    neighborhoods.
    """
    baseline = Counter(b.neighborhoods)
    for i in range(b.n):
        for j in range(i + 1, b.n):
            swapped = Counter(
                frozenset(j if v == i else i if v == j else v for v in hood)
                for hood in b.neighborhoods
            )
            if swapped != baseline:
                return False
    return True


def symmetric_volume(b: BipartiteGraph) -> Fraction:
    """n! times the identity-ordering cell product; requires symmetry."""
    if not is_side_symmetric(b):
        raise MethodNotApplicable("graph is not side-symmetric")
    value = _cell_product(alpha_profile(b, list(range(b.n))))
    for i in range(2, b.n + 1):
        value *= i
    return value
