"""Lattice-point counting in dilates of the graph polytope, and the counting
polynomial, volume and h* read off the counts at n + 1 dilates.

For bipartite graphs the polytope has 0/1 vertices, so the count is a
polynomial in the dilation factor t, fixed by its values at t = 0..n. For
non-bipartite graphs vertices are half-integral; counting at even dilations
only (t = 2s) keeps one polynomial, in s, whose leading coefficient carries
an extra 2^n. That coefficient, the volume, is the n-th difference of the
counts over n!; h* is their binomial transform.

The count is a product over the connected components. A component of at
most MAX_FIT_N vertices is counted by the recursive volume formula run on
lattice points. Put z_v = 2x_v - t: a point of the t-dilate is a vector z
in {-t, -t+2, ..., t}^n with z_u + z_v <= 0 on every edge. Let C(S, r)
count such z on the graph induced on S with |z| <= r, r of the parity of t,
and split them by the set T = S - U of vertices at |z| = r. A vertex at
-r meets every constraint, and the vertices at +r form an independent set
P of T with no neighbour in U, since each of their neighbours must sit at
-r. The points on U are any of the C(U, r - 2), so

    C(S, r) = sum over U in S of C(U, r - 2) * i(G[(S - U) - N(U)]),

with C(S, 0) = 1, C(S, -1) = [S empty] and L(t) = C(V, t), where i counts
the independent sets, the empty one included. As r grows, the terms in
which a single vertex v reaches |z| = r outweigh the rest, each with
weight 1 + [v has no neighbour in S]; with C(S, r) ~ vol(S) r^|S| this
gives rvf.py's identity W(S) = sum_v (1 + [v has no neighbour in S])
W(S - v), so the recursion is the RVF on lattice points.

2P is integral, so for t0 in {0, 1} the count L(t0 + 2x) is a polynomial
in x of degree at most k, the number of vertices. The recursion runs to
x = k at most, k + 1 steps from C(S, -1), and a larger x is reached
exactly by Newton's forward differences. The table is int64: it holds
counts at r <= 2k + 1 only, at most (2k + 2)^k <= 22^10 < 2^63, and
every term is at most the C(S, r) it sums to, itself at most C(V, r),
since a point on S extends to V by z = -r.

A component of more than MAX_FIT_N vertices is counted by a memoized
frontier DP along a vertex order instead, which may spend at most
MAX_COUNT_WORK value iterations per call.
"""

from fractions import Fraction
from functools import cache
from math import comb, factorial, prod

from .errors import MethodNotApplicable, ParameterError, SizeError
from .frozen import Frozen, set_field
from .graphs import Graph, bipartition, component_masks, _bits
from .poly import Polynomial, interpolate

# Largest graph fitted, and largest component counted by `_count_table`:
# timed in-process at 10 vertices, the table was at worst 1.3x slower than
# the frontier DP (path:10 at t = 4, 0.33 against 0.26 ms) and up to 65x
# faster on random graphs at t = 20, while at 12 vertices it was 7-10x
# slower on path:12.
MAX_FIT_N = 10
# Value iterations one lattice_count call may spend in the frontier DP, that
# is on components of more than MAX_FIT_N vertices: each new memo entry adds
# b0 + 1, the number of values of its vertex.
MAX_COUNT_WORK = 10_000_000


def lattice_count(g: Graph, t: int) -> int:
    """Number of integer vectors in [0,t]^n with x_i + x_j <= t per edge,
    as a product over the components of the adjacency masks.

    A component of k <= MAX_FIT_N vertices is counted by `_count_table`,
    the RVF on lattice points derived in the module docstring: on
    z = 2x - t, C(S, r) = sum over U in S of C(U, r - 2) i(G[(S - U) -
    N(U)]), run in int64 up to the dilate t0 + 2k at most and carried past
    it exactly by Newton's forward differences, since each parity class of
    the count is a polynomial of degree <= k. It spends no work budget.
    A larger component is counted by the frontier DP, which raises
    SizeError past MAX_COUNT_WORK value iterations; t over MAX_COUNT_WORK
    raises SizeError on every graph, before any work.
    """
    if t < 0:
        raise ParameterError("dilation factor must be >= 0")
    # the frontier DP spends t + 1 on an edge; on every graph the bound also
    # keeps a count within (10^7 + 1)^63, printable in 442 digits
    if t > MAX_COUNT_WORK:
        raise SizeError(f"dilation factor {t} is over MAX_COUNT_WORK = {MAX_COUNT_WORK}")
    total = 1
    work_left = MAX_COUNT_WORK
    for comp in component_masks(g.adj, (1 << g.n) - 1):
        if comp.bit_count() <= MAX_FIT_N:
            total *= _count_table(g.adj, comp, t)
        else:
            count, work_left = _count_connected(g.adj, comp, t, work_left)
            total *= count
    return total


@cache
def _pairs(k):
    """(us, ts, starts) over the 3^k pairs (U, T) of disjoint subsets of k
    vertices, sorted by S = U | T: us and ts hold the masks, and the pairs
    of S start at starts[S]. They depend only on k, so they are built once
    per k and kept: 16 * 3^k + 8 * 2^k bytes, 1.4 MiB for every k up to
    MAX_FIT_N together. Nothing returned is writable."""
    import numpy as np

    us, ts, starts = [], [], []
    for s in range(1 << k):
        starts.append(len(us))
        u = s
        while True:  # every subset u of s, from s down to 0
            us.append(u)
            ts.append(s ^ u)
            if not u:
                break
            u = (u - 1) & s
    arrays = tuple(np.array(a, dtype=np.int64) for a in (us, ts, starts))
    for a in arrays:
        a.flags.writeable = False
    return arrays


def _count_table(adj, comp: int, t: int) -> int:
    """Count on the component `comp` of k <= MAX_FIT_N vertices by the
    recursion over vertex subsets in the module docstring, in at most
    k + 1 steps whatever t is."""
    import numpy as np

    verts = list(_bits(comp))
    k = len(verts)
    size = 1 << k
    if comp == size - 1:  # labelled 0..k-1 already
        masks = adj[:k]
    else:
        local = {u: j for j, u in enumerate(verts)}
        masks = [sum(1 << local[w] for w in _bits(adj[u])) for u in verts]
    nbr = np.zeros(size, dtype=np.int64)  # union of the neighbourhoods of U
    ind = np.ones(size, dtype=np.int64)  # independent sets of G[X]
    sets = np.arange(size)
    for v, a in enumerate(masks):
        low = slice(0, 1 << v)
        high = slice(1 << v, 2 << v)
        nbr[high] = nbr[low] | a
        ind[high] = ind[low] + ind[sets[low] & ~a]
    us, ts, starts = _pairs(k)
    terms = nbr.take(us)
    np.invert(terms, out=terms)
    terms &= ts
    weight = ind.take(terms)  # i(G[T - N(U)]) per pair
    t0, x = t % 2, t // 2
    c = ind if t0 else np.ones(size, dtype=np.int64)  # C(S, t0)
    values = [int(c[-1])]
    steps = min(k, x)
    for _ in range(steps - 1):
        # mode="clip" writes straight into `terms`; "raise" would buffer it
        c.take(us, out=terms, mode="clip")
        terms *= weight
        c = np.add.reduceat(terms, starts)
        values.append(int(c[-1]))
    if steps:  # the last step needs only S = V, whose pairs come last
        values.append(int(c.take(us[-size:]) @ weight[-size:]))
    if x <= k:
        return values[x]
    total, binom = 0, 1
    for j in range(k + 1):
        total += binom * values[0]
        values = [b - a for a, b in zip(values, values[1:])]
        binom = binom * (x - j) // (j + 1)
    return total


def _vertex_order(adj, comp: int) -> list:
    """Greedy order of component `comp` keeping few distinct unplaced bounds.

    An unplaced vertex u is bounded by t - max(values on N(u) & placed), so
    unplaced vertices with the same placed neighbourhood share one bound.
    Each step places the vertex that leaves the fewest such neighbourhoods,
    then the fewest unplaced vertices with a placed neighbour.
    """
    order = []
    placed = 0

    def cost(v):
        now = placed | 1 << v
        touched = [adj[u] & now for u in _bits(comp) if adj[u] & now and not now >> u & 1]
        ties = (-(adj[v] & placed).bit_count(), -adj[v].bit_count(), v)
        return (len(set(touched)), len(touched), *ties)

    for _ in range(comp.bit_count()):
        best = min(_bits(comp & ~placed), key=cost)
        order.append(best)
        placed |= 1 << best
    return order


def _count_connected(adj, comp: int, t: int, work_left: int) -> tuple:
    """(count, work left) on the component `comp` by a memoized DP along
    `_vertex_order`.

    The state at position i is the tuple of bounds of the vertices at
    positions i..n-1, each t minus the largest value on its placed
    neighbours. The values of vertex i that cap none of its later
    neighbours all lead to the same child state and are counted at once;
    a tail that induces no edge is the product of (bound + 1).
    """
    order = _vertex_order(adj, comp)
    n = len(order)
    pos = {v: i for i, v in enumerate(order)}
    # later[i]: the later neighbours of position i, as indices into state[1:]
    later = [
        tuple(pos[u] - i - 1 for u in _bits(adj[v]) if pos[u] > i)
        for i, v in enumerate(order)
    ]
    edgeless = [not any(later[i:]) for i in range(n + 1)]
    memo = {}

    def count(state):
        nonlocal work_left
        i = n - len(state)
        if edgeless[i]:
            return prod(b + 1 for b in state)
        total = memo.get(state)
        if total is not None:
            return total
        b0, rest = state[0], state[1:]
        work_left -= b0 + 1
        if work_left < 0:
            raise SizeError(
                f"counting at t={t} needs more than MAX_COUNT_WORK = "
                f"{MAX_COUNT_WORK} value iterations"
            )
        nb = later[i]
        free = min(b0, t - max((rest[j] for j in nb), default=0))
        total = (free + 1) * count(rest)
        child = list(rest)
        for v in range(free + 1, b0 + 1):
            cap = t - v
            for j in nb:
                if child[j] > cap:
                    child[j] = cap
            total += count(tuple(child))
        memo[state] = total
        return total

    try:
        return count((t,) * n), work_left
    finally:
        del count  # frees the memo now; see rvf_volume


class EhrhartFit(Frozen):
    # parity: 'integral' or 'even-only'; poly: in t if integral, in s = t/2
    # if even-only
    __slots__ = ("n", "parity", "poly")

    def __init__(self, n: int, parity: str, poly: Polynomial):
        set_field(self, "n", n)
        set_field(self, "parity", parity)
        set_field(self, "poly", poly)


class HStar(Frozen):
    __slots__ = ("coefficients",)  # f_0..f_n of the numerator f(x)

    def __init__(self, coefficients: tuple):
        set_field(self, "coefficients", coefficients)

    def f_at_one(self) -> int:
        return sum(self.coefficients)


def _dilate_counts(g: Graph) -> tuple:
    """(parity, counts): L(t) at t = 0..n, or L(2s) at s = 0..n ('even-only')
    when g is not bipartite."""
    if g.n > MAX_FIT_N:
        raise SizeError(
            f"graph has {g.n} vertices; Ehrhart fitting is capped at {MAX_FIT_N}"
        )
    if bipartition(g) is not None:
        return "integral", [lattice_count(g, t) for t in range(g.n + 1)]
    return "even-only", [lattice_count(g, 2 * s) for s in range(g.n + 1)]


def ehrhart_fit(g: Graph) -> EhrhartFit:
    """Interpolate the lattice-count polynomial through its minimal node set."""
    parity, counts = _dilate_counts(g)
    return EhrhartFit(g.n, parity, interpolate(list(range(g.n + 1)), counts))


def ehrhart_volume(g: Graph) -> Fraction:
    """Leading coefficient of the counting polynomial: the n-th forward
    difference of the n + 1 counts over n!, and over 2^n on the even-only
    route."""
    parity, counts = _dilate_counts(g)
    n = g.n
    difference = sum((-1) ** (n - j) * comb(n, j) * c for j, c in enumerate(counts))
    return Fraction(difference, factorial(n) * (2**n if parity == "even-only" else 1))


def hstar(g: Graph) -> HStar:
    """Numerator coefficients of the Ehrhart series, by the finite binomial
    transform f_k = sum_j (-1)^j C(n+1, j) L(k-j) of the n + 1 counts.
    Bipartite (integral polytope) graphs only."""
    if bipartition(g) is None:
        raise MethodNotApplicable("h* numerator requires a bipartite graph")
    _, counts = _dilate_counts(g)
    n = g.n
    coeffs = tuple(
        sum((-1) ** j * comb(n + 1, j) * counts[k - j] for j in range(k + 1))
        for k in range(n + 1)
    )
    return HStar(coeffs)


def hstar_volume(g: Graph) -> Fraction:
    """f(1)/n!, the volume as read off the h* numerator."""
    return Fraction(hstar(g).f_at_one(), factorial(g.n))
