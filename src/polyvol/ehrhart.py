"""Lattice-point counting in dilates of the graph polytope, polynomial
interpolation of the counting function, and volume extraction.

For bipartite graphs the polytope has 0/1 vertices, so the count is a
polynomial in the dilation factor t and n+1 samples pin it down. For
non-bipartite graphs vertices are half-integral; sampling even dilations
only (t = 2s) keeps a single polynomial, in s, and the leading
coefficient then carries an extra factor 2^n.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial, prod

from .errors import MethodNotApplicable, ParameterError, SizeError
from .graphs import Graph, bipartition, connected_components, strip_isolated, _bits
from .poly import Polynomial, interpolate

MAX_FIT_N = 10
# Value iterations one lattice_count call may spend in the frontier DP:
# each new memo entry adds b0 + 1, the number of values of its vertex.
MAX_COUNT_WORK = 10_000_000


def lattice_count(g: Graph, t: int) -> int:
    """Number of integer vectors in [0,t]^n with x_i + x_j <= t per edge.

    Raises SizeError when the count needs more than MAX_COUNT_WORK value
    iterations.
    """
    if t < 0:
        raise ParameterError("dilation factor must be >= 0")
    stripped, isolated = strip_isolated(g)
    total = (t + 1) ** isolated
    work_left = MAX_COUNT_WORK
    for comp in connected_components(stripped):
        count, work_left = _count_connected(comp, t, work_left)
        total *= count
    return total


def _vertex_order(g: Graph) -> list:
    """Greedy order that keeps few distinct bounds among the unplaced vertices.

    An unplaced vertex u is bounded by t - max(values on N(u) & placed), so
    unplaced vertices with the same placed neighbourhood share one bound.
    Each step places the vertex that leaves the fewest such neighbourhoods,
    then the fewest unplaced vertices with a placed neighbour.
    """
    order = []
    placed = 0

    def cost(v):
        now = placed | 1 << v
        touched = [
            g.adj[u] & now for u in range(g.n) if g.adj[u] & now and not now >> u & 1
        ]
        ties = (-(g.adj[v] & placed).bit_count(), -g.degree(v), v)
        return (len(set(touched)), len(touched), *ties)

    for _ in range(g.n):
        best = min((v for v in range(g.n) if not placed >> v & 1), key=cost)
        order.append(best)
        placed |= 1 << best
    return order


def _count_connected(g: Graph, t: int, work_left: int) -> tuple:
    """(count, work left) by a memoized DP along `_vertex_order`.

    The state at position i is the tuple of bounds of the vertices at
    positions i..n-1, each t minus the largest value on its placed
    neighbours. The values of vertex i that cap none of its later
    neighbours all lead to the same child state and are counted at once;
    a tail that induces no edge is the product of (bound + 1).
    """
    n = g.n
    order = _vertex_order(g)
    pos = {v: i for i, v in enumerate(order)}
    # later[i]: the later neighbours of position i, as indices into state[1:]
    later = [
        tuple(pos[u] - i - 1 for u in _bits(g.adj[v]) if pos[u] > i)
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


@dataclass(frozen=True)
class EhrhartFit:
    n: int
    parity: str  # 'integral' or 'even-only'
    poly: Polynomial  # in t if integral, in s = t/2 if even-only


@dataclass(frozen=True)
class HStar:
    coefficients: tuple  # f_0..f_n of the numerator f(x)

    def f_at_one(self) -> int:
        return sum(self.coefficients)


def ehrhart_fit(g: Graph) -> EhrhartFit:
    """Interpolate the lattice-count polynomial through its minimal node set."""
    if g.n > MAX_FIT_N:
        raise SizeError(
            f"graph has {g.n} vertices; Ehrhart fitting is capped at {MAX_FIT_N}"
        )
    nodes = list(range(g.n + 1))
    if bipartition(g) is not None:
        values = [lattice_count(g, t) for t in nodes]
        return EhrhartFit(g.n, "integral", interpolate(nodes, values))
    values = [lattice_count(g, 2 * s) for s in nodes]
    return EhrhartFit(g.n, "even-only", interpolate(nodes, values))


def ehrhart_volume(g: Graph) -> Fraction:
    """Leading coefficient of the fit; the even-only route rescales by 2^n."""
    fit = ehrhart_fit(g)
    if g.n == 0:
        return Fraction(1)
    lead = fit.poly.coeffs[fit.n] if fit.poly.degree == fit.n else Fraction(0)
    if fit.parity == "even-only":
        return lead / 2 ** fit.n
    return lead


def hstar(g: Graph) -> HStar:
    """Numerator coefficients of the Ehrhart series, by the finite binomial
    transform f_k = sum_j (-1)^j C(n+1, j) L(k-j). Bipartite (integral
    polytope) graphs only."""
    if bipartition(g) is None:
        raise MethodNotApplicable("h* numerator requires a bipartite graph")
    if g.n > MAX_FIT_N:
        raise SizeError(
            f"graph has {g.n} vertices; h* extraction is capped at {MAX_FIT_N}"
        )
    n = g.n
    counts = [lattice_count(g, t) for t in range(n + 1)]
    coeffs = tuple(
        sum((-1) ** j * comb(n + 1, j) * counts[k - j] for j in range(k + 1))
        for k in range(n + 1)
    )
    return HStar(coeffs)


def hstar_volume(g: Graph) -> Fraction:
    """f(1)/n!, the volume as read off the h* numerator."""
    return Fraction(hstar(g).f_at_one(), factorial(g.n))
