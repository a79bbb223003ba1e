"""Lattice-point counting in dilates of the graph polytope, and the counting
polynomial, volume and h* read off the counts at n + 1 dilates.

For bipartite graphs the polytope has 0/1 vertices, so the count is a
polynomial in the dilation factor t, fixed by its values at t = 0..n. For
non-bipartite graphs vertices are half-integral; counting at even dilations
only (t = 2s) keeps one polynomial, in s, whose leading coefficient carries
an extra 2^n. That coefficient, the volume, is the n-th difference of the
counts over n!; h* is their binomial transform.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial, prod

from .errors import MethodNotApplicable, ParameterError, SizeError
from .graphs import Graph, bipartition, component_masks, _bits
from .poly import Polynomial, interpolate

MAX_FIT_N = 10
# Value iterations one lattice_count call may spend in the frontier DP:
# each new memo entry adds b0 + 1, the number of values of its vertex.
MAX_COUNT_WORK = 10_000_000


def lattice_count(g: Graph, t: int) -> int:
    """Number of integer vectors in [0,t]^n with x_i + x_j <= t per edge,
    as a product over the components of the adjacency masks. Raises
    SizeError when t is over MAX_COUNT_WORK, before any work, or when the
    count needs more than MAX_COUNT_WORK value iterations.
    """
    if t < 0:
        raise ParameterError("dilation factor must be >= 0")
    if t > MAX_COUNT_WORK:  # an edge alone spends t + 1; edgeless parts spend none
        raise SizeError(f"dilation factor {t} is over MAX_COUNT_WORK = {MAX_COUNT_WORK}")
    total = 1
    work_left = MAX_COUNT_WORK
    for comp in component_masks(g.adj, (1 << g.n) - 1):
        count, work_left = _count_connected(g.adj, comp, t, work_left)
        total *= count
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
