"""Deterministic random-graph corpora shared by the test modules."""

import random

from polyvol import Graph, bipartition, from_edges

MASTER_SEED = 20260826


def random_graph(rng: random.Random, n: int, p: float = 0.5) -> Graph:
    edges = [
        (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p
    ]
    return from_edges(n, edges)


def corpus(want_bipartite: bool, count: int = 25, n_range=(2, 6), seed_offset=0):
    """`count` seeded random graphs of the requested bipartiteness."""
    rng = random.Random(MASTER_SEED + seed_offset)
    out = []
    while len(out) < count:
        n = rng.randint(*n_range)
        g = random_graph(rng, n)
        if (bipartition(g) is not None) == want_bipartite:
            out.append(g)
    return out


def bipartite_corpus_upto(total: int = 10, count: int = 10, seed_offset=1):
    """Random bipartite graphs with up to `total` vertices, built from two
    sides with random cross edges (bipartite by construction)."""
    rng = random.Random(MASTER_SEED + seed_offset)
    out = []
    while len(out) < count:
        a = rng.randint(1, total // 2)
        b = rng.randint(1, total - a)
        edges = [
            (i, a + j) for i in range(a) for j in range(b) if rng.random() < 0.6
        ]
        out.append(from_edges(a + b, edges))
    return out


def strip_isolated(g: Graph):
    """Drop all degree-0 vertices, relabelling the rest in increasing order.

    Returns (stripped graph, number of vertices removed). The kernels skip
    isolated vertices on their own; this rebuilt graph is their oracle.
    """
    keep = [v for v in range(g.n) if g.adj[v]]
    relabel = {v: k for k, v in enumerate(keep)}
    edges = [(relabel[u], relabel[v]) for u, v in g.edges()]
    return from_edges(len(keep), edges), g.n - len(keep)


def scattered_corpus(count: int = 40, seed_offset=11):
    """Graphs of 3-10 vertices with 1-3 isolated vertices scattered among
    the labels. Every other core is bipartite with two sides of equal size
    (a perfect matching plus random cross edges), so both sides of each
    component tie; the others are G(m, p) cores of any bipartiteness."""
    rng = random.Random(MASTER_SEED + seed_offset)
    out = []
    for k in range(count):
        if k % 2:
            a = rng.randint(1, 3)
            edges = [(i, a + j) for i in range(a) for j in range(a)
                     if i == j or rng.random() < 0.4]
            core = from_edges(2 * a, edges)
        else:
            core = random_graph(rng, rng.randint(2, 7), p=rng.choice((0.3, 0.6)))
        n = core.n + rng.randint(1, 3)
        label = list(range(n))
        rng.shuffle(label)
        out.append(from_edges(n, [(label[u], label[v]) for u, v in core.edges()]))
    return out
