import gc
import itertools
import random
import time
import tracemalloc
from fractions import Fraction as F
from math import factorial

import pytest

import corpus_util
from polyvol import rvf
from polyvol import (
    SizeError,
    family_volume,
    from_edges,
    graph_from_dsl,
    parse_spec,
    rvf_volume,
)
from polyvol.closed import cycle_volume, path_volume
from polyvol.graphs import _bits, component_masks

CLOSED_FORM_SPECS = (
    [f"path:{n}" for n in range(1, 11)]
    + [f"cycle:{n}" for n in range(3, 11)]
    + [f"complete:{n}" for n in range(1, 11)]
    + [f"kbip:{m},{n}" for m in range(1, 6) for n in range(m, 6)]
    + ["bn:2", "bn:3", "bn:4", "bn:5"]
    + ["njoin(2,null:2)", "njoin(3,null:2)", "njoin(2,null:3)", "njoin(4,null:2)"]
)


def fraction_rvf(g):
    """The paper's recursion vol(G) = sum_i vol(G - i) / (2n) in exact
    fractions, after stripping isolated vertices and splitting components."""
    adj = g.adj
    memo = {}

    def vol(mask):
        for i in _bits(mask):
            if not adj[i] & mask:
                mask &= ~(1 << i)
        result = F(1)
        for comp in component_masks(adj, mask):
            if comp not in memo:
                k = comp.bit_count()
                memo[comp] = sum(vol(comp & ~(1 << i)) for i in _bits(comp)) / (2 * k)
            result *= memo[comp]
        return result

    return vol((1 << g.n) - 1)


def memo_volume(g):
    """rvf by the memo route, whatever the vertex count."""
    return F(rvf._memo_weight(g), factorial(g.n) << g.n)


@pytest.mark.parametrize(
    "dsl,expected",
    [
        ("complete:2", F(1, 2)),
        ("path:3", F(1, 3)),
        ("kbip:1,3", F(1, 4)),
        ("cycle:4", F(1, 6)),
        ("null:4", F(1)),
    ],
)
def test_known_volumes(dsl, expected):
    assert rvf_volume(graph_from_dsl(dsl)) == expected


def test_empty_graph_volume_is_one():
    assert rvf_volume(graph_from_dsl("null:0")) == 1


def test_volume_bounds_on_corpus():
    graphs = corpus_util.corpus(want_bipartite=True, count=10) + corpus_util.corpus(
        want_bipartite=False, count=10
    )
    for g in graphs:
        v = rvf_volume(g)
        assert F(1, 2**g.n) <= v <= 1


def test_edge_monotonicity():
    rng = random.Random(7)
    for _ in range(15):
        n = rng.randint(2, 7)
        g = corpus_util.random_graph(rng, n, p=0.4)
        extra = [
            (i, j)
            for i in range(n)
            for j in range(i + 1, n)
            if not g.has_edge(i, j) and rng.random() < 0.5
        ]
        h = from_edges(n, g.edges() + extra)
        assert rvf_volume(h) <= rvf_volume(g)


def test_component_product_rule():
    rng = random.Random(11)
    for _ in range(10):
        g = corpus_util.random_graph(rng, rng.randint(1, 5))
        h = corpus_util.random_graph(rng, rng.randint(1, 5))
        union = from_edges(
            g.n + h.n, g.edges() + [(u + g.n, v + g.n) for u, v in h.edges()]
        )
        assert rvf_volume(union) == rvf_volume(g) * rvf_volume(h)


def test_agreement_with_closed_forms_up_to_ten_vertices():
    for dsl in CLOSED_FORM_SPECS:
        spec = parse_spec(dsl)
        assert rvf_volume(graph_from_dsl(dsl)) == family_volume(spec), dsl


def test_integer_recursion_matches_fraction_recursion():
    graphs = corpus_util.corpus(want_bipartite=True, count=10) + corpus_util.corpus(
        want_bipartite=False, count=10
    )
    graphs += corpus_util.bipartite_corpus_upto(total=10, count=10)
    graphs += [graph_from_dsl(dsl) for dsl in CLOSED_FORM_SPECS]
    rng = random.Random(corpus_util.MASTER_SEED + 3)
    graphs += [corpus_util.random_graph(rng, rng.randint(7, 11), p=0.35) for _ in range(10)]
    for g in graphs:
        assert rvf_volume(g) == fraction_rvf(g), g.edges()


def test_size_guard():
    with pytest.raises(SizeError):
        rvf_volume(graph_from_dsl("path:27"))


# n = 8k - 1, 8k, 8k + 1: the memo's neighbourhood tables are indexed by mask bytes
CHUNK_EDGE_NS = (7, 8, 9, 15, 16, 17, 23, 24, 25, 26)


@pytest.mark.parametrize(
    "dsl",
    [f"path:{n}" for n in CHUNK_EDGE_NS]
    + [f"cycle:{n}" for n in CHUNK_EDGE_NS]
    + [f"complete:{n}" for n in range(11, 15)]
    + [f"kbip:{m},{n}" for m in range(1, 9) for n in range(m, 17 - m)],
)
def test_agreement_with_closed_forms_past_one_byte(dsl):
    assert rvf_volume(graph_from_dsl(dsl)) == family_volume(parse_spec(dsl))


def scattered_graph(rng, n, p):
    """Two random blocks plus isolated vertices, labels shuffled so that
    every component spreads over both bytes of the vertex mask."""
    isolated = rng.randint(0, min(3, n - 4))
    split = rng.randint(2, n - isolated - 2)
    blocks = (range(split), range(split, n - isolated))
    edges = [
        (i, j) for b in blocks for i in b for j in b if i < j and rng.random() < p
    ]
    label = list(range(n))
    rng.shuffle(label)
    return from_edges(n, [(label[i], label[j]) for i, j in edges])


def test_integer_recursion_matches_fraction_recursion_past_one_byte():
    rng = random.Random(corpus_util.MASTER_SEED + 7)
    graphs = [corpus_util.random_graph(rng, rng.randint(12, 15), p=0.25) for _ in range(4)]
    graphs += [scattered_graph(rng, rng.randint(12, 17), p=0.4) for _ in range(6)]
    assert any(not g.adj[v] for g in graphs for v in range(g.n))
    for g in graphs:
        assert rvf_volume(g) == fraction_rvf(g), g.edges()


def test_state_budget_stops_a_star_early(monkeypatch):
    # kbip:1,20 reaches 2^21 vertex sets; the budget is read at call time
    monkeypatch.setattr(rvf, "MAX_RVF_STATES", 10_000)
    assert memo_volume(graph_from_dsl("complete:13")) == F(1, 2**12)
    tracemalloc.start()
    start = time.perf_counter()
    try:
        with pytest.raises(SizeError, match="MAX_RVF_STATES = 10000"):
            rvf_volume(graph_from_dsl("kbip:1,20"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - start < 5
    assert peak < 8 * 2**20


def test_memo_is_freed_without_the_cycle_collector():
    # a memo left in a reference cycle lives until the next full collection,
    # so back-to-back calls would hold several memos at once
    cycle = graph_from_dsl("cycle:18")
    gc.collect()
    gc.disable()
    try:
        assert rvf_volume(graph_from_dsl("complete:12")) == F(1, 2**11)
        assert rvf_volume(cycle) == cycle_volume(18)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_dense_route_matches_the_memo_on_every_graph_up_to_five_vertices():
    for n in range(6):
        pairs = list(itertools.combinations(range(n), 2))
        for keep in itertools.product((False, True), repeat=len(pairs)):
            g = from_edges(n, list(itertools.compress(pairs, keep)))
            assert rvf_volume(g) == memo_volume(g), g.edges()


def test_dense_route_matches_the_memo_up_to_dense_n():
    rng = random.Random(corpus_util.MASTER_SEED + 10)
    graphs = [
        scattered_graph(rng, n, p)
        for n in range(6, rvf.DENSE_N + 1)
        for p in (0.3, 0.6)
    ]
    assert any(not g.adj[v] for g in graphs for v in range(g.n))
    for g in graphs:
        assert rvf_volume(g) == memo_volume(g), g.edges()


def test_dense_n_is_the_largest_n_whose_weights_fit_int64():
    # W peaks on the null graph at 2^n n!
    n = rvf.DENSE_N
    assert 2**n * factorial(n) < 2**63 <= 2 ** (n + 1) * factorial(n + 1)


@pytest.mark.parametrize("dsl", ["null:16", "edges:16:", "complete:16", "kbip:8,8"])
def test_int64_edge(dsl):
    g = graph_from_dsl(dsl)
    expected = 1 if dsl in ("null:16", "edges:16:") else family_volume(parse_spec(dsl))
    assert rvf_volume(g) == expected


@pytest.mark.parametrize("n", [rvf.DENSE_N, rvf.DENSE_N + 1])
@pytest.mark.parametrize("family", ["path", "cycle"])
def test_routes_meet_at_dense_n(monkeypatch, family, n):
    # the route a graph does not take must not run
    monkeypatch.setattr(rvf, "_memo_weight" if n <= rvf.DENSE_N else "_dense_weight", None)
    expected = path_volume(n) if family == "path" else cycle_volume(n)
    assert rvf_volume(graph_from_dsl(f"{family}:{n}")) == expected


def test_dense_route_memory_includes_its_tables():
    rvf._layers.cache_clear()
    tracemalloc.start()
    try:
        assert rvf_volume(graph_from_dsl("complete:16")) == F(1, 2**15)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


@pytest.mark.parametrize("n", [1, 5, 13])
def test_layer_tables_take_n_plus_4_times_2_to_the_n_plus_2_bytes(n):
    # the popcount order, its inverse, and n 2^(n-1) positions of sets less
    # one vertex, 8 bytes each
    order, rank, subs = rvf._layers(n)
    assert sum(a.nbytes for a in (order, rank, *subs)) == (n + 4) * 2 ** (n + 2)
    assert sorted(order.tolist()) == list(range(1 << n))
    assert all(rank[order[p]] == p for p in range(1 << n))
