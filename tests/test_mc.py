import math
import random
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import corpus_util
from polyvol import ParameterError, SizeError, graph_from_dsl, mc_volume, rvf_volume
from polyvol.closed import complete_volume
from polyvol.mc import MAX_MC_WORK


def mc_reference(g, samples, seed):
    """The kernel's layout, kept plain as the oracle: per chunk of
    2^20 // n rows, each vertex with a neighbour in turn (the one with the
    most neighbours drawn so far, ties to the lowest label) draws one value
    for every row still alive, every edge to an earlier vertex is tested,
    and all columns keep the rows that pass. No column is dropped and no
    chunk stops early."""
    order = []
    rest = [v for v in range(g.n) if g.degree(v)]
    while rest:
        v = max(rest, key=lambda u: (sum(g.has_edge(u, w) for w in order), -u))
        order.append(v)
        rest.remove(v)
    rng = np.random.default_rng(seed)
    hits = 0
    remaining = samples
    while remaining:
        alive = min((1 << 20) // max(g.n, 1), remaining)
        remaining -= alive
        cols = {}
        for v in order:
            cols[v] = rng.random(alive)
            ok = np.ones(alive, dtype=bool)
            for u in order[: order.index(v)]:
                if g.has_edge(u, v):
                    ok &= cols[u] + cols[v] <= 1.0
            cols = {u: col[ok] for u, col in cols.items()}
            alive = int(ok.sum())
        hits += alive
    p = hits / samples
    return p, math.sqrt(p * (1.0 - p) / samples)


def _oracle_corpus():
    named = (
        ("null:0", 1000),
        ("null:3", 5000),
        ("null:63", 100_000),
        ("complete:22", 100_000),  # no hits
        ("cycle:5", 500_001),  # not a multiple of the chunk rows
        ("cycle:8", 2**20 // 8 + 1),  # one row past a chunk
        ("kbip:3,4", 2048),
        ("kbip:3,4", 1),
        ("bn:4", 100_000),
        ("path:63", 100_000),
        ("edges:7:0-1,1-2,2-3,3-4,4-5,5-6,6-0,0-3,1-4", 50_000),
        ("edges:63:0-1", 40_000),  # 61 isolated vertices, three chunks
        ("edges:9:7-2,2-5,5-7,8-3,3-0", 30_000),  # two components, two isolated
    )
    cases = [(graph_from_dsl(dsl), samples) for dsl, samples in named]
    rng = random.Random(corpus_util.MASTER_SEED)
    for _ in range(8):
        cases.append((corpus_util.random_graph(rng, rng.randint(2, 12)), 30_000))
    return cases


def test_matches_the_reference_kernel_exactly():
    for seed, (g, samples) in enumerate(_oracle_corpus()):
        expected = mc_reference(g, samples, seed)
        assert mc_volume(g, samples, seed) == expected, (g, samples)


def test_memory_stays_bounded_on_the_largest_graph():
    g = graph_from_dsl("path:63")
    tracemalloc.start()
    try:
        result = mc_volume(g, 10**6, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20
    assert result == mc_reference(g, 10**6, 1)


@pytest.mark.parametrize("dsl", ["complete:63", "kbip:1,62"])
def test_memory_stays_bounded_on_dense_and_star_graphs(dsl):
    g = graph_from_dsl(dsl)
    tracemalloc.start()
    try:
        result = mc_volume(g, 10**5, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20
    assert result == mc_reference(g, 10**5, 1)


class CountingGenerator:
    """Wraps a numpy Generator and counts the values it draws."""

    def __init__(self, rng):
        self.rng = rng
        self.drawn = 0

    def random(self, size):
        self.drawn += size
        return self.rng.random(size)


def counted_draws(monkeypatch, g, samples):
    made = []
    make = np.random.default_rng

    def default_rng(seed):
        made.append(CountingGenerator(make(seed)))
        return made[-1]

    monkeypatch.setattr(np.random, "default_rng", default_rng)
    result = mc_volume(g, samples, 5)
    monkeypatch.undo()
    assert result == mc_reference(g, samples, 5)
    return result, made[0].drawn


def test_draws_only_for_rows_still_alive(monkeypatch):
    # drawing every coordinate would take 2.2e6 values; the rows die within
    # about three vertices
    _, drawn = counted_draws(monkeypatch, graph_from_dsl("complete:22"), 10**5)
    assert drawn <= 4 * 10**5


def test_never_draws_isolated_vertices(monkeypatch):
    # vertex 0 is drawn for every row and vertex 1 for every row it leaves
    # alive, which is all of them; the 61 isolated vertices are never drawn
    samples = 50_001
    _, drawn = counted_draws(monkeypatch, graph_from_dsl("edges:63:0-1"), samples)
    assert drawn == 2 * samples


def in_wilson_interval(value, hits, samples, z=5):
    """Whether value lies in the score interval of hits in samples, the set
    of v with (hits/samples - v)^2 <= z^2 v (1 - v) / samples; unlike a band
    of z standard errors, it has width at 0 hits. Exact rationals."""
    gap = Fraction(hits, samples) - value
    return gap * gap * samples <= z * z * value * (1 - value)


def test_exact_volume_lies_in_the_wilson_interval_of_every_estimate():
    rng = random.Random(corpus_util.MASTER_SEED + 15)
    cases = [(graph_from_dsl("complete:22"), complete_volume(22))]  # 0 hits
    for _ in range(30):
        g = corpus_util.random_graph(rng, rng.randint(2, 12))
        cases.append((g, rvf_volume(g)))
    misses = 0
    for seed, (g, exact) in enumerate(cases):
        samples = 10**5
        estimate, _ = mc_volume(g, samples, seed)
        hits = round(estimate * samples)
        assert in_wilson_interval(exact, hits, samples), (g.edges(), hits, exact)
        misses += hits == 0
    assert misses


def test_determinism():
    g = graph_from_dsl("cycle:5")
    first = mc_volume(g, 200_000, 123)
    second = mc_volume(g, 200_000, 123)
    assert first == second
    assert first != mc_volume(g, 200_000, 124)


def test_unconstrained_graph():
    estimate, stderr = mc_volume(graph_from_dsl("null:3"), 1000, 7)
    assert estimate == 1.0 and stderr == 0.0
    # the most samples the work bound admits on 63 vertices: nothing is drawn
    g = graph_from_dsl("null:63")
    start = time.perf_counter()
    assert mc_volume(g, MAX_MC_WORK // (1 + g.n), 7) == (1.0, 0.0)
    assert time.perf_counter() - start < 0.1


def test_known_area():
    estimate, stderr = mc_volume(graph_from_dsl("complete:2"), 1_000_000, 42)
    assert abs(estimate - 0.5) <= 4 * stderr


def test_cycle5_within_band():
    g = graph_from_dsl("cycle:5")
    estimate, stderr = mc_volume(g, 1_000_000, 2024)
    assert abs(estimate - float(rvf_volume(g))) <= 4 * stderr


def test_sample_validation():
    with pytest.raises(ParameterError):
        mc_volume(graph_from_dsl("path:3"), 0, 1)


def test_work_bound_admits_every_default_call_and_rejects_more():
    # the default 10^5 samples on the largest graph, complete:63
    assert 100_000 * (1 + 63 + 63 * 62 // 2) <= MAX_MC_WORK
    g = graph_from_dsl("cycle:5")
    limit = MAX_MC_WORK // (1 + 5 + 5)
    with pytest.raises(SizeError, match="MAX_MC_WORK"):
        mc_volume(g, limit + 1, 0)
    with pytest.raises(SizeError, match="MAX_MC_WORK"):
        mc_volume(graph_from_dsl("null:0"), MAX_MC_WORK + 1, 0)


def test_band_on_random_graphs_small_run():
    rng = random.Random(31)
    hits = 0
    for i in range(5):
        g = corpus_util.random_graph(rng, rng.randint(2, 6))
        estimate, stderr = mc_volume(g, 100_000, 1000 + i)
        if abs(estimate - float(rvf_volume(g))) <= 4 * max(stderr, 1e-9):
            hits += 1
    assert hits >= 4
