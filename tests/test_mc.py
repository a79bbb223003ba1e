import math
import random
import time
import tracemalloc

import numpy as np
import pytest

import corpus_util
from polyvol import ParameterError, SizeError, graph_from_dsl, mc_volume, rvf_volume
from polyvol.mc import MAX_MC_WORK


def mc_reference(g, samples, seed):
    """The former kernel, kept as the oracle: chunks of 2^18 rows, and every
    edge tested on every row."""
    rng = np.random.default_rng(seed)
    hits = 0
    remaining = samples
    while remaining:
        m = min(1 << 18, remaining)
        pts = rng.random((m, g.n))
        ok = np.ones(m, dtype=bool)
        for i, j in g.edges():
            ok &= pts[:, i] + pts[:, j] <= 1.0
        hits += int(ok.sum())
        remaining -= m
    p = hits / samples
    return p, math.sqrt(p * (1.0 - p) / samples)


def _oracle_corpus():
    named = (
        ("null:0", 1000),
        ("null:3", 5000),
        ("null:63", 100_000),
        ("complete:22", 100_000),  # no hits
        ("cycle:5", 500_001),  # a multiple of neither kernel's chunk rows
        ("cycle:8", 2**20 // 8 + 1),  # one row past a chunk
        ("kbip:3,4", 2048),  # too few rows to gather
        ("kbip:3,4", 1),
        ("bn:4", 100_000),
        ("path:63", 100_000),
        ("edges:7:0-1,1-2,2-3,3-4,4-5,5-6,6-0,0-3,1-4", 50_000),
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
