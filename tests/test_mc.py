import pytest

import corpus_util
from polyvol import ParameterError, SizeError, graph_from_dsl, mc_volume, rvf_volume
from polyvol.mc import MAX_MC_WORK


def test_determinism():
    g = graph_from_dsl("cycle:5")
    first = mc_volume(g, 200_000, 123)
    second = mc_volume(g, 200_000, 123)
    assert first == second
    assert first != mc_volume(g, 200_000, 124)


def test_unconstrained_graph():
    estimate, stderr = mc_volume(graph_from_dsl("null:3"), 1000, 7)
    assert estimate == 1.0 and stderr == 0.0


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
    import random

    rng = random.Random(31)
    hits = 0
    for i in range(5):
        g = corpus_util.random_graph(rng, rng.randint(2, 6))
        estimate, stderr = mc_volume(g, 100_000, 1000 + i)
        if abs(estimate - float(rvf_volume(g))) <= 4 * max(stderr, 1e-9):
            hits += 1
    assert hits >= 4
