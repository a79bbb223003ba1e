import random
from fractions import Fraction as F
from itertools import permutations
from math import comb

import pytest

import corpus_util
from polyvol import (
    BipartiteGraph,
    MethodNotApplicable,
    SizeError,
    alpha_profile,
    from_edges,
    from_graph,
    graph_from_dsl,
    is_side_symmetric,
    perm_volume,
    rvf_volume,
    symmetric_volume,
)
from polyvol.bipartite import MAX_PERM_SIDE, _cell_product


def perm_sum_oracle(b: BipartiteGraph) -> F:
    """The paper's order-cell sum, term by term over all n! orderings."""
    total = F(0)
    for sigma in permutations(range(b.n)):
        total += _cell_product(alpha_profile(b, sigma))
    return total


def small_side_corpus(count=30, seed=29):
    """Random bipartite graphs whose side V1 has at most 8 vertices; most
    are small so that the n!-term oracle and rvf stay cheap."""
    rng = random.Random(corpus_util.MASTER_SEED + seed)
    out = []
    for k in range(count):
        a = 8 if k == 0 else 7 if k == 1 else rng.randint(1, 6)
        b = rng.randint(a, max(a, 14 - a))
        p = rng.choice((0.3, 0.5, 0.8))
        edges = [(i, a + j) for i in range(a) for j in range(b) if rng.random() < p]
        out.append(from_edges(a + b, edges))
    return out


def test_from_graph_kbip23():
    b = from_graph(graph_from_dsl("kbip:2,3"))
    assert b.n == 2
    assert b.neighborhoods == (frozenset({0, 1}),) * 3


def test_from_graph_path3_uses_smaller_side():
    # sides are {0,2} and {1}; the singleton side becomes V1
    b = from_graph(graph_from_dsl("path:3"))
    assert b.n == 1
    assert b.neighborhoods == (frozenset({0}), frozenset({0}))


def test_from_graph_rejects_odd_cycle():
    with pytest.raises(MethodNotApplicable):
        from_graph(graph_from_dsl("cycle:5"))


def test_from_graph_strips_isolated():
    b = from_graph(graph_from_dsl("null:4"))
    assert b.n == 0 and b.neighborhoods == ()
    assert perm_volume(b) == 1


def test_empty_neighborhoods_dropped_on_construction():
    b = BipartiteGraph(2, (frozenset(), frozenset({0})))
    assert b.neighborhoods == (frozenset({0}),)


def test_alpha_profile_k23():
    b = from_graph(graph_from_dsl("kbip:2,3"))
    for sigma in permutations(range(2)):
        assert alpha_profile(b, sigma) == [3, 0]


def test_alpha_profile_path3():
    b = from_graph(graph_from_dsl("path:3"))
    assert alpha_profile(b, (0,)) == [2]


def test_alpha_profile_bn3_identity():
    b = from_graph(graph_from_dsl("bn:3"))
    assert alpha_profile(b, (0, 1, 2)) == [2, 1, 0]


def test_alpha_sums_to_v2_size():
    for g in corpus_util.bipartite_corpus_upto(total=8, count=8):
        b = from_graph(g)
        for sigma in permutations(range(b.n)):
            assert sum(alpha_profile(b, sigma)) == len(b.neighborhoods)


def test_perm_volume_examples():
    assert perm_volume(from_graph(graph_from_dsl("path:3"))) == F(1, 3)
    assert perm_volume(from_graph(graph_from_dsl("kbip:2,3"))) == F(1, 10)
    assert perm_volume(from_graph(graph_from_dsl("bn:3"))) == F(1, 15)


def test_perm_volume_size_guard():
    with pytest.raises(SizeError):
        perm_volume(BipartiteGraph(MAX_PERM_SIDE + 1, (frozenset({0}),)))


def test_side_symmetry_examples():
    assert is_side_symmetric(from_graph(graph_from_dsl("kbip:3,4")))
    assert is_side_symmetric(from_graph(graph_from_dsl("bn:3")))
    assert not is_side_symmetric(from_graph(graph_from_dsl("path:4")))


def test_symmetric_volume_examples():
    assert symmetric_volume(from_graph(graph_from_dsl("kbip:2,3"))) == F(1, 10)
    assert symmetric_volume(from_graph(graph_from_dsl("bn:3"))) == F(1, 15)
    assert symmetric_volume(from_graph(graph_from_dsl("bn:4"))) == F(1, 56)


def test_symmetric_volume_rejects_asymmetric():
    with pytest.raises(MethodNotApplicable):
        symmetric_volume(from_graph(graph_from_dsl("path:4")))


def test_symmetry_implies_constant_alpha_and_agreement():
    for dsl in ("kbip:2,3", "kbip:4,4", "bn:3", "bn:4", "bn:5"):
        b = from_graph(graph_from_dsl(dsl))
        assert b.n <= 5 and is_side_symmetric(b)
        profiles = {tuple(alpha_profile(b, s)) for s in permutations(range(b.n))}
        assert len(profiles) == 1
        assert symmetric_volume(b) == perm_volume(b)


def test_bn_closed_form():
    for n in range(2, MAX_PERM_SIDE + 1):
        b = from_graph(graph_from_dsl(f"bn:{n}"))
        assert perm_volume(b) == (1 + F(1, n)) / comb(2 * n, n)


def test_perm_agrees_with_rvf_on_corpus():
    graphs = corpus_util.corpus(want_bipartite=True, count=15)
    graphs += corpus_util.bipartite_corpus_upto(total=10, count=10)
    for g in graphs:
        assert perm_volume(from_graph(g)) == rvf_volume(g)


def test_subset_recursion_matches_permutation_sum_and_rvf():
    for g in small_side_corpus():
        b = from_graph(g)
        assert b.n <= 8
        assert perm_volume(b) == perm_sum_oracle(b) == rvf_volume(g), g.edges()
