import random
from fractions import Fraction as F

import pytest

import corpus_util
from polyvol import (
    ParameterError,
    SizeError,
    family_volume,
    from_edges,
    graph_from_dsl,
    parse_spec,
    rvf_volume,
)
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


def test_env_var_lowers_but_never_raises_guard(monkeypatch):
    monkeypatch.setenv("POLYVOL_MAX_N", "5")
    with pytest.raises(SizeError):
        rvf_volume(graph_from_dsl("path:6"))
    monkeypatch.setenv("POLYVOL_MAX_N", "99")
    with pytest.raises(SizeError):
        rvf_volume(graph_from_dsl("path:27"))
    assert rvf_volume(graph_from_dsl("path:5")) == F(2, 15)


@pytest.mark.parametrize("value", ["abc", "-1", "", "2.5", "²"])
def test_invalid_env_var_is_rejected(monkeypatch, value):
    monkeypatch.setenv("POLYVOL_MAX_N", value)
    with pytest.raises(ParameterError, match="POLYVOL_MAX_N"):
        rvf_volume(graph_from_dsl("path:3"))
