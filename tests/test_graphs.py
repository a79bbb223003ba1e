import itertools
import random

import pytest

import corpus_util
from polyvol import (
    DSLError,
    FamilySpec,
    Graph,
    ParameterError,
    BipartiteGraph,
    bipartition,
    build_family,
    from_edges,
    graph_from_dsl,
    from_graph,
    join_graphs,
    lattice_count,
    parse_spec,
    rvf_volume,
)
from polyvol.graphs import MAX_DSL_DEPTH, FAMILIES, component_masks, parse_edge_list

# One more digit than Python's default int-to-string limit lets int() read.
TOO_LONG = "9" * 4301


def delete_vertex(g, i):
    """g - i, vertices above i shifted down by one."""
    if not 0 <= i < g.n:
        raise ParameterError(f"vertex {i} out of range for n={g.n}")
    keep = [v for v in range(g.n) if v != i]
    relabel = {v: k for k, v in enumerate(keep)}
    return from_edges(
        g.n - 1,
        [(relabel[u], relabel[v]) for u, v in g.edges() if u != i and v != i],
    )


def test_path_edges():
    g = graph_from_dsl("path:3")
    assert g.n == 3 and g.edges() == [(0, 1), (1, 2)]


def test_k22_is_a_four_cycle():
    g = graph_from_dsl("kbip:2,2")
    assert g.n == 4 and g.edge_count() == 4
    assert all(g.degree(v) == 2 for v in range(4))
    assert rvf_volume(g) == rvf_volume(graph_from_dsl("cycle:4"))


def test_bn3_shape():
    g = graph_from_dsl("bn:3")
    assert g.n == 6 and g.edge_count() == 6
    assert all(g.degree(v) == 2 for v in range(6))


@pytest.mark.parametrize(
    "bad",
    ["cycle:2", "complete:0", "kbip:0,3", "bn:1", "njoin(0,null:2)"],
)
def test_family_parameter_validation(bad):
    with pytest.raises(ParameterError):
        graph_from_dsl(bad)


def test_delete_middle_of_path():
    g = delete_vertex(graph_from_dsl("path:3"), 1)
    assert g.n == 2 and g.edge_count() == 0


def test_delete_from_complete():
    g = delete_vertex(graph_from_dsl("complete:4"), 2)
    assert g.edges() == graph_from_dsl("complete:3").edges()


def test_delete_from_cycle_gives_path():
    g = delete_vertex(graph_from_dsl("cycle:4"), 0)
    assert sorted(g.edges()) == [(0, 1), (1, 2)] or g.edge_count() == 2


def test_delete_vertex_out_of_range():
    with pytest.raises(ParameterError):
        delete_vertex(graph_from_dsl("path:3"), 3)


def test_join_singletons_gives_edge():
    g = join_graphs(graph_from_dsl("null:1"), graph_from_dsl("null:1"))
    assert g.edges() == [(0, 1)]


def test_join_nulls_matches_complete_bipartite():
    joined = join_graphs(graph_from_dsl("null:2"), graph_from_dsl("null:3"))
    assert joined.edges() == graph_from_dsl("kbip:2,3").edges()


def test_join_completes_gives_complete():
    joined = join_graphs(graph_from_dsl("complete:2"), graph_from_dsl("complete:3"))
    assert joined.edges() == graph_from_dsl("complete:5").edges()


def edge_list_join(g, h):
    """The former join, kept as the oracle: g's edges, h's shifted past g,
    and every pair across, through from_edges."""
    edges = g.edges() + [(u + g.n, v + g.n) for u, v in h.edges()]
    edges += [(u, v + g.n) for u in range(g.n) for v in range(h.n)]
    return from_edges(g.n + h.n, edges)


def test_join_matches_the_edge_list_join():
    rng = random.Random(corpus_util.MASTER_SEED + 41)

    def random_graph():
        n, p = rng.randint(0, 12), rng.random()
        return from_edges(n, [e for e in itertools.combinations(range(n), 2) if rng.random() < p])

    for _ in range(300):
        g, h = random_graph(), random_graph()
        assert join_graphs(g, h) == edge_list_join(g, h)
    path, cycle = graph_from_dsl("path:40"), graph_from_dsl("cycle:23")
    assert join_graphs(path, cycle) == edge_list_join(path, cycle)
    cycle = graph_from_dsl("cycle:24")
    for join in (join_graphs, edge_list_join):
        with pytest.raises(ParameterError, match="vertex count 64 outside 0..63"):
            join(path, cycle)


def test_kernels_read_a_null_graph_as_isolated_vertices():
    g = graph_from_dsl("null:5")
    assert corpus_util.strip_isolated(g)[1] == 5
    assert from_graph(g) == BipartiteGraph(0, ())
    assert [lattice_count(g, t) for t in (0, 1, 3)] == [1, 2**5, 4**5]


def test_kernels_drop_leftover_endpoints():
    g = delete_vertex(graph_from_dsl("path:3"), 1)
    assert corpus_util.strip_isolated(g)[1] == 2
    assert from_graph(g) == BipartiteGraph(0, ())
    assert [lattice_count(g, t) for t in (0, 1, 3)] == [1, 2**2, 4**2]


def test_kernels_without_isolated_vertices_match_the_stripped_graph():
    for dsl in ("complete:3", "path:4", "kbip:2,3"):
        g = graph_from_dsl(dsl)
        stripped, count = corpus_util.strip_isolated(g)
        assert count == 0 and stripped == g
        for t in (1, 4):
            assert lattice_count(g, t) == lattice_count(stripped, t)
        if bipartition(g) is not None:
            assert from_graph(g) == from_graph(stripped)


def test_components_of_broken_path():
    g = delete_vertex(graph_from_dsl("path:3"), 1)
    assert component_masks(g.adj, 0b11) == [0b01, 0b10]


def test_cycle_is_one_component():
    g = graph_from_dsl("cycle:5")
    assert component_masks(g.adj, 0b11111) == [0b11111]


def test_two_disjoint_paths():
    g = from_edges(4, [(0, 1), (2, 3)])
    assert component_masks(g.adj, 0b1111) == [0b0011, 0b1100]
    assert component_masks(g.adj, 0b1011) == [0b0011, 0b1000]


def test_bipartition_of_even_cycle():
    sides = bipartition(graph_from_dsl("cycle:4"))
    assert sides is not None and sorted(map(sorted, sides)) == [[0, 2], [1, 3]]


def test_bipartition_rejects_odd_cycle():
    assert bipartition(graph_from_dsl("cycle:5")) is None


def test_bipartition_of_path3():
    sides = bipartition(graph_from_dsl("path:3"))
    assert sides is not None and sorted(map(sorted, sides)) == [[0, 2], [1]]


def test_explicit_edges_dsl():
    g = graph_from_dsl("edges:4:0-1,2-3")
    assert g.edges() == [(0, 1), (2, 3)]
    assert graph_from_dsl("edges:3:").edge_count() == 0


def test_nested_join_dsl():
    spec = parse_spec("join(null:2,njoin(2,null:1))")
    g = build_family(spec)
    assert g.n == 4 and g.edge_count() == 1 + 2 * 2
    for text in ("join(null:2,njoin(2,null:1))", "njoin(3,join(kbip:1,2,bn:2))",
                 "edges:5:0-1"):
        spec = parse_spec(text)
        assert spec.vertex_count() == build_family(spec).n, text


@pytest.mark.parametrize("kind", sorted(FAMILIES))
def test_every_family_row_parses_builds_and_bounds_its_arguments(kind):
    row = FAMILIES[kind]
    for bump in (0, 1, 3):
        args = tuple(least + bump for least in row.minima)
        text = f"{kind}:{','.join(map(str, args))}"
        spec = parse_spec(text)
        assert str(spec) == text and spec.args == args
        assert build_family(spec).n == row.vertex_count(*args) == spec.vertex_count()
    for i in range(len(row.minima)):
        below = tuple(least - (j == i) for j, least in enumerate(row.minima))
        with pytest.raises(ParameterError):
            FamilySpec(kind, args=below)
        if below[i] >= 0:  # the DSL has no minus sign
            with pytest.raises(ParameterError):
                parse_spec(f"{kind}:{','.join(map(str, below))}")
    with pytest.raises(ParameterError):
        FamilySpec(kind, args=row.minima + (1,))


def test_composite_specs_are_checked_when_made():
    with pytest.raises(ParameterError):
        parse_spec("njoin(0,null:2)")
    with pytest.raises(ParameterError):
        FamilySpec("tree", args=(4,))
    text = "njoin(1,join(null:1,kbip:1,2))"
    assert str(parse_spec(text)) == text


def test_dsl_error_carries_column():
    # numbers are ASCII digits: str.isdigit() also takes '²', which int()
    # rejects, and '٣', which int() reads as 3
    for text, column, message in (
        ("path:x", 6, "expected an integer"),
        ("path:²", 6, "expected an integer"),
        ("path:٣", 6, "expected an integer"),
        ("edges:3:0-²", 11, "expected an integer"),
        ("join(null:2", 12, "expected ','"),
        (":3", 1, "expected a family name"),
        # more digits than int() converts
        (f"path:{TOO_LONG}", 6, "too long"),
        (f"edges:3:0-{TOO_LONG}", 11, "too long"),
    ):
        with pytest.raises(DSLError, match=message) as err:
            parse_spec(text)
        assert err.value.column == column, text


def nested(depth, wrap, leaf="null:1"):
    """`leaf` inside `depth` brackets of `wrap`, e.g. wrap 'njoin(1,'."""
    return wrap * depth + leaf + ")" * depth


def test_dsl_nesting_is_capped_at_its_column():
    # a chain of 100 single vertices joined one at a time needs 99 levels
    assert MAX_DSL_DEPTH >= 99
    assert parse_spec(nested(MAX_DSL_DEPTH, "join(null:1,")).vertex_count() == MAX_DSL_DEPTH + 1
    for wrap in ("njoin(1,", "join(null:0,"):
        assert build_family(parse_spec(nested(MAX_DSL_DEPTH, wrap))) == Graph(1, (0,))
    # `offset`: where, in the bracket one level past the cap, its first spec starts
    for wrap, offset in (("njoin(1,", 8), ("join(null:0,", 5), ("join(null:1,", 5)):
        text = nested(MAX_DSL_DEPTH, wrap)
        assert str(parse_spec(text)) == text
        for depth in (MAX_DSL_DEPTH + 1, 330, 1000):
            with pytest.raises(DSLError, match="MAX_DSL_DEPTH") as err:
                parse_spec(nested(depth, wrap))
            assert err.value.column == len(wrap) * MAX_DSL_DEPTH + offset + 1, (wrap, depth)


def test_dsl_rejects_unknown_family():
    with pytest.raises(DSLError):
        parse_spec("tree:4")


def test_dsl_rejects_trailing_garbage():
    with pytest.raises(DSLError):
        parse_spec("path:3extra")


def test_edge_list_roundtrip():
    g = parse_edge_list("3 2\n0 1\n1 2\n")
    assert g.edges() == graph_from_dsl("path:3").edges()


def test_edge_list_errors_carry_line():
    # a line with the wrong number of fields fails at column 1, a bad field at its
    # own column in the line as read, an invalid edge at u if u is out of range
    for text, line, column in (
        ("3 2\n0 1\n1 9\n", 3, 3),
        ("nonsense\n", 1, 1), ("3 1\n0 ²\n", 2, 3), ("3 1\n٠ 1\n", 2, 1), ("\n³ 0\n", 2, 1),
        ("3 1\n--1 2\n", 2, 1), ("3 x\n", 1, 3), ("3 1\n0 1 2\n", 2, 1),
        ("", 1, 1), (" \n\n\t\n", 1, 1), ("3 2\n0 1\n", 1, 1),
        (f"{TOO_LONG} 1\n0 1\n", 1, 1), (f"3 1\n0 {TOO_LONG}\n", 2, 3),
        (f"3 1\n-{TOO_LONG} 1\n", 2, 1),
        ("3 1\n0 5\n", 2, 3), ("3 1\n1 1\n", 2, 3), ("3 1\n 4 1\n", 2, 2), ("3 1\n-1 9\n", 2, 1),
        ("3 1\n  0\t\t7\n", 2, 6),
    ):
        with pytest.raises(DSLError) as err:
            parse_edge_list(text)
        assert (err.value.line, err.value.column) == (line, column), text


def test_adjacency_validation():
    with pytest.raises(ParameterError):
        from_edges(2, [(0, 0)])
    with pytest.raises(ParameterError):
        from_edges(2, [(0, 5)])
    for n, adj, message in (
        (2, (0,), "adjacency length"),
        (2, (0b100, 0), "out of range"),
        (2, (0b01, 0), "self-loop"),
        (2, (0b10, 0), "not symmetric"),
        (2, (0, 0b01), "not symmetric"),
        (3, (0b110, 0b001, 0b000), "not symmetric"),
        (3, (0b010, 0b101, 0b000), "not symmetric"),
    ):
        with pytest.raises(ParameterError, match=message):
            Graph(n, adj)
    assert Graph(2, (0b10, 0b01)).edges() == [(0, 1)]


def test_adjacency_symmetry_matches_a_per_bit_check():
    rng = random.Random(7)
    for _ in range(2000):
        n = rng.randint(2, 9)
        edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.4]
        adj = list(from_edges(n, edges).adj)
        for _ in range(rng.randint(0, 2)):  # flip a few off-diagonal bits
            i, j = rng.sample(range(n), 2)
            adj[i] ^= 1 << j
        symmetric = all(adj[j] >> i & 1 for i in range(n) for j in range(n) if adj[i] >> j & 1)
        if symmetric:
            assert Graph(n, tuple(adj)).adj == tuple(adj)
        else:
            with pytest.raises(ParameterError, match="not symmetric"):
                Graph(n, tuple(adj))


def test_random_corpus_graphs_are_valid():
    for g in corpus_util.corpus(want_bipartite=False, count=5):
        for u, v in g.edges():
            assert g.has_edge(u, v) and g.has_edge(v, u)
