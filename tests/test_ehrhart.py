import gc
import random
from fractions import Fraction as F
from itertools import product
from math import factorial

import pytest

import corpus_util
from polyvol import (
    MethodNotApplicable,
    Polynomial,
    SizeError,
    ehrhart_fit,
    ehrhart_volume,
    from_edges,
    graph_from_dsl,
    hstar,
    hstar_volume,
    lattice_count,
    rvf_volume,
)
from polyvol import ehrhart
from polyvol.cli import main
from polyvol.ehrhart import MAX_COUNT_WORK, MAX_FIT_N
from polyvol.graphs import _bits, bipartition, component_masks


def enumerate_count_oracle(g, t):
    """lattice_count by visiting every lattice point, one vertex at a time:
    each vertex takes every value up to t minus its placed neighbours'
    largest value, and only the last vertex's values are counted at once."""
    if g.n == 0:
        return 1
    # place each vertex next to as many placed ones as possible
    order = []
    placed = 0
    for _ in range(g.n):
        best = max(
            (v for v in range(g.n) if not placed >> v & 1),
            key=lambda v: ((g.adj[v] & placed).bit_count(), g.degree(v), -v),
        )
        order.append(best)
        placed |= 1 << best
    earlier = [
        [order.index(u) for u in _bits(g.adj[v]) if u in order[:pos]]
        for pos, v in enumerate(order)
    ]
    last = g.n - 1
    values = [0] * g.n

    def count_from(pos):
        bound = t
        for j in earlier[pos]:
            bound = min(bound, t - values[j])
        if pos == last:
            return bound + 1
        total = 0
        for v in range(bound + 1):
            values[pos] = v
            total += count_from(pos + 1)
        return total

    return count_from(0)


def test_count_examples():
    assert lattice_count(graph_from_dsl("complete:2"), 2) == 6
    assert lattice_count(graph_from_dsl("cycle:3"), 2) == 11
    for dsl in ("null:3", "path:4", "cycle:5", "complete:4"):
        assert lattice_count(graph_from_dsl(dsl), 0) == 1


def test_count_null_graph():
    assert lattice_count(graph_from_dsl("null:3"), 2) == 27


def test_count_brute_force_cross_check():
    # independent oracle: full enumeration of [0,t]^n
    rng = random.Random(5)
    for _ in range(6):
        g = corpus_util.random_graph(rng, rng.randint(1, 4))
        for t in (1, 2, 3):
            brute = sum(
                1
                for point in product(range(t + 1), repeat=g.n)
                if all(point[u] + point[v] <= t for u, v in g.edges())
            )
            assert lattice_count(g, t) == brute


def oracle_corpus():
    """60 seeded graphs with n <= 7, sparse ones (isolated vertices, several
    components) through dense ones."""
    rng = random.Random(corpus_util.MASTER_SEED + 5)
    densities = (0.15, 0.35, 0.6, 0.85)
    return [
        corpus_util.random_graph(rng, rng.randint(0, 7), p=rng.choice(densities))
        for _ in range(60)
    ]


def test_count_matches_enumeration_oracle():
    graphs = oracle_corpus()
    assert any(corpus_util.strip_isolated(g)[1] for g in graphs)
    assert any(
        len(component_masks(h.adj, (1 << h.n) - 1)) > 1
        for h in (corpus_util.strip_isolated(g)[0] for g in graphs)
    )
    for g in graphs:
        for t in (0, 1, 2, 5, 9):
            assert lattice_count(g, t) == enumerate_count_oracle(g, t), (g, t)


def test_count_closed_forms_at_large_t():
    for t in (0, 1, 7, 50, 200):
        for n in (1, 4, 9):
            assert lattice_count(graph_from_dsl(f"null:{n}"), t) == (t + 1) ** n
        for m in (1, 3, 6):
            star = sum((t - v + 1) ** m for v in range(t + 1))
            assert lattice_count(graph_from_dsl(f"kbip:1,{m}"), t) == star
        for n in (2, 3, 5, 8):
            one_high = sum((t - v + 1) ** (n - 1) for v in range(t // 2 + 1, t + 1))
            want = (t // 2 + 1) ** n + n * one_high
            assert lattice_count(graph_from_dsl(f"complete:{n}"), t) == want


def test_table_extrapolates_closed_forms_far_out():
    for t in (2001, 5000):
        for n in range(1, MAX_FIT_N + 1):
            assert lattice_count(graph_from_dsl(f"null:{n}"), t) == (t + 1) ** n
        for m in (1, 3, 6, MAX_FIT_N - 1):
            star = sum((t - v + 1) ** m for v in range(t + 1))
            assert lattice_count(graph_from_dsl(f"kbip:1,{m}"), t) == star
        for n in (2, 3, 5, 8, MAX_FIT_N):
            one_high = sum((t - v + 1) ** (n - 1) for v in range(t // 2 + 1, t + 1))
            want = (t // 2 + 1) ** n + n * one_high
            assert lattice_count(graph_from_dsl(f"complete:{n}"), t) == want


def test_table_matches_the_frontier_dp():
    # both parities, and t past 2k + 1, where the table extrapolates
    rng = random.Random(corpus_util.MASTER_SEED + 7)
    for n in range(1, MAX_FIT_N + 1):
        for p in (0.25, 0.6):
            g = corpus_util.random_graph(rng, n, p=p)
            for comp in component_masks(g.adj, (1 << n) - 1):
                k = comp.bit_count()
                for t in range(2 * k + 6):
                    want, _ = ehrhart._count_connected(g.adj, comp, t, 10**9)
                    assert ehrhart._count_table(g.adj, comp, t) == want, (g, comp, t)


def transfer_count(n, t, closed):
    """Lattice points of path:n (or cycle:n) at t by the transfer matrix
    M[a][b] = [a + b <= t] over the values of consecutive vertices."""
    if closed:  # the trace of M^n, one start value at a time
        return sum(transfer_walks(n, t, start)[start] for start in range(t + 1))
    return sum(transfer_walks(n - 1, t, None))


def transfer_walks(steps, t, start):
    """Walks of `steps` steps by value, from `start` or from every value."""
    row = [1 if start is None or a == start else 0 for a in range(t + 1)]
    for _ in range(steps):
        row = [sum(row[: t - b + 1]) for b in range(t + 1)]
    return row


def test_frontier_dp_counts_paths_and_cycles_past_the_table():
    for n in (MAX_FIT_N + 1, 12, 15):
        for t in range(7):
            assert lattice_count(graph_from_dsl(f"path:{n}"), t) == transfer_count(n, t, False)
            assert lattice_count(graph_from_dsl(f"cycle:{n}"), t) == transfer_count(n, t, True)
    for n in (3, 4, 7):
        for t in (0, 1, 5):
            assert lattice_count(graph_from_dsl(f"cycle:{n}"), t) == transfer_count(n, t, True)


def test_table_values_fit_int64():
    # the table holds counts at r <= 2k + 1, each at most (2k + 2)^k
    assert (2 * MAX_FIT_N + 2) ** MAX_FIT_N < 2**63


def test_pair_tables_are_read_only_and_depend_only_on_k():
    tables = [ehrhart._pairs(k) for k in range(MAX_FIT_N + 1)]
    assert sum(a.nbytes for arrays in tables for a in arrays) < 1.5 * 2**20
    for k, (us, ts, starts) in enumerate(tables):
        assert len(us) == 3**k and len(starts) == 2**k
        assert not (us & ts).any()
        assert not any(a.flags.writeable for a in (us, ts, starts))


def recorded_dp_calls(monkeypatch):
    """Patch ehrhart._count_connected to record the components it counts."""
    seen = []
    count = ehrhart._count_connected

    def recording(adj, comp, t, work_left):
        seen.append(comp)
        return count(adj, comp, t, work_left)

    monkeypatch.setattr(ehrhart, "_count_connected", recording)
    return seen


def test_fit_volume_hstar_and_count_never_reach_the_frontier_dp(monkeypatch, capsys):
    seen = recorded_dp_calls(monkeypatch)
    assert main(["count", f"path:{MAX_FIT_N}", "1000"]) == 0
    assert main(["ehrhart", f"cycle:{MAX_FIT_N}"]) == 0
    capsys.readouterr()
    rng = random.Random(corpus_util.MASTER_SEED + 8)
    graphs = [graph_from_dsl(dsl) for dsl in ("null:0", "kbip:5,5", f"complete:{MAX_FIT_N}")]
    graphs += [corpus_util.random_graph(rng, n, p=0.4) for n in range(1, MAX_FIT_N + 1)]
    for g in graphs:
        ehrhart_fit(g)
        ehrhart_volume(g)
        if bipartition(g) is not None:
            hstar(g)
        for t in (0, 1, 7, 30, 10**6):
            lattice_count(g, t)
    # two components of MAX_FIT_N vertices each, past the fit cap
    k = MAX_FIT_N
    pair = from_edges(2 * k, [(v, v + 1) for v in range(2 * k - 1) if v != k - 1])
    assert lattice_count(pair, 4) == transfer_count(k, 4, False) ** 2
    assert seen == []


def test_components_past_the_table_go_to_the_frontier_dp(monkeypatch):
    seen = recorded_dp_calls(monkeypatch)
    n = MAX_FIT_N + 1
    path = [(v, v + 1) for v in range(n - 1)]
    assert lattice_count(from_edges(n, path), 3) == transfer_count(n, 3, False)
    assert seen == [(1 << n) - 1]
    seen.clear()
    # the same path after two isolated vertices
    shifted = from_edges(n + 2, [(u + 2, v + 2) for u, v in path])
    assert lattice_count(shifted, 3) == 16 * transfer_count(n, 3, False)
    assert seen == [((1 << n) - 1) << 2]


def test_isolated_vertices_multiply_the_count_by_t_plus_one():
    graphs = corpus_util.scattered_corpus()
    for g in graphs:
        stripped, isolated = corpus_util.strip_isolated(g)
        assert isolated > 0
        for t in (0, 1, 3, 6):
            assert lattice_count(g, t) == (t + 1) ** isolated * lattice_count(stripped, t)


def test_dilation_over_the_work_budget_fails_before_counting():
    # an edgeless graph spends no work, so only the bound on t stops it
    assert lattice_count(graph_from_dsl("null:1"), MAX_COUNT_WORK) == MAX_COUNT_WORK + 1
    for dsl in ("null:1", "null:63", "path:2"):
        with pytest.raises(SizeError, match="MAX_COUNT_WORK"):
            lattice_count(graph_from_dsl(dsl), MAX_COUNT_WORK + 1)


def test_count_invariant_under_relabeling():
    rng = random.Random(9)
    g = corpus_util.random_graph(rng, 5, p=0.6)
    for _ in range(3):
        relabel = list(range(5))
        rng.shuffle(relabel)
        h = from_edges(5, [(relabel[u], relabel[v]) for u, v in g.edges()])
        for t in (2, 3):
            assert lattice_count(h, t) == lattice_count(g, t)


def test_fit_complete2():
    fit = ehrhart_fit(graph_from_dsl("complete:2"))
    assert fit.parity == "integral"
    assert fit.poly == Polynomial((1, F(3, 2), F(1, 2)))  # (t+1)(t+2)/2


def test_fit_path3_leading_coefficient():
    fit = ehrhart_fit(graph_from_dsl("path:3"))
    assert fit.parity == "integral"
    assert fit.poly.degree == 3 and fit.poly.coeffs[3] == F(1, 3)


def test_fit_cycle3_even_only():
    fit = ehrhart_fit(graph_from_dsl("cycle:3"))
    assert fit.parity == "even-only"
    assert fit.poly.degree == 3 and fit.poly.coeffs[3] == 2


def test_fit_reproduces_samples_and_origin():
    for dsl in ("path:4", "cycle:5", "kbip:2,3", "complete:4"):
        g = graph_from_dsl(dsl)
        fit = ehrhart_fit(g)
        assert fit.poly(0) == 1
        assert fit.poly.degree == g.n
        step = 1 if fit.parity == "integral" else 2
        for s in range(g.n + 1):
            assert fit.poly(s) == lattice_count(g, step * s)


def test_volume_examples():
    assert ehrhart_volume(graph_from_dsl("complete:2")) == F(1, 2)
    assert ehrhart_volume(graph_from_dsl("kbip:2,2")) == F(1, 6)
    g5 = graph_from_dsl("cycle:5")
    assert ehrhart_volume(g5) == rvf_volume(g5) == F(5, 48)


def all_graphs_up_to(n_max):
    """Every labelled graph on 0..n_max vertices."""
    for n in range(n_max + 1):
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        for keep in product((False, True), repeat=len(pairs)):
            yield from_edges(n, [e for e, k in zip(pairs, keep) if k])


def test_volume_is_the_fits_leading_coefficient():
    graphs = list(all_graphs_up_to(4))
    assert len(graphs) == 76 and graphs[0].n == 0
    for g in graphs:
        fit = ehrhart_fit(g)
        lead = fit.poly.coeffs[g.n] if fit.poly.degree == g.n else F(0)
        if fit.parity == "even-only":
            lead /= 2**g.n
        assert ehrhart_volume(g) == lead, g.edges()


def counted_dilates(monkeypatch):
    """Patch ehrhart.lattice_count to record the dilates it is called at."""
    seen = []
    count = ehrhart.lattice_count

    def recording(g, t):
        seen.append(t)
        return count(g, t)

    monkeypatch.setattr(ehrhart, "lattice_count", recording)
    return seen


@pytest.mark.parametrize(
    "dsl, nodes", [("path:3", [0, 1, 2, 3]), ("cycle:3", [0, 2, 4, 6])]
)
@pytest.mark.parametrize("function", [ehrhart_fit, ehrhart_volume])
def test_fit_and_volume_count_once_per_node(monkeypatch, function, dsl, nodes):
    seen = counted_dilates(monkeypatch)
    function(graph_from_dsl(dsl))
    assert seen == nodes


def test_hstar_counts_once_per_node_and_not_on_an_odd_cycle(monkeypatch):
    seen = counted_dilates(monkeypatch)
    hstar(graph_from_dsl("path:3"))
    assert seen == [0, 1, 2, 3]
    seen.clear()
    with pytest.raises(MethodNotApplicable):
        hstar(graph_from_dsl("cycle:3"))
    assert seen == []


def test_nothing_is_counted_past_the_fit_cap(monkeypatch):
    seen = counted_dilates(monkeypatch)
    g = graph_from_dsl(f"path:{MAX_FIT_N + 1}")
    for function in (ehrhart_fit, ehrhart_volume, hstar):
        with pytest.raises(SizeError):
            function(g)
    assert seen == []


def test_hstar_examples():
    assert hstar(graph_from_dsl("complete:2")).coefficients == (1, 0, 0)
    assert hstar_volume(graph_from_dsl("path:3")) == F(1, 3)
    assert hstar(graph_from_dsl("kbip:1,1")).coefficients == (1, 0, 0)


def test_hstar_invariants():
    for g in corpus_util.corpus(want_bipartite=True, count=10):
        hs = hstar(g)
        assert hs.coefficients[0] == 1
        assert all(isinstance(c, int) and c >= 0 for c in hs.coefficients)
        assert F(hs.f_at_one(), factorial(g.n)) == ehrhart_volume(g)


def test_hstar_rejects_non_bipartite():
    with pytest.raises(MethodNotApplicable):
        hstar(graph_from_dsl("cycle:3"))


def test_size_guards():
    too_big = graph_from_dsl(f"path:{MAX_FIT_N + 1}")
    with pytest.raises(SizeError):
        ehrhart_fit(too_big)
    with pytest.raises(SizeError):
        hstar(too_big)


def test_agreement_with_rvf_small_corpus():
    graphs = corpus_util.corpus(want_bipartite=True, count=6)
    graphs += corpus_util.corpus(want_bipartite=False, count=6)
    for g in graphs:
        assert ehrhart_volume(g) == rvf_volume(g)


def test_agreement_with_rvf_up_to_the_fit_cap():
    rng = random.Random(corpus_util.MASTER_SEED + 6)
    graphs = [graph_from_dsl(dsl) for dsl in ("cycle:9", "kbip:4,5", "bn:5")]
    graphs += [corpus_util.random_graph(rng, n, p=0.4) for n in (9, MAX_FIT_N)]
    for g in graphs:
        assert ehrhart_volume(g) == rvf_volume(g)


def test_dilation_ratio_approaches_volume():
    for dsl in ("path:4", "cycle:5"):
        g = graph_from_dsl(dsl)
        vol = float(rvf_volume(g))
        errors = {t: abs(lattice_count(g, t) / t**g.n - vol) for t in (20, 40)}
        # error decays like C/t: fit C at t=20 and check t=40 stays below it
        c = errors[20] * 20 * 1.05
        assert errors[40] <= c / 40


def test_count_memo_is_freed_without_the_cycle_collector():
    gc.collect()
    gc.disable()
    try:
        assert lattice_count(graph_from_dsl("cycle:7"), 5) == 21122
        # a component past MAX_FIT_N goes to the frontier DP and its memo
        assert lattice_count(graph_from_dsl("cycle:11"), 5) == transfer_count(11, 5, True)
        assert gc.collect() == 0
    finally:
        gc.enable()
