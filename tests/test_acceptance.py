"""Acceptance suite: one test per cross-validation criterion, each
printing a PASS line on success (run with -s or look at the -v listing)."""

import time
from fractions import Fraction as F
from math import comb, factorial

from mpmath import mp

import corpus_util
from polyvol import (
    altsum_identity,
    ehrhart_volume,
    euler_numbers,
    from_graph,
    graph_from_dsl,
    hstar_volume,
    mc_volume,
    perm_volume,
    rvf_volume,
    series_partial,
    series_target,
    sliced_complete_bipartite,
    sliced_eval,
    sliced_join,
    sliced_multiple,
    sliced_null,
    symmetric_volume,
    trace_quadrature,
)
from polyvol.closed import null_multijoin_volume
from polyvol.poly import Polynomial
from polyvol.series import series_tail_bound


def _report(number, message):
    print(f"PASS criterion {number}: {message}")


def test_criterion_1_path_family():
    start = time.monotonic()
    e = euler_numbers(12)
    for n in range(1, 13):
        assert rvf_volume(graph_from_dsl(f"path:{n}")) == F(e[n], factorial(n))
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    _report(1, f"vol(path:n) = E_n/n! for n <= 12 ({elapsed:.2f}s)")


def test_criterion_2_cycle_family():
    start = time.monotonic()
    e = euler_numbers(11)
    for n in range(3, 13):
        assert rvf_volume(graph_from_dsl(f"cycle:{n}")) == F(
            e[n - 1], 2 * factorial(n - 1)
        )
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    _report(2, f"vol(cycle:n) = E_(n-1)/(2 (n-1)!) for n <= 12 ({elapsed:.2f}s)")


def test_criterion_3_complete_families():
    for n in range(1, 13):
        assert rvf_volume(graph_from_dsl(f"complete:{n}")) == F(1, 2 ** (n - 1))
    for m in range(1, 12):
        for n in range(1, 13 - m):
            assert rvf_volume(graph_from_dsl(f"kbip:{m},{n}")) == F(1, comb(m + n, m))
    _report(3, "complete and complete-bipartite closed forms, all exact")


def test_criterion_4_b3_point_value():
    g = graph_from_dsl("bn:3")
    b = from_graph(g)
    assert rvf_volume(g) == F(1, 15)
    assert perm_volume(b) == F(1, 15)
    assert symmetric_volume(b) == F(1, 15)
    _report(4, "vol(B_3) = 1/15 by rvf, perm, and the symmetric shortcut")


def test_criterion_5_join_algebra():
    for n in range(1, 9):
        expected = Polynomial.constant(F(1, 2 ** (n - 1))) - Polynomial((1, -1)) ** n
        assert sliced_multiple(sliced_null(1), n).high == expected
    for k in range(1, 13):
        for n in range(1, 13):
            if k * n > 12:
                continue
            s = sliced_multiple(sliced_null(k), n)
            assert sliced_eval(s, 1) == null_multijoin_volume(n, k)
    for m in range(1, 6):
        for n in range(1, 6):
            assert (
                sliced_join(sliced_null(m), sliced_null(n)).high
                == sliced_complete_bipartite(m, n).high
            )
    _report(5, "join algebra: complete-graph slices, nD_k values, K_{m,n} polynomials")


def test_criterion_6_identity_suite():
    for m in range(1, 11):
        for n in range(1, 11):
            assert altsum_identity(m, n) == F(1, comb(m + n, n))
    _report(6, "alternating binomial identity exact for 1 <= m, n <= 10")


def test_criterion_7_ehrhart_agreement():
    start = time.monotonic()
    bipartite = corpus_util.corpus(want_bipartite=True, count=25)
    non_bipartite = corpus_util.corpus(want_bipartite=False, count=25)
    for g in bipartite:
        reference = rvf_volume(g)
        assert ehrhart_volume(g) == reference
        assert hstar_volume(g) == reference
    for g in non_bipartite:
        assert ehrhart_volume(g) == rvf_volume(g)
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    _report(7, f"ehrhart = rvf on 50 corpus graphs, h* included ({elapsed:.2f}s)")


def test_criterion_8_permutation_agreement():
    graphs = corpus_util.corpus(want_bipartite=True, count=25)
    graphs += corpus_util.bipartite_corpus_upto(total=10, count=10)
    for g in graphs:
        assert g.n <= 10
        assert perm_volume(from_graph(g)) == rvf_volume(g)
    _report(8, f"perm = rvf on {len(graphs)} bipartite graphs (<= 10 vertices)")


def test_criterion_9_series_identity():
    start = time.monotonic()
    with mp.workdps(40):
        assert abs(mp.mpf(str(series_partial(3, 10_000))) - mp.pi**3 / 32) < 1e-6
        assert abs(mp.mpf(str(series_partial(4, 1_000))) - mp.pi**4 / 96) < 1e-8
        for n in (3, 4, 5):
            err = abs(series_partial(n, 1_000) - series_target(n))
            assert err <= series_tail_bound(n, 1_000)
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    _report(9, f"trace series matches pi^n vol(C_n)/2^n ({elapsed:.2f}s)")


def test_criterion_10_trace_quadrature():
    for n in (3, 4, 5):
        vol = float(rvf_volume(graph_from_dsl(f"cycle:{n}")))
        assert abs(trace_quadrature(n, 2000) - vol) < 5e-3
    _report(10, "iterated-kernel trace quadrature within 5e-3 for C_3..C_5")


def test_criterion_11_statistical_oracle():
    import random

    rng = random.Random(corpus_util.MASTER_SEED + 11)
    within = 0
    runs = []
    for i in range(20):
        g = corpus_util.random_graph(rng, rng.randint(2, 8), p=0.5)
        estimate, stderr = mc_volume(g, 1_000_000, 5000 + i)
        repeat = mc_volume(g, 1_000_000, 5000 + i)
        assert repeat == (estimate, stderr)
        reference = float(rvf_volume(g))
        ok = abs(estimate - reference) <= 4 * max(stderr, 1e-12)
        within += ok
        runs.append(ok)
    assert within >= 19, runs
    _report(11, f"Monte Carlo within 4 sigma of rvf in {within}/20 seeded runs")
