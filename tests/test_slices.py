import random
from fractions import Fraction as F
from functools import reduce
from math import comb

import pytest

from polyvol import (
    ParameterError,
    Polynomial,
    build_family,
    parse_spec,
    rvf_volume,
    sliced_complete_bipartite,
    sliced_eval,
    sliced_join,
    sliced_multiple,
    sliced_null,
)
from polyvol.slices import SlicedVolume

HALF = F(1, 2)


def test_null_slices():
    assert sliced_eval(sliced_null(1), 1) == 1
    assert sliced_eval(sliced_null(3), 1) == 1
    assert sliced_eval(sliced_null(2), HALF) == F(1, 4)
    assert sliced_eval(sliced_null(2), F(1, 4)) == F(1, 16)


def test_null_needs_nonnegative_size():
    empty = sliced_null(0)
    assert empty == SlicedVolume(0, Polynomial.constant(1))
    assert sliced_eval(empty, F(1, 4)) == sliced_eval(empty, 1) == 1
    # a part without vertices leaves a join as it was
    assert sliced_join(empty, sliced_null(2)) == sliced_null(2)
    assert sliced_multiple(empty, 3) == empty
    with pytest.raises(ParameterError):
        sliced_null(-1)


def test_join_of_singletons():
    s = sliced_join(sliced_null(1), sliced_null(1))
    assert sliced_eval(s, 1) == F(1, 2)
    assert sliced_eval(s, F(3, 4)) == F(7, 16)
    assert s.high == Polynomial((F(-1, 2), 2, -1))


def test_join_of_null_pairs():
    s = sliced_join(sliced_null(2), sliced_null(2))
    assert sliced_eval(s, 1) == F(1, 6)


def test_multiple_of_single_vertex_is_complete_graph_slice():
    # vol(K_n, r) = 2^{1-n} - (1-r)^n
    for n in range(1, 9):
        s = sliced_multiple(sliced_null(1), n)
        expected = Polynomial.constant(F(1, 2 ** (n - 1))) - Polynomial((1, -1)) ** n
        assert s.high == expected


def test_multiple_by_one_is_identity():
    for k in (1, 2, 3):
        a = sliced_null(k)
        assert sliced_multiple(a, 1) == a
    joined = sliced_join(sliced_null(2), sliced_null(1))
    assert sliced_multiple(joined, 1).high == joined.high


def test_multiple_matches_closed_form_at_one():
    from polyvol.closed import null_multijoin_volume

    assert sliced_eval(sliced_multiple(sliced_null(2), 2), 1) == F(1, 6)
    for n in range(1, 5):
        for k in range(1, 4):
            s = sliced_multiple(sliced_null(k), n)
            assert sliced_eval(s, 1) == null_multijoin_volume(n, k)


def test_complete_bipartite_point_values():
    s = sliced_complete_bipartite(1, 1)
    assert sliced_eval(s, 1) == F(1, 2)
    assert sliced_eval(s, F(3, 4)) == F(7, 16)
    assert sliced_eval(sliced_complete_bipartite(2, 2), 1) == F(1, 6)


def test_eval_domain_and_low_piece():
    s = sliced_null(3)
    assert sliced_eval(s, 0) == 0
    with pytest.raises(ParameterError):
        sliced_eval(s, F(3, 2))
    with pytest.raises(ParameterError):
        sliced_eval(s, -1)


def test_complete_slice_evaluates_to_closed_form():
    s = sliced_multiple(sliced_null(1), 3)
    assert sliced_eval(s, 1) == F(1, 4)


def test_join_commutes_as_polynomials():
    nulls = [sliced_null(k) for k in range(1, 5)]
    for a in nulls:
        for b in nulls:
            assert sliced_join(a, b).high == sliced_join(b, a).high


def test_join_associates_at_sample_points():
    a, b, c = sliced_null(1), sliced_null(2), sliced_null(3)
    left = sliced_join(sliced_join(a, b), c)
    right = sliced_join(a, sliced_join(b, c))
    for point in (HALF, F(3, 4), 1):
        assert sliced_eval(left, point) == sliced_eval(right, point)


def test_multiple_equals_iterated_join():
    for k in (1, 2, 3):
        base = sliced_null(k)
        iterated = base
        for m in range(2, 5):
            iterated = sliced_join(iterated, base)
            assert sliced_multiple(base, m).high == iterated.high, (k, m)


def closed_form_complete_bipartite(m, n):
    """The former kernel, kept as the oracle, built without integration:
    c^n (1-c)^m + m * sum_i C(n,i) (-1)^i (c^{m+i} - (1-c)^{m+i}) / (m+i)."""
    one_minus = Polynomial((1, -1))
    high = Polynomial.monomial(n) * one_minus ** m
    for i in range(n + 1):
        coef = F(m * comb(n, i) * (-1) ** i, m + i)
        high = high + coef * (Polynomial.monomial(m + i) - one_minus ** (m + i))
    return high


def test_join_of_nulls_matches_bipartite_closed_form():
    for m, n in [(m, n) for m in range(1, 9) for n in range(1, 9)] + [(50, 50)]:
        s = sliced_complete_bipartite(m, n)
        assert s.n == m + n
        assert s.high == closed_form_complete_bipartite(m, n), (m, n)


@pytest.mark.parametrize(
    "dsl",
    [
        "join(null:1,null:1)",
        "join(null:2,null:3)",
        "join(null:1,join(null:2,null:2))",
        "njoin(3,null:2)",
        "njoin(2,join(null:1,null:2))",
        "njoin(5,null:2)",
    ],
)
def test_eval_at_one_matches_rvf(dsl):
    spec = parse_spec(dsl)
    from polyvol.cli import _sliced_from_spec

    s = _sliced_from_spec(spec)
    g = build_family(spec)
    assert s.n == g.n <= 10
    assert sliced_eval(s, 1) == rvf_volume(g)


def test_continuity_and_monotonicity_invariants():
    cases = [
        sliced_null(2),
        sliced_join(sliced_null(2), sliced_null(3)),
        sliced_multiple(sliced_null(2), 3),
        sliced_complete_bipartite(3, 4),
        sliced_join(sliced_null(1), sliced_join(sliced_null(1), sliced_null(2))),
    ]
    for s in cases:
        assert s.high(HALF) == F(1, 2**s.n)
        assert s.high(1) == sliced_eval(s, 1) <= 1
        d = s.high.derivative()
        for point in (HALF, F(3, 4), 1):
            assert d(point) >= 0


def three_piece_join(a, b):
    """The former sliced_join, kept as the oracle. Sliced volume of the join, from
    vol(A+B, c) = ∫_0^c vol(A,·)'(s) · vol(B, min(1-s, c)) ds.

    The integral splits at s = 1-c (where min switches branch) and at
    s = 1/2 (where the pieces of A and B switch); each part is an exact
    polynomial in c.
    """
    one_minus = Polynomial((1, -1))

    # s in [0, 1-c]: min = c, and vol(A, 1-c) = (1-c)^{a.n}
    t1 = b.high * one_minus ** a.n

    # s in [1-c, 1/2]: A is on its low piece, B evaluated at 1-s >= 1/2
    integrand = Polynomial.monomial(a.n - 1, a.n) * b.high.compose_affine(-1, 1)
    p = integrand.antiderivative()
    t2 = Polynomial.constant(p(HALF)) - p.compose_affine(-1, 1)

    # s in [1/2, c]: A on its high piece, B at 1-s <= 1/2
    q = (a.high.derivative() * one_minus ** b.n).antiderivative()
    t3 = q - Polynomial.constant(q(HALF))

    return SlicedVolume(a.n + b.n, t1 + t2 + t3)


def random_join_expression(rng, n):
    """(kernel's value, oracle's value) of a random join expression over
    null:1-4 with n vertices; njoin(m, A) on the oracle side is m - 1
    three-piece joins of A."""
    if n == 1 or (n <= 4 and rng.random() < 0.4):
        return sliced_null(n), sliced_null(n)
    if rng.random() < 0.4:
        m = rng.choice([m for m in (1, 2, 3) if n % m == 0])
        a, a_oracle = random_join_expression(rng, n // m)
        got, want = sliced_multiple(a, m), reduce(three_piece_join, [a_oracle] * m)
    else:
        split = rng.randint(1, n - 1)
        a, a_oracle = random_join_expression(rng, split)
        b, b_oracle = random_join_expression(rng, n - split)
        got, want = sliced_join(a, b), three_piece_join(a_oracle, b_oracle)
    assert got == want, (got, want)
    return got, want


def test_joins_equal_the_three_piece_oracle_on_random_expressions():
    rng = random.Random(20)
    for _ in range(300):
        n = rng.randint(1, 40)
        got, want = random_join_expression(rng, n)
        assert got == want and got.n == n
