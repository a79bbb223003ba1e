from fractions import Fraction as F
from math import comb, factorial

import pytest

from polyvol import (
    MethodNotApplicable,
    SizeError,
    altsum_identity,
    euler_numbers,
    family_volume,
    parse_spec,
    path_generating_coefficients,
)
from polyvol.closed import MAX_FAMILY_N, bn_volume, complete_bipartite_volume


def test_euler_numbers_small():
    assert euler_numbers(4) == [1, 1, 1, 2, 5]


def test_euler_number_five():
    # 2 E_5 = 5 + 8 + 6 + 8 + 5 = 32
    assert euler_numbers(5)[5] == 16


def test_euler_numbers_base_case():
    assert euler_numbers(0) == [1]


def test_zigzag_prefix():
    assert euler_numbers(10) == [1, 1, 1, 2, 5, 16, 61, 272, 1385, 7936, 50521]


def zigzag_by_convolution(n_max):
    """E_0..E_N by the recurrence 2 E_{k+1} = sum_i C(k, i) E_i E_{k-i}."""
    e = [1]
    for k in range(n_max):
        total = sum(comb(k, i) * e[i] * e[k - i] for i in range(k + 1))
        e.append(total // 2 if k else 1)
    return e


def test_euler_numbers_match_the_convolution_recurrence():
    for n_max in (0, 1, 2, 7, 300):
        assert euler_numbers(n_max) == zigzag_by_convolution(n_max)


def test_zigzag_index_past_the_bound_fails_at_once():
    with pytest.raises(SizeError, match="MAX_FAMILY_N"):
        euler_numbers(MAX_FAMILY_N + 1)


@pytest.mark.parametrize(
    "dsl,expected",
    [
        ("path:4", F(5, 24)),
        ("cycle:3", F(1, 4)),
        ("kbip:2,3", F(1, 10)),
        ("njoin(2,null:2)", F(1, 6)),
        ("bn:3", F(1, 15)),
        ("complete:5", F(1, 16)),
        ("null:0", F(1)),
        ("null:3", F(1)),
    ],
)
def test_family_volumes(dsl, expected):
    assert family_volume(parse_spec(dsl)) == expected


def test_triangle_consistency():
    # C_3 = K_3
    assert family_volume(parse_spec("cycle:3")) == family_volume(parse_spec("complete:3"))


def test_unsupported_family_rejected():
    with pytest.raises(MethodNotApplicable):
        family_volume(parse_spec("join(null:1,path:3)"))
    with pytest.raises(MethodNotApplicable):
        family_volume(parse_spec("njoin(2,path:3)"))
    with pytest.raises(MethodNotApplicable):
        family_volume(parse_spec("njoin(2,null:0)"))


def test_altsum_examples():
    assert altsum_identity(1, 1) == F(1, 2)
    assert altsum_identity(2, 2) == F(1, 6)
    assert altsum_identity(3, 0) == 1


def test_altsum_identity_full_grid():
    for m in range(1, 11):
        for n in range(1, 11):
            value = altsum_identity(m, n)
            assert value == F(1, comb(m + n, n))
            assert value == altsum_identity(n, m)


def test_path_volumes_times_factorial_are_euler_numbers():
    e = euler_numbers(14)
    for n in range(15):
        v = family_volume(parse_spec(f"path:{n}"))
        assert v * factorial(n) == e[n]


def test_complete_bipartite_beta_identity():
    def beta(r, s):
        return F(factorial(r - 1) * factorial(s - 1), factorial(r + s - 1))

    for m in range(1, 8):
        for n in range(1, 8):
            assert complete_bipartite_volume(m, n) == m * beta(m, n + 1)


def test_bn_point_values():
    assert bn_volume(3) == F(1, 15)
    assert bn_volume(4) == F(1, 56)


def test_generating_coefficients():
    assert path_generating_coefficients(3) == [1, 1, F(1, 2), F(1, 3)]
    assert path_generating_coefficients(4)[4] == F(5, 24)
    assert path_generating_coefficients(0) == [1]
