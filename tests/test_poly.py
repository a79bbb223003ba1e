from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from polyvol import Polynomial, interpolate
from polyvol.rational import format_rational

rationals = st.fractions(
    min_value=-5, max_value=5, max_denominator=12
)
polys = st.lists(rationals, max_size=6).map(Polynomial)


def test_product_difference_of_squares():
    x = Polynomial.x()
    one = Polynomial.constant(1)
    assert (x + one) * (x - one) == Polynomial((-1, 0, 1))


def test_add_zero_is_identity():
    p = Polynomial((F(1, 2), 3))
    assert p + Polynomial.zero() == p


def test_sub_cancellation_gives_zero():
    p = Polynomial((0, 2))
    assert (p - p).is_zero


def test_eval_square_at_half():
    assert Polynomial.monomial(2)(F(1, 2)) == F(1, 4)


def test_eval_zero_poly():
    assert Polynomial.zero()(F(7, 3)) == 0


def test_eval_quadratic_at_one():
    assert Polynomial((0, 2, -1))(1) == 1


def test_derivative_of_cube():
    assert Polynomial.monomial(3).derivative() == Polynomial.monomial(2, 3)


def test_antiderivative_of_3x2():
    assert Polynomial.monomial(2, 3).antiderivative() == Polynomial.monomial(3)


def test_derivative_of_constant():
    assert Polynomial.constant(5).derivative().is_zero


def test_affine_compose_one_minus_x_squared():
    assert Polynomial.monomial(2).compose_affine(-1, 1) == Polynomial((1, -2, 1))


def test_affine_compose_identity():
    assert Polynomial.x().compose_affine(1, 0) == Polynomial.x()


def test_affine_compose_cube_at_half():
    assert Polynomial.monomial(3).compose_affine(-1, 1)(F(1, 2)) == F(1, 8)


@given(polys, polys)
def test_eval_is_ring_homomorphism(p, q):
    for k in range(20):
        c = F(k - 10, 7)
        assert (p * q)(c) == p(c) * q(c)
        assert (p + q)(c) == p(c) + q(c)


@given(polys)
def test_derivative_inverts_antiderivative(p):
    assert p.antiderivative().derivative() == p


@given(polys)
def test_affine_reflection_is_involution(p):
    assert p.compose_affine(-1, 1).compose_affine(-1, 1) == p


def test_interpolation_reproduces_samples():
    p = Polynomial((1, F(-2, 3), 0, F(5, 7)))
    xs = [0, 1, 2, 3]
    q = interpolate(xs, [p(x) for x in xs])
    assert q == p


def test_interpolation_rejects_duplicate_nodes():
    with pytest.raises(ValueError):
        interpolate([0, 0], [1, 2])
    with pytest.raises(ValueError):
        interpolate([0, 1], [1])


def newton_interpolate(xs, ys) -> Polynomial:
    """The interpolating polynomial by Newton divided differences, on
    Fractions throughout: the oracle for interpolate."""
    xs = [F(v) for v in xs]
    coef = [F(v) for v in ys]
    m = len(xs)
    for j in range(1, m):
        for i in range(m - 1, j - 1, -1):
            coef[i] = (coef[i] - coef[i - 1]) / (xs[i] - xs[i - j])
    p = Polynomial.constant(coef[-1])
    for i in range(m - 2, -1, -1):
        p = p * Polynomial((-xs[i], 1)) + Polynomial.constant(coef[i])
    return p


@given(
    st.lists(rationals, min_size=1, max_size=9, unique=True).flatmap(
        lambda xs: st.tuples(st.just(xs), st.lists(rationals, min_size=len(xs), max_size=len(xs)))
    )
)
def test_interpolation_matches_divided_differences(points):
    xs, ys = points
    assert interpolate(xs, ys) == newton_interpolate(xs, ys)


def test_interpolation_of_lattice_counts_matches_divided_differences():
    # ehrhart_fit's nodes 0..n with integer counts, up to 11 nodes
    for m in range(1, 12):
        xs = list(range(m))
        ys = [(3 * x + 1) ** (m - 1) - 7 * x for x in xs]
        assert interpolate(xs, ys) == newton_interpolate(xs, ys)


def test_to_string_lowest_degree_first():
    p = Polynomial((F(-1, 2), 2, -1))
    assert p.to_string("c") == "-1/2 + 2*c - c^2"
    assert Polynomial.zero().to_string() == "0"


def test_rational_rendering():
    assert format_rational(F(5, 24)) == "5/24 (≈ 0.208333)"
    assert format_rational(F(1, 20)) == "1/20 (≈ 0.050000)"
    assert format_rational(F(1)) == "1 (≈ 1.000000)"
    # round-half-even at the sixth place: 0.0000005 -> 0.000000
    assert format_rational(F(1, 2_000_000)) == "1/2000000 (≈ 0.000000)"
    assert format_rational(F(3, 2_000_000)) == "3/2000000 (≈ 0.000002)"
