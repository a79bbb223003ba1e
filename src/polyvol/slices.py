"""Symbolic sliced volumes vol(G, c) = vol(P(G) ∩ [0,c]^n) for graphs
built from null graphs by joins.

Below c = 1/2 no edge constraint can bind inside [0,c]^n, so the volume
is just c^n; a SlicedVolume therefore stores only the vertex count and
the polynomial piece valid on [1/2, 1]. Joins and multiple joins push
the representation around exactly, via antiderivatives and the
substitution s -> 1 - s.
"""

from dataclasses import dataclass
from fractions import Fraction

from .errors import ParameterError
from .poly import Polynomial

HALF = Fraction(1, 2)

# Most vertices of a graph whose sliced volume is built: the polynomials have
# degree n and exact rational coefficients. On a 2-core KVM guest kbip:50,50
# takes 0.07-0.15 s; the slowest admitted spec found, 100 single vertices
# joined one at a time, join(null:1,join(null:1,...)), takes 3.9-7.2 s.
MAX_SLICED_N = 100


@dataclass(frozen=True)
class SlicedVolume:
    n: int
    high: Polynomial  # vol(G, c) for c in [1/2, 1]


def sliced_eval(s: SlicedVolume, c) -> Fraction:
    """vol(G, c): the low piece c^n below 1/2, the stored piece above."""
    c = Fraction(c)
    if not 0 <= c <= 1:
        raise ParameterError("slice parameter must lie in [0, 1]")
    if c <= HALF:
        return c ** s.n
    return s.high(c)


def sliced_null(k: int) -> SlicedVolume:
    """The k-vertex null graph: vol(D_k, c) = c^k everywhere."""
    if k < 1:
        raise ParameterError("null factor needs k >= 1")
    return SlicedVolume(k, Polynomial.monomial(k))


def sliced_join(a: SlicedVolume, b: SlicedVolume) -> SlicedVolume:
    """Sliced volume of the join, from
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


def sliced_multiple(a: SlicedVolume, m: int) -> SlicedVolume:
    """m-fold join of A with itself, via
    vol(mA, ·)'(u) = m (1-u)^{k(m-1)} vol(A, ·)'(u) on [1/2, 1]."""
    if m < 1:
        raise ParameterError("join multiplicity must be >= 1")
    k = a.n
    integrand = m * Polynomial((1, -1)) ** (k * (m - 1)) * a.high.derivative()
    r = integrand.antiderivative()
    high = (
        Polynomial.constant(Fraction(1, 2 ** (m * k)) - r(HALF)) + r
    )
    return SlicedVolume(m * k, high)


def sliced_complete_bipartite(m: int, n: int) -> SlicedVolume:
    """K_{m,n} = D_m + D_n, by the join theorem."""
    if m < 1 or n < 1:
        raise ParameterError("complete bipartite needs m, n >= 1")
    return sliced_join(sliced_null(m), sliced_null(n))
