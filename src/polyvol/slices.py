"""Symbolic sliced volumes vol(G, c) = vol(P(G) ∩ [0,c]^n) for graphs
built from null graphs by joins.

Below c = 1/2 no edge constraint can bind inside [0,c]^n, so the volume
is just c^n; a SlicedVolume therefore stores only the vertex count and
the polynomial piece valid on [1/2, 1]. Joins and multiple joins are one
exact integral over the part that holds the largest coordinate s: a join
of m_i copies of each part A_i, n vertices in all, has on [1/2, 1] the piece

    2^-n + ∫_{1/2}^c Σ_i m_i·vol(A_i,·)'(s)·(1-s)^(n-|A_i|) ds.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .errors import ParameterError
from .poly import Polynomial

HALF = Fraction(1, 2)

# Most vertices of a graph whose sliced volume is built: the polynomials have
# degree n and exact rational coefficients. On a 2-core KVM guest kbip:50,50,
# kbip:1,99 and complete:100 take about 2 ms; the slowest admitted spec found
# by a sweep of join chains (parts of 1-10 vertices, either nesting) and njoin
# nests, 100 single vertices joined one at a time, takes 0.13-0.21 s.
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


def _join(parts) -> SlicedVolume:
    """Sliced volume of the join of m copies of A for each (A, m) in parts:
    with n the total vertex count, on [1/2, 1]

        vol(c) = 2^-n + ∫_{1/2}^c Σ m·vol(A,·)'(s)·(1-s)^(n-|A|) ds.

    Every vertex of one copy is adjacent to every vertex of each other copy,
    so at most one copy has its largest coordinate s above 1/2; each other
    coordinate then lies below 1 - s < 1/2, where no edge binds. If no
    largest coordinate lies above 1/2, no edge binds at all: that is 2^-n.
    """
    n = sum(m * a.n for a, m in parts)
    integrand = Polynomial()
    for a, m in parts:
        k = n - a.n
        rest = Polynomial((-1) ** i * comb(k, i) for i in range(k + 1))  # (1-s)^k
        integrand = integrand + m * a.high.derivative() * rest
    r = integrand.antiderivative()
    return SlicedVolume(n, Polynomial.constant(Fraction(1, 2 ** n) - r(HALF)) + r)


def sliced_join(a: SlicedVolume, b: SlicedVolume) -> SlicedVolume:
    """Sliced volume of the join A + B."""
    return _join([(a, 1), (b, 1)])


def sliced_multiple(a: SlicedVolume, m: int) -> SlicedVolume:
    """m-fold join of A with itself."""
    if m < 1:
        raise ParameterError("join multiplicity must be >= 1")
    return _join([(a, m)])


def sliced_complete_bipartite(m: int, n: int) -> SlicedVolume:
    """K_{m,n} = D_m + D_n, by the join theorem."""
    if m < 1 or n < 1:
        raise ParameterError("complete bipartite needs m, n >= 1")
    return sliced_join(sliced_null(m), sliced_null(n))
