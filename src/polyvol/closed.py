"""Closed-form volumes for the named graph families.

Covers null graphs, paths (zigzag numbers over factorials), cycles,
complete and complete bipartite graphs, the multiple join of null
graphs, and the crown graphs bn, plus the alternating binomial
identity that falls out of the complete-bipartite computation.
"""

from fractions import Fraction
from math import comb, factorial

from .errors import MethodNotApplicable, ParameterError, SizeError
from .graphs import FamilySpec

# Largest zigzag index euler_numbers computes: the table costs O(N^2) big-integer
# products, and the slowest `families` range, path 0..MAX_FAMILY_N, takes about
# a second.
MAX_FAMILY_N = 500


def euler_numbers(n_max: int):
    """Zigzag numbers E_0..E_N: 1, 1, 1, 2, 5, 16, 61, ...

    Generated by the convolution recurrence 2*E_{k+1} = sum_i C(k,i) E_i E_{k-i}.
    """
    if n_max < 0:
        raise ParameterError("need N >= 0")
    if n_max > MAX_FAMILY_N:
        raise SizeError(f"zigzag index {n_max} exceeds MAX_FAMILY_N = {MAX_FAMILY_N}")
    e = [1]
    for k in range(n_max):
        total = sum(comb(k, i) * e[i] * e[k - i] for i in range(k + 1))
        e.append(total // 2 if k else 1)
    return e[: n_max + 1]


def path_volume(n: int, zigzag=None) -> Fraction:
    """E_n / n!, read from `zigzag` (E_0..E_N, N >= n) when given."""
    if n < 0:
        raise ParameterError("path needs n >= 0")
    e = zigzag or euler_numbers(n)
    return Fraction(e[n], factorial(n))


def cycle_volume(n: int, zigzag=None) -> Fraction:
    """E_{n-1} / (2 (n-1)!), read from `zigzag` when given.

    Simple cycles require n >= 3; n = 2 is accepted only because the
    analytic series identity uses the formula's value 1/2 there.
    """
    if n < 2:
        raise ParameterError("cycle volume formula needs n >= 2")
    e = zigzag or euler_numbers(n - 1)
    return Fraction(e[n - 1], 2 * factorial(n - 1))


def complete_volume(n: int) -> Fraction:
    if n < 1:
        raise ParameterError("complete graph needs n >= 1")
    return Fraction(1, 2 ** (n - 1))


def complete_bipartite_volume(m: int, n: int) -> Fraction:
    if m < 1 or n < 1:
        raise ParameterError("complete bipartite needs m, n >= 1")
    return Fraction(1, comb(m + n, m))


def null_multijoin_volume(n: int, k: int) -> Fraction:
    """Volume of the n-fold join of the k-vertex null graph."""
    if n < 1 or k < 1:
        raise ParameterError("null multijoin needs n, k >= 1")
    half = Fraction(1, 2 ** (k * n))
    tail = Fraction(sum(comb(k * n, i) for i in range(k)), comb(k * n, k))
    return half + n * half * tail


def bn_volume(n: int) -> Fraction:
    """Crown graph bn: K_{n,n} minus a perfect matching."""
    if n < 2:
        raise ParameterError("bn needs n >= 2")
    return (1 + Fraction(1, n)) / comb(2 * n, n)


def family_volume(spec: FamilySpec, zigzag=None) -> Fraction:
    """Closed-form volume for a covered family spec.

    Paths and cycles read their zigzag number from `zigzag` (E_0..E_N)
    when given, so a range of them needs one table.
    """
    kind = spec.kind
    if kind == "null":
        return Fraction(1)
    if kind == "path":
        return path_volume(spec.args[0], zigzag)
    if kind == "cycle":
        return cycle_volume(spec.args[0], zigzag)
    if kind == "complete":
        return complete_volume(spec.args[0])
    if kind == "kbip":
        return complete_bipartite_volume(*spec.args)
    if kind == "bn":
        return bn_volume(spec.args[0])
    if kind == "njoin" and spec.children[0].kind == "null":
        if spec.children[0].args[0] < 1:
            raise MethodNotApplicable(f"no closed form for {spec}")
        return null_multijoin_volume(spec.args[0], spec.children[0].args[0])
    raise MethodNotApplicable(f"no closed form for {spec}")


# Only bench/pvbench/tracing.py still looks this up; polyvol no longer calls it.
def has_closed_form(spec: FamilySpec) -> bool:
    try:
        family_volume(spec)
    except MethodNotApplicable:
        return False
    except ParameterError:
        return False
    return True


def altsum_identity(m: int, n: int) -> Fraction:
    """sum_{i=0}^{n} C(n,i) (-1)^i m/(m+i), summed term by term."""
    if m < 1 or n < 0:
        raise ParameterError("need m >= 1, n >= 0")
    total = Fraction(0)
    for i in range(n + 1):
        total += Fraction(comb(n, i) * (-1) ** i * m, m + i)
    return total


def path_generating_coefficients(n_max: int):
    """Maclaurin coefficients of sec x + tan x up to degree N: E_n / n!."""
    e = euler_numbers(n_max)
    return [Fraction(e[n], factorial(n)) for n in range(n_max + 1)]
