"""Dense univariate polynomials with exact rational coefficients.

Degrees here stay small (at most a few dozen), so the representation is a
plain coefficient tuple, index i holding the coefficient of x^i. The zero
polynomial is the empty tuple; otherwise the top coefficient is nonzero.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm, prod
from typing import Iterable, Sequence


class Polynomial:
    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable = ()):
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls) -> "Polynomial":
        return cls(())

    @classmethod
    def constant(cls, c) -> "Polynomial":
        return cls((c,))

    @classmethod
    def monomial(cls, k: int, c=1) -> "Polynomial":
        return cls((0,) * k + (c,))

    @classmethod
    def x(cls) -> "Polynomial":
        return cls((0, 1))

    # -- structure ----------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial mapped to -1."""
        return len(self.coeffs) - 1

    def __eq__(self, other) -> bool:
        if isinstance(other, Polynomial):
            return self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.coeffs)

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other: "Polynomial") -> "Polynomial":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Polynomial(out)

    def __neg__(self) -> "Polynomial":
        return Polynomial(tuple(-c for c in self.coeffs))

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other) -> "Polynomial":
        if not isinstance(other, Polynomial):
            c = Fraction(other)
            return Polynomial(tuple(a * c for a in self.coeffs))
        if self.is_zero or other.is_zero:
            return Polynomial()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return Polynomial(out)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "Polynomial":
        if k < 0:
            raise ValueError("negative power of a polynomial")
        result = Polynomial.constant(1)
        for _ in range(k):
            result = result * self
        return result

    def __call__(self, c) -> Fraction:
        """Exact evaluation by Horner's rule."""
        c = Fraction(c)
        acc = Fraction(0)
        for coef in reversed(self.coeffs):
            acc = acc * c + coef
        return acc

    # -- calculus -----------------------------------------------------

    def derivative(self) -> "Polynomial":
        return Polynomial(tuple(i * c for i, c in enumerate(self.coeffs))[1:])

    def antiderivative(self) -> "Polynomial":
        """Antiderivative with zero constant term."""
        return Polynomial((Fraction(0),)
                          + tuple(c / (i + 1) for i, c in enumerate(self.coeffs)))

    def compose_affine(self, a, b) -> "Polynomial":
        """q with q(x) = p(a*x + b), expanded exactly."""
        inner = Polynomial((b, a))
        acc = Polynomial()
        for coef in reversed(self.coeffs):
            acc = acc * inner + Polynomial.constant(coef)
        return acc

    # -- rendering ----------------------------------------------------

    def to_string(self, var: str = "x") -> str:
        """Lowest degree first, zero terms skipped: '-1/2 + 2*c - c^2'."""
        if self.is_zero:
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            mag = abs(c)
            if i == 0:
                term = str(mag)
            else:
                power = var if i == 1 else f"{var}^{i}"
                term = power if mag == 1 else f"{mag}*{power}"
            if not parts:
                parts.append(term if c > 0 else f"-{term}")
            else:
                parts.append(f"+ {term}" if c > 0 else f"- {term}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"Polynomial({self.to_string()})"


def interpolate(xs: Sequence, ys: Sequence) -> Polynomial:
    """Unique polynomial of degree < len(xs) through the given points,
    by Lagrange's formula run on integers (exact).

    With the nodes scaled to integers X_j = D x_j, the values to integers
    Y_j = E y_j, P(t) = prod_j (t - X_j) and w_j = prod_{k != j} (X_j - X_k),
    the polynomial is p(x) = q(D x) / (E M), where M = lcm of the w_j and

        q(t) = sum_j Y_j (M / w_j) P(t) / (t - X_j)

    has integer coefficients; each P(t) / (t - X_j) is one synthetic
    division, so only the len(xs) coefficients of p become Fractions.
    """
    xs = [Fraction(v) for v in xs]
    ys = [Fraction(v) for v in ys]
    m = len(xs)
    if m != len(ys) or m == 0:
        raise ValueError("need equally many nodes and values, at least one")
    if len(set(xs)) != m:
        raise ValueError("interpolation nodes must be distinct")
    d = lcm(*(x.denominator for x in xs))
    e = lcm(*(y.denominator for y in ys))
    nodes = [x.numerator * (d // x.denominator) for x in xs]
    values = [y.numerator * (e // y.denominator) for y in ys]
    full = [1]  # P(t), lowest degree first
    for x in nodes:
        full = [0, *full]
        for i in range(len(full) - 1):
            full[i] -= x * full[i + 1]
    weights = [prod(xj - xk for xk in nodes if xk != xj) for xj in nodes]
    common = lcm(*weights)
    q = [0] * m
    for xj, yj, wj in zip(nodes, values, weights):
        scale = yj * (common // wj)
        b = 1  # P(t) / (t - X_j) from the top coefficient down
        q[m - 1] += scale
        for i in range(m - 1, 0, -1):
            b = full[i] + xj * b
            q[i - 1] += scale * b
    denominator = e * common
    return Polynomial([Fraction(c * d**i, denominator) for i, c in enumerate(q)])
