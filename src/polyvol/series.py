"""Numeric checks of the operator-theoretic route to cycle volumes.

The integration operator (Tg)(t) = ∫_0^{1-t} g(s) ds has eigenvalues
2/(pi(4k+1)) with cosine eigenfunctions, which turns the cycle volume
into the trace identity sum_k 1/(4k+1)^n = pi^n vol(C_n) / 2^n. This
module evaluates partial sums as one fixed-point integer, returned exactly
as a `decimal.Decimal`, and the closed-form target to the pi literal's
accuracy; it approximates the trace by iterated trapezoid quadrature and
checks the eigenfunction relation on a grid (numpy floats). Everything
here is approximate by design; the exact modules never depend on it.
"""

from __future__ import annotations

from decimal import Decimal, localcontext
from fractions import Fraction

from .closed import cycle_volume
from .errors import ParameterError, SizeError

WORKING_DPS = 50
# pi to 64 digits. For every n that cycle_volume accepts (n <= 501), pi^n
# then errs by under 501 * 10^-63 relative, far below 10^-WORKING_DPS.
_PI = Decimal("3.141592653589793238462643383279502884197169399375105820974944592")

# Most terms series_partial sums. Each term is two integer divisions at about
# 230 bits, and no term is summed once it floors to 0, so the cost does not grow
# with n: the bound takes about 0.3 s at n = 2 and 3 (2-core KVM guest) and
# admits the 2*10^5 terms that n = 2, the slowest to converge, needs to come
# within 1e-5.
MAX_SERIES_TERMS = 250_000


def series_partial(n: int, terms: int) -> Decimal:
    """sum_{k=-K}^{K} 1/(4k+1)^n with k and -k paired, exactly as summed.

    Pairing cancels the leading 1/k^n parts for odd n, which is what
    makes the slowly converging n = 2, 3 cases usable. The sum is kept
    as one fixed-point integer of 233 bits: each term's floor errs by
    less than one unit, and a term whose denominators exceed the scale
    floors to 0, as does every later one, so the loop stops there.
    """
    if n < 2:
        raise ParameterError("series diverges absolutely for n < 2")
    if terms < 1:
        raise ParameterError("need at least one term")
    if terms > MAX_SERIES_TERMS:
        raise SizeError(f"{terms} terms exceed MAX_SERIES_TERMS = {MAX_SERIES_TERMS}")
    one = 1 << 233  # the 169 bits that carry 50 digits, plus 64 guard bits
    sign = -1 if n % 2 else 1  # 1/(1-4k)^n = (-1)^n / (4k-1)^n
    total = 0
    for k in range(1, terms + 1):
        below = (4 * k - 1) ** n
        if below > one:
            break
        total += one // (4 * k + 1) ** n + sign * (one // below)
    with localcontext() as ctx:
        ctx.prec = 234  # total / 2^233 has at most 233 digits: none is rounded off
        return Decimal(total) / one + 1


def series_target(n: int) -> Decimal:
    """pi^n vol(C_n) / 2^n, the closed-form limit of the partial sums, at
    2 WORKING_DPS digits, past the pi literal's 64."""
    if n < 2:
        raise ParameterError("series diverges absolutely for n < 2")
    v = cycle_volume(n)  # accepts n = 2 as the formula's extension
    with localcontext() as ctx:
        ctx.prec = 2 * WORKING_DPS
        return _PI ** n * v.numerator / v.denominator / 2 ** n


def series_tail_bound(n: int, terms: int) -> Fraction:
    """Integral-comparison bound on the truncation error after pairing."""
    return Fraction(2, (4 * terms) ** (n - 1))


def series_error_bound(n: int, terms: int) -> Decimal:
    """Bound on the error of series_partial(n, terms) - series_target(n):
    under 2 units of 2^-233 per k in the sum, and n 10^-63 in the target,
    which is below 1.4 and whose pi^n errs by n 10^-63 / pi relative."""
    return Decimal(2 * terms) / 2**233 + Decimal(n).scaleb(-63)


def _cumtrapz(rows: np.ndarray, h: float) -> np.ndarray:
    """Cumulative trapezoid integral along axis 0, starting at 0."""
    import numpy as np

    steps = (rows[:-1] + rows[1:]) * (h / 2)
    out = np.zeros_like(rows)
    np.cumsum(steps, axis=0, out=out[1:])
    return out


def trace_quadrature(n: int, grid: int) -> float:
    """Trapezoid approximation of ∫ K_n(t,t) dt, the trace giving vol(C_n).

    The iterated kernel is built column by column: K_n(t, s) is the
    cumulative integral of K_{n-1}(·, s) up to 1-t, which on a uniform
    grid is just the reversed cumulative-sum table.
    """
    if n < 2:
        raise ParameterError("trace identity needs n >= 2")
    if grid < 100:
        raise ParameterError("grid must be at least 100")
    import numpy as np

    h = 1.0 / grid
    t = np.linspace(0.0, 1.0, grid + 1)
    kernel = (t[:, None] + t[None, :] <= 1.0 + 1e-12).astype(float)
    for _ in range(n - 1):
        kernel = _cumtrapz(kernel, h)[::-1, :]
    diag = np.diagonal(kernel)
    return float(h * (diag.sum() - (diag[0] + diag[-1]) / 2))


def eigen_residual(k: int, grid: int) -> float:
    """max_t |(Tg)(t) - lambda g(t)| for the k-th cosine eigenfunction,
    with T applied by trapezoid quadrature."""
    if abs(k) > 5:
        raise ParameterError("eigenfunction index limited to |k| <= 5")
    if grid < 1000:
        raise ParameterError("grid must be at least 1000")
    import numpy as np

    h = 1.0 / grid
    t = np.linspace(0.0, 1.0, grid + 1)
    freq = np.pi * (4 * k + 1) / 2
    g = np.cos(freq * t)
    applied = _cumtrapz(g[:, None], h)[::-1, 0]  # (Tg)(t_j) = ∫_0^{1-t_j} g
    lam = 2 / (np.pi * (4 * k + 1))
    return float(np.max(np.abs(applied - lam * g)))
