"""Exact rational scalars and their canonical text rendering.

All exact results in the package flow through `fractions.Fraction`, which
already stores values reduced with a positive denominator, so equality is
structural. This module adds the one piece the standard library lacks:
the fixed decimal rendering used by the CLI.
"""

from decimal import Decimal, ROUND_HALF_EVEN, localcontext
from fractions import Fraction


def approx_decimal(q: Fraction) -> str:
    """Six decimal places, round-half-even, e.g. Fraction(5, 24) -> '0.208333'."""
    with localcontext() as ctx:
        ctx.prec = 60
        d = Decimal(q.numerator) / Decimal(q.denominator)
        d = d.quantize(Decimal("0.000001"), rounding=ROUND_HALF_EVEN)
    return format(d, "f")


def format_rational(q: Fraction) -> str:
    """Canonical 'p/q (≈ d.dddddd)' rendering; integers drop the '/q'."""
    if q.denominator == 1:
        exact = str(q.numerator)
    else:
        exact = f"{q.numerator}/{q.denominator}"
    return f"{exact} (≈ {approx_decimal(q)})"
