"""Output checks: each checker parses one call's standard output and
compares it with an independent computation from oracles.py.

A checker raises CheckError on a wrong output. Reference values are
computed once per call and kept in the call's info dict.
"""

import json
import math
from decimal import Decimal, localcontext
from fractions import Fraction

from . import oracles

Z = 5.0  # Wilson interval width; a correct estimate falls outside with p < 1e-6


class CheckError(Exception):
    pass


def _require(cond, message):
    if not cond:
        raise CheckError(message)


def parse_rational(text):
    """'p/q (≈ d.dddddd)' or 'p (≈ ...)' -> Fraction."""
    return Fraction(text.split(" (")[0].strip())


def parse_estimate(text):
    """'0.041470 ± 0.000630' -> 0.04147."""
    return float(text.split("±")[0])


def parse_poly(text, var):
    """Coefficients (lowest degree first) of Polynomial.to_string output."""
    coeffs = {}
    for term in text.replace("- ", "-").replace("+ ", "+").split():
        sign = -1 if term.startswith("-") else 1
        term = term.lstrip("+-")
        if "*" in term:
            mag, power = term.split("*")
        elif term.startswith(var):
            mag, power = "1", term
        else:
            mag, power = term, None
        degree = 0 if power is None else 1 if power == var else int(power.split("^")[1])
        coeffs[degree] = sign * Fraction(mag)
    return [coeffs.get(i, Fraction(0)) for i in range(max(coeffs, default=0) + 1)]


def evaluate(coeffs, x):
    return sum(c * x**i for i, c in enumerate(coeffs))


def reference(info):
    """Exact volume of the call's graph, from the stored value, a family
    formula or the independent routes in oracles."""
    if "_ref" not in info:
        if "reference" in info:
            ref = info["reference"]
        else:
            ref = family_volume(*info["family"]) if "family" in info else None
            if ref is None:
                ref = oracles.exact_volume(info["n"], info["edges"])
        info["_ref"] = ref
    return info["_ref"]


def family_volume(kind, *args):
    """Volume of a named family by zigzag numbers or elementary integration;
    None when the general routes should be used."""
    if kind == "path":
        return oracles.path_volume(args[0])
    if kind == "cycle":
        return oracles.cycle_volume(args[0])
    if kind == "complete":
        # below 1/2 every box point fits; above, one coordinate at most
        return Fraction(1, 2 ** (args[0] - 1))
    return None


def check_volume_bounds(value, n):
    """vol * 2^n * n! is an integer, and 2^(1-n) <= vol <= 1."""
    _require(
        (value * 2**n * math.factorial(n)).denominator == 1,
        f"{value}: vol * 2^n * n! is not an integer for n={n}",
    )
    _require(Fraction(1, 2 ** max(n - 1, 0)) <= value <= 1, f"{value} outside [2^(1-n), 1]")


def check_estimate(estimate, samples, exact):
    hits = round(estimate * samples)
    _require(abs(estimate * samples - hits) < 0.5, f"estimate {estimate} is no hit rate")
    lo, hi = oracles.wilson_interval(hits, samples, Z)
    _require(lo <= float(exact) <= hi, f"estimate {estimate} misses {exact} ({lo}, {hi})")


def check_exact(info, out):
    if out.startswith("{"):
        doc = json.loads(out)
        value = Fraction(int(doc["numerator"]), int(doc["denominator"]))
    else:
        value = parse_rational(out)
    check_volume_bounds(value, info["n"])
    _require(value == reference(info), f"volume {value} != reference {reference(info)}")
    if "mc_hits" in info:
        hits, samples = info["mc_hits"]
        lo, hi = oracles.wilson_interval(hits, samples, Z)
        _require(lo <= float(value) <= hi, f"volume {value} disagrees with stdlib MC")


def check_mc(info, out):
    estimate = json.loads(out)["estimate"] if out.startswith("{") else parse_estimate(out)
    check_estimate(estimate, info["samples"], reference(info))


def check_crosscheck(info, out):
    lines = out.strip().splitlines()
    _require(lines[-1] == "agreement: ok", f"last line {lines[-1]!r}")
    for line in lines[:-1]:
        method, value = line.split(None, 1)
        if method == "mc":
            check_estimate(parse_estimate(value), info["samples"], reference(info))
        else:
            exact = parse_rational(value)
            check_volume_bounds(exact, info["n"])
            _require(exact == reference(info), f"{method}: {exact} != {reference(info)}")


def check_count(info, out):
    value = int(out)
    n, edges, t = info["n"], info["edges"], info["t"]
    _require(value == oracles.lattice_points(n, edges, t), f"count {value} at t={t}")
    if t == 1:
        _require(value == oracles.independent_sets(n, edges), "count at t=1 != independent sets")


def check_ehrhart(info, out):
    n, edges = info["n"], info["edges"]
    lines = out.strip().splitlines()
    head, poly_text = lines[0].split(" = ", 1)
    volume = parse_rational(lines[-1].split(" = ", 1)[1])
    check_volume_bounds(volume, n)
    _require(volume == reference(info), f"ehrhart volume {volume} != {reference(info)}")
    if head == "L(t)":
        coeffs = parse_poly(poly_text, "t")
        for t in range(n + 1):
            _require(evaluate(coeffs, t) == oracles.lattice_points(n, edges, t), f"L({t})")
        _require(lines[1].startswith("h* = ["), "missing h* line")
        hstar = [int(x) for x in lines[1][6:-1].split(",")]
        _require(all(h >= 0 for h in hstar), f"negative h* entry in {hstar}")
        _require(sum(hstar) == math.factorial(n) * volume, f"h* sums to {sum(hstar)}")
    else:
        _require(head == "L(2s)", f"unknown head {head!r}")
        coeffs = parse_poly(poly_text.split("  [")[0], "s")
        for s in range(n + 1):
            _require(evaluate(coeffs, s) == oracles.lattice_points(n, edges, 2 * s), f"L(2*{s})")


def check_sliced(info, out):
    if out.startswith("{"):
        doc = json.loads(out)
        coeffs = [Fraction(c) for c in doc["high_coefficients"]]
        _require(doc["n"] == info["n"], f"n={doc['n']}")
    else:
        coeffs = parse_poly(out.strip(), "c")
    half = evaluate(coeffs, Fraction(1, 2))
    _require(half == Fraction(1, 2 ** info["n"]), f"vol(G, 1/2) = {half}")
    at_one = evaluate(coeffs, 1)
    _require(at_one == reference(info), f"vol(G, 1) = {at_one} != {reference(info)}")


def check_families(info, out):
    for line in out.strip().splitlines():
        name, value = line.split(" ", 1)
        kind, n = name.split(":")
        n = int(n)
        expected = family_volume(kind, n)
        if expected is None:
            expected = oracles.exact_volume(*oracles.family_graph(kind, n))
        _require(parse_rational(value) == expected, f"{name}: {value} != {expected}")


def pi_decimal(digits):
    """pi by Machin's formula, pi = 16 atan(1/5) - 4 atan(1/239)."""
    with localcontext() as ctx:
        ctx.prec = digits + 10

        def atan_inv(x):
            total, term, k, x2 = Decimal(0), Decimal(1) / x, 0, x * x
            while term > Decimal(10) ** -(digits + 5):
                total += term / (2 * k + 1) * (-1) ** k
                term /= x2
                k += 1
            return total

        return +(16 * atan_inv(5) - 4 * atan_inv(239))


def check_series(info, out):
    n, terms = info["order"], info["terms"]
    lines = out.strip().splitlines()
    _require(lines[0].startswith(f"partial sum (K={terms}) = "), f"first line {lines[0]!r}")
    with localcontext() as ctx:
        ctx.prec = 50
        partial = Decimal(lines[0].split(" = ")[1])
        vol = oracles.cycle_volume(n)
        target = pi_decimal(40) ** n * vol.numerator / vol.denominator / 2**n
        bound = Decimal(2) / Decimal(4 * terms) ** (n - 1)
        # the printed partial sum carries 25 significant digits
        _require(abs(partial - target) <= bound + Decimal(10) ** -23, f"partial {partial}")


CHECKERS = {
    "exact": check_exact,
    "mc": check_mc,
    "crosscheck": check_crosscheck,
    "count": check_count,
    "ehrhart": check_ehrhart,
    "sliced": check_sliced,
    "families": check_families,
    "series": check_series,
}


def check_call(call, out):
    CHECKERS[call.check](call.info, out)
