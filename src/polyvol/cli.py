"""Command-line front end unifying all volume methods.

Exit codes: 0 success, 1 usage error, 2 requested method not applicable
to the given graph.
"""

import argparse
import sys
from decimal import ROUND_HALF_UP, Context
from fractions import Fraction

from . import closed
from .bipartite import from_graph, perm_volume, symmetric_volume
from .closed import MAX_FAMILY_N
from .ehrhart import ehrhart_fit, ehrhart_volume, hstar, lattice_count
from .errors import MethodNotApplicable, ParameterError, PolyvolError, SizeError
from .graphs import (
    FAMILIES,
    FamilySpec,
    Graph,
    _is_digits,
    bipartition,  # unused here, but bench/pvbench/tracing.py wraps cli.bipartition
    build_family,
    load_edge_list,
    parse_spec,
)
from .mc import mc_volume
from .rational import approx_decimal, format_rational
from .rvf import rvf_volume
from .series import WORKING_DPS, series_error_bound, series_partial, series_target
from .slices import (
    MAX_SLICED_N,
    sliced_complete_bipartite,
    sliced_join,
    sliced_multiple,
    sliced_null,
)

class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _integer(text: str) -> int:
    """The argparse type of every integer argument: ASCII digits after at
    most one leading '-'. int() alone also reads '٣', '1_000' and '+3'."""
    if not _is_digits(text.removeprefix("-")):
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    return int(text)


def _resolve_graph(text: str):
    """'file:PATH' or a DSL spec -> (FamilySpec or None, Graph)."""
    if text.startswith("file:"):
        return None, load_edge_list(text[len("file:"):])
    spec = parse_spec(text)
    return spec, build_family(spec)


def _sliced_from_spec(spec: FamilySpec):
    if spec.kind == "null":
        return sliced_null(spec.args[0])
    if spec.kind == "kbip":
        return sliced_complete_bipartite(*spec.args)
    if spec.kind == "complete":
        return sliced_multiple(sliced_null(1), spec.args[0])
    if spec.kind == "join":
        a, b = (_sliced_from_spec(c) for c in spec.children)
        return sliced_join(a, b)
    if spec.kind == "njoin":
        return sliced_multiple(_sliced_from_spec(spec.children[0]), spec.args[0])
    raise MethodNotApplicable(
        f"{spec} is not a join-expression over null graphs; use the rvf method"
    )


def _closed_volume(spec) -> Fraction:
    if spec is None:
        raise MethodNotApplicable("closed forms need a family spec, not a file")
    return closed.family_volume(spec)


# Exact methods: (spec, graph) -> Fraction. A kernel that does not apply
# raises MethodNotApplicable or SizeError before any work. Kernels are looked
# up in this module's globals at call time, so bench/pvbench/tracing.py's
# wrappers on them see every call.
EXACT = {
    "rvf": lambda spec, g: rvf_volume(g),
    "closed": lambda spec, g: _closed_volume(spec),
    "perm": lambda spec, g: perm_volume(from_graph(g)),
    "sym": lambda spec, g: symmetric_volume(from_graph(g)),
    "ehrhart": lambda spec, g: ehrhart_volume(g),
}
# The names crosscheck --methods takes; volume --method also takes auto.
METHODS = (*EXACT, "mc")


def _auto_volume(spec, graph: Graph):
    """(method, value): the first of closed and perm that applies, else rvf."""
    for method in ("closed", "perm"):
        try:
            return method, EXACT[method](spec, graph)
        except (MethodNotApplicable, SizeError):
            pass
    return "rvf", EXACT["rvf"](spec, graph)


def _run(method, spec, graph, args):
    """(method that ran, result, text) of one method, `auto` or a name in
    METHODS: an exact method's result is a Fraction, mc's (estimate, stderr)."""
    if method == "mc":
        estimate, stderr = mc_volume(graph, args.samples, args.seed)
        return method, (estimate, stderr), f"{estimate:.6f} ± {stderr:.6f}"
    if method == "auto":
        method, value = _auto_volume(spec, graph)
    else:
        value = EXACT[method](spec, graph)
    return method, value, format_rational(value)


def _emit(args, text, payload):
    if args.json:
        import json  # only --json needs it, so a plain call does not load it

        text = json.dumps(payload)
    print(text)


def _cmd_volume(args) -> int:
    spec, graph = _resolve_graph(args.graph)
    method, result, text = _run(args.method, spec, graph, args)
    payload = {"command": "volume", "graph": args.graph, "method": method}
    if method == "mc":
        estimate, stderr = result
        payload.update(estimate=estimate, stderr=stderr, samples=args.samples, seed=args.seed)
    else:
        payload.update(
            numerator=str(result.numerator),
            denominator=str(result.denominator),
            decimal=approx_decimal(result),
        )
    _emit(args, text, payload)
    return 0


def _cmd_count(args) -> int:
    _, graph = _resolve_graph(args.graph)
    value = lattice_count(graph, args.t)
    _emit(
        args,
        str(value),
        {"command": "count", "graph": args.graph, "t": args.t, "count": str(value)},
    )
    return 0


def _cmd_sliced(args) -> int:
    spec = parse_spec(args.graph)
    n = spec.vertex_count()
    if n > MAX_SLICED_N:
        raise SizeError(
            f"{spec} has {n} vertices, more than MAX_SLICED_N = {MAX_SLICED_N}"
        )
    s = _sliced_from_spec(spec)
    rendered = s.high.to_string("c")
    _emit(
        args,
        rendered,
        {
            "command": "sliced",
            "graph": args.graph,
            "n": s.n,
            "high_coefficients": [str(c) for c in s.high.coeffs],
        },
    )
    return 0


def _cmd_ehrhart(args) -> int:
    _, graph = _resolve_graph(args.graph)
    fit = ehrhart_fit(graph)
    volume = ehrhart_volume(graph)
    payload = {
        "command": "ehrhart",
        "graph": args.graph,
        "parity": fit.parity,
        "coefficients": [str(c) for c in fit.poly.coeffs],
        "numerator": str(volume.numerator),
        "denominator": str(volume.denominator),
    }
    lines = []
    if fit.parity == "integral":
        lines.append(f"L(t) = {fit.poly.to_string('t')}")
        hs = hstar(graph)
        lines.append("h* = [" + ", ".join(str(c) for c in hs.coefficients) + "]")
        payload["hstar"] = list(hs.coefficients)
    else:
        lines.append(f"L(2s) = {fit.poly.to_string('s')}  [even dilations only]")
    lines.append(f"volume = {format_rational(volume)}")
    _emit(args, "\n".join(lines), payload)
    return 0


def _cmd_series(args) -> int:
    target = series_target(args.n)  # first: it bounds n before the partial sum runs
    partial = series_partial(args.n, args.terms)
    diff = Context(prec=WORKING_DPS).subtract(partial, target).copy_abs()
    err = series_error_bound(args.n, args.terms)
    # only digits of unit at least 10 err are printed; with none, a bound
    digits = min(25, diff.adjusted() - err.adjusted() - 1)
    diff = _decimal_str(diff, digits) if digits > 0 else f"< 1e{(diff + err).adjusted() + 1}"
    partial, target = map(_decimal_str, (partial, target))
    text = (
        f"partial sum (K={args.terms}) = {partial}\n"
        f"closed form target        = {target}\n"
        f"absolute difference       = {diff}"
    )
    _emit(
        args,
        text,
        {
            "command": "series",
            "n": args.n,
            "terms": args.terms,
            "partial": partial,
            "target": target,
            "difference": diff,
        },
    )
    return 0


def _decimal_str(x, digits=25) -> str:
    """`digits` significant digits in mpmath nstr's layout: trailing zeros
    dropped, fixed notation for decimal exponents -7 to 24 at 25 digits and
    'e' notation outside, and '.0' where no point would be printed."""
    x = Context(prec=digits, rounding=ROUND_HALF_UP).normalize(x)
    fixed = -max(digits // 3, 5) < x.adjusted() < digits
    mantissa, e, exponent = format(x, "f" if fixed else "e").partition("e")
    return mantissa + ("" if "." in mantissa else ".0") + e + exponent


def _cmd_crosscheck(args) -> int:
    spec, graph = _resolve_graph(args.graph)
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    if not methods:
        raise ParameterError("no methods given")
    for i, method in enumerate(methods):
        if method not in METHODS:
            raise ParameterError(f"unknown method {method!r}")
        if method in methods[:i]:
            raise ParameterError(f"method {method!r} given twice")
    rows = [_run(method, spec, graph, args) for method in methods]
    exact = {value for method, value, _ in rows if method != "mc"}
    agree = len(exact) <= 1
    if agree and exact and "mc" in methods:
        estimate, stderr = rows[methods.index("mc")][1]
        agree = abs(estimate - float(exact.pop())) <= max(4 * stderr, 1e-12)
    width = max(len(m) for m in methods)
    lines = [f"{m.ljust(width)}  {text}" for m, _, text in rows]
    lines.append("agreement: ok" if agree else "agreement: MISMATCH")
    _emit(
        args,
        "\n".join(lines),
        {
            "command": "crosscheck",
            "graph": args.graph,
            "results": {m: text for m, _, text in rows},
            "agreement": agree,
        },
    )
    return 0 if agree else 1


def _cmd_families(args) -> int:
    try:
        lo, hi = map(_integer, args.range.split(".."))
    except (ValueError, argparse.ArgumentTypeError):
        raise ParameterError("range must look like 1..10")
    if hi < lo:
        raise ParameterError("empty range")
    if hi > MAX_FAMILY_N:
        raise SizeError(f"range top {hi} exceeds MAX_FAMILY_N = {MAX_FAMILY_N}")
    family = FAMILIES.get(args.family)
    if family is None or len(family.minima) != 1:
        kinds = ", ".join(k for k, f in FAMILIES.items() if len(f.minima) == 1)
        raise ParameterError(f"families supports {kinds}")
    zigzag = closed.euler_numbers(max(hi, 0)) if args.family in ("path", "cycle") else None
    lines = []
    entries = []
    for n in range(max(lo, family.minima[0]), hi + 1):
        spec = FamilySpec(args.family, args=(n,))
        value = closed.family_volume(spec, zigzag)
        lines.append(f"{args.family}:{n} {format_rational(value)}")
        entries.append(
            {"n": n, "numerator": str(value.numerator), "denominator": str(value.denominator)}
        )
    _emit(
        args,
        "\n".join(lines),
        {"command": "families", "family": args.family, "values": entries},
    )
    return 0


def _build_parser() -> _Parser:
    parser = _Parser(prog="polyvol", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        p.add_argument("--json", action="store_true", help="emit a flat JSON object")
        return p

    p = add("volume", _cmd_volume, "exact or estimated volume of a graph polytope")
    p.add_argument("graph", help="graph DSL spec or file:PATH")
    p.add_argument(
        "--method",
        default="auto",
        choices=["auto", *METHODS],
    )
    p.add_argument("--samples", type=_integer, default=100_000)
    p.add_argument("--seed", type=_integer, default=0)

    p = add("count", _cmd_count, "lattice points in the t-dilated polytope")
    p.add_argument("graph")
    p.add_argument("t", type=_integer)

    p = add("sliced", _cmd_sliced, "symbolic sliced volume on [1/2, 1]")
    p.add_argument("graph", help="join-expression over null graphs")

    p = add("ehrhart", _cmd_ehrhart, "fitted counting polynomial and h* vector")
    p.add_argument("graph")

    p = add("series", _cmd_series, "partial sums of the trace series")
    p.add_argument("n", type=_integer)
    p.add_argument("--terms", type=_integer, default=1000)

    p = add("crosscheck", _cmd_crosscheck, "run several methods and compare")
    p.add_argument("graph")
    p.add_argument("--methods", default="rvf,ehrhart,mc")
    p.add_argument("--samples", type=_integer, default=100_000)
    p.add_argument("--seed", type=_integer, default=0)

    p = add("families", _cmd_families, "closed-form volumes over a range")
    p.add_argument("family")
    p.add_argument("range", help="inclusive range like 1..10")

    return parser


_PARSER = _build_parser()


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except MethodNotApplicable as exc:
        print(f"method not applicable: {exc}", file=sys.stderr)
        return 2
    except PolyvolError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
