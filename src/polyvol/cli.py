"""Command-line front end unifying all volume methods.

Exit codes: 0 success, 1 usage error, 2 requested method not applicable
to the given graph.
"""

import argparse
import json
import sys
from fractions import Fraction

from . import closed
from .bipartite import MAX_PERM_SIDE, from_graph, perm_volume, symmetric_volume
from .ehrhart import ehrhart_fit, ehrhart_volume, hstar, lattice_count
from .errors import MethodNotApplicable, ParameterError, PolyvolError
from .graphs import (
    FamilySpec,
    Graph,
    bipartition,  # unused here, but bench/pvbench/tracing.py wraps cli.bipartition
    build_family,
    load_edge_list,
    parse_spec,
)
from .mc import mc_volume
from .rational import approx_decimal, format_rational
from .rvf import rvf_volume
from .series import series_partial, series_target, trace_quadrature
from .slices import (
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


def _auto_method(spec, graph: Graph) -> str:
    if spec is not None and spec.kind == "null":
        return "rvf"  # trivial and exact
    if spec is not None and closed.has_closed_form(spec):
        return "closed"
    try:
        b = from_graph(graph)
    except MethodNotApplicable:
        return "rvf"
    return "perm" if b.n <= MAX_PERM_SIDE else "rvf"


def _exact_volume(method: str, spec, graph: Graph) -> Fraction:
    if method == "rvf":
        return rvf_volume(graph)
    if method == "closed":
        if spec is None:
            raise MethodNotApplicable("closed forms need a family spec, not a file")
        return closed.family_volume(spec)
    if method == "perm":
        return perm_volume(from_graph(graph))
    if method == "sym":
        return symmetric_volume(from_graph(graph))
    if method == "ehrhart":
        return ehrhart_volume(graph)
    raise ParameterError(f"unknown method {method!r}")


def _emit(args, text, payload):
    print(json.dumps(payload) if args.json else text)


def _cmd_volume(args) -> int:
    spec, graph = _resolve_graph(args.graph)
    method = args.method
    if method == "auto":
        method = _auto_method(spec, graph)
    if method == "mc":
        estimate, stderr = mc_volume(graph, args.samples, args.seed)
        _emit(
            args,
            f"{estimate:.6f} ± {stderr:.6f}",
            {
                "command": "volume",
                "graph": args.graph,
                "method": "mc",
                "estimate": estimate,
                "stderr": stderr,
                "samples": args.samples,
                "seed": args.seed,
            },
        )
        return 0
    value = _exact_volume(method, spec, graph)
    _emit(
        args,
        format_rational(value),
        {
            "command": "volume",
            "graph": args.graph,
            "method": method,
            "numerator": str(value.numerator),
            "denominator": str(value.denominator),
            "decimal": approx_decimal(value),
        },
    )
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
    partial = series_partial(args.n, args.terms)
    target = series_target(args.n)
    diff = abs(partial - target)
    text = (
        f"partial sum (K={args.terms}) = {_mpf_str(partial)}\n"
        f"closed form target        = {_mpf_str(target)}\n"
        f"absolute difference       = {_mpf_str(diff)}"
    )
    _emit(
        args,
        text,
        {
            "command": "series",
            "n": args.n,
            "terms": args.terms,
            "partial": _mpf_str(partial),
            "target": _mpf_str(target),
            "difference": _mpf_str(diff),
        },
    )
    return 0


def _mpf_str(x) -> str:
    from mpmath import mp, nstr

    with mp.workdps(30):
        return nstr(x, 25)


def _cmd_crosscheck(args) -> int:
    spec, graph = _resolve_graph(args.graph)
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    if not methods:
        raise ParameterError("no methods given")
    rows = []
    exact_values = []
    mc_row = None
    for method in methods:
        if method == "mc":
            estimate, stderr = mc_volume(graph, args.samples, args.seed)
            mc_row = (estimate, stderr)
            rows.append(("mc", f"{estimate:.6f} ± {stderr:.6f}"))
        else:
            value = _exact_volume(method, spec, graph)
            exact_values.append((method, value))
            rows.append((method, format_rational(value)))
    agree = len({v for _, v in exact_values}) <= 1
    if agree and mc_row is not None and exact_values:
        reference = float(exact_values[0][1])
        band = 4 * mc_row[1]
        agree = abs(mc_row[0] - reference) <= max(band, 1e-12)
    width = max(len(m) for m, _ in rows)
    lines = [f"{m.ljust(width)}  {v}" for m, v in rows]
    lines.append("agreement: ok" if agree else "agreement: MISMATCH")
    _emit(
        args,
        "\n".join(lines),
        {
            "command": "crosscheck",
            "graph": args.graph,
            "results": {m: v for m, v in rows},
            "agreement": agree,
        },
    )
    return 0 if agree else 1


def _cmd_families(args) -> int:
    try:
        lo_text, hi_text = args.range.split("..")
        lo, hi = int(lo_text), int(hi_text)
    except ValueError:
        raise ParameterError("range must look like 1..10")
    if hi < lo:
        raise ParameterError("empty range")
    minimum = {"path": 0, "cycle": 3, "complete": 1, "bn": 2}
    if args.family not in minimum:
        raise ParameterError(
            "families supports path, cycle, complete, bn"
        )
    lines = []
    entries = []
    for n in range(max(lo, minimum[args.family]), hi + 1):
        spec = FamilySpec(args.family, args=(n,))
        value = closed.family_volume(spec)
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
        choices=["auto", "rvf", "closed", "perm", "sym", "ehrhart", "mc"],
    )
    p.add_argument("--samples", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)

    p = add("count", _cmd_count, "lattice points in the t-dilated polytope")
    p.add_argument("graph")
    p.add_argument("t", type=int)

    p = add("sliced", _cmd_sliced, "symbolic sliced volume on [1/2, 1]")
    p.add_argument("graph", help="join-expression over null graphs")

    p = add("ehrhart", _cmd_ehrhart, "fitted counting polynomial and h* vector")
    p.add_argument("graph")

    p = add("series", _cmd_series, "partial sums of the trace series")
    p.add_argument("n", type=int)
    p.add_argument("--terms", type=int, default=1000)

    p = add("crosscheck", _cmd_crosscheck, "run several methods and compare")
    p.add_argument("graph")
    p.add_argument("--methods", default="rvf,ehrhart,mc")
    p.add_argument("--samples", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)

    p = add("families", _cmd_families, "closed-form volumes over a range")
    p.add_argument("family")
    p.add_argument("range", help="inclusive range like 1..10")

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
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
