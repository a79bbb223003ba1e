"""The four workloads: each turns a seed into one pass, a fixed list of
CLI calls, plus the checks every output of those calls must pass.

A pass is the unit a run repeats; every run times whole passes. A
workload's pass has the same cost make-up whatever the seed (see
README.md): evenly spaced cost ladders in rvf-general and
ehrhart-verify, one cost class in perm-bipartite, many small classes in
light-calls, so that neither reported percentile sits on a jump between
cost classes.
"""

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from . import oracles

DATA = Path(__file__).resolve().parent.parent / "data"
RVF_POOL = DATA / "rvf_pool.json"
EHRHART_POOL = DATA / "ehrhart_pool.json"


@dataclass
class Call:
    argv: list
    check: str  # name of the checker in checks.CHECKERS
    info: dict = field(default_factory=dict)


def _relabel(rng, n, edges):
    perm = list(range(n))
    rng.shuffle(perm)
    out = [(perm[u], perm[v]) if rng.random() < 0.5 else (perm[v], perm[u]) for u, v in edges]
    rng.shuffle(out)
    return out


def _write_edge_list(path, n, edges):
    lines = [f"{n} {len(edges)}"] + [f"{u} {v}" for u, v in edges]
    path.write_text("\n".join(lines) + "\n")
    return f"file:{path}"


def _dsl_edges(n, edges):
    return f"edges:{n}:" + ",".join(f"{u}-{v}" for u, v in edges)


def _rungs(pool):
    """The graphs of a pool file grouped by (class, rung), in rung order."""
    groups = {}
    for g in json.loads(pool.read_text())["graphs"]:
        groups.setdefault((g["class"], g["rung"]), []).append(g)
    return [groups[key] for key in sorted(groups)]


# -- rvf-general ---------------------------------------------------------------

def rvf_general(seed, workdir):
    """volume (auto) on non-bipartite 12-13 vertex edge-list files: one graph
    from each rung of the committed pool's cost ladder, relabelled by the seed."""
    rng = random.Random(seed)
    calls = []
    for i, rung in enumerate(_rungs(RVF_POOL)):
        g = rng.choice(rung)
        n = g["n"]
        edges = _relabel(rng, n, [tuple(e) for e in g["edges"]])
        spec = _write_edge_list(workdir / f"rvf-{i}.txt", n, edges)
        mc = g["mc"]
        info = {
            "n": n,
            "edges": edges,
            "reference": Fraction(g["volume"]),
            "mc_hits": (mc["hits"], mc["samples"]),
        }
        calls.append(Call(["volume", spec], "exact", info))
    rng.shuffle(calls)
    return calls


# -- perm-bipartite ------------------------------------------------------------

PERM_SMALL_SIDE = 7
# the larger side of the pass's graphs, a ladder evenly spaced in log
# scale: the permutation sum's cost grows with it, about 2x over the ladder
PERM_LARGE_SIDES = tuple(round(8 * 4 ** (i / 23)) for i in range(24))
PERM_DEGREE = 3  # edges per vertex of the larger side, on average


def random_bipartite(rng, a, b, m):
    """A connected bipartite graph with sides of a and b vertices and m edges,
    its labels shuffled so the sides interleave."""
    pairs = [(i, a + j) for i in range(a) for j in range(b)]
    while True:
        edges = rng.sample(pairs, m)
        if _connected(a + b, edges):
            return _relabel(rng, a + b, edges)


def _connected(n, edges):
    adj = oracles.adjacency(n, edges)
    seen = frontier = 1
    while frontier:
        reach = 0
        for v in range(n):
            if frontier >> v & 1:
                reach |= adj[v]
        frontier = reach & ~seen
        seen |= reach
    return seen == (1 << n) - 1


def perm_bipartite(seed, workdir):
    """volume (auto) on connected bipartite edge-list files whose smaller
    side has 7 vertices; auto picks the order-cell permutation sum."""
    rng = random.Random(seed)
    a = PERM_SMALL_SIDE
    calls = []
    for i, b in enumerate(PERM_LARGE_SIDES):
        edges = random_bipartite(rng, a, b, PERM_DEGREE * b)
        spec = _write_edge_list(workdir / f"perm-{i}.txt", a + b, edges)
        calls.append(Call(["volume", spec], "exact", {"n": a + b, "edges": edges}))
    rng.shuffle(calls)
    return calls


# -- ehrhart-verify ------------------------------------------------------------

# t of `count G t` for the graphs of a pass, in the order they are drawn
COUNT_T = (7, 8, 9, 10, 11, 12, 13, 14, 15, 15, 16, 16)
# Monte Carlo samples of crosscheck: a fifth of the default, so that
# sampling stays a small share beside lattice enumeration
CROSSCHECK_SAMPLES = 20_000


def ehrhart_verify(seed, workdir):
    """crosscheck (rvf,ehrhart,mc), ehrhart, count G t and count G 1 on
    6-vertex graphs: one from each rung of the committed pool's two cost
    ladders, 8 graphs with an odd cycle and 4 bipartite ones."""
    rng = random.Random(seed)
    graphs = [rng.choice(rung) for rung in _rungs(EHRHART_POOL)]
    rng.shuffle(graphs)
    calls = []
    for g, t in zip(graphs, COUNT_T, strict=True):
        n, edges = g["n"], [tuple(e) for e in g["edges"]]
        # the labels stay: polyvol's enumeration order, hence its cost, hangs on them
        rng.shuffle(edges)
        spec = _dsl_edges(n, edges)
        info = {"n": n, "edges": edges}
        calls.append(Call(["crosscheck", spec, "--samples", str(CROSSCHECK_SAMPLES)], "crosscheck",
                          dict(info, samples=CROSSCHECK_SAMPLES)))
        calls.append(Call(["ehrhart", spec], "ehrhart", info))
        calls.append(Call(["count", spec, str(t)], "count", dict(info, t=t)))
        calls.append(Call(["count", spec, "1"], "count", dict(info, t=1)))
    rng.shuffle(calls)
    return calls


# -- light-calls -----------------------------------------------------------------


def _family(kind, *args):
    n, edges = oracles.family_graph(kind, *args)
    return {"n": n, "edges": edges, "family": (kind, *args)}


def _named(kind, *args):
    if kind == "kbip":
        return f"kbip:{args[0]},{args[1]}"
    return f"{kind}:{args[0]}"


def _njoin(k, m):
    """(n, edges) of njoin(k, null:m), the k-fold join of m isolated vertices."""
    base = oracles.family_graph("null", m)
    g = base
    for _ in range(k - 1):
        g = oracles.join(g, base)
    return g


def _random_graph(rng, n, m, bipartite):
    while True:
        if bipartite:
            a = n // 2
            pairs = [(i, a + j) for i in range(a) for j in range(n - a)]
        else:
            pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        edges = rng.sample(pairs, m)
        if bipartite or oracles.two_coloring(n, edges) is None:
            return _relabel(rng, n, edges)


LIGHT_ROUNDS = 2  # rounds of cheap calls per pass, against one failing call


def light_calls(seed, workdir):
    """Many cheap calls where parsing, dispatch and rendering weigh most."""
    rng = random.Random(seed)
    calls = []

    def add(argv, check, info):
        calls.append(Call(argv, check, info))

    for _ in range(LIGHT_ROUNDS):
        # closed forms on named families, text and --json
        closed_menu = [
            ("path", lambda: (rng.randint(8, 20),)),
            ("cycle", lambda: (rng.randint(5, 20),)),
            ("complete", lambda: (rng.randint(3, 20),)),
            ("kbip", lambda: (rng.randint(2, 7), rng.randint(2, 7))),
            ("bn", lambda: (rng.randint(3, 7),)),
        ]
        for rep in range(4):
            for kind, draw in closed_menu:
                args = draw()
                argv = ["volume", _named(kind, *args)]
                if rep % 2:
                    argv.append("--json")
                add(argv, "exact", _family(kind, *args))
        for _ in range(4):
            k, m = rng.randint(2, 4), rng.randint(1, 3)
            n, edges = _njoin(k, m)
            add(["volume", f"njoin({k},null:{m})"], "exact", {"n": n, "edges": edges})

        # sliced volumes of join expressions
        for _ in range(8):
            a, b = rng.randint(1, 4), rng.randint(1, 4)
            k, m = rng.randint(2, 3), rng.randint(1, 3)
            text, g = rng.choice([
                (f"njoin({k},null:{m})", _njoin(k, m)),
                (f"join(null:{a},null:{b})", oracles.family_graph("kbip", a, b)),
                (f"kbip:{a},{b}", oracles.family_graph("kbip", a, b)),
                (f"join(null:{a},njoin({k},null:{m}))", oracles.join(oracles.family_graph("null", a), _njoin(k, m))),
            ])
            argv = ["sliced", text] + (["--json"] if rng.random() < 0.5 else [])
            add(argv, "sliced", {"n": g[0], "edges": g[1]})

        # closed-form tables
        add(["families", "path", f"1..{rng.randint(12, 20)}"], "families", {})
        add(["families", "cycle", f"3..{rng.randint(12, 20)}"], "families", {})
        add(["families", "complete", f"1..{rng.randint(12, 20)}"], "families", {})
        add(["families", "bn", f"2..{rng.randint(4, 6)}"], "families", {})

        # the side-symmetric shortcut and the permutation sum on small bipartite graphs
        for _ in range(4):
            a, b = rng.randint(2, 5), rng.randint(2, 5)
            add(["volume", f"kbip:{a},{b}", "--method", "sym"], "exact", _family("kbip", a, b))
            edges = _random_graph(rng, 8, 8, bipartite=True)
            add(["volume", _dsl_edges(8, edges), "--method", "perm"], "exact", {"n": 8, "edges": edges})

        # the recursion on small non-bipartite graphs, by auto and by name
        for i in range(6):
            n = 8 if i % 2 else 9
            edges = _random_graph(rng, n, 12, bipartite=False)
            argv = ["volume", _dsl_edges(n, edges)] + (["--method", "rvf"] if i < 3 else [])
            add(argv, "exact", {"n": n, "edges": edges})

        # Monte Carlo estimates
        for _ in range(6):
            edges = _random_graph(rng, 7, 9, bipartite=False)
            argv = ["volume", _dsl_edges(7, edges), "--method", "mc",
                    "--samples", "50000", "--seed", str(rng.randrange(1000))]
            add(argv, "mc", {"n": 7, "edges": edges, "samples": 50_000})

        # partial sums of the trace series
        for _ in range(5):
            n = rng.randint(3, 6)
            add(["series", str(n), "--terms", "1000"], "series", {"order": n, "terms": 1000})

        # crosscheck of four methods on bipartite named families
        cross_menu = [
            lambda: ("path", rng.randint(5, 8)),
            lambda: ("cycle", 2 * rng.randint(3, 4)),
            lambda: ("kbip", rng.randint(2, 4), rng.randint(2, 4)),
            lambda: ("bn", rng.randint(3, 4)),
        ]
        for draw in cross_menu + cross_menu[:1]:
            kind, *args = draw()
            add(["crosscheck", _named(kind, *args), "--methods", "closed,rvf,perm,mc"],
                "crosscheck", dict(_family(kind, *args), samples=100_000))

    # Fails on every pass: with zero MC hits the 4-sigma band collapses
    add(["crosscheck", "complete:22", "--methods", "closed,mc"],
        "crosscheck", dict(_family("complete", 22), samples=100_000))

    rng.shuffle(calls)
    return calls


WORKLOADS = {
    "rvf-general": rvf_general,
    "perm-bipartite": perm_bipartite,
    "ehrhart-verify": ehrhart_verify,
    "light-calls": light_calls,
}
