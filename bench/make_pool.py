"""Make the graph pools of two workloads under bench/data/.

    python3 bench/make_pool.py

Both pools are pure functions of the constants below (no timing enters
them), so running this again writes the same files.

rvf_pool.json (rvf-general). For every graph it stores the reference
volume from the benchmark's own recursion (oracles.recursion_volume) and
a stdlib-random Monte Carlo hit count, both of which stay valid under the
vertex relabelling a run applies. The graphs sit on a ladder of RUNGS
cost levels, spaced evenly in log scale from WORK_LOW to WORK_HIGH,
measured by the recursion's work: the number of vertex deletions over
all connected induced subgraphs, one memoized step each in the
program's rvf kernel. A run takes one graph per rung, so every seed
gets the same spread of costs, with no gap for the median or the 90th
percentile to fall into. Every fourth rung holds
cographs, built by random joins and disjoint unions; the others hold
random G(n, m) graphs, n = 12 below the middle of the ladder and 13
above it.

ehrhart_pool.json (ehrhart-verify). Connected 6-vertex graphs on two
ladders of enumeration cost (enumeration_nodes below): 8 rungs of graphs
with an odd cycle, 4 of bipartite graphs with sides of 3 and 3. Their
labels are kept as stored, because the cost depends on them.
"""

import json
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from pvbench import oracles  # noqa: E402
from pvbench.workloads import _connected, random_bipartite  # noqa: E402

POOL_SEED = 20261018
RUNGS = 24
PER_RUNG = 4
WORK_LOW, WORK_HIGH = 4000, 32000  # the recursion's work on the lowest and highest rung
TOLERANCE = 0.03
# Random cographs' work clusters at a few values, so their rungs take a
# wider band.
COGRAPH_TOLERANCE = 0.10
MC_SAMPLES = 200_000
# kind -> (rungs, enumeration nodes on the lowest and highest rung, edge counts)
EHRHART_LADDERS = {
    "odd-cycle": (8, 58_000, 98_000, (7, 12)),
    "bipartite": (4, 5_908, 8_428, (5, 8)),
}
EHRHART_PER_RUNG = 4
EHRHART_TOLERANCE = 0.05  # node counts are discrete and sparse at the top
DATA = Path(__file__).resolve().parent / "data"


def random_cograph(rng, n):
    """Merge n single vertices by random joins and disjoint unions."""
    parts = [(1, []) for _ in range(n)]
    while len(parts) > 1:
        i, j = sorted(rng.sample(range(len(parts)), 2))
        b = parts.pop(j)
        a = parts.pop(i)
        parts.append(oracles.join(a, b) if rng.random() < 0.5 else oracles.union(a, b))
    return parts[0]


def has_induced_p4(n, edges):
    adj = oracles.adjacency(n, edges)
    for b in range(n):
        for c in range(n):
            if not adj[b] >> c & 1:
                continue
            for a in range(n):
                if a in (b, c) or not adj[a] >> b & 1 or adj[a] >> c & 1:
                    continue
                for d in range(n):
                    if d in (a, b) or not adj[c] >> d & 1:
                        continue
                    if not adj[d] >> b & 1 and not adj[d] >> a & 1:
                        return True
    return False


def candidate(rng, rung):
    if rung % 4 == 1:
        return "cograph", random_cograph(rng, rng.choice((12, 13)))
    n = 12 if rung < RUNGS // 2 else 13
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return f"gnm{n}", (n, sorted(rng.sample(pairs, rng.randint(n + 4, 3 * n))))


def make_rvf_rung(rng, rung):
    target = WORK_LOW * (WORK_HIGH / WORK_LOW) ** (rung / (RUNGS - 1))
    out = []
    while len(out) < PER_RUNG:
        name, (n, edges) = candidate(rng, rung)
        if oracles.two_coloring(n, edges) is not None:
            continue
        states, work = oracles.connected_states(n, edges)
        if abs(work / target - 1) > (COGRAPH_TOLERANCE if name == "cograph" else TOLERANCE):
            continue
        if (name == "cograph") == has_induced_p4(n, edges):
            continue  # cographs are exactly the P4-free graphs
        volume = oracles.recursion_volume(n, edges)
        mc_seed = rng.randrange(1 << 30)
        hits = oracles.mc_hits(n, edges, MC_SAMPLES, mc_seed)
        lo, hi = oracles.wilson_interval(hits, MC_SAMPLES)
        if not lo <= float(volume) <= hi:
            raise SystemExit(f"{name} graph {edges}: MC disagrees with the recursion")
        out.append(
            {
                "rung": rung,
                "class": name,
                "n": n,
                "edges": [list(e) for e in edges],
                "states": states,
                "work": work,
                "volume": f"{volume.numerator}/{volume.denominator}",
                "mc": {"samples": MC_SAMPLES, "seed": mc_seed, "hits": hits},
            }
        )
    print(f"rung {rung}: work {target:.0f}", file=sys.stderr)
    return out


def enumeration_nodes(n, edges, dilates):
    """Search-tree size of a vertex-by-vertex lattice-point enumeration in
    the order polyvol's enumerator uses (most placed neighbours first, then
    degree, then the lower label): the prefixes of length k that survive
    are the lattice points of the induced subgraph on those k vertices.
    It only places graphs on the cost ladder; no check uses it."""
    adj = oracles.adjacency(n, edges)
    order, placed = [], 0
    for _ in range(n):
        v = max(
            (v for v in range(n) if not placed >> v & 1),
            key=lambda v: ((adj[v] & placed).bit_count(), adj[v].bit_count(), -v),
        )
        order.append(v)
        placed |= 1 << v
    total = 0
    for k in range(1, n):
        index = {v: i for i, v in enumerate(order[:k])}
        sub = [(index[u], index[v]) for u, v in edges if u in index and v in index]
        total += sum(oracles.lattice_points(k, sub, t) for t in dilates)
    return total


def random_six(rng, kind, m):
    """A connected 6-vertex graph with m edges: bipartite with sides of 3 and
    3, or with an odd cycle."""
    if kind == "bipartite":
        return random_bipartite(rng, 3, 3, m)
    pairs = [(i, j) for i in range(6) for j in range(i + 1, 6)]
    while True:
        edges = rng.sample(pairs, m)
        if oracles.two_coloring(6, edges) is None and _connected(6, edges):
            return edges


def make_ehrhart_rung(rng, kind, rung):
    rungs, low, high, (m_low, m_high) = EHRHART_LADDERS[kind]
    target = low * (high / low) ** (rung / (rungs - 1))
    # ehrhart samples even dilates 0..12 on graphs with an odd cycle, 0..6 otherwise
    dilates = range(7) if kind == "bipartite" else range(0, 13, 2)
    out = []
    while len(out) < EHRHART_PER_RUNG:
        edges = random_six(rng, kind, rng.randint(m_low, m_high))
        nodes = enumeration_nodes(6, edges, dilates)
        if abs(nodes / target - 1) <= EHRHART_TOLERANCE:
            out.append({"rung": rung, "class": kind, "n": 6, "edges": [list(e) for e in edges], "nodes": nodes})
    return out


def write_pool(name, graphs):
    """One graph per line, so that a change to the pool reads as a short diff."""
    head = f'{{"command": "python3 bench/make_pool.py", "pool_seed": {POOL_SEED}, "graphs": [\n'
    body = ",\n".join(json.dumps(g) for g in graphs)
    (DATA / name).write_text(head + body + "\n]}\n")


def main():
    rng = random.Random(POOL_SEED)
    graphs = []
    for rung in range(RUNGS):
        graphs += make_rvf_rung(rng, rung)
    write_pool("rvf_pool.json", graphs)
    graphs = []
    for kind, (rungs, *_) in EHRHART_LADDERS.items():
        for rung in range(rungs):
            graphs += make_ehrhart_rung(rng, kind, rung)
    write_pool("ehrhart_pool.json", graphs)


if __name__ == "__main__":
    main()
