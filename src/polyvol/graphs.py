"""Simple-graph representation, family constructors, and the graph DSL.

Vertices are labeled 0..n-1 and adjacency is stored as one bitmask per
vertex, so vertex subsets fit in a machine word (n is capped at 63; the
exact volume methods are exponential and never get near that).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .errors import DSLError, ParameterError

MAX_VERTICES = 63


@dataclass(frozen=True)
class Graph:
    n: int
    adj: tuple  # adj[i] = bitmask of neighbors of i

    def __post_init__(self):
        _check_vertex_count(self.n)
        if len(self.adj) != self.n:
            raise ParameterError("adjacency length must equal vertex count")
        full = (1 << self.n) - 1
        for i, row in enumerate(self.adj):
            if row & ~full:
                raise ParameterError(f"vertex {i} has a neighbor out of range")
            if row >> i & 1:
                raise ParameterError(f"self-loop at vertex {i}")
            for j in _bits(row):
                if not self.adj[j] >> i & 1:
                    raise ParameterError("adjacency is not symmetric")

    def edges(self):
        """Edge list as (i, j) pairs with i < j."""
        return [(i, j) for i in range(self.n) for j in _bits(self.adj[i]) if i < j]

    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.adj) // 2

    def degree(self, i: int) -> int:
        return self.adj[i].bit_count()

    def has_edge(self, i: int, j: int) -> bool:
        return bool(self.adj[i] >> j & 1)


def _check_vertex_count(n: int):
    if n < 0 or n > MAX_VERTICES:
        raise ParameterError(f"vertex count {n} outside 0..{MAX_VERTICES}")


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def from_edges(n: int, edges) -> Graph:
    """Graph on n labeled vertices from an iterable of (u, v) pairs."""
    _check_vertex_count(n)
    adj = [0] * n
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise ParameterError(f"edge ({u},{v}) out of range for n={n}")
        if u == v:
            raise ParameterError(f"self-loop at vertex {u}")
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return Graph(n, tuple(adj))


def delete_vertex(g: Graph, i: int) -> Graph:
    """g - i, vertices above i shifted down by one."""
    if not 0 <= i < g.n:
        raise ParameterError(f"vertex {i} out of range for n={g.n}")
    keep = [v for v in range(g.n) if v != i]
    relabel = {v: k for k, v in enumerate(keep)}
    return from_edges(
        g.n - 1,
        [(relabel[u], relabel[v]) for u, v in g.edges() if u != i and v != i],
    )


def join_graphs(g: Graph, h: Graph) -> Graph:
    """Disjoint union plus every edge between the two vertex sets."""
    edges = list(g.edges())
    edges += [(u + g.n, v + g.n) for u, v in h.edges()]
    edges += [(u, v + g.n) for u in range(g.n) for v in range(h.n)]
    return from_edges(g.n + h.n, edges)


def induced_subgraph(g: Graph, vertices) -> Graph:
    """Induced subgraph, labels compacted in increasing original order."""
    vs = sorted(vertices)
    relabel = {v: k for k, v in enumerate(vs)}
    edges = [
        (relabel[u], relabel[v]) for u, v in g.edges() if u in relabel and v in relabel
    ]
    return from_edges(len(vs), edges)


def strip_isolated(g: Graph):
    """Drop all degree-0 vertices (each contributes a volume factor of 1).

    Returns (stripped graph, number of vertices removed).
    """
    keep = [v for v in range(g.n) if g.adj[v]]
    return induced_subgraph(g, keep), g.n - len(keep)


def component_masks(adj, mask: int):
    """Vertex-set bitmasks of the connected components inside `mask`."""
    out = []
    remaining = mask
    while remaining:
        start = remaining & -remaining
        comp = start
        frontier = start
        while frontier:
            nxt = 0
            for i in _bits(frontier):
                nxt |= adj[i] & mask & ~comp
            comp |= nxt
            frontier = nxt
        out.append(comp)
        remaining &= ~comp
    return out


def connected_components(g: Graph):
    """Maximal connected induced subgraphs, as relabeled Graphs."""
    full = (1 << g.n) - 1
    return [induced_subgraph(g, list(_bits(m))) for m in component_masks(g.adj, full)]


def bipartition(g: Graph) -> Optional[tuple]:
    """BFS 2-coloring: (side A, side B) as sets, or None if not bipartite.

    Isolated vertices land on side A.
    """
    color = [-1] * g.n
    for s in range(g.n):
        if color[s] != -1:
            continue
        color[s] = 0
        queue = [s]
        while queue:
            u = queue.pop()
            for v in _bits(g.adj[u]):
                if color[v] == -1:
                    color[v] = 1 - color[u]
                    queue.append(v)
                elif color[v] == color[u]:
                    return None
    return (
        {v for v in range(g.n) if color[v] == 0},
        {v for v in range(g.n) if color[v] == 1},
    )


# ---------------------------------------------------------------------------
# Family specs and the graph DSL
# ---------------------------------------------------------------------------

_SIMPLE_KINDS = {"null", "path", "cycle", "complete", "kbip", "bn"}


@dataclass(frozen=True)
class FamilySpec:
    kind: str
    args: tuple = ()
    children: tuple = ()
    edges: tuple = ()

    def __str__(self) -> str:
        if self.kind == "join":
            return f"join({self.children[0]},{self.children[1]})"
        if self.kind == "njoin":
            return f"njoin({self.args[0]},{self.children[0]})"
        if self.kind == "explicit":
            pairs = ",".join(f"{u}-{v}" for u, v in self.edges)
            return f"edges:{self.args[0]}:{pairs}"
        return f"{self.kind}:{','.join(str(a) for a in self.args)}"


def build_family(spec: FamilySpec) -> Graph:
    """Materialize a FamilySpec as a Graph; validates parameter ranges.

    Edges are generated lazily, so from_edges rejects an oversized vertex
    count before any of them is built.
    """
    kind = spec.kind
    if kind == "null":
        (n,) = spec.args
        _require(n >= 0, "null graph needs n >= 0")
        return from_edges(n, [])
    if kind == "path":
        (n,) = spec.args
        _require(n >= 0, "path needs n >= 0")
        return from_edges(n, ((i, i + 1) for i in range(n - 1)))
    if kind == "cycle":
        (n,) = spec.args
        _require(n >= 3, "cycle needs n >= 3")
        return from_edges(n, ((i, (i + 1) % n) for i in range(n)))
    if kind == "complete":
        (n,) = spec.args
        _require(n >= 1, "complete graph needs n >= 1")
        return from_edges(n, ((i, j) for i in range(n) for j in range(i + 1, n)))
    if kind == "kbip":
        m, n = spec.args
        _require(m >= 1 and n >= 1, "complete bipartite needs m, n >= 1")
        return from_edges(m + n, ((i, m + j) for i in range(m) for j in range(n)))
    if kind == "bn":
        (n,) = spec.args
        _require(n >= 2, "bn needs n >= 2")
        # K_{n,n} minus the identity perfect matching
        return from_edges(
            2 * n, ((i, n + j) for i in range(n) for j in range(n) if i != j)
        )
    if kind == "join":
        a, b = spec.children
        return join_graphs(build_family(a), build_family(b))
    if kind == "njoin":
        (k,) = spec.args
        _require(k >= 1, "njoin multiplier must be >= 1")
        base = build_family(spec.children[0])
        g = base
        for _ in range(k - 1):
            g = join_graphs(g, base)
        return g
    if kind == "explicit":
        (n,) = spec.args
        return from_edges(n, spec.edges)
    raise ParameterError(f"unknown family kind {kind!r}")


def _require(cond: bool, message: str):
    if not cond:
        raise ParameterError(message)


class _Parser:
    """Recursive-descent parser for the graph DSL.

    Grammar:
        spec  := NAME ':' ints
               | 'join' '(' spec ',' spec ')'
               | 'njoin' '(' INT ',' spec ')'
               | 'edges' ':' INT ':' [pair (',' pair)*]
        pair  := INT '-' INT
    """

    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def fail(self, message: str):
        raise DSLError(message, column=self.pos + 1)

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch: str):
        if self.peek() != ch:
            self.fail(f"expected {ch!r}")
        self.pos += 1

    def name(self) -> str:
        start = self.pos
        while self.peek().isalpha():
            self.pos += 1
        if start == self.pos:
            self.fail("expected a family name")
        return self.text[start:self.pos]

    def integer(self) -> int:
        start = self.pos
        while self.peek().isdigit():
            self.pos += 1
        if start == self.pos:
            self.fail("expected an integer")
        return int(self.text[start:self.pos])

    def spec(self) -> FamilySpec:
        kind = self.name()
        if kind == "join":
            self.expect("(")
            a = self.spec()
            self.expect(",")
            b = self.spec()
            self.expect(")")
            return FamilySpec("join", children=(a, b))
        if kind == "njoin":
            self.expect("(")
            k = self.integer()
            self.expect(",")
            child = self.spec()
            self.expect(")")
            return FamilySpec("njoin", args=(k,), children=(child,))
        if kind == "edges":
            self.expect(":")
            n = self.integer()
            self.expect(":")
            pairs = []
            if self.peek().isdigit():
                while True:
                    u = self.integer()
                    self.expect("-")
                    v = self.integer()
                    pairs.append((u, v))
                    if self.peek() != ",":
                        break
                    self.pos += 1
            return FamilySpec("explicit", args=(n,), edges=tuple(pairs))
        if kind == "kbip":
            self.expect(":")
            m = self.integer()
            self.expect(",")
            n = self.integer()
            return FamilySpec("kbip", args=(m, n))
        if kind in _SIMPLE_KINDS:
            self.expect(":")
            return FamilySpec(kind, args=(self.integer(),))
        self.fail(f"unknown family {kind!r}")


def parse_spec(text: str) -> FamilySpec:
    """Parse a DSL string like 'path:4' or 'join(null:2,cycle:3)'."""
    p = _Parser(text.strip())
    spec = p.spec()
    if p.pos != len(p.text):
        p.fail("trailing characters after graph spec")
    return spec


def graph_from_dsl(text: str) -> Graph:
    return build_family(parse_spec(text))


def parse_edge_list(text: str) -> Graph:
    """Edge-list format: first line 'n m', then m lines 'u v' (0-indexed)."""
    lines = text.splitlines()
    rows = [(i + 1, ln) for i, ln in enumerate(lines) if ln.strip()]
    if not rows:
        raise DSLError("empty edge-list input", line=1, column=1)
    lineno, header = rows[0]
    fields = header.split()
    if len(fields) != 2 or not all(f.isdigit() for f in fields):
        raise DSLError("header must be 'n m'", line=lineno, column=1)
    n, m = int(fields[0]), int(fields[1])
    if len(rows) - 1 != m:
        raise DSLError(
            f"expected {m} edge lines, found {len(rows) - 1}", line=lineno, column=1
        )
    edges = []
    for lineno, ln in rows[1:]:
        fields = ln.split()
        if len(fields) != 2 or not all(f.lstrip("-").isdigit() for f in fields):
            raise DSLError("edge line must be 'u v'", line=lineno, column=1)
        u, v = int(fields[0]), int(fields[1])
        if not (0 <= u < n and 0 <= v < n) or u == v:
            raise DSLError(f"invalid edge ({u},{v}) for n={n}", line=lineno, column=1)
        edges.append((u, v))
    return from_edges(n, edges)


def load_edge_list(path: str) -> Graph:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_edge_list(fh.read())
