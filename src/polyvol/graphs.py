"""Simple-graph representation, the named-family table, and the graph DSL.

Vertices are labeled 0..n-1 and adjacency is stored as one bitmask per
vertex, so vertex subsets fit in a machine word (n is capped at 63; the
exact volume methods are exponential and never get near that).
"""

from __future__ import annotations

import re
from itertools import combinations, product
from typing import Callable, NamedTuple, Optional

from .errors import DSLError, ParameterError, PolyvolError
from .frozen import Frozen, set_field

MAX_VERTICES = 63


class Graph(Frozen):
    __slots__ = ("n", "adj")  # adj[i] = bitmask of neighbors of i

    def __init__(self, n: int, adj: tuple):
        _check_vertex_count(n)
        if len(adj) != n:
            raise ParameterError("adjacency length must equal vertex count")
        full = (1 << n) - 1
        upper = 0  # bits above the diagonal, each checked against its mirror
        for i, row in enumerate(adj):
            if row & ~full:
                raise ParameterError(f"vertex {i} has a neighbor out of range")
            if row >> i & 1:
                raise ParameterError(f"self-loop at vertex {i}")
            above = row >> (i + 1)
            while above:
                low = above & -above
                if not adj[i + low.bit_length()] >> i & 1:
                    raise ParameterError("adjacency is not symmetric")
                above ^= low
                upper += 1
        # every bit above the diagonal has its mirror below it, so any other
        # bit below it makes the total larger than twice the bits above
        if 2 * upper != sum([row.bit_count() for row in adj]):
            raise ParameterError("adjacency is not symmetric")
        set_field(self, "n", n)
        set_field(self, "adj", adj)

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


def _is_digits(text: str) -> bool:
    """True for one or more ASCII digits. str.isdigit alone also takes '²',
    which int() rejects, and '٣', which int() reads as 3."""
    return text.isascii() and text.isdigit()


def _dsl_int(text: str, line=None, column=None) -> int:
    """int(text) of a checked digit string. Past Python's int-to-string digit
    limit (4300 by default) int() raises ValueError; that becomes a DSLError."""
    try:
        return int(text)
    except ValueError:
        raise DSLError(f"integer of {len(text)} digits is too long", line, column) from None


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


def join_graphs(g: Graph, h: Graph) -> Graph:
    """Disjoint union plus every edge between the two vertex sets."""
    low = (1 << g.n) - 1
    high = ((1 << h.n) - 1) << g.n
    rows = [row | high for row in g.adj] + [row << g.n | low for row in h.adj]
    return Graph(g.n + h.n, tuple(rows))


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

class Family(NamedTuple):
    minima: tuple  # least value of each argument
    vertex_count: Callable
    edges: Callable  # lazy, so from_edges rejects a huge n before building any


FAMILIES = {
    "null": Family((0,), lambda n: n, lambda n: ()),
    "path": Family((0,), lambda n: n, lambda n: ((i, i + 1) for i in range(n - 1))),
    "cycle": Family((3,), lambda n: n, lambda n: ((i, (i + 1) % n) for i in range(n))),
    "complete": Family((1,), lambda n: n, lambda n: combinations(range(n), 2)),
    "kbip": Family(
        (1, 1), lambda m, n: m + n, lambda m, n: product(range(m), range(m, m + n))
    ),
    # K_{n,n} minus the identity perfect matching
    "bn": Family(
        (2,), lambda n: 2 * n,
        lambda n: ((i, n + j) for i in range(n) for j in range(n) if i != j),
    ),
}


class FamilySpec(Frozen):
    """A parsed graph spec; its arguments are checked when it is made."""

    __slots__ = ("kind", "args", "children", "edges")

    def __init__(self, kind: str, args: tuple = (), children: tuple = (), edges: tuple = ()):
        set_field(self, "kind", kind)
        set_field(self, "args", args)
        set_field(self, "children", children)
        set_field(self, "edges", edges)
        family = FAMILIES.get(kind)
        if family is not None:
            if len(args) != len(family.minima) or any(
                a < least for a, least in zip(args, family.minima)
            ):
                least = ",".join(map(str, family.minima))
                raise ParameterError(f"{self} is invalid; least is {kind}:{least}")
        elif kind not in ("join", "njoin", "explicit"):
            raise ParameterError(f"unknown family kind {kind!r}")
        elif kind == "njoin" and args[0] < 1:
            raise ParameterError("njoin multiplier must be >= 1")

    def vertex_count(self) -> int:
        """Vertices of the graph this spec describes, found without building it."""
        if self.kind == "join":
            return sum(c.vertex_count() for c in self.children)
        if self.kind == "njoin":
            return self.args[0] * self.children[0].vertex_count()
        if self.kind == "explicit":
            return self.args[0]
        return FAMILIES[self.kind].vertex_count(*self.args)

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
    """Materialize a FamilySpec as a Graph."""
    if spec.kind == "join":
        a, b = spec.children
        return join_graphs(build_family(a), build_family(b))
    if spec.kind == "njoin":
        base = build_family(spec.children[0])
        if base.n == 0:  # joins of empty graphs stay empty, whatever the multiplier
            return base
        g = base
        for _ in range(spec.args[0] - 1):
            g = join_graphs(g, base)
        return g
    if spec.kind == "explicit":
        return from_edges(spec.args[0], spec.edges)
    family = FAMILIES[spec.kind]
    return from_edges(family.vertex_count(*spec.args), family.edges(*spec.args))


# Most join/njoin brackets a spec may sit inside. The parser, FamilySpec.__str__
# and build_family recurse once per level, and at about 330 levels they ran
# out of Python's stack; 100 admits a chain of 100 single vertices joined one
# at a time, which needs 99.
MAX_DSL_DEPTH = 100


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
        while _is_digits(self.peek()):
            self.pos += 1
        if start == self.pos:
            self.fail("expected an integer")
        return _dsl_int(self.text[start:self.pos], column=start + 1)

    def spec(self, depth: int = 0) -> FamilySpec:
        """The spec at self.pos, which sits inside `depth` brackets."""
        if depth > MAX_DSL_DEPTH:
            self.fail(f"spec nested deeper than MAX_DSL_DEPTH = {MAX_DSL_DEPTH}")
        kind = self.name()
        if kind == "join":
            self.expect("(")
            a = self.spec(depth + 1)
            self.expect(",")
            b = self.spec(depth + 1)
            self.expect(")")
            return FamilySpec("join", children=(a, b))
        if kind == "njoin":
            self.expect("(")
            k = self.integer()
            self.expect(",")
            child = self.spec(depth + 1)
            self.expect(")")
            return FamilySpec("njoin", args=(k,), children=(child,))
        if kind == "edges":
            self.expect(":")
            n = self.integer()
            self.expect(":")
            pairs = []
            if _is_digits(self.peek()):
                while True:
                    u = self.integer()
                    self.expect("-")
                    v = self.integer()
                    pairs.append((u, v))
                    if self.peek() != ",":
                        break
                    self.pos += 1
            return FamilySpec("explicit", args=(n,), edges=tuple(pairs))
        if kind in FAMILIES:
            self.expect(":")
            args = [self.integer()]
            while len(args) < len(FAMILIES[kind].minima):
                self.expect(",")
                args.append(self.integer())
            return FamilySpec(kind, args=tuple(args))
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


def _field_columns(line: str) -> list:
    """1-based columns of the whitespace-separated fields of `line`."""
    return [m.start() + 1 for m in re.finditer(r"\S+", line)]


def _int_fields(line: str, lineno: int, message: str, sign: str = "") -> tuple:
    """The two integers on an edge-list line. A line with another number of
    fields fails with `message` at column 1; a field that is not ASCII digits
    after an optional `sign` fails with `message`, and a field too long for
    int() as in _dsl_int, each at the field's own column."""
    fields = line.split()
    if len(fields) != 2:
        raise DSLError(message, line=lineno, column=1)
    a, b = fields
    if _is_digits(a.removeprefix(sign)) and _is_digits(b.removeprefix(sign)):
        try:
            return int(a), int(b)
        except ValueError:  # past int()'s digit limit
            pass
    # a field is at fault: only now are the columns worth finding
    columns = _field_columns(line)
    for field, column in zip(fields, columns):
        if not _is_digits(field.removeprefix(sign)):
            raise DSLError(message, line=lineno, column=column)
    return _dsl_int(a, lineno, columns[0]), _dsl_int(b, lineno, columns[1])


def parse_edge_list(text: str) -> Graph:
    """Edge-list format: first line 'n m', then m lines 'u v' (0-indexed).
    Errors carry the line and the column of the field at fault."""
    lines = text.splitlines()
    rows = [(i + 1, ln) for i, ln in enumerate(lines) if ln.strip()]
    if not rows:
        raise DSLError("empty edge-list input", line=1, column=1)
    lineno, header = rows[0]
    n, m = _int_fields(header, lineno, "header must be 'n m'")
    if len(rows) - 1 != m:
        raise DSLError(
            f"expected {m} edge lines, found {len(rows) - 1}", line=lineno, column=1
        )
    edges = []
    for lineno, ln in rows[1:]:
        u, v = _int_fields(ln, lineno, "edge line must be 'u v'", "-")
        if not (0 <= u < n and 0 <= v < n) or u == v:
            column = _field_columns(ln)[1 if 0 <= u < n else 0]
            raise DSLError(f"invalid edge ({u},{v}) for n={n}", line=lineno, column=column)
        edges.append((u, v))
    return from_edges(n, edges)


# Most bytes load_edge_list reads. The largest valid file, 63 vertices and
# all 1953 edges, is about 12 KB, so this is generous; without a bound a
# file such as /dev/zero is read until memory runs out.
MAX_EDGE_LIST_BYTES = 1 << 20


def load_edge_list(path: str) -> Graph:
    """Parse the edge-list file at `path`; a file that cannot be read as
    UTF-8 text, or is longer than MAX_EDGE_LIST_BYTES, raises PolyvolError
    naming the path."""
    try:
        with open(path, "rb") as fh:
            data = fh.read(MAX_EDGE_LIST_BYTES + 1)
    except OSError as exc:
        raise PolyvolError(f"cannot read {path}: {exc.strerror or exc}") from exc
    if len(data) > MAX_EDGE_LIST_BYTES:
        raise PolyvolError(
            f"{path} is longer than MAX_EDGE_LIST_BYTES = {MAX_EDGE_LIST_BYTES} bytes"
        )
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise PolyvolError(f"{path} is not UTF-8 text: {exc}") from exc
    return parse_edge_list(text)
