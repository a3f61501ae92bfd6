"""Graph type, constructions, graph6 codec, metrics, and enumeration.

Vertices are 0..order-1; adjacency is stored as a tuple of bitmask rows
(rows[v] bit u set iff uv is an edge).  Graphs are immutable and hashable,
so labeled equality is tuple equality; isomorphism questions go through
canonical_form.  Structural questions (connectivity, components, the
two-colouring, girth, diameter, and the BFS tree of bounds.cycle_profile)
all go through _bfs, the one graph traversal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from homcert import kernels


class Graph6Error(ValueError):
    """Malformed graph6 input; offset is the byte position of the defect."""

    def __init__(self, message, offset):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


class Graph:
    """Immutable simple undirected graph."""

    __slots__ = ("order", "rows")

    def __init__(self, order, edges=()):
        if order < 1:
            raise ValueError("graph order must be at least 1")
        rows = [0] * order
        for u, v in edges:
            if not (0 <= u < order and 0 <= v < order):
                raise ValueError(f"edge ({u}, {v}) out of range for order {order}")
            if u == v:
                raise ValueError(f"loop at vertex {u} not allowed")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "rows", tuple(rows))

    @classmethod
    def from_rows(cls, rows):
        rows = tuple(rows)
        n = len(rows)
        if n < 1:
            raise ValueError("graph order must be at least 1")
        for v, r in enumerate(rows):
            if r >> n:
                raise ValueError(f"row {v} has bits beyond the vertex range")
            if (r >> v) & 1:
                raise ValueError(f"loop at vertex {v} not allowed")
        for v in range(n):
            for u in range(v):
                if ((rows[v] >> u) & 1) != ((rows[u] >> v) & 1):
                    raise ValueError(f"adjacency not symmetric at ({u}, {v})")
        g = object.__new__(cls)
        object.__setattr__(g, "order", n)
        object.__setattr__(g, "rows", rows)
        return g

    def __setattr__(self, name, value):
        raise AttributeError("Graph is immutable")

    def __eq__(self, other):
        return (
            isinstance(other, Graph)
            and self.order == other.order
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((self.order, self.rows))

    def __repr__(self):
        return f"Graph({write_graph6(self)!r})"

    @property
    def size(self):
        """Number of edges."""
        return sum(r.bit_count() for r in self.rows) // 2

    def degree(self, v):
        return self.rows[v].bit_count()

    def has_edge(self, u, v):
        return bool((self.rows[u] >> v) & 1)

    def neighbors(self, v):
        r = self.rows[v]
        out = []
        while r:
            out.append((r & -r).bit_length() - 1)
            r &= r - 1
        return out

    def edges(self):
        out = []
        for v in range(self.order):
            r = self.rows[v] >> (v + 1)
            u = v + 1
            while r:
                if r & 1:
                    out.append((v, u))
                r >>= 1
                u += 1
        return out


# ---------------------------------------------------------------------------
# Constructors


def complete(n):
    full = (1 << n) - 1
    return Graph.from_rows(tuple(full ^ (1 << v) for v in range(n)))


def complete_bipartite(a, b):
    return complete_multipartite(a, b)


def complete_multipartite(*sizes):
    if not sizes or any(s < 1 for s in sizes):
        raise ValueError("part sizes must be positive")
    n = sum(sizes)
    masks = []
    start = 0
    for s in sizes:
        masks.append(((1 << s) - 1) << start)
        start += s
    full = (1 << n) - 1
    rows = []
    for mask in masks:
        count = mask.bit_count()
        rows.extend([full ^ mask] * count)
    return Graph.from_rows(tuple(rows))


def cycle(n):
    if n < 3:
        raise ValueError("cycle needs at least 3 vertices")
    return Graph(n, [(v, (v + 1) % n) for v in range(n)])


def path(n):
    return Graph(n, [(v, v + 1) for v in range(n - 1)])


def petersen():
    """Kneser graph K(5, 2): vertices are 2-subsets of {0..4}, disjointness edges."""
    subsets = [(a, b) for a in range(5) for b in range(a + 1, 5)]
    edges = []
    for i, s in enumerate(subsets):
        for j in range(i + 1, len(subsets)):
            t = subsets[j]
            if not (set(s) & set(t)):
                edges.append((i, j))
    return Graph(10, edges)


def circulant(n, offsets):
    edges = set()
    for v in range(n):
        for off in offsets:
            off %= n
            if off == 0:
                raise ValueError("offset 0 would create loops")
            u = (v + off) % n
            edges.add((min(u, v), max(u, v)))
    return Graph(n, sorted(edges))


def cartesian_product(g, h):
    """Vertex (v, w) is index v * h.order + w."""
    n = g.order * h.order
    edges = []
    for v in range(g.order):
        for w in range(h.order):
            a = v * h.order + w
            for w2 in h.neighbors(w):
                if w2 > w:
                    edges.append((a, v * h.order + w2))
            for v2 in g.neighbors(v):
                if v2 > v:
                    edges.append((a, v2 * h.order + w))
    return Graph(n, edges)


def complement(g):
    full = (1 << g.order) - 1
    return Graph.from_rows(
        tuple((full ^ r ^ (1 << v)) for v, r in enumerate(g.rows))
    )


def disjoint_union(g, h):
    rows = list(g.rows)
    shift = g.order
    rows.extend(r << shift for r in h.rows)
    return Graph.from_rows(tuple(rows))


# ---------------------------------------------------------------------------
# graph6 codec


def _g6_encode_order(n):
    if n < 1:
        raise ValueError("graph order must be at least 1")
    if n <= 62:
        return bytes([n + 63])
    if n <= 258047:
        return bytes(
            [126, ((n >> 12) & 63) + 63, ((n >> 6) & 63) + 63, (n & 63) + 63]
        )
    if n <= 68719476735:
        return bytes([126, 126]) + bytes(
            [((n >> s) & 63) + 63 for s in (30, 24, 18, 12, 6, 0)]
        )
    raise ValueError("graph order too large for graph6")


def write_graph6(g):
    """graph6 string of the labeled graph (no >>graph6<< prefix, no newline)."""
    n = g.order
    out = bytearray(_g6_encode_order(n))
    acc = 0
    nbits = 0
    for j in range(n):
        for i in range(j):
            acc = (acc << 1) | ((g.rows[j] >> i) & 1)
            nbits += 1
            if nbits == 6:
                out.append(acc + 63)
                acc = 0
                nbits = 0
    if nbits:
        out.append((acc << (6 - nbits)) + 63)
    return out.decode("ascii")


def parse_graph6(text):
    """Parse one graph6 string; offsets in errors refer to the original input."""
    if isinstance(text, bytes):
        data = text
    else:
        data = text.encode("ascii", errors="surrogateescape")
    base = 0
    if data.startswith(b">>graph6<<"):
        base = len(b">>graph6<<")
        data = data[base:]
    data = data.rstrip(b"\r\n")
    if not data:
        raise Graph6Error("empty graph6 input", base)

    def checked(i):
        if i >= len(data):
            raise Graph6Error("truncated graph6 input", base + len(data))
        c = data[i]
        if not (63 <= c <= 126):
            raise Graph6Error(f"invalid graph6 byte {c!r}", base + i)
        return c - 63

    pos = 0
    if data[0] == 126:
        if len(data) > 1 and data[1] == 126:
            n = 0
            for i in range(2, 8):
                n = (n << 6) | checked(i)
            pos = 8
        else:
            n = 0
            for i in range(1, 4):
                n = (n << 6) | checked(i)
            pos = 4
        if n <= 62:
            raise Graph6Error("long-form order used for small graph", base)
    else:
        n = checked(0)
        pos = 1
    if n == 0:
        raise Graph6Error("graph of order 0 not supported", base)
    nbits = n * (n - 1) // 2
    ngroups = (nbits + 5) // 6
    bits = []
    for i in range(ngroups):
        v = checked(pos + i)
        for s in (5, 4, 3, 2, 1, 0):
            bits.append((v >> s) & 1)
    pad_start = nbits
    for i in range(pad_start, len(bits)):
        if bits[i]:
            raise Graph6Error(
                "nonzero padding bits", base + pos + i // 6
            )
    if pos + ngroups < len(data):
        raise Graph6Error("trailing data after graph", base + pos + ngroups)
    rows = [0] * n
    idx = 0
    for j in range(n):
        for i in range(j):
            if bits[idx]:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
            idx += 1
    return Graph.from_rows(tuple(rows))


# ---------------------------------------------------------------------------
# Metrics


@dataclass(frozen=True)
class GraphMetrics:
    order: int
    size: int
    degrees: tuple
    regular: bool
    regularity: int | None
    connected: bool
    bipartite: bool
    tree: bool
    girth: float
    diameter: float


def _bfs(rows, source):
    """The one breadth-first search: (visit order, parent, depth) from source.

    Neighbours are visited in ascending order.  parent is -1 at the source
    and depth is its distance from the source; both are -1 off the
    source's component.
    """
    n = len(rows)
    parent = [-1] * n
    depth = [-1] * n
    depth[source] = 0
    order = [source]
    seen = 1 << source
    for v in order:  # order grows while it is read: it is the queue
        r = rows[v] & ~seen
        seen |= r
        dv = depth[v] + 1
        while r:
            u = (r & -r).bit_length() - 1
            r &= r - 1
            parent[u] = v
            depth[u] = dv
            order.append(u)
    return order, parent, depth


def _component_searches(rows):
    """_bfs from the least vertex of each component, in that order."""
    seen = 0
    for s in range(len(rows)):
        if not (seen >> s) & 1:
            found = _bfs(rows, s)
            for v in found[0]:
                seen |= 1 << v
            yield found


def _girth(g):
    """Length of a shortest cycle, math.inf for forests.

    For each edge uv, the shortest cycle through uv has length
    1 + dist(u, v) in the graph with uv removed.
    """
    best = math.inf
    for u, v in g.edges():
        rows = list(g.rows)
        rows[u] ^= 1 << v
        rows[v] ^= 1 << u
        dist = _bfs(rows, u)[2][v]
        if dist >= 0:
            best = min(best, dist + 1)
    return best


def _bipartition(g):
    """Two-colouring by the depth parity of _bfs within each component;
    returns (is_bipartite, colour list)."""
    color = [0] * g.order
    for order, _, depth in _component_searches(g.rows):
        for v in order:
            color[v] = depth[v] & 1
    return all(color[u] != color[v] for u, v in g.edges()), color


def regularity(g):
    """The common degree of a regular graph; None when degrees differ."""
    degrees = {r.bit_count() for r in g.rows}
    return degrees.pop() if len(degrees) == 1 else None


def metrics(g):
    degrees = tuple(r.bit_count() for r in g.rows)
    degree = regularity(g)
    connected = is_connected(g)
    if connected:
        diameter = max(max(_bfs(g.rows, s)[2]) for s in range(g.order))
    else:
        diameter = math.inf
    size = g.size
    return GraphMetrics(
        order=g.order,
        size=size,
        degrees=degrees,
        regular=degree is not None,
        regularity=degree,
        connected=connected,
        bipartite=is_bipartite(g),
        tree=connected and size == g.order - 1,
        girth=_girth(g),
        diameter=diameter,
    )


def is_bipartite(g):
    return _bipartition(g)[0]


def is_connected(g):
    return len(_bfs(g.rows, 0)[0]) == g.order


def components(g):
    """Vertex sets of connected components, each sorted, ordered by minimum."""
    return [sorted(order) for order, _, _ in _component_searches(g.rows)]


def induced_subgraph(g, vertices):
    """Induced subgraph on the given vertices, relabeled in the given order."""
    index = {v: i for i, v in enumerate(vertices)}
    if len(index) != len(vertices):
        raise ValueError("duplicate vertices")
    rows = [0] * len(vertices)
    for i, v in enumerate(vertices):
        r = g.rows[v]
        while r:
            u = (r & -r).bit_length() - 1
            r &= r - 1
            j = index.get(u)
            if j is not None:
                rows[i] |= 1 << j
    return Graph.from_rows(tuple(rows))


def bipartite_double_cover(g):
    """Tensor product with K2: vertex (v, side) is v + side * order."""
    n = g.order
    edges = []
    for u, v in g.edges():
        edges.append((u, v + n))
        edges.append((v, u + n))
    return Graph(2 * n, edges)


# ---------------------------------------------------------------------------
# Canonical forms and enumeration


def canonical_form(g):
    """Isomorph-invariant relabeling: least column bit-string, as a Graph.

    The label of patterns (at most 8 vertices), which bounds.py builds on,
    and of bounds.verify_bound targets.  The classes that enumerate_regular
    yields carry enumerated_form instead.  The search ties on every
    all-zero column word, so on sparse graphs without symmetry it takes
    exponential time from about 20 vertices upward: on random cubic graphs
    (2 vCPU) the pure-Python kernel needs 0.18 s at 16 vertices and 8.7 s
    at 20, the compiled one, which runs the max-lex search on the
    complement, 0.03-0.04 s at 20 and 6.0-6.2 s at 24.
    bounds.verify_bound still canonicalizes every target, so it pays
    this cost on large sparse targets.
    """
    return Graph.from_rows(kernels.canonical_min_rows(g.rows))


def enumerated_form(g):
    """Isomorph-invariant relabeling that enumerate_regular yields.

    A graph with at most half of all vertex pairs as edges gets its
    greatest column bit-string.  A denser one gets the complement of that
    form of its complement, which is its least column bit-string, so it
    equals canonical_form(g).  A greatest string starts with a largest
    clique and a least one with a largest independent set, so either way
    the labeller works on the sparse side, where that search is short.
    For a d-regular graph on n vertices the dense side is 2d > n - 1.
    The labeller has no node budget, so this runs long on Q6 (14.3 s in
    pure Python) and the 8x8 rook's graph until ROADMAP item 6 lands.
    complement(C64) is labelled here through C64 at once, though
    canonical_max_rows of it does not end in useful time.
    """
    n = g.order
    if 4 * g.size > n * (n - 1):
        sparse = kernels.canonical_max_rows(complement(g).rows)
        return complement(Graph.from_rows(sparse))
    return Graph.from_rows(kernels.canonical_max_rows(g.rows))


def enumerate_regular(n, d, connected_only=False):
    """All d-regular graphs of order n up to isomorphism, each in its
    enumerated_form, sorted by graph6.

    The kernel enumerates only the sparse side 2d <= n - 1, so when
    2d > n - 1 the complement family is enumerated instead and complemented
    back.  Orderly generation gives one max-lex graph per class, so the raw
    graphs, complemented back on the dense side, are already in
    enumerated_form.  With connected_only, the sparse-side kernel returns
    exactly the connected graphs.  Every dense-side graph is connected,
    since each component of it has at least d + 1 > n/2 vertices.
    """
    if n < 1:
        raise ValueError("order must be at least 1")
    if d < 0 or d >= n or (n * d) % 2 == 1:
        return ()
    dense = 2 * d > n - 1
    reps = kernels.enumerate_regular_rows(
        n, n - 1 - d if dense else d, connected_only and not dense
    )
    graphs = map(Graph.from_rows, reps)
    if dense:
        graphs = map(complement, graphs)
    return tuple(sorted(graphs, key=write_graph6))
