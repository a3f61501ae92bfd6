"""Independent reference implementations the test suite checks against.

Everything in here is deliberately naive: exhaustive loops over maps,
permutations, and edge subsets, plus networkx for isomorphism testing.
None of it shares code with the package kernels.
"""

from __future__ import annotations

import itertools

import networkx as nx
from hypothesis import strategies as st

from homcert import graphs as hg


def to_nx(g):
    G = nx.Graph()
    G.add_nodes_from(range(g.order))
    G.add_edges_from(g.edges())
    return G


def brute_hom(h, g):
    """Homomorphism count by exhaustive enumeration of all vertex maps."""
    k, n = h.order, g.order
    he = h.edges()
    total = 0
    for m in itertools.product(range(n), repeat=k):
        if all(g.has_edge(m[a], m[b]) for a, b in he):
            total += 1
    return total


def brute_inj(h, g):
    """Injective homomorphism count over all partial permutations."""
    k, n = h.order, g.order
    if k > n:
        return 0
    he = h.edges()
    total = 0
    for m in itertools.permutations(range(n), k):
        if all(g.has_edge(m[a], m[b]) for a, b in he):
            total += 1
    return total


def brute_canonical_min(g):
    """Least column bit-string over all vertex orderings, as a Graph."""
    n = g.order
    best = None
    for perm in itertools.permutations(range(n)):
        cols = []
        for p in range(n):
            w = 0
            for t in range(p):
                w = (w << 1) | ((g.rows[perm[p]] >> perm[t]) & 1)
            cols.append(w)
        if best is None or cols < best[0]:
            best = (cols, perm)
    perm = best[1]
    rows = [0] * n
    for t in range(n):
        for s in range(n):
            if (g.rows[perm[t]] >> perm[s]) & 1:
                rows[t] |= 1 << s
    return hg.Graph.from_rows(tuple(rows))


def _columns(rows, perm):
    """Column bit-string of rows relabeled so that position p holds perm[p]."""
    return [
        [(rows[perm[p]] >> perm[t]) & 1 for t in range(p)] for p in range(len(rows))
    ]


def brute_is_canonical_max(rows):
    """Whether no relabeling, over all n!, gives a larger column string."""
    identity = _columns(rows, range(len(rows)))
    return all(
        _columns(rows, perm) <= identity
        for perm in itertools.permutations(range(len(rows)))
    )


def brute_max_labelling(rows):
    """The relabeling of rows whose column string is greatest, over all n!."""
    n = len(rows)
    perm = max(itertools.permutations(range(n)), key=lambda q: _columns(rows, q))
    out = [0] * n
    for t in range(n):
        for s in range(n):
            if (rows[perm[t]] >> perm[s]) & 1:
                out[t] |= 1 << s
    return tuple(out)


def naive_regular(n, d):
    """d-regular graphs on n labeled vertices, deduped with networkx isomorphism.

    Backtracks over adjacency rows in label order.  Every class has a
    labelling in which vertex 0's neighbours are 1..d, so only those are
    produced, each labelled graph exactly once.  Only usable at small n.
    """
    if d < 0 or d >= n or (n * d) % 2:
        return []
    found = []
    adj = [set() for _ in range(n)]

    def extend(v):
        if v == n:
            if all(len(adj[u]) == d for u in range(n)):
                found.append([frozenset(a) for a in adj])
            return
        need = d - len(adj[v])
        if need < 0:
            return
        candidates = [u for u in range(v + 1, n) if len(adj[u]) < d]
        if need > len(candidates):
            return
        if v == 0:
            choices = [tuple(range(1, d + 1))]
        else:
            choices = itertools.combinations(candidates, need)
        for extra in choices:
            for u in extra:
                adj[v].add(u)
                adj[u].add(v)
            extend(v + 1)
            for u in extra:
                adj[v].remove(u)
                adj[u].remove(v)

    extend(0)

    def invariant(adjs):
        tri = []
        for v in range(n):
            tri.append(
                sum(1 for a, b in itertools.combinations(sorted(adjs[v]), 2) if b in adjs[a])
            )
        comps = []
        left = set(range(n))
        while left:
            stack = [left.pop()]
            size = 1
            while stack:
                v = stack.pop()
                for u in adjs[v]:
                    if u in left:
                        left.remove(u)
                        stack.append(u)
                        size += 1
            comps.append(size)
        # sorted 2-neighborhood triangle profile sharpens the bucket
        tri2 = tuple(sorted(tuple(sorted(tri[u] for u in adjs[v])) for v in range(n)))
        return (tuple(sorted(tri)), tuple(sorted(comps)), tri2)

    def build_nx(adjs):
        g = nx.Graph()
        g.add_nodes_from(range(n))
        for v in range(n):
            for u in adjs[v]:
                g.add_edge(v, u)
        return g

    classes = []
    buckets = {}
    for adjs in found:
        key = invariant(adjs)
        bucket = buckets.setdefault(key, [])
        g = None
        for rep_adjs, rep_nx in bucket:
            if g is None:
                g = build_nx(adjs)
            if nx.is_isomorphic(g, rep_nx):
                break
        else:
            if g is None:
                g = build_nx(adjs)
            bucket.append((adjs, g))
            classes.append(g)
    return classes


def regular_completions(deg, d, cells):
    """Every subset of cells whose pairs, added as edges, make every degree d.

    deg holds the degrees of a graph in which no pair of cells is an edge.
    Tries every subset of cells, in order, that keeps each degree at most
    d, and drops a branch once some vertex needs more edges than the
    undecided cells touching it.  Yields each subset as a tuple of cells.
    """
    deg = list(deg)
    n = len(deg)
    # touching[t][v]: how many of cells[t:] contain v
    touching = [[0] * n]
    for i, j in reversed(cells):
        row = list(touching[-1])
        row[i] += 1
        row[j] += 1
        touching.append(row)
    touching.reverse()
    chosen = []

    def extend(t):
        if any(d - deg[v] > touching[t][v] for v in range(n)):
            return
        if t == len(cells):
            yield tuple(chosen)
            return
        i, j = cells[t]
        if deg[i] < d and deg[j] < d:
            deg[i] += 1
            deg[j] += 1
            chosen.append((i, j))
            yield from extend(t + 1)
            chosen.pop()
            deg[i] -= 1
            deg[j] -= 1
        yield from extend(t + 1)

    return extend(0)


def has_regular_completion(deg, d, cells):
    """Whether adding some of the vertex pairs in cells makes every degree d."""
    return next(regular_completions(deg, d, cells), None) is not None


def has_canonical_regular_completion(rows, d, cells, connected_only=False):
    """Whether adding some of the vertex pairs in cells to the graph rows
    gives a d-regular graph, connected if connected_only, that
    brute_is_canonical_max accepts."""
    for chosen in regular_completions([r.bit_count() for r in rows], d, cells):
        full = list(rows)
        for i, j in chosen:
            full[i] |= 1 << j
            full[j] |= 1 << i
        if connected_only and not hg.is_connected(hg.Graph.from_rows(full)):
            continue
        if brute_is_canonical_max(full):
            return True
    return False


def automorphism_count(g):
    """Order of the automorphism group, via networkx VF2."""
    G = to_nx(g)
    gm = nx.algorithms.isomorphism.GraphMatcher(G, G)
    return sum(1 for _ in gm.isomorphisms_iter())


def labelled_graphs(n):
    """Every labelled graph on n vertices, as rows."""
    cells = [(i, j) for j in range(n) for i in range(j)]
    for bits in range(1 << len(cells)):
        rows = [0] * n
        for idx, (i, j) in enumerate(cells):
            if (bits >> idx) & 1:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
        yield tuple(rows)


def all_graphs(n):
    """Every graph on n vertices up to isomorphism (brute force, n <= 5)."""
    seen = set()
    out = []
    for rows in labelled_graphs(n):
        g = hg.Graph.from_rows(rows)
        c = hg.canonical_form(g)
        if c.rows not in seen:
            seen.add(c.rows)
            out.append(c)
    return sorted(out, key=hg.write_graph6)


def all_connected_graphs(n):
    return [g for g in all_graphs(n) if hg.is_connected(g)]


def brute_set_partitions(n):
    """All set partitions of range(n) as frozensets of frozensets."""
    if n == 0:
        return [frozenset()]
    out = []
    for smaller in brute_set_partitions(n - 1):
        blocks = list(smaller)
        for i in range(len(blocks)):
            out.append(
                frozenset(
                    [blocks[i] | {n - 1}] + blocks[:i] + blocks[i + 1 :]
                )
            )
        out.append(frozenset(list(blocks) + [frozenset({n - 1})]))
    return out


def fraction_sturm_chain(p):
    """Sturm chain of the UniPoly p by exact division over the rationals:
    p, p' and each negated remainder -(a mod b), every element divided by
    its positive content (UniPoly.content_primitive).  The chain stops at
    a constant or at a zero remainder, whose predecessor is gcd(p, p')."""
    chain = [p.content_primitive()[1]]
    deriv = p.derivative()
    if not deriv.is_zero():
        chain.append(deriv.content_primitive()[1])
        while chain[-1].degree > 0:
            rem = -(chain[-2] % chain[-1])
            if rem.is_zero():
                break
            chain.append(rem.content_primitive()[1])
    return chain


@st.composite
def graph_strategy(draw, min_order=1, max_order=7):
    n = draw(st.integers(min_order, max_order))
    ncells = n * (n - 1) // 2
    bits = draw(st.integers(0, (1 << ncells) - 1))
    rows = [0] * n
    idx = 0
    for j in range(n):
        for i in range(j):
            if (bits >> idx) & 1:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
            idx += 1
    return hg.Graph.from_rows(tuple(rows))
