"""Seeded inputs for the benchmark: random regular graphs, random patterns,
and a graph6 codec written independently of homcert's own.

Every generator takes a random.Random, so one seed string fixes every
input of a cycle.  Graphs are (order, sorted edge list) pairs until the
benchmark hands them to homcert.
"""

from __future__ import annotations

import itertools
import math


def random_regular_edges(rng, n, d):
    """Edge list of a uniform-ish random simple d-regular graph on n vertices.

    Pairs random free stubs, refusing loops and repeated edges, and starts
    over when no admissible pair is left (the Steger-Wormald scheme).
    """
    if n * d % 2 or d >= n:
        raise ValueError(f"no {d}-regular graph on {n} vertices")
    while True:
        stubs = [v for v in range(n) for _ in range(d)]
        edges = set()
        while stubs:
            for _ in range(64):
                i = rng.randrange(len(stubs))
                j = rng.randrange(len(stubs))
                u, v = sorted((stubs[i], stubs[j]))
                if u != v and (u, v) not in edges:
                    break
            else:
                break
            edges.add((u, v))
            for k in sorted((i, j), reverse=True):
                stubs[k] = stubs[-1]
                stubs.pop()
        if not stubs:
            return sorted(edges)


def relabel(rng, n, edges):
    """The same graph under a random vertex permutation."""
    perm = list(range(n))
    rng.shuffle(perm)
    return sorted(tuple(sorted((perm[u], perm[v]))) for u, v in edges)


def _adjacency(n, edges):
    adj = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def two_colouring(n, edges):
    """Colour list of a proper 2-colouring of a connected graph, or None."""
    adj = _adjacency(n, edges)
    colour = [-1] * n
    colour[0] = 0
    todo = [0]
    while todo:
        v = todo.pop()
        for u in adj[v]:
            if colour[u] < 0:
                colour[u] = 1 - colour[v]
                todo.append(u)
            elif colour[u] == colour[v]:
                return None
    return colour


def is_connected(n, edges):
    adj = _adjacency(n, edges)
    seen = {0}
    todo = [0]
    while todo:
        for u in adj[todo.pop()] - seen:
            seen.add(u)
            todo.append(u)
    return len(seen) == n


def random_pattern(rng, k, m, bipartite, max_degree=None):
    """Connected k-vertex pattern with m edges (m >= k, so it has a cycle)
    and the requested parity, drawn by rejection from random edge sets."""
    cells = list(itertools.combinations(range(k), 2))
    while True:
        edges = sorted(rng.sample(cells, m))
        if not is_connected(k, edges):
            continue
        if (two_colouring(k, edges) is not None) != bipartite:
            continue
        if max_degree is not None and max(
            len(a) for a in _adjacency(k, edges)
        ) > max_degree:
            continue
        return edges


def falling(m, k):
    """m! / (m - k)!"""
    return math.perm(m, k)


# graph6 for orders below 63, which is all the benchmark produces.


def graph6_encode(n, edges):
    if not 1 <= n < 63:
        raise ValueError("order out of the single-byte graph6 range")
    adj = _adjacency(n, edges)
    bits = [1 if i in adj[j] else 0 for j in range(1, n) for i in range(j)]
    bits += [0] * (-len(bits) % 6)
    out = [chr(63 + n)]
    for i in range(0, len(bits), 6):
        word = 0
        for b in bits[i:i + 6]:
            word = (word << 1) | b
        out.append(chr(63 + word))
    return "".join(out)


def graph6_decode(text):
    """(order, sorted edge list) of a single-byte-order graph6 string."""
    n = ord(text[0]) - 63
    if not 1 <= n < 63:
        raise ValueError(f"unsupported graph6 order byte {text[0]!r}")
    bits = []
    for ch in text[1:]:
        word = ord(ch) - 63
        bits.extend((word >> s) & 1 for s in range(5, -1, -1))
    cells = [(i, j) for j in range(1, n) for i in range(j)]
    if len(bits) < len(cells):
        raise ValueError("graph6 string too short")
    return n, sorted(c for c, b in zip(cells, bits) if b)
