"""Homomorphism and injective-homomorphism counting with Möbius inversion.

The two counts are linked through the partition lattice of the pattern's
vertex set: summing injective counts of quotients over all partitions
gives the homomorphism count, and Möbius inversion turns that around,

    hom(h, g)  =  sum over partitions P of inj(h/P, g)
    inj(h, g)  =  sum over partitions P of mu(P) * hom(h/P, g)

where h/P identifies each block to one vertex (a block containing an edge
produces a loop, and a loopy quotient admits no maps into a simple graph,
so those terms contribute zero) and

    mu(P)  =  (-1)^(n - |P|) * prod over blocks (|block| - 1)!
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from homcert import kernels
from homcert.graphs import Graph, components, induced_subgraph

MAX_PARTITION_ORDER = 12

_BELL = [1, 1, 2, 5, 15, 52, 203, 877, 4140, 21147, 115975, 678570, 4213597]


@dataclass(frozen=True)
class Partition:
    """Set partition of range(n) in restricted-growth form.

    rgs[v] is the block index of vertex v; block indices appear in order
    of first use, so rgs[0] == 0 and each entry exceeds the previous
    maximum by at most one.  blocks lists the members of each block.
    """

    rgs: tuple
    blocks: tuple

    @property
    def n(self):
        return len(self.rgs)

    @classmethod
    def from_rgs(cls, rgs):
        rgs = tuple(rgs)
        if not rgs or rgs[0] != 0:
            raise ValueError("restricted growth string must start with 0")
        top = 0
        for v, b in enumerate(rgs):
            if b < 0 or b > top:
                raise ValueError(f"entry {b} at position {v} breaks restricted growth")
            top = max(top, b + 1)
        blocks = [[] for _ in range(top)]
        for v, b in enumerate(rgs):
            blocks[b].append(v)
        return cls(rgs, tuple(tuple(b) for b in blocks))

    def is_trivial(self):
        """True for the all-singletons partition."""
        return len(self.blocks) == self.n


def bell_number(n):
    return _BELL[n]


def enumerate_partitions(n):
    """All set partitions of range(n), in lexicographic order of their RGS."""
    if n < 1:
        raise ValueError("partition order must be at least 1")
    if n > MAX_PARTITION_ORDER:
        raise ValueError(
            f"refusing to enumerate partitions of {n} vertices "
            f"(Bell number {'>' if n > len(_BELL) - 1 else ''}"
            f"{_BELL[min(n, len(_BELL) - 1)]}); limit is {MAX_PARTITION_ORDER}"
        )
    rgs = [0] * n
    top = [0] * n  # top[v] = max of rgs[:v+1]
    out = []
    v = n - 1
    while True:
        out.append(Partition.from_rgs(rgs))
        v = n - 1
        while v > 0 and rgs[v] == top[v - 1] + 1:
            v -= 1
        if v == 0:
            return out
        rgs[v] += 1
        top[v] = max(top[v - 1], rgs[v])
        for u in range(v + 1, n):
            rgs[u] = 0
            top[u] = top[v]


def moebius_coeff(p):
    """Möbius coefficient of the partition in the inj-from-hom inversion."""
    sign = -1 if (p.n - len(p.blocks)) % 2 else 1
    prod = 1
    for block in p.blocks:
        prod *= math.factorial(len(block) - 1)
    return sign * prod


@dataclass(frozen=True)
class Quotient:
    """Simple quotient graph plus a flag for collapsed edges (loops)."""

    graph: Graph
    has_loop: bool


def quotient(h, p):
    """Identify each block of the partition to a single vertex.

    Parallel edges collapse in the simple graph; an edge inside a block
    sets has_loop (such quotients admit no homomorphisms into any simple
    graph, so callers drop them).
    """
    if p.n != h.order:
        raise ValueError("partition order does not match graph order")
    nb = len(p.blocks)
    rows = [0] * nb
    has_loop = False
    for u, v in h.edges():
        bu, bv = p.rgs[u], p.rgs[v]
        if bu == bv:
            has_loop = True
        else:
            rows[bu] |= 1 << bv
            rows[bv] |= 1 << bu
    return Quotient(Graph.from_rows(tuple(rows)), has_loop)


def loop_free_quotients(h):
    """(partition, quotient graph) for every partition of V(h) whose
    quotient has no loop, in enumerate_partitions order."""
    for p in enumerate_partitions(h.order):
        q = quotient(h, p)
        if not q.has_loop:
            yield p, q.graph


def hom_count(h, g):
    """Number of adjacency-preserving maps V(h) -> V(g).

    Multiplicative over the pattern's connected components, so only
    connected pieces hit the search kernel.
    """
    comps = components(h)
    if len(comps) == 1:
        return kernels.hom_count(h.rows, g.rows)
    total = 1
    for comp in comps:
        total *= kernels.hom_count(induced_subgraph(h, comp).rows, g.rows)
    return total


def inj_count(h, g):
    """Number of injective homomorphisms V(h) -> V(g)."""
    return kernels.inj_count(h.rows, g.rows)


def inj_via_moebius(h, g):
    """inj(h, g) through the partition-lattice inversion; cross-check path."""
    return sum(
        moebius_coeff(p) * hom_count(q, g) for p, q in loop_free_quotients(h)
    )


def hom_via_inj_sum(h, g):
    """hom(h, g) as the sum of inj counts of quotients; cross-check path."""
    return sum(inj_count(q, g) for _, q in loop_free_quotients(h))
