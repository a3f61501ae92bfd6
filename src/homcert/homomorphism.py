"""Homomorphism and injective-homomorphism counting with Möbius inversion.

The two counts are linked through the partition lattice of the pattern's
vertex set: summing injective counts of quotients over all partitions
gives the homomorphism count, and Möbius inversion turns that around,

    hom(h, g)  =  sum over partitions P of inj(h/P, g)
    inj(h, g)  =  sum over partitions P of mu(P) * hom(h/P, g)

where h/P identifies each block to one vertex and

    mu(P)  =  (-1)^(n - |P|) * prod over blocks (|block| - 1)!

A block containing an edge would give h/P a loop, and a loopy quotient
admits no maps into a simple graph, so those terms are zero.  The
partition walk never generates such partitions: it only ever places a
vertex in a block that holds none of its neighbours.  Nor does it build
the partitions it visits: loop_free_quotients multiplies mu(P) up along
the walk and yields it beside h/P.
"""

from __future__ import annotations

from homcert import kernels
from homcert.graphs import Graph, components, induced_subgraph

MAX_PARTITION_ORDER = 12


def loop_free_quotients(h):
    """(mu, quotient graph) for every partition of V(h) whose blocks are
    independent sets, in lexicographic order of the partitions' RGS
    (restricted-growth string: vertex v's block index, blocks numbered by
    first use), mu being the partition's Möbius weight.

    A backtracking walk places vertices 0, 1, ... in turn: vertex v joins
    each open block holding none of its neighbours, in block order, and
    then opens a new block.  Loopy partitions are therefore never built.
    Joining a block of s vertices multiplies mu by -s and opening a block
    leaves it alone, which builds (-1)^(n - |P|) * prod (|block| - 1)!.
    """
    n = h.order
    if n > MAX_PARTITION_ORDER:
        raise ValueError(
            f"refusing to enumerate partitions of {n} vertices; "
            f"limit is {MAX_PARTITION_ORDER}"
        )
    edges = h.edges()
    rgs = [0] * n
    masks = []  # vertex bitmask of each open block

    def leaf():
        q = [0] * len(masks)
        for u, v in edges:
            bu, bv = rgs[u], rgs[v]
            q[bu] |= 1 << bv
            q[bv] |= 1 << bu
        return Graph.from_rows(q)

    def walk(v, mu):
        if v == n:
            yield mu, leaf()
            return
        nbrs, bit = h.rows[v], 1 << v
        for b, mask in enumerate(masks):
            if not nbrs & mask:
                rgs[v] = b
                masks[b] = mask | bit
                yield from walk(v + 1, -mu * mask.bit_count())
                masks[b] = mask
        rgs[v] = len(masks)
        masks.append(bit)
        yield from walk(v + 1, mu)
        masks.pop()

    yield from walk(0, 1)


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
    return sum(mu * hom_count(q, g) for mu, q in loop_free_quotients(h))


def hom_via_inj_sum(h, g):
    """hom(h, g) as the sum of inj counts of quotients; cross-check path."""
    return sum(inj_count(q, g) for _, q in loop_free_quotients(h))
