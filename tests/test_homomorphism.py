"""Partition lattice, Möbius inversion, quotients, hom/inj counting."""

import math

import networkx as nx
import pytest
from hypothesis import given, settings

import oracles
from homcert import graphs as hg
from homcert import homomorphism as hm


def naive_rgss(h):
    """RGS of every set partition of V(h) from the oracle whose blocks
    hold no edge of h, in lexicographic order."""
    out = []
    for blocks in oracles.brute_set_partitions(h.order):
        rgs = [0] * h.order
        for i, block in enumerate(sorted(sorted(b) for b in blocks)):
            for v in block:
                rgs[v] = i
        if all(rgs[u] != rgs[v] for u, v in h.edges()):
            out.append(tuple(rgs))
    return sorted(out)


def quotient_by(h, rgs):
    """(mu, h/P) for the partition P with this RGS: mu from the closed
    formula, the quotient built block pair by block pair."""
    blocks = [
        [v for v in range(h.order) if rgs[v] == b] for b in range(max(rgs) + 1)
    ]
    mu = (-1) ** (h.order - len(blocks)) * math.prod(
        math.factorial(len(b) - 1) for b in blocks
    )
    quotient_edges = [
        (i, j)
        for i in range(len(blocks))
        for j in range(i + 1, len(blocks))
        if any(h.has_edge(u, v) for u in blocks[i] for v in blocks[j])
    ]
    return mu, hg.Graph(len(blocks), quotient_edges)


def naive_loop_free_quotients(h):
    """Brute-force twin of hm.loop_free_quotients: (mu, h/P) for every
    loop-free partition P from the oracle, in lexicographic RGS order."""
    return [quotient_by(h, rgs) for rgs in naive_rgss(h)]


def walk(h):
    return list(hm.loop_free_quotients(h))


def at(h, rgs):
    """The walk's yield at the lexicographic rank of rgs among the RGSs
    of h's loop-free partitions."""
    return walk(h)[naive_rgss(h).index(rgs)]


class TestPartitions:
    @pytest.mark.parametrize(
        "n,bell", [(1, 1), (2, 2), (3, 5), (4, 15), (5, 52), (6, 203), (7, 877)]
    )
    def test_counts_are_bell_numbers(self, n, bell):
        """An edgeless pattern keeps every partition: Bell(n) of them, one
        per oracle set partition, in sorted RGS order."""
        got = walk(hg.Graph(n))
        assert len(got) == bell
        assert got == naive_loop_free_quotients(hg.Graph(n))

    def test_lexicographic_rgs_order(self):
        """E4's 15 partitions by RGS, from 0000 to 0123, as (mu, order of
        the quotient)."""
        got = [(mu, q.order) for mu, q in walk(hg.Graph(4))]
        assert got == [
            (-6, 1),  # 0000
            (2, 2),  # 0001
            (2, 2),  # 0010
            (1, 2),  # 0011
            (-1, 3),  # 0012
            (2, 2),  # 0100
            (1, 2),  # 0101
            (-1, 3),  # 0102
            (1, 2),  # 0110
            (2, 2),  # 0111
            (-1, 3),  # 0112
            (-1, 3),  # 0120
            (-1, 3),  # 0121
            (-1, 3),  # 0122
            (1, 4),  # 0123
        ]

    @settings(max_examples=60, deadline=None)
    @given(oracles.graph_strategy(min_order=1, max_order=6))
    def test_matches_brute_force_partitions(self, h):
        assert walk(h) == naive_loop_free_quotients(h)

    def test_blocks_consistent_with_rgs(self):
        """Quotient vertex b is block b, blocks numbered by first member:
        on C5, RGS 01023 merges {0, 2} into vertex 0 and RGS 01203 merges
        {0, 3} into vertex 0."""
        got = walk(hg.cycle(5))
        assert got[2] == (-1, hg.Graph(4, [(0, 1), (0, 2), (2, 3), (0, 3)]))
        assert got[5] == (-1, hg.Graph(4, [(0, 1), (1, 2), (0, 2), (0, 3)]))

    def test_guard(self):
        with pytest.raises(ValueError):
            next(hm.loop_free_quotients(hg.Graph(13)))
        with pytest.raises(ValueError):
            next(hm.loop_free_quotients(hg.cycle(13)))

    def test_trivial_flag(self):
        """The all-singletons partition comes last, as (1, h), and is the
        only one whose quotient keeps every vertex."""
        for h in (hg.Graph(3), hg.cycle(5), hg.complete(4), hg.path(4)):
            *proper, last = walk(h)
            assert last == (1, h)
            assert all(q.order < h.order for _, q in proper)


class TestMoebius:
    E5 = hg.Graph(5)

    def test_singletons(self):
        assert walk(self.E5)[-1] == (1, self.E5)

    def test_single_pair(self):
        # one merged pair among five vertices: sign (-1)^1, blocks 0!^3 * 1!
        assert at(self.E5, (0, 0, 1, 2, 3)) == (-1, hg.Graph(4))

    def test_triple_merge(self):
        # a 3-block has weight (3-1)! = 2 and sign (-1)^2
        assert at(self.E5, (0, 0, 0, 1, 2)) == (2, hg.Graph(3))

    def test_all_merged(self):
        assert walk(self.E5)[0] == (math.factorial(4), hg.Graph(1))

    def test_sum_over_lattice_is_zero(self):
        # sum of mu over all partitions of n >= 2 vertices vanishes
        # (inversion applied to the one-vertex target K1)
        for n in range(2, 7):
            assert sum(mu for mu, _ in walk(hg.Graph(n))) == 0


class TestQuotient:
    C5_RGSS = [
        (0, 1, 0, 1, 2),
        (0, 1, 0, 2, 1),
        (0, 1, 0, 2, 3),
        (0, 1, 2, 0, 1),
        (0, 1, 2, 0, 2),
        (0, 1, 2, 0, 3),
        (0, 1, 2, 1, 2),
        (0, 1, 2, 1, 3),
        (0, 1, 2, 3, 1),
        (0, 1, 2, 3, 2),
        (0, 1, 2, 3, 4),
    ]

    def test_c5_distance_two_merge(self):
        mu, q = at(hg.cycle(5), (0, 1, 0, 2, 3))  # merge 0 and 2
        assert mu == -1 and q.order == 4
        # C5 with two vertices at distance 2 identified is a triangle
        # with a pendant edge
        assert nx.is_isomorphic(
            oracles.to_nx(q),
            nx.Graph([(0, 1), (1, 2), (2, 0), (2, 3)]),
        )

    def test_c5_adjacent_merge_has_loop(self):
        """No partition that puts two adjacent vertices in one block is
        ever generated: the walk yields once per partition of V(C5) that
        keeps every edge between blocks, 11 of the 52."""
        c5 = hg.cycle(5)
        loop_free = [
            blocks
            for blocks in oracles.brute_set_partitions(5)
            if not any({u, v} <= b for b in blocks for u, v in c5.edges())
        ]
        assert len(walk(c5)) == len(loop_free) == 11

    def test_c4_opposite_merge(self):
        mu, q = at(hg.cycle(4), (0, 1, 0, 2))
        assert mu == -1
        assert nx.is_isomorphic(oracles.to_nx(q), nx.path_graph(3))

    def test_parallel_edges_collapse(self):
        assert at(hg.cycle(4), (0, 1, 0, 1)) == (1, hg.Graph(2, [(0, 1)]))

    def test_c5_quotient_census(self):
        """Loop-free quotients of C5: 5 copies of the triangle with a
        pendant edge (one merged pair, mu -1), 5 triangles (two merged
        pairs, mu 1), then C5 itself from the all-singletons partition."""
        c5 = hg.cycle(5)
        got = walk(c5)
        *proper, last = got
        assert last == (1, c5)
        paws = [(mu, q) for mu, q in proper if q.order == 4]
        triangles = [(mu, q) for mu, q in proper if q.order == 3]
        assert len(paws) == 5 and all(mu == -1 and q.size == 4 for mu, q in paws)
        assert triangles == [(1, hg.complete(3))] * 5
        assert len(got) == 11

    def test_loop_free_quotients(self):
        """The partitions of C5 in lexicographic RGS order."""
        c5 = hg.cycle(5)
        assert walk(c5) == [quotient_by(c5, rgs) for rgs in self.C5_RGSS]


class TestCounts:
    FROZEN = [
        # (pattern, target, hom, inj)
        (hg.cycle(5), hg.complete(4), 240, 0),
        (hg.cycle(5), hg.complete(5), 1020, 120),
        (hg.cycle(5), hg.petersen(), 120, 120),
        (hg.cycle(4), hg.complete_bipartite(2, 2), 32, 8),
        (hg.complete(3), hg.complete(4), 24, 24),
        (hg.cycle(4), hg.complete_bipartite(3, 3), 162, 72),
        (hg.path(2), hg.petersen(), 30, 30),
    ]

    @pytest.mark.parametrize("h,g,hom,inj", FROZEN)
    def test_frozen_values(self, h, g, hom, inj):
        assert hm.hom_count(h, g) == hom
        assert hm.inj_count(h, g) == inj

    def test_one_vertex_pattern(self):
        g = hg.petersen()
        assert hm.hom_count(hg.Graph(1), g) == 10
        assert hm.inj_count(hg.Graph(1), g) == 10

    def test_disconnected_pattern_multiplicative(self):
        g = hg.petersen()
        e2 = hg.Graph(4, [(0, 1), (2, 3)])
        e1 = hg.Graph(2, [(0, 1)])
        assert hm.hom_count(e2, g) == hm.hom_count(e1, g) ** 2

    def test_disconnected_pattern_inj(self):
        # two disjoint edges cannot embed into a triangle
        e2 = hg.Graph(4, [(0, 1), (2, 3)])
        assert hm.inj_count(e2, hg.complete(3)) == 0
        assert hm.inj_count(e2, hg.complete(4)) == oracles.brute_inj(
            e2, hg.complete(4)
        )

    @settings(max_examples=60, deadline=None)
    @given(
        oracles.graph_strategy(min_order=1, max_order=4),
        oracles.graph_strategy(min_order=1, max_order=6),
    )
    def test_against_brute_force(self, h, g):
        assert hm.hom_count(h, g) == oracles.brute_hom(h, g)
        assert hm.inj_count(h, g) == oracles.brute_inj(h, g)

    def test_pattern_larger_than_target(self):
        assert hm.inj_count(hg.complete(5), hg.complete(4)) == 0


class TestInversion:
    @settings(max_examples=40, deadline=None)
    @given(
        oracles.graph_strategy(min_order=1, max_order=5),
        oracles.graph_strategy(min_order=1, max_order=6),
    )
    def test_moebius_identities(self, h, g):
        assert hm.inj_via_moebius(h, g) == hm.inj_count(h, g)
        assert hm.hom_via_inj_sum(h, g) == hm.hom_count(h, g)

    def test_identities_on_named_graphs(self):
        pairs = [
            (hg.cycle(5), hg.petersen()),
            (hg.complete(4), hg.complete(6)),
            (hg.cycle(4), hg.complete_bipartite(3, 3)),
            (hg.path(4), hg.cycle(7)),
        ]
        for h, g in pairs:
            assert hm.inj_via_moebius(h, g) == hm.inj_count(h, g)
            assert hm.hom_via_inj_sum(h, g) == hm.hom_count(h, g)

    def test_guard_large_pattern(self):
        big = hg.cycle(13)
        with pytest.raises(ValueError):
            hm.inj_via_moebius(big, hg.complete(14))
