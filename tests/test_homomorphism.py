"""Partition lattice, Möbius inversion, quotients, hom/inj counting."""

import math

import networkx as nx
import pytest
from hypothesis import given, settings

import oracles
from homcert import graphs as hg
from homcert import homomorphism as hm


def partition(h, rgs):
    """The partition of V(h) with the given RGS, as loop_free_quotients
    yields it, with its quotient graph."""
    return next((p, q) for p, q in hm.loop_free_quotients(h) if p.rgs == rgs)


def naive_loop_free_quotients(h):
    """Brute-force twin of hm.loop_free_quotients: every set partition from
    the oracle, sorted by RGS, its quotient built pair by pair, and the
    partitions with an edge inside a block dropped."""
    out = []
    for blocks in oracles.brute_set_partitions(h.order):
        blocks = sorted(sorted(b) for b in blocks)
        rgs = [0] * h.order
        for i, block in enumerate(blocks):
            for v in block:
                rgs[v] = i
        if any(rgs[u] == rgs[v] for u, v in h.edges()):
            continue
        quotient_edges = [
            (i, j)
            for i in range(len(blocks))
            for j in range(i + 1, len(blocks))
            if any(h.has_edge(u, v) for u in blocks[i] for v in blocks[j])
        ]
        out.append(
            (
                tuple(rgs),
                tuple(tuple(b) for b in blocks),
                hg.Graph(len(blocks), quotient_edges),
            )
        )
    return sorted(out)


class TestPartitions:
    @pytest.mark.parametrize(
        "n,bell", [(1, 1), (2, 2), (3, 5), (4, 15), (5, 52), (6, 203), (7, 877)]
    )
    def test_counts_are_bell_numbers(self, n, bell):
        """An edgeless pattern keeps every partition: Bell(n) of them, in
        sorted RGS order, and exactly the oracle's set partitions."""
        ps = [p for p, _ in hm.loop_free_quotients(hg.Graph(n))]
        assert len(ps) == bell
        rgss = [p.rgs for p in ps]
        assert rgss == sorted(set(rgss))
        ours = {frozenset(frozenset(b) for b in p.blocks) for p in ps}
        assert ours == set(oracles.brute_set_partitions(n))

    def test_lexicographic_rgs_order(self):
        rgss = [p.rgs for p, _ in hm.loop_free_quotients(hg.Graph(4))]
        assert rgss == sorted(rgss)
        assert rgss[0] == (0, 0, 0, 0)
        assert rgss[-1] == (0, 1, 2, 3)

    @settings(max_examples=60, deadline=None)
    @given(oracles.graph_strategy(min_order=1, max_order=6))
    def test_matches_brute_force_partitions(self, h):
        got = [(p.rgs, p.blocks, q) for p, q in hm.loop_free_quotients(h)]
        assert got == naive_loop_free_quotients(h)

    def test_blocks_consistent_with_rgs(self):
        for h in (hg.Graph(5), hg.cycle(5)):
            for p, _ in hm.loop_free_quotients(h):
                for b, block in enumerate(p.blocks):
                    for v in block:
                        assert p.rgs[v] == b
                # blocks are indexed by first appearance
                firsts = [block[0] for block in p.blocks]
                assert firsts == sorted(firsts)

    def test_guard(self):
        with pytest.raises(ValueError):
            next(hm.loop_free_quotients(hg.Graph(13)))
        with pytest.raises(ValueError):
            next(hm.loop_free_quotients(hg.cycle(13)))

    def test_trivial_flag(self):
        ps = [p for p, _ in hm.loop_free_quotients(hg.Graph(3))]
        trivial = [p for p in ps if p.is_trivial()]
        assert len(trivial) == 1
        assert trivial[0].rgs == (0, 1, 2)


class TestMoebius:
    E5 = hg.Graph(5)

    def test_singletons(self):
        p, _ = partition(self.E5, (0, 1, 2, 3, 4))
        assert hm.moebius_coeff(p) == 1

    def test_single_pair(self):
        # one merged pair among five vertices: sign (-1)^1, blocks 0!^3 * 1!
        p, _ = partition(self.E5, (0, 0, 1, 2, 3))
        assert hm.moebius_coeff(p) == -1

    def test_triple_merge(self):
        # a 3-block has weight (3-1)! = 2 and sign (-1)^2
        p, _ = partition(self.E5, (0, 0, 0, 1, 2))
        assert hm.moebius_coeff(p) == 2

    def test_all_merged(self):
        p, _ = partition(self.E5, (0, 0, 0, 0, 0))
        assert hm.moebius_coeff(p) == math.factorial(4)

    def test_sum_over_lattice_is_zero(self):
        # sum of mu over all partitions of n >= 2 vertices vanishes
        # (inversion applied to the one-vertex target K1)
        for n in range(2, 7):
            assert (
                sum(
                    hm.moebius_coeff(p)
                    for p, _ in hm.loop_free_quotients(hg.Graph(n))
                )
                == 0
            )


class TestQuotient:
    def test_c5_distance_two_merge(self):
        _, q = partition(hg.cycle(5), (0, 1, 0, 2, 3))  # merge 0 and 2
        assert q.order == 4
        # C5 with two vertices at distance 2 identified is a triangle
        # with a pendant edge
        assert nx.is_isomorphic(
            oracles.to_nx(q),
            nx.Graph([(0, 1), (1, 2), (2, 0), (2, 3)]),
        )

    def test_c5_adjacent_merge_has_loop(self):
        """No partition that puts two adjacent vertices in one block is
        ever generated."""
        c5 = hg.cycle(5)
        rgss = [p.rgs for p, _ in hm.loop_free_quotients(c5)]
        assert (0, 0, 1, 2, 3) not in rgss
        assert all(r[u] != r[v] for r in rgss for u, v in c5.edges())

    def test_c4_opposite_merge(self):
        _, q = partition(hg.cycle(4), (0, 1, 0, 2))
        assert nx.is_isomorphic(oracles.to_nx(q), nx.path_graph(3))

    def test_parallel_edges_collapse(self):
        _, q = partition(hg.cycle(4), (0, 1, 0, 1))
        assert q == hg.Graph(2, [(0, 1)])

    def test_c5_quotient_census(self):
        """Loop-free quotients of C5: 5 copies of the triangle with a
        pendant edge, 5 triangles, then C5 itself from the all-singletons
        partition."""
        c5 = hg.cycle(5)
        got = list(hm.loop_free_quotients(c5))
        *proper, (last_p, last_q) = got
        assert last_p.is_trivial() and last_q == c5
        paws = [q for _, q in proper if q.order == 4]
        triangles = [q for _, q in proper if q.order == 3]
        assert len(paws) == 5 and all(q.size == 4 for q in paws)
        assert len(triangles) == 5
        assert all(q == hg.complete(3) for q in triangles)
        assert len(got) == 11

    def test_loop_free_quotients(self):
        """The partitions of C5 in lexicographic RGS order."""
        got = [p.rgs for p, _ in hm.loop_free_quotients(hg.cycle(5))]
        assert got == [
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
