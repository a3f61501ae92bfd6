"""Partition lattice, Möbius inversion, quotients, hom/inj counting."""

import math

import networkx as nx
import pytest
from hypothesis import given, settings

import oracles
from homcert import graphs as hg
from homcert import homomorphism as hm


class TestPartitions:
    @pytest.mark.parametrize(
        "n,bell", [(1, 1), (2, 2), (3, 5), (4, 15), (5, 52), (6, 203), (7, 877)]
    )
    def test_counts_are_bell_numbers(self, n, bell):
        assert len(hm.enumerate_partitions(n)) == bell
        assert hm.bell_number(n) == bell

    def test_lexicographic_rgs_order(self):
        ps = hm.enumerate_partitions(4)
        rgss = [p.rgs for p in ps]
        assert rgss == sorted(rgss)
        assert rgss[0] == (0, 0, 0, 0)
        assert rgss[-1] == (0, 1, 2, 3)

    def test_matches_brute_force_partitions(self):
        for n in range(1, 7):
            ours = {
                frozenset(frozenset(b) for b in p.blocks)
                for p in hm.enumerate_partitions(n)
            }
            theirs = set(oracles.brute_set_partitions(n))
            assert ours == theirs

    def test_blocks_consistent_with_rgs(self):
        for p in hm.enumerate_partitions(5):
            for b, block in enumerate(p.blocks):
                for v in block:
                    assert p.rgs[v] == b
            # blocks are indexed by first appearance
            firsts = [block[0] for block in p.blocks]
            assert firsts == sorted(firsts)

    def test_guard(self):
        with pytest.raises(ValueError):
            hm.enumerate_partitions(13)
        with pytest.raises(ValueError):
            hm.enumerate_partitions(0)

    def test_from_rgs_validation(self):
        with pytest.raises(ValueError):
            hm.Partition.from_rgs((1, 0))
        with pytest.raises(ValueError):
            hm.Partition.from_rgs((0, 2))
        with pytest.raises(ValueError):
            hm.Partition.from_rgs(())

    def test_trivial_flag(self):
        ps = hm.enumerate_partitions(3)
        trivial = [p for p in ps if p.is_trivial()]
        assert len(trivial) == 1
        assert trivial[0].rgs == (0, 1, 2)


class TestMoebius:
    def test_singletons(self):
        p = hm.Partition.from_rgs((0, 1, 2, 3, 4))
        assert hm.moebius_coeff(p) == 1

    def test_single_pair(self):
        # one merged pair among five vertices: sign (-1)^1, blocks 0!^3 * 1!
        p = hm.Partition.from_rgs((0, 0, 1, 2, 3))
        assert hm.moebius_coeff(p) == -1

    def test_triple_merge(self):
        # a 3-block has weight (3-1)! = 2 and sign (-1)^2
        p = hm.Partition.from_rgs((0, 0, 0, 1, 2))
        assert hm.moebius_coeff(p) == 2

    def test_all_merged(self):
        p = hm.Partition.from_rgs((0, 0, 0, 0, 0))
        assert hm.moebius_coeff(p) == math.factorial(4)

    def test_sum_over_lattice_is_zero(self):
        # sum of mu over all partitions of n >= 2 vertices vanishes
        # (inversion applied to the one-vertex target K1)
        for n in range(2, 7):
            assert (
                sum(hm.moebius_coeff(p) for p in hm.enumerate_partitions(n)) == 0
            )


class TestQuotient:
    def test_c5_distance_two_merge(self):
        c5 = hg.cycle(5)
        p = hm.Partition.from_rgs((0, 1, 0, 2, 3))  # merge vertices 0 and 2
        q = hm.quotient(c5, p)
        assert not q.has_loop
        assert q.graph.order == 4
        # C5 with two vertices at distance 2 identified is a triangle
        # with a pendant edge
        assert nx.is_isomorphic(
            oracles.to_nx(q.graph),
            nx.Graph([(0, 1), (1, 2), (2, 0), (2, 3)]),
        )

    def test_c5_adjacent_merge_has_loop(self):
        c5 = hg.cycle(5)
        p = hm.Partition.from_rgs((0, 0, 1, 2, 3))
        assert hm.quotient(c5, p).has_loop

    def test_c4_opposite_merge(self):
        c4 = hg.cycle(4)
        p = hm.Partition.from_rgs((0, 1, 0, 2))
        q = hm.quotient(c4, p)
        assert not q.has_loop
        assert nx.is_isomorphic(oracles.to_nx(q.graph), nx.path_graph(3))

    def test_parallel_edges_collapse(self):
        c4 = hg.cycle(4)
        p = hm.Partition.from_rgs((0, 1, 0, 1))
        q = hm.quotient(c4, p)
        assert not q.has_loop
        assert q.graph == hg.Graph(2, [(0, 1)])

    def test_c5_quotient_census(self):
        """Nonloopy proper quotients of C5: 5 copies of the triangle with a
        pendant edge and 5 triangles."""
        c5 = hg.cycle(5)
        paw = 0
        tri = 0
        for p in hm.enumerate_partitions(5):
            if p.is_trivial():
                continue
            q = hm.quotient(c5, p)
            if q.has_loop:
                continue
            if q.graph.order == 4:
                paw += 1
                assert q.graph.size == 4
            elif q.graph.order == 3:
                tri += 1
                assert q.graph == hg.complete(3)
        assert paw == 5 and tri == 5

    def test_order_mismatch(self):
        with pytest.raises(ValueError):
            hm.quotient(hg.cycle(4), hm.Partition.from_rgs((0, 1, 2)))

    def test_loop_free_quotients(self):
        """In enumerate_partitions order: the ten proper quotients of the
        census, then C5 itself from the all-singletons partition."""
        c5 = hg.cycle(5)
        parts = hm.enumerate_partitions(5)
        quotients = [hm.quotient(c5, p) for p in parts]
        want = [
            (p, q.graph) for p, q in zip(parts, quotients) if not q.has_loop
        ]
        got = list(hm.loop_free_quotients(c5))
        assert got == want
        assert len(got) == 11 and got[-1][1] == c5


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
