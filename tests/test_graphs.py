"""Graph type, constructors, graph6 codec, metrics, enumeration."""

import math

import networkx as nx
import pytest
from hypothesis import given, settings

import oracles
from homcert import graphs as hg
from homcert import kernels


class TestGraphType:
    def test_basic(self):
        g = hg.Graph(3, [(0, 1), (1, 2)])
        assert g.order == 3
        assert g.size == 2
        assert g.has_edge(0, 1) and g.has_edge(1, 0)
        assert not g.has_edge(0, 2)
        assert g.neighbors(1) == [0, 2]
        assert g.edges() == [(0, 1), (1, 2)]
        assert g.degree(1) == 2

    def test_immutable_hashable(self):
        g = hg.Graph(2, [(0, 1)])
        with pytest.raises(AttributeError):
            g.order = 5
        assert hash(g) == hash(hg.Graph(2, [(0, 1)]))
        assert g == hg.Graph(2, [(0, 1)])
        assert g != hg.Graph(2)

    def test_validation(self):
        with pytest.raises(ValueError):
            hg.Graph(0)
        with pytest.raises(ValueError):
            hg.Graph(2, [(0, 0)])
        with pytest.raises(ValueError):
            hg.Graph(2, [(0, 2)])
        with pytest.raises(ValueError):
            hg.Graph.from_rows((1, 0))  # asymmetric
        with pytest.raises(ValueError):
            hg.Graph.from_rows((2, 2))  # loop at 1 / asymmetric at 0
        with pytest.raises(ValueError):
            hg.Graph.from_rows((4, 0))  # bit beyond range

    # The path 0-1-2 with the bit of edge (1, 2) cleared in row 2 or in
    # row 1: either way the error names the pair with the lower vertex first.
    @pytest.mark.parametrize(
        "rows", [(0b010, 0b101, 0b000), (0b010, 0b001, 0b010)]
    )
    def test_asymmetric_pair_named(self, rows):
        with pytest.raises(ValueError, match=r"not symmetric at \(1, 2\)$"):
            hg.Graph.from_rows(rows)


class TestConstructors:
    def test_complete(self):
        k5 = hg.complete(5)
        assert k5.order == 5 and k5.size == 10
        assert all(k5.degree(v) == 4 for v in range(5))

    def test_complete_bipartite(self):
        g = hg.complete_bipartite(3, 3)
        m = hg.metrics(g)
        assert m.size == 9 and m.bipartite and m.regular and m.regularity == 3

    def test_complete_multipartite(self):
        octa = hg.complete_multipartite(2, 2, 2)
        m = hg.metrics(octa)
        assert m.order == 6 and m.size == 12 and m.regularity == 4
        assert not m.bipartite
        k8_minus_pm = hg.complete_multipartite(2, 2, 2, 2)
        assert hg.metrics(k8_minus_pm).regularity == 6
        # same graph as the complement of a perfect matching on 8 vertices
        pm = hg.Graph(8, [(0, 1), (2, 3), (4, 5), (6, 7)])
        assert hg.canonical_form(k8_minus_pm) == hg.canonical_form(
            hg.complement(pm)
        )

    def test_cycle_path(self):
        c6 = hg.cycle(6)
        m = hg.metrics(c6)
        assert m.girth == 6 and m.diameter == 3 and m.bipartite
        p4 = hg.path(4)
        mp = hg.metrics(p4)
        assert mp.tree and mp.girth == math.inf and mp.diameter == 3
        with pytest.raises(ValueError):
            hg.cycle(2)

    def test_petersen(self):
        p = hg.petersen()
        m = hg.metrics(p)
        assert m.order == 10 and m.regularity == 3
        assert m.girth == 5 and m.diameter == 2 and not m.bipartite
        assert nx.is_isomorphic(oracles.to_nx(p), nx.petersen_graph())

    def test_circulant(self):
        g = hg.circulant(13, (1, 5))
        m = hg.metrics(g)
        assert m.regularity == 4 and m.connected
        assert nx.is_isomorphic(
            oracles.to_nx(g), nx.circulant_graph(13, [1, 5])
        )
        with pytest.raises(ValueError):
            hg.circulant(5, (0,))
        # offsets are taken mod n; n-k equals k
        assert hg.circulant(7, (2, 3)) == hg.circulant(7, (5, 4))

    def test_cartesian_product(self):
        rook = hg.cartesian_product(hg.complete(3), hg.complete(3))
        m = hg.metrics(rook)
        assert m.order == 9 and m.regularity == 4
        assert nx.is_isomorphic(
            oracles.to_nx(rook),
            nx.cartesian_product(nx.complete_graph(3), nx.complete_graph(3)),
        )

    def test_complement(self):
        c5 = hg.cycle(5)
        assert hg.canonical_form(hg.complement(c5)) == hg.canonical_form(c5)
        assert hg.complement(hg.complete(4)).size == 0

    def test_disjoint_union(self):
        g = hg.disjoint_union(hg.complete(4), hg.cycle(5))
        m = hg.metrics(g)
        assert m.order == 9 and m.size == 11 and not m.connected
        assert m.diameter == math.inf
        assert [len(c) for c in hg.components(g)] == [4, 5]

    def test_induced_subgraph(self):
        k5 = hg.complete(5)
        sub = hg.induced_subgraph(k5, [0, 2, 4])
        assert sub == hg.complete(3)
        c6 = hg.cycle(6)
        assert hg.induced_subgraph(c6, [0, 1, 2, 3]) == hg.path(4)
        with pytest.raises(ValueError):
            hg.induced_subgraph(c6, [0, 0, 1])


class TestGraph6:
    def test_frozen_strings(self):
        assert hg.write_graph6(hg.complete(4)) == "C~"
        assert hg.write_graph6(hg.Graph(2, [(0, 1)])) == "A_"
        assert hg.write_graph6(hg.Graph(1)) == "@"
        assert hg.write_graph6(hg.Graph(2)) == "A?"

    def test_roundtrip_small(self):
        for g in [
            hg.petersen(),
            hg.complete(7),
            hg.cycle(9),
            hg.Graph(5),
            hg.complete_bipartite(4, 4),
        ]:
            assert hg.parse_graph6(hg.write_graph6(g)) == g

    def test_header_prefix(self):
        s = ">>graph6<<" + hg.write_graph6(hg.complete(4))
        assert hg.parse_graph6(s) == hg.complete(4)
        assert hg.parse_graph6(hg.write_graph6(hg.complete(4)) + "\n") == hg.complete(4)

    def test_long_form(self):
        g = hg.cycle(63)
        s = hg.write_graph6(g)
        assert s.startswith("~") and not s.startswith("~~")
        assert hg.parse_graph6(s) == g

    def test_networkx_agreement(self):
        for g in [
            hg.petersen(),
            hg.complete(6),
            hg.cycle(10),
            hg.complete_bipartite(3, 4),
            hg.disjoint_union(hg.complete(4), hg.complete(4)),
            hg.cycle(63),
        ]:
            ours = hg.write_graph6(g)
            theirs = nx.to_graph6_bytes(oracles.to_nx(g), header=False).strip()
            assert ours.encode() == theirs
            back = nx.from_graph6_bytes(ours.encode())
            assert nx.is_isomorphic(back, oracles.to_nx(g))

    @settings(max_examples=150)
    @given(oracles.graph_strategy(max_order=9))
    def test_roundtrip_property(self, g):
        assert hg.parse_graph6(hg.write_graph6(g)) == g

    def test_error_offsets(self):
        with pytest.raises(hg.Graph6Error) as e:
            hg.parse_graph6("")
        assert e.value.offset == 0
        # order byte says 5 vertices but no edge groups follow
        with pytest.raises(hg.Graph6Error) as e:
            hg.parse_graph6("D")
        assert e.value.offset == 1
        # bad character (space, below 63) inside edge data
        with pytest.raises(hg.Graph6Error) as e:
            hg.parse_graph6("C ")
        assert e.value.offset == 1
        # nonzero padding: C~ has 6 bits used, only C(4,2)=6 -> exact;
        # a 3-vertex graph uses 3 bits, set a padding bit in the last group
        with pytest.raises(hg.Graph6Error) as e:
            hg.parse_graph6("B" + chr(63 + 1))  # bit 5 (last of group) set
        assert e.value.offset == 1
        with pytest.raises(hg.Graph6Error) as e:
            hg.parse_graph6("C~C~")
        assert e.value.offset == 2
        with pytest.raises(hg.Graph6Error) as e:
            hg.parse_graph6("?")  # order 0
        assert e.value.offset == 0
        # prefix shifts reported offsets
        with pytest.raises(hg.Graph6Error) as e:
            hg.parse_graph6(">>graph6<<D")
        assert e.value.offset == 11

    def test_graph6_error_is_value_error(self):
        assert issubclass(hg.Graph6Error, ValueError)


class TestMetrics:
    def test_tree_flags(self):
        m = hg.metrics(hg.path(6))
        assert m.tree and m.connected and m.bipartite
        assert m.girth == math.inf
        m2 = hg.metrics(hg.Graph(4, [(0, 1), (2, 3)]))  # forest, disconnected
        assert not m2.tree and not m2.connected
        assert m2.girth == math.inf and m2.diameter == math.inf

    def test_girth(self):
        assert hg.metrics(hg.complete(4)).girth == 3
        assert hg.metrics(hg.cycle(7)).girth == 7
        assert hg.metrics(hg.complete_bipartite(3, 3)).girth == 4
        assert hg.metrics(hg.petersen()).girth == 5
        # girth of a disjoint union is the min over components
        g = hg.disjoint_union(hg.cycle(5), hg.complete(4))
        assert hg.metrics(g).girth == 3

    def test_diameter(self):
        assert hg.metrics(hg.complete(5)).diameter == 1
        assert hg.metrics(hg.cycle(8)).diameter == 4
        assert hg.metrics(hg.Graph(1)).diameter == 0

    def test_bipartite(self):
        assert hg.metrics(hg.cycle(6)).bipartite
        assert not hg.metrics(hg.cycle(5)).bipartite
        assert hg.metrics(hg.path(2)).bipartite
        assert hg.metrics(hg.Graph(3)).bipartite

    def test_regularity(self):
        assert hg.regularity(hg.petersen()) == 3
        assert hg.regularity(hg.Graph(4)) == 0
        assert hg.regularity(hg.path(4)) is None
        assert hg.metrics(hg.path(4)).regularity is None

    @settings(max_examples=60)
    @given(oracles.graph_strategy(min_order=2, max_order=7))
    def test_against_networkx(self, g):
        m = hg.metrics(g)
        G = oracles.to_nx(g)
        assert m.connected == nx.is_connected(G)
        assert m.bipartite == nx.is_bipartite(G)
        if m.connected:
            assert m.diameter == nx.diameter(G)
        assert hg.components(g) == sorted(
            sorted(c) for c in nx.connected_components(G)
        )
        bipartite, color = hg._bipartition(g)
        assert bipartite == nx.is_bipartite(G)
        if bipartite:
            assert set(color) <= {0, 1}
            assert all(color[u] != color[v] for u, v in G.edges)
        try:
            assert m.girth == nx.girth(G)
        except AttributeError:  # older networkx
            pass


class TestDoubleCover:
    def test_c5_cover_is_c10(self):
        cover = hg.bipartite_double_cover(hg.cycle(5))
        assert nx.is_isomorphic(oracles.to_nx(cover), nx.cycle_graph(10))

    def test_bipartite_graph_cover_is_two_copies(self):
        g = hg.complete_bipartite(2, 3)
        cover = hg.bipartite_double_cover(g)
        comps = hg.components(cover)
        assert len(comps) == 2
        for comp in comps:
            assert nx.is_isomorphic(
                oracles.to_nx(hg.induced_subgraph(cover, comp)),
                oracles.to_nx(g),
            )

    def test_cover_is_bipartite(self):
        for g in [hg.petersen(), hg.complete(5), hg.cycle(7)]:
            assert hg.metrics(hg.bipartite_double_cover(g)).bipartite


class TestCanonicalForm:
    def test_invariance_under_relabeling(self):
        import random

        rng = random.Random(3)
        for g in [hg.petersen(), hg.complete_bipartite(3, 3), hg.cycle(8)]:
            c = hg.canonical_form(g)
            for _ in range(5):
                perm = list(range(g.order))
                rng.shuffle(perm)
                h = hg.Graph(
                    g.order, [(perm[u], perm[v]) for u, v in g.edges()]
                )
                assert hg.canonical_form(h) == c

    @settings(max_examples=80)
    @given(oracles.graph_strategy(max_order=6))
    def test_matches_brute_force(self, g):
        assert hg.canonical_form(g) == oracles.brute_canonical_min(g)

    def test_fixed_points(self):
        for g in [hg.complete(6), hg.Graph(5)]:
            assert hg.canonical_form(g) == g


class TestEnumeratedForm:
    @settings(max_examples=80)
    @given(oracles.graph_strategy(max_order=6))
    def test_matches_brute_force(self, g):
        # max-lex up to half the pairs as edges, min-lex above
        if 4 * g.size > g.order * (g.order - 1):
            assert hg.enumerated_form(g) == oracles.brute_canonical_min(g)
        else:
            top = oracles.brute_max_labelling(g.rows)
            assert hg.enumerated_form(g) == hg.Graph.from_rows(top)

    def test_invariance_under_relabeling(self):
        import random

        rng = random.Random(5)
        for g in [
            hg.petersen(),
            hg.complete_bipartite(3, 3),
            hg.complement(hg.cycle(9)),
            hg.complete_multipartite(2, 2, 2),
        ]:
            c = hg.enumerated_form(g)
            assert nx.is_isomorphic(oracles.to_nx(c), oracles.to_nx(g))
            for _ in range(5):
                perm = list(range(g.order))
                rng.shuffle(perm)
                h = hg.Graph(
                    g.order, [(perm[u], perm[v]) for u, v in g.edges()]
                )
                assert hg.enumerated_form(h) == c

    @pytest.mark.parametrize(
        "n,d", [(4, 3), (6, 5), (7, 4), (8, 4), (8, 5), (9, 6), (10, 6)]
    )
    def test_complement_route_is_canonical_form(self, n, d):
        # 2d > n - 1: the enumerated label is the min-lex one, byte for byte
        classes = hg.enumerate_regular(n, d)
        assert classes
        for g in classes:
            assert hg.write_graph6(g) == hg.write_graph6(hg.canonical_form(g))


class TestEnumerateRegular:
    # connected counts from the standard catalogues of regular graphs
    KNOWN_CONNECTED = {
        (4, 3): 1,
        (6, 3): 2,
        (8, 3): 5,
        (10, 3): 19,
        (12, 3): 85,
        (5, 4): 1,
        (6, 4): 1,
        (7, 4): 2,
        (8, 4): 6,
        (9, 4): 16,
        (10, 4): 59,
        (6, 5): 1,
        (8, 5): 3,
        (10, 5): 60,
        (7, 6): 1,
        (9, 6): 4,
    }

    @pytest.mark.parametrize("n,d", sorted(KNOWN_CONNECTED))
    def test_connected_counts(self, n, d):
        got = hg.enumerate_regular(n, d, connected_only=True)
        assert len(got) == self.KNOWN_CONNECTED[(n, d)]

    # partitions of n into parts >= 3, for n = 3..15
    CYCLE_PARTITIONS = (1, 1, 1, 2, 2, 3, 4, 5, 6, 9, 10, 13, 17)

    @pytest.mark.parametrize("n", range(3, 16))
    def test_two_regular_are_unions_of_cycles(self, n):
        """A 2-regular graph is a disjoint union of cycles, one class per
        multiset of cycle lengths.  Unions of equal cycles have symmetries
        that twin pruning does not catch, so the class count also checks
        that orderly generation keeps one representative of each."""
        got = hg.enumerate_regular(n, 2)
        lengths = {
            tuple(sorted(len(c) for c in hg.components(g))) for g in got
        }
        assert len(got) == len(lengths) == self.CYCLE_PARTITIONS[n - 3]
        assert all(min(ls) >= 3 and sum(ls) == n for ls in lengths)
        assert hg.enumerate_regular(n, 2, connected_only=True) == (
            hg.enumerated_form(hg.cycle(n)),
        )

    DENSE_SIDE = [
        (n, d)
        for n in range(1, 12)
        for d in range(n)
        if 2 * d > n - 1 and n * d % 2 == 0
    ]

    @pytest.mark.parametrize("n,d", DENSE_SIDE)
    def test_dense_side_is_connected(self, n, d):
        """When 2d > n - 1 every component of a d-regular graph has at
        least d + 1 > n/2 vertices, so connected_only keeps every class."""
        got = hg.enumerate_regular(n, d)
        assert hg.enumerate_regular(n, d, connected_only=True) == got
        assert got and all(hg.is_connected(g) for g in got)

    def test_infeasible(self):
        assert hg.enumerate_regular(5, 3) == ()  # odd n * odd d
        assert hg.enumerate_regular(4, 4) == ()  # d >= n
        assert hg.enumerate_regular(3, 0) == (hg.Graph(3),)

    def test_small_complete(self):
        assert hg.enumerate_regular(4, 3) == (hg.complete(4),)
        assert hg.enumerate_regular(6, 5) == (hg.canonical_form(hg.complete(6)),)

    @pytest.mark.parametrize("n", [4, 5, 6, 7])
    def test_against_naive_oracle(self, n):
        for d in range(n):
            ours = hg.enumerate_regular(n, d)
            theirs = oracles.naive_regular(n, d)
            assert len(ours) == len(theirs)
            # and the classes themselves match, not just counts
            for g in ours:
                assert any(
                    nx.is_isomorphic(oracles.to_nx(g), t) for t in theirs
                )

    @pytest.mark.parametrize("d", [3, 4, 5])
    def test_against_naive_oracle_n8(self, d):
        ours = hg.enumerate_regular(8, d)
        theirs = oracles.naive_regular(8, d)
        assert len(ours) == len(theirs)
        for g in ours:
            assert any(nx.is_isomorphic(oracles.to_nx(g), t) for t in theirs)

    @pytest.mark.parametrize(
        "n,d,labeled_total",
        [
            # labeled d-regular graph counts; 8/4 equals 8/3 by complement
            (8, 3, 19355),
            (8, 4, 19355),
            (10, 3, 11180820),
        ],
    )
    def test_orbit_counting_identity(self, n, d, labeled_total):
        """Sum of n!/|Aut| over the classes must equal the labeled count.

        This certifies the enumerated class list is complete and free of
        duplicates: a missing class leaves the sum short, a duplicate
        overshoots.  Automorphism groups come from networkx.
        """
        classes = hg.enumerate_regular(n, d)
        total = sum(
            math.factorial(n) // oracles.automorphism_count(g) for g in classes
        )
        assert total == labeled_total

    # (8, 4), (10, 6) and (12, 8) lie on the dense side 2d > n - 1, where
    # the complement family is enumerated and complemented back.
    @pytest.mark.parametrize("backend", ["python", "c"])
    @pytest.mark.parametrize(
        "n,d", [(8, 3), (10, 3), (8, 4), (10, 6), (12, 8)]
    )
    def test_deterministic_and_sorted(
        self, compiled, monkeypatch, n, d, backend
    ):
        monkeypatch.setattr(
            kernels, "_compiled", compiled if backend == "c" else None
        )
        a = hg.enumerate_regular(n, d)
        b = hg.enumerate_regular(n, d)
        assert a == b
        keys = [hg.write_graph6(g) for g in a]
        assert all(x < y for x, y in zip(keys, keys[1:]))
        # every output is already in its own enumerated form
        for g in a:
            assert hg.enumerated_form(g) == g

    def test_all_outputs_regular(self):
        for g in hg.enumerate_regular(9, 4):
            m = hg.metrics(g)
            assert m.regular and m.regularity == 4

    def test_complement_route_agrees(self):
        # (8,5) goes through the complement of (8,2); check against naive
        ours = hg.enumerate_regular(8, 5)
        theirs = oracles.naive_regular(8, 5)
        assert len(ours) == len(theirs) == 3
