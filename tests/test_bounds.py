"""Tests for the bounding-polynomial construction and verification."""

import json

import networkx as nx
import pytest

from homcert import bounds
from homcert import homomorphism as hm
from homcert.bounds import (
    BoundCertificate,
    BoundViolation,
    CertificateShapeError,
    build_bound_poly,
    choose_unicyclic_subgraph,
    cycle_profile,
    hom_lower_poly,
    verify_bound,
)
from homcert.graphs import (
    Graph,
    canonical_form,
    circulant,
    complete,
    complete_bipartite,
    complete_multipartite,
    cycle,
    disjoint_union,
    enumerate_regular,
    is_bipartite,
    metrics,
    parse_graph6,
    path,
    petersen,
    write_graph6,
)
from homcert.poly import BivarPoly
from homcert.spectral import eval_poly_sum

from oracles import all_connected_graphs, to_nx


def mono(k, j, c=1):
    return BivarPoly({(k, j): c})


def neg(p):
    return BivarPoly({m: -c for m, c in p.coeffs.items()})


C5_POLY = BivarPoly({(5, 0): 1, (3, 0): 5, (3, 1): -5})

PAW = Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2)])
DIAMOND = Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
BANNER = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4)])
BULL = Graph(5, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 4)])
BUTTERFLY = Graph(5, [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4)])


def small_regular_corpus():
    corpus = [g for n in (4, 6, 8) for g in enumerate_regular(n, 3, True)]
    corpus += [g for n in (5, 6, 7) for g in enumerate_regular(n, 4, True)]
    return corpus


def nontree_patterns(max_n=5):
    pats = []
    for n in range(3, max_n + 1):
        for g in all_connected_graphs(n):
            if g.size >= g.order:
                pats.append(g)
    return pats


class TestCycleProfile:
    def test_c5(self):
        prof = cycle_profile(cycle(5))
        assert prof.counts == {5: 1}
        assert len(prof.tree_edges) == 4
        assert len(prof.non_tree) == 1

    def test_k4_all_triangles_through_hub(self):
        prof = cycle_profile(complete(4))
        assert prof.counts == {3: 3}
        assert len(prof.non_tree) == 3

    def test_k3(self):
        assert cycle_profile(complete(3)).counts == {3: 1}

    def test_tree_has_no_extra_edges(self):
        prof = cycle_profile(path(5))
        assert prof.counts == {}
        assert prof.non_tree == ()
        assert len(prof.tree_edges) == 4

    def test_petersen_all_cycles_length_five(self):
        prof = cycle_profile(petersen())
        assert sum(prof.counts.values()) == 6
        assert prof.counts == {5: 6}

    def test_spanning_tree_and_edge_accounting(self):
        for h in nontree_patterns(5) + [path(4), petersen(), complete(5)]:
            prof = cycle_profile(h)
            n, m = prof.order, prof.size
            assert len(prof.tree_edges) == n - 1
            assert len(prof.non_tree) == m - n + 1
            assert sum(prof.counts.values()) == m - n + 1
            tree = Graph(n, prof.tree_edges)
            assert metrics(tree).tree
            edges = set(prof.graph.edges())
            assert set(prof.tree_edges) <= edges
            assert {(u, v) for u, v, _ in prof.non_tree} == edges - set(
                prof.tree_edges
            )

    def test_tree_is_a_bfs_tree(self):
        # tree depth is graph distance from vertex 0 of the canonical copy,
        # and each non-tree edge closes its tree path into a k-cycle
        pool = nontree_patterns(5) + [path(5), petersen(), complete(5)]
        pool += [cycle(8), complete_bipartite(3, 4), BANNER, BULL]
        for h in pool:
            prof = cycle_profile(h)
            tree = nx.Graph(prof.tree_edges)
            tree.add_nodes_from(range(prof.order))
            assert nx.shortest_path_length(tree, 0) == nx.shortest_path_length(
                to_nx(prof.graph), 0
            )
            for u, v, k in prof.non_tree:
                assert k == nx.shortest_path_length(tree, u, v) + 1

    def test_cycle_lengths_at_least_girth(self):
        for h in nontree_patterns(5) + [petersen(), cycle(7)]:
            g = metrics(h).girth
            for _, _, k in cycle_profile(h).non_tree:
                assert k >= g >= 3

    def test_bipartite_graphs_have_even_cycles_only(self):
        for n in range(3, 6):
            for h in all_connected_graphs(n):
                if is_bipartite(h):
                    assert all(k % 2 == 0 for k in cycle_profile(h).counts)

    def test_nonbipartite_graphs_have_an_odd_bfs_cycle(self):
        # the edge-deletion step in the non-bipartite branch relies on this
        pool = [h for n in range(3, 6) for h in all_connected_graphs(n)]
        pool += [petersen(), cycle(7), complete_multipartite(2, 2, 2)]
        seen = 0
        for h in pool:
            if not is_bipartite(h):
                assert any(k % 2 == 1 for k in cycle_profile(h).counts)
                seen += 1
        assert seen > 10

    def test_disconnected_rejected(self):
        with pytest.raises(ValueError):
            cycle_profile(disjoint_union(cycle(3), cycle(3)))


class TestUnicyclicHomPoly:
    """hom_lower_poly is the exact hom polynomial of a tree or unicyclic h."""

    def test_frozen_forms(self):
        assert hom_lower_poly(cycle(5)) == mono(5, 0)
        assert hom_lower_poly(cycle(4)) == mono(4, 0)
        assert hom_lower_poly(path(4)) == mono(0, 3)
        assert hom_lower_poly(PAW) == mono(3, 1)
        assert hom_lower_poly(BANNER) == mono(4, 1)

    def test_exact_for_every_regular_target(self):
        pats = [path(2), path(4), cycle(3), cycle(4), cycle(5), PAW, BANNER]
        for g in small_regular_corpus() + [petersen()]:
            for h in pats:
                assert eval_poly_sum(hom_lower_poly(h), g) == hm.hom_count(
                    h, g
                )


class TestNegHomMajorant:
    """neg(hom_lower_poly(h)), the builder's hom-majorant step, bounds -hom."""

    def test_frozen_forms(self):
        assert neg(hom_lower_poly(complete(3))) == mono(3, 0, -1)
        assert neg(hom_lower_poly(cycle(5))) == mono(5, 0, -1)
        assert neg(hom_lower_poly(complete(4))) == BivarPoly(
            {(0, 3): 2, (3, 1): -3}
        )

    def test_exact_identity_for_trees_and_unicyclic(self):
        for h in [path(3), cycle(3), cycle(4), cycle(5), PAW, BANNER]:
            q = neg(hom_lower_poly(h))
            for g in small_regular_corpus():
                assert eval_poly_sum(q, g) == -hm.hom_count(h, g)


class TestHomLowerPoly:
    def test_lower_bounds_hom_on_corpus(self):
        multicyclic = [
            complete(4),
            DIAMOND,
            BUTTERFLY,
            complete(5),
            complete_bipartite(2, 3),
            complete_bipartite(3, 3),
        ]
        for h in multicyclic:
            p = hom_lower_poly(h)
            for g in small_regular_corpus() + [petersen()]:
                assert eval_poly_sum(p, g) <= hm.hom_count(h, g)

    def test_k4_at_k4_is_strict(self):
        val = eval_poly_sum(hom_lower_poly(complete(4)), complete(4))
        assert val == 0
        assert val < hm.hom_count(complete(4), complete(4)) == 24

    def test_disconnected_rejected(self):
        with pytest.raises(ValueError):
            hom_lower_poly(disjoint_union(cycle(3), path(2)))


class TestChooseUnicyclicSubgraph:
    def test_k4_yields_paw(self):
        y, k = choose_unicyclic_subgraph(complete(4), "non-bipartite")
        assert k == 3
        assert y.size == 4
        assert nx.is_isomorphic(to_nx(y), to_nx(PAW))

    def test_cycle_returns_itself(self):
        y, k = choose_unicyclic_subgraph(cycle(5), "non-bipartite")
        assert k == 5
        assert y == canonical_form(cycle(5))

    def test_k33_bipartite_branch(self):
        y, k = choose_unicyclic_subgraph(complete_bipartite(3, 3), "bipartite")
        assert k == 4
        assert y.size == y.order == 6
        assert metrics(y).girth == 4

    def test_k33_has_no_odd_cycle(self):
        with pytest.raises(ValueError, match="odd"):
            choose_unicyclic_subgraph(complete_bipartite(3, 3), "non-bipartite")

    def test_tree_rejected(self):
        with pytest.raises(ValueError, match="tree"):
            choose_unicyclic_subgraph(path(4), "bipartite")

    def test_bad_parity_rejected(self):
        with pytest.raises(ValueError, match="parity"):
            choose_unicyclic_subgraph(complete(4), "odd")

    def test_result_is_spanning_subgraph_of_canonical_copy(self):
        for h in nontree_patterns(5):
            parity = "bipartite" if is_bipartite(h) else "non-bipartite"
            y, k = choose_unicyclic_subgraph(h, parity)
            hc = canonical_form(h)
            assert y.order == hc.order
            assert set(y.edges()) <= set(hc.edges())
            assert y.size == y.order  # unicyclic
            assert metrics(y).girth == k
            if parity == "non-bipartite":
                assert k % 2 == 1


class TestBuildBoundPoly:
    def test_c3(self):
        c = build_bound_poly(cycle(3))
        assert c.poly == mono(3, 0)
        assert c.parity == "non-bipartite"
        assert c.anchor_k == 3
        assert c.exact

    def test_c4(self):
        c = build_bound_poly(cycle(4))
        assert c.poly == BivarPoly({(4, 0): 1, (0, 2): -2, (0, 1): 1})
        assert c.parity == "bipartite"
        assert c.anchor_k == 4
        assert c.exact

    def test_c5(self):
        c = build_bound_poly(cycle(5))
        assert c.poly == C5_POLY
        assert c.parity == "non-bipartite"
        assert c.anchor_k == 5
        assert c.exact

    def test_k4(self):
        # K4 reduces to the paw, whose expansion is exact: (d-2)*lam^3
        c = build_bound_poly(complete(4))
        assert c.poly == BivarPoly({(3, 1): 1, (3, 0): -2})
        assert c.exact

    def test_equality_report_zero_for_exact_cycles(self):
        for h in (cycle(3), cycle(4), cycle(5)):
            c = build_bound_poly(h)
            assert set(c.equality_report) == set(
                range(h.order, h.order + bounds.EQUALITY_REPORT_SPAN)
            )
            assert all(gap == 0 for gap in c.equality_report.values())

    def test_k4_equality_report_also_zero(self):
        # deleting an edge of K4 does not change inj into complete targets
        c = build_bound_poly(complete(4))
        assert all(gap == 0 for gap in c.equality_report.values())

    def test_equality_report_matches_anchor_counts(self):
        # the closed-form report against the spectral sum and the counting
        # kernel on the anchor graph itself
        for h in nontree_patterns(5) + [cycle(6), cycle(7)]:
            c = build_bound_poly(h)
            hc = parse_graph6(c.pattern)
            for d, gap in c.equality_report.items():
                if c.parity == "bipartite":
                    g = complete_bipartite(d, d)
                else:
                    g = complete(d + 1)
                want = eval_poly_sum(c.poly, g, d) - hm.inj_count(hc, g)
                assert gap == want, (c.pattern, d)

    def test_general_path_matches_exact_path_for_c5(self):
        """The two-level expansion equals the full Möbius inversion wherever
        the latter applies: on C5, and on the unicyclic subgraph of every
        golden pattern (each connected non-tree pattern on 3-6 vertices,
        plus C7 and C8), 23 of the 131 being exact."""
        y, _ = choose_unicyclic_subgraph(cycle(5), "non-bipartite")
        terms = bounds._Builder("non-bipartite").expand_inj(y)
        assert BivarPoly(terms) == C5_POLY
        pats = nontree_patterns(6) + [cycle(7), cycle(8)]
        assert len(pats) == 131
        exact = 0
        for h in pats:
            parity = "bipartite" if is_bipartite(h) else "non-bipartite"
            y, _ = choose_unicyclic_subgraph(h, parity)
            want = bounds._Builder(parity).exact_moebius_poly(y)
            if want is not None:
                exact += 1
                got = bounds._Builder(parity).expand_inj(y)
                assert BivarPoly(got) == BivarPoly(want), write_graph6(h)
        assert exact == 23

    def test_each_graph_labelled_once_per_build(self, monkeypatch):
        """One build labels each distinct graph (by its rows) once, over the
        131 golden patterns; the same quotients keep coming back."""
        label = bounds.canonical_form
        seen = []

        def recording(g):
            seen.append(g.rows)
            return label(g)

        monkeypatch.setattr(bounds, "canonical_form", recording)
        for h in nontree_patterns(6) + [cycle(7), cycle(8)]:
            seen.clear()
            build_bound_poly(h)
            assert seen and len(seen) == len(set(seen)), write_graph6(h)

    @pytest.mark.parametrize("h", [cycle(8), circulant(8, (1, 2))])
    def test_each_quotient_class_walked_once_per_build(self, h, monkeypatch):
        """expand_inj walks the quotients of each first-level quotient
        class once per build: an isomorphic quotient reuses the sum."""
        quotients, expand_inj = bounds._quotients, bounds._Builder.expand_inj
        opened, first, second = [], [], []

        def key(g):
            return canonical_form(g).rows

        def recording_quotients(y, parity):
            out = quotients(y, parity)
            if opened:  # expand_inj's own first-level walk
                opened.pop()
                first.extend(key(z) for z in out)
            else:
                second.append(key(y))
            return out

        def recording_expand_inj(self, y):
            opened.append(y)
            return expand_inj(self, y)

        monkeypatch.setattr(bounds, "_quotients", recording_quotients)
        monkeypatch.setattr(bounds._Builder, "expand_inj", recording_expand_inj)
        build_bound_poly(h)
        assert not opened and first
        assert sorted(second) == sorted(set(first))

    def test_shape_invariants_all_small_patterns(self):
        for h in nontree_patterns(5):
            c = build_bound_poly(h)
            n = h.order
            expected_parity = (
                "bipartite" if is_bipartite(h) else "non-bipartite"
            )
            assert c.parity == expected_parity
            assert c.poly.total_degree() == n
            top = [
                (k, j) for (k, j), _ in c.poly.coeffs.items() if k + j == n
            ]
            assert top == [(c.anchor_k, n - c.anchor_k)]
            assert c.poly.coefficient(c.anchor_k, n - c.anchor_k) == 1
            if expected_parity == "bipartite":
                assert c.anchor_k % 2 == 0
                assert all(k % 2 == 0 for k, _ in c.poly.coeffs)
            else:
                assert c.anchor_k % 2 == 1
            assert c.steps
            for step in c.steps:
                parse_graph6(step["pattern"])
                assert step["kind"] in ("exact", "upper")

    @pytest.mark.parametrize(
        "h,bad",
        [
            (cycle(5), {(5, 0): 1, (6, 0): 1}),  # total degree above n
            (cycle(5), {(5, 0): 1, (3, 2): 1}),  # second top monomial
            (cycle(5), {(5, 0): 2}),  # anchor coefficient not 1
            (cycle(4), {(4, 0): 1, (1, 0): 1}),  # odd power, bipartite
        ],
    )
    def test_malformed_polynomial_raises(self, monkeypatch, h, bad):
        monkeypatch.setattr(
            bounds._Builder, "exact_moebius_poly", lambda self, y: bad
        )
        with pytest.raises(CertificateShapeError):
            build_bound_poly(h)

    def test_exact_flag_census(self):
        flags = {
            write_graph6(canonical_form(h)): build_bound_poly(h).exact
            for h in nontree_patterns(5)
        }
        assert flags[write_graph6(canonical_form(cycle(5)))]
        assert flags[write_graph6(canonical_form(complete(4)))]
        assert not flags[write_graph6(canonical_form(BANNER))]
        assert not flags[write_graph6(canonical_form(complete_bipartite(2, 3)))]
        assert not flags[write_graph6(canonical_form(BULL))]

    def test_json_roundtrip(self):
        for h in (cycle(5), complete(4), BANNER, complete_bipartite(2, 3)):
            c = build_bound_poly(h)
            blob = json.dumps(c.to_json_dict(), sort_keys=True)
            back = BoundCertificate.from_json_dict(json.loads(blob))
            assert back.poly == c.poly
            assert back.pattern == c.pattern
            assert back.parity == c.parity
            assert back.anchor_k == c.anchor_k
            assert back.equality_report == c.equality_report
            assert back.exact == c.exact
            assert back.to_json_dict() == c.to_json_dict()

    @pytest.mark.parametrize(
        "field,value",
        [
            ("pattern", "D?x"),  # nonzero padding bits
            ("pattern", 5),
            ("parity", "odd"),
            ("anchor_k", 5.0),
            ("anchor_k", True),
            ("exact", 1),
            ("exact", "false"),
            ("steps", ["x", 3]),
            ("steps", {"rule": "hom-identity"}),
            ("steps", [{"rule": 1, "pattern": "Dhc", "kind": "exact"}]),
            ("steps", [{"rule": "hom-identity", "pattern": 5, "kind": "exact"}]),
            ("steps", [{"rule": "hom-identity", "pattern": "Dhc", "kind": "lower"}]),
        ],
    )
    def test_tampered_field_rejected(self, field, value):
        doc = build_bound_poly(cycle(5)).to_json_dict()
        doc[field] = value
        with pytest.raises(ValueError):
            BoundCertificate.from_json_dict(doc)

    @pytest.mark.parametrize(
        "field",
        ["pattern", "parity", "anchor_k", "poly", "steps", "equality_report", "exact"],
    )
    def test_missing_field_rejected(self, field):
        doc = build_bound_poly(cycle(5)).to_json_dict()
        del doc[field]
        with pytest.raises(ValueError, match=f"missing field '{field}'"):
            BoundCertificate.from_json_dict(doc)

    @pytest.mark.parametrize("field", ["rule", "pattern", "kind"])
    def test_step_missing_field_rejected(self, field):
        doc = build_bound_poly(cycle(5)).to_json_dict()
        del doc["steps"][0][field]
        with pytest.raises(ValueError, match=f"missing field '{field}'"):
            BoundCertificate.from_json_dict(doc)

    @pytest.mark.parametrize("key", ["05", "+5", " 5", "5.0", "five"])
    def test_tampered_report_key_rejected(self, key):
        doc = build_bound_poly(cycle(5)).to_json_dict()
        report = doc["equality_report"]
        report[key] = report.pop("5")
        with pytest.raises(ValueError):
            BoundCertificate.from_json_dict(doc)

    def test_tree_rejected(self):
        with pytest.raises(ValueError, match="tree"):
            build_bound_poly(path(4))

    def test_disconnected_rejected(self):
        with pytest.raises(ValueError, match="connected"):
            build_bound_poly(disjoint_union(cycle(3), cycle(4)))

    def test_large_pattern_rejected(self):
        with pytest.raises(ValueError, match="8"):
            build_bound_poly(cycle(9))


class TestVerifyBound:
    def test_c5_exact_over_cubic(self):
        cert = build_bound_poly(cycle(5))
        corpus = [g for n in (4, 6, 8) for g in enumerate_regular(n, 3, True)]
        corpus.append(petersen())
        report = verify_bound(cert, corpus)
        assert len(report.entries) == len(corpus)
        assert all(e.gap == 0 for e in report.entries)
        assert report.min_gap == 0
        anchors = [e for e in report.entries if e.is_anchor]
        assert [a.graph6 for a in anchors] == [
            write_graph6(canonical_form(complete(4)))
        ]

    def test_all_small_patterns_nonnegative(self):
        corpus = small_regular_corpus()
        for h in nontree_patterns(5):
            report = verify_bound(build_bound_poly(h), corpus)
            assert report.min_gap >= 0
            assert len(report.entries) + len(report.skipped) == len(corpus)

    def test_bipartite_cert_skips_nonbipartite_targets(self):
        cert = build_bound_poly(BANNER)
        assert not cert.exact
        corpus = small_regular_corpus()
        report = verify_bound(cert, corpus)
        bip = [g for g in corpus if is_bipartite(g)]
        assert len(report.entries) == len(bip)
        assert len(report.skipped) == len(corpus) - len(bip)

    def test_exact_bipartite_cert_checked_everywhere(self):
        cert = build_bound_poly(cycle(4))
        corpus = small_regular_corpus()
        report = verify_bound(cert, corpus)
        assert len(report.entries) == len(corpus)
        assert report.skipped == ()
        assert all(e.gap == 0 for e in report.entries)

    def test_edgeless_target(self):
        report = verify_bound(build_bound_poly(cycle(4)), [Graph(3)])
        (entry,) = report.entries
        assert (entry.degree, entry.gap, entry.is_anchor) == (0, 0, False)

    def test_c4_anchor_is_relabelled_k33(self):
        k33 = circulant(6, (1, 3))  # parts {0, 2, 4} and {1, 3, 5}
        prism = circulant(6, (2, 3))  # cubic on 2d vertices, not bipartite
        corpus = [complete(4), prism, k33, *enumerate_regular(8, 3, True)]
        report = verify_bound(build_bound_poly(cycle(4)), corpus)
        anchors = [e.graph6 for e in report.entries if e.is_anchor]
        assert anchors == [write_graph6(canonical_form(complete_bipartite(3, 3)))]

    def test_violation_raises(self):
        bad = BoundCertificate(
            pattern=write_graph6(canonical_form(cycle(3))),
            parity="non-bipartite",
            anchor_k=3,
            poly=mono(0, 3, -1),
            steps=(),
            equality_report={},
            exact=False,
        )
        with pytest.raises(BoundViolation) as exc:
            verify_bound(bad, [complete(4)])
        assert exc.value.gap < 0
        assert exc.value.graph6 == write_graph6(canonical_form(complete(4)))

    def test_nonregular_target_rejected(self):
        cert = build_bound_poly(cycle(3))
        with pytest.raises(ValueError, match="regular"):
            verify_bound(cert, [path(4)])

    def test_report_json(self):
        cert = build_bound_poly(cycle(5))
        report = verify_bound(cert, [complete(4), petersen()])
        doc = report.to_json_dict()
        assert doc["schema"] == "bound-verification/1"
        assert doc["count"] == 2
        assert all(e["gap"] == "0/1" for e in doc["entries"])
