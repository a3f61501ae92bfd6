"""Tests for the verification campaigns in homcert.harness."""

import json
from fractions import Fraction

import pytest

from homcert import harness
from homcert import homomorphism as hm
from homcert.graphs import (
    Graph,
    canonical_form,
    complete,
    complete_bipartite,
    components,
    cycle,
    disjoint_union,
    enumerated_form,
    induced_subgraph,
    metrics,
    parse_graph6,
    path,
    petersen,
    write_graph6,
)

SPIDER = Graph(7, [(0, 1), (1, 2), (0, 3), (3, 4), (0, 5), (5, 6)])


class TestNamedGraphs:
    def test_all_names_present(self):
        graphs = harness.named_paper_graphs()
        expected = set(
            harness.D4_EXAMPLE_NAMES
            + harness.D5_EXAMPLE_NAMES
            + harness.D6_EXAMPLE_NAMES
        )
        assert expected <= set(graphs)
        assert len(expected) == 13

    def test_orders_and_regularity(self):
        graphs = harness.named_paper_graphs()
        want = {
            "octahedron": (6, 4),
            "C7(1,2)": (7, 4),
            "C7(2,3)": (7, 4),
            "C9(2,3)": (9, 4),
            "C12(2,3)": (12, 4),
            "C13(2,3)": (13, 4),
            "rook-3x3": (9, 4),
            "figure-d4-9": (9, 4),
            "figure-d4-10": (10, 4),
            "complement-K3-C5": (8, 5),
            "K7": (7, 6),
            "K333": (9, 6),
            "K8-minus-PM": (8, 6),
        }
        for name, (order, d) in want.items():
            m = metrics(graphs[name])
            assert m.order == order, name
            assert m.regularity == d, name
            assert m.connected, name

    def test_figure_graphs_are_not_other_named_graphs(self):
        graphs = harness.named_paper_graphs()
        c9 = {
            write_graph6(canonical_form(graphs[n]))
            for n in ("C9(2,3)", "rook-3x3", "figure-d4-9")
        }
        assert len(c9) == 3

    def test_density_matches_direct_count(self):
        g = petersen()
        assert harness.density(cycle(5), g) == Fraction(
            hm.inj_count(cycle(5), g), 10
        )
        assert harness.density(cycle(5), g) == 12


class TestVerifyPaperExamples:
    def test_all_checks_pass(self):
        rep = harness.verify_paper_examples()
        assert rep.ok
        assert rep.failures() == ()
        assert len(rep.checks) == 17

    def test_json_document(self):
        rep = harness.verify_paper_examples()
        doc = rep.to_json_dict()
        assert doc["schema"] == "check-report/1"
        assert doc["ok"] is True
        json.dumps(doc)  # serializable

    def test_common_d4_density_is_40(self):
        graphs = harness.named_paper_graphs()
        c5 = cycle(5)
        for name in harness.D4_EXAMPLE_NAMES:
            assert harness.density(c5, graphs[name]) == 40, name

    def test_d5_and_d6_values(self):
        graphs = harness.named_paper_graphs()
        c5 = cycle(5)
        assert harness.density(c5, graphs["complement-K3-C5"]) == Fraction(
            265, 2
        )
        for name in harness.D6_EXAMPLE_NAMES:
            assert harness.density(c5, graphs[name]) == 360, name


class TestCorpus:
    """The three campaigns over enumerated corpora share one walker, which
    rejects a range with no feasible order before any work."""

    @pytest.mark.parametrize(
        "campaign",
        [
            lambda: harness.search_max_density(path(3), 3, 3),
            lambda: harness.tree_extremal_check(path(3), 3, 3),
            lambda: harness.vertexwise_walk_check(3, 5, 3),
        ],
        ids=["search", "tree", "walks"],
    )
    def test_empty_range_raises(self, campaign):
        with pytest.raises(
            ValueError, match="no feasible graph orders for d=3, n<=3"
        ):
            campaign()


class TestSearchMaxDensity:
    def test_petersen_unique_for_c5(self):
        rep = harness.search_max_density(cycle(5), 3, 10, connected_only=True)
        assert rep.best_density == 12
        assert [g6 for g6, _ in rep.maximizers] == [
            write_graph6(enumerated_form(petersen()))
        ]
        assert rep.runner_up_density is not None
        assert rep.runner_up_density < rep.best_density
        assert rep.n_range == (4, 10)

    def test_k33_maximizes_c4(self):
        rep = harness.search_max_density(cycle(4), 3, 8, connected_only=True)
        assert rep.best_density == 12
        assert [g6 for g6, _ in rep.maximizers] == [
            write_graph6(canonical_form(complete_bipartite(3, 3)))
        ]

    def test_k4_maximizes_triangles(self):
        rep = harness.search_max_density(cycle(3), 3, 10, connected_only=True)
        assert rep.best_density == 6
        assert [g6 for g6, _ in rep.maximizers] == [
            write_graph6(canonical_form(complete(4)))
        ]

    def test_report_invariants_with_table(self):
        rep = harness.search_max_density(
            cycle(4), 3, 8, connected_only=False, keep_table=True
        )
        assert rep.per_graph_table is not None
        values = [v for _, v in rep.per_graph_table]
        assert rep.best_density == max(values)
        for g6, v in rep.maximizers:
            assert v == rep.best_density
        below = [v for v in values if v < rep.best_density]
        assert rep.runner_up_density == max(below)
        # disconnected corpus is strictly larger than the connected one
        connected = harness.search_max_density(
            cycle(4), 3, 8, connected_only=True, keep_table=True
        )
        assert len(rep.per_graph_table) > len(connected.per_graph_table)

    def test_deterministic_json(self):
        a = harness.search_max_density(cycle(5), 3, 8).to_json_dict()
        b = harness.search_max_density(cycle(5), 3, 8).to_json_dict()
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
        assert a["schema"] == "search-report/2"
        assert a["best_density"] == "10/1"

    def test_densities_are_exact_strings_in_json(self):
        doc = harness.search_max_density(cycle(5), 3, 6).to_json_dict()
        for g6, v in doc["maximizers"]:
            parse_graph6(g6)
            num, den = v.split("/")
            int(num), int(den)

    def test_empty_range_raises(self):
        with pytest.raises(ValueError):
            harness.search_max_density(cycle(5), 3, 3)

    def test_odd_infeasible_orders_skipped(self):
        rep = harness.search_max_density(cycle(3), 3, 5, connected_only=True)
        # n=5 is infeasible for d=3, so the corpus is exactly K4
        assert rep.maximizers == (
            (write_graph6(canonical_form(complete(4))), Fraction(6)),
        )
        assert rep.runner_up_density is None


class TestTreeExtremalCheck:
    def test_p3_all_graphs_maximize(self):
        rep = harness.tree_extremal_check(path(3), 3, 8)
        assert rep.ok
        detail = rep.checks[0]["detail"]
        assert set(detail["maximizers"]) == set(
            detail["girth_exceeds_diameter"]
        )
        assert detail["best_density"] == "6/1"

    def test_p4_maximizers_are_triangle_free(self):
        rep = harness.tree_extremal_check(path(4), 3, 10)
        assert rep.ok
        detail = rep.checks[0]["detail"]
        maximizers = set(detail["maximizers"])
        assert write_graph6(canonical_form(complete_bipartite(3, 3))) in {
            write_graph6(canonical_form(parse_graph6(g6))) for g6 in maximizers
        }
        assert write_graph6(canonical_form(petersen())) in {
            write_graph6(canonical_form(parse_graph6(g6))) for g6 in maximizers
        }

    def test_spider_diameter4_gives_petersen_only(self):
        assert metrics(SPIDER).diameter == 4
        rep = harness.tree_extremal_check(SPIDER, 3, 10)
        assert rep.ok
        detail = rep.checks[0]["detail"]
        assert {
            write_graph6(canonical_form(parse_graph6(g6)))
            for g6 in detail["maximizers"]
        } == {write_graph6(canonical_form(petersen()))}

    def test_non_tree_rejected(self):
        with pytest.raises(ValueError):
            harness.tree_extremal_check(cycle(4), 3, 8)

    def test_degree_too_small_rejected(self):
        with pytest.raises(ValueError):
            harness.tree_extremal_check(Graph(5, [(0, i) for i in (1, 2, 3, 4)]), 3, 8)


class TestVertexwiseWalkCheck:
    def test_d3_k5_max_60(self):
        rep = harness.vertexwise_walk_check(3, 5, 8)
        assert rep.ok
        assert rep.checks[0]["detail"] == {"max": 60, "clique_value": 60}

    def test_disconnected_double_k4_attains(self):
        rep = harness.vertexwise_walk_check(3, 5, 8)
        attainers = rep.checks[1]["detail"]["attainers"]
        double_k4 = write_graph6(
            canonical_form(disjoint_union(complete(4), complete(4)))
        )
        assert double_k4 in {
            write_graph6(canonical_form(parse_graph6(g6))) for g6 in attainers
        }

    def test_d3_k3_max_6(self):
        rep = harness.vertexwise_walk_check(3, 3, 8)
        assert rep.ok
        assert rep.checks[0]["detail"]["max"] == 6

    def test_d2_k3_triangles_only(self):
        rep = harness.vertexwise_walk_check(2, 3, 8)
        assert rep.ok
        assert rep.checks[0]["detail"]["max"] == 2
        triangle = canonical_form(cycle(3))
        for g6 in rep.checks[1]["detail"]["attainers"]:
            g = parse_graph6(g6)
            assert any(
                canonical_form(induced_subgraph(g, c)) == triangle
                for c in components(g)
            )

    def test_even_k_rejected(self):
        with pytest.raises(ValueError):
            harness.vertexwise_walk_check(3, 4, 8)

    def test_d1_rejected(self):
        with pytest.raises(ValueError):
            harness.vertexwise_walk_check(1, 3, 8)
