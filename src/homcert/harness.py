"""Verification campaigns: extremal search, named example graphs, the
paper's whole verification campaign, and the tree/walk desk checks.

The named graphs are the published 5-cycle-density record holders.  The two
drawn 4-regular examples are embedded as explicit edge lists; the 9-vertex
drawing omits one edge of the 4-regular completion (vertices 3 and 6 have
degree 3 without it), so the edge (3, 6) is added and the transcription is
validated by regularity, order, and the density checks below.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from homcert import bounds, optimize
from homcert import homomorphism as hm
from homcert.graphs import (
    Graph,
    _bfs,
    _girth,
    canonical_form,
    cartesian_product,
    circulant,
    complement,
    complete,
    complete_multipartite,
    cycle,
    disjoint_union,
    enumerate_regular,
    enumerated_form,
    is_connected,
    metrics,
    parse_graph6,
    petersen,
    regularity,
    write_graph6,
)
from homcert.poly import frac_str
from homcert.spectral import closed_walks_at_vertex, eval_poly_sum

FIGURE_D4_9 = Graph(
    9,
    [
        (0, 1), (0, 2), (0, 3), (0, 8),
        (1, 2), (1, 6), (1, 7),
        (2, 4), (2, 5),
        (3, 4), (3, 6), (3, 8),
        (4, 5), (4, 7),
        (5, 6), (5, 8),
        (6, 7),
        (7, 8),
    ],
)

FIGURE_D4_10 = Graph(
    10,
    [
        (0, 1), (0, 3), (0, 6), (0, 8),
        (1, 2), (1, 7), (1, 8),
        (2, 5), (2, 6), (2, 7),
        (3, 5), (3, 7), (3, 9),
        (4, 6), (4, 7), (4, 8), (4, 9),
        (5, 8), (5, 9),
        (6, 9),
    ],
)

D4_EXAMPLE_NAMES = (
    "octahedron",
    "C7(1,2)",
    "C7(2,3)",
    "C9(2,3)",
    "C12(2,3)",
    "C13(2,3)",
    "rook-3x3",
    "figure-d4-9",
    "figure-d4-10",
)
D5_EXAMPLE_NAMES = ("complement-K3-C5",)
D6_EXAMPLE_NAMES = ("K7", "K333", "K8-minus-PM")


def named_paper_graphs():
    """The published extremal example graphs, keyed by name."""
    return {
        "octahedron": complete_multipartite(2, 2, 2),
        "C7(1,2)": circulant(7, (1, 2)),
        "C7(2,3)": circulant(7, (2, 3)),
        "C9(2,3)": circulant(9, (2, 3)),
        "C12(2,3)": circulant(12, (2, 3)),
        "C13(2,3)": circulant(13, (2, 3)),
        "rook-3x3": cartesian_product(complete(3), complete(3)),
        "figure-d4-9": FIGURE_D4_9,
        "figure-d4-10": FIGURE_D4_10,
        "complement-K3-C5": complement(
            disjoint_union(complete(3), cycle(5))
        ),
        "K7": complete(7),
        "K333": complete_multipartite(3, 3, 3),
        "K8-minus-PM": complete_multipartite(2, 2, 2, 2),
    }


def density(h, g):
    """t_inj(h, g) = inj(h, g) / |V(g)| as an exact rational."""
    return Fraction(hm.inj_count(h, g), g.order)


@dataclass(frozen=True)
class SearchReport:
    pattern: str
    d: int
    n_range: tuple
    corpus: str
    best_density: Fraction
    maximizers: tuple  # of (graph6, density)
    runner_up_density: Fraction | None
    per_graph_table: tuple | None

    def to_json_dict(self):
        fs = frac_str
        doc = {
            "schema": "search-report/2",
            "pattern": self.pattern,
            "d": self.d,
            "n_range": list(self.n_range),
            "corpus": self.corpus,
            "best_density": fs(self.best_density),
            "maximizers": [[g6, fs(v)] for g6, v in self.maximizers],
            "runner_up_density": (
                fs(self.runner_up_density)
                if self.runner_up_density is not None
                else None
            ),
        }
        if self.per_graph_table is not None:
            doc["per_graph_table"] = [
                [g6, fs(v)] for g6, v in self.per_graph_table
            ]
        return doc


def _corpus(d, n_max, connected_only):
    """The enumerated d-regular graphs of every feasible order d+1..n_max
    (n d even), order by order.  Raises ValueError at once when there is
    no such order."""
    if d < 0:
        raise ValueError(f"degree must be nonnegative, got d={d}")
    sizes = [n for n in range(d + 1, n_max + 1) if n * d % 2 == 0]
    if not sizes:
        raise ValueError(f"no feasible graph orders for d={d}, n<={n_max}")
    return (
        g
        for n in sizes
        for g in enumerate_regular(n, d, connected_only=connected_only)
    )


def search_max_density(h, d, n_max, connected_only=True, keep_table=False):
    """Exhaustive exact H-density maximization over the enumerated
    isomorphism classes of d-regular graphs with at most n_max vertices."""
    table = [
        (write_graph6(g), density(h, g))
        for g in _corpus(d, n_max, connected_only)
    ]
    table.sort()
    best = max(v for _, v in table)
    maximizers = tuple((g6, v) for g6, v in table if v == best)
    lower = [v for _, v in table if v < best]
    return SearchReport(
        pattern=write_graph6(canonical_form(h)),
        d=d,
        n_range=(d + 1, n_max),
        corpus="enumerated",
        best_density=best,
        maximizers=maximizers,
        runner_up_density=max(lower) if lower else None,
        per_graph_table=tuple(table) if keep_table else None,
    )


@dataclass(frozen=True)
class CheckReport:
    """A list of named pass/fail checks with exact values in the details."""

    name: str
    checks: tuple  # of dicts with "name", "ok", "detail"

    @property
    def ok(self):
        return all(c["ok"] for c in self.checks)

    def failures(self):
        return tuple(c for c in self.checks if not c["ok"])

    def to_json_dict(self):
        return {
            "schema": "check-report/1",
            "name": self.name,
            "ok": self.ok,
            "checks": [dict(c) for c in self.checks],
        }


def _check(name, ok, detail):
    return {"name": name, "ok": bool(ok), "detail": detail}


def verify_paper_examples():
    """The published example-density claims, as exact assertions:

    - every named 4-regular example has the same t_inj(C5), strictly
      above K5's 24;
    - the 5-regular example strictly exceeds K6's 120;
    - the three 6-regular examples all equal K7's 360.
    """
    graphs = named_paper_graphs()
    c5 = cycle(5)
    checks = []

    for name in D4_EXAMPLE_NAMES + D5_EXAMPLE_NAMES + D6_EXAMPLE_NAMES:
        g = graphs[name]
        d = regularity(g)
        want_d = 4 if name in D4_EXAMPLE_NAMES else (
            5 if name in D5_EXAMPLE_NAMES else 6
        )
        checks.append(
            _check(
                f"{name} is connected {want_d}-regular",
                is_connected(g) and d == want_d,
                {"order": g.order, "regularity": d},
            )
        )

    d4 = {name: density(c5, graphs[name]) for name in D4_EXAMPLE_NAMES}
    common = d4["octahedron"]
    k5_val = density(c5, complete(5))
    checks.append(
        _check(
            "d=4 examples share one density",
            len(set(d4.values())) == 1,
            {name: frac_str(v) for name, v in d4.items()},
        )
    )
    checks.append(
        _check(
            "common d=4 density exceeds K5",
            common > k5_val,
            {"common": frac_str(common), "K5": frac_str(k5_val)},
        )
    )

    d5_val = density(c5, graphs["complement-K3-C5"])
    k6_val = density(c5, complete(6))
    checks.append(
        _check(
            "d=5 example exceeds K6",
            d5_val > k6_val,
            {"complement-K3-C5": frac_str(d5_val), "K6": frac_str(k6_val)},
        )
    )

    d6 = {name: density(c5, graphs[name]) for name in D6_EXAMPLE_NAMES}
    checks.append(
        _check(
            "d=6 examples all equal K7's 360",
            set(d6.values()) == {Fraction(360)},
            {name: frac_str(v) for name, v in d6.items()},
        )
    )
    return CheckReport(name="paper-examples", checks=tuple(checks))


def verify_paper():
    """The whole `homcert verify-paper` campaign: the checks of
    verify_paper_examples, then

    - the Petersen graph is the unique maximizer of t_inj(C5) among
      connected cubic graphs with at most 10 vertices;
    - the majorization threshold of the C5 bound polynomial
      lambda^5 + (5 - 5d) lambda^3 is d = 7;
    - that polynomial's spectral sum equals inj(C5, g) on every graph of
      the search.
    """
    c5 = cycle(5)
    sr = search_max_density(c5, 3, 10, connected_only=True, keep_table=True)
    found = [g6 for g6, _ in sr.maximizers]
    p = bounds.build_bound_poly(c5).poly
    tr = optimize.certify_threshold(p, "non-bipartite", 2, 12)
    # the search table holds t_inj(C5, g) = inj / n for every graph scanned
    mismatches = []
    for g6, t in sr.per_graph_table:
        g = parse_graph6(g6)
        if eval_poly_sum(p, g) != t * g.order:
            mismatches.append(g6)
    checks = verify_paper_examples().checks + (
        _check(
            "Petersen uniquely maximizes t_inj(C5), cubic n<=10",
            sr.best_density == 12
            and found == [write_graph6(enumerated_form(petersen()))],
            {"best_density": frac_str(sr.best_density), "maximizers": found},
        ),
        _check(
            "majorization threshold of the 5-cycle polynomial is 7",
            tr.threshold == 7,
            {"threshold": tr.threshold, "failures": list(tr.failures)},
        ),
        _check(
            "5-cycle spectral formula exact on connected cubic n<=10",
            not mismatches,
            {
                "graphs_checked": len(sr.per_graph_table),
                "mismatches": mismatches,
            },
        ),
    )
    return CheckReport(name="verify-paper", checks=checks)


def tree_extremal_check(h, d, n_max):
    """Desk check of the tree extremality statement: over every enumerated
    d-regular graph (disconnected included) with at most n_max vertices,
    the maximizers of t_inj(h, .) are exactly the graphs whose girth
    exceeds the diameter of h."""
    mh = metrics(h)
    if not mh.tree:
        raise ValueError("pattern must be a tree")
    if d < max(h.degree(v) for v in range(h.order)):
        raise ValueError("d must be at least the maximum degree of the tree")
    diam = mh.diameter
    table = {}
    girth_set = set()
    for g in _corpus(d, n_max, connected_only=False):
        g6 = write_graph6(g)
        table[g6] = density(h, g)
        if _girth(g) > diam:
            girth_set.add(g6)
    best = max(table.values())
    maximizers = {g6 for g6, v in table.items() if v == best}
    checks = (
        _check(
            "maximizer set equals girth>diameter set",
            maximizers == girth_set,
            {
                "diameter": diam,
                "best_density": frac_str(best),
                "maximizers": sorted(maximizers),
                "girth_exceeds_diameter": sorted(girth_set),
            },
        ),
    )
    return CheckReport(name="tree-extremal", checks=checks)


def vertexwise_walk_check(d, k, n_max):
    """Desk check of the vertexwise walk statement: over every enumerated
    d-regular graph with at most n_max vertices, the maximum number of
    closed k-walks at a vertex is attained exactly at vertices whose
    component is K_{d+1}."""
    if k % 2 == 0:
        raise ValueError("k must be odd")
    if d < 2:
        raise ValueError("d must be at least 2")
    clique = complete(d + 1)
    expected = closed_walks_at_vertex(clique, 0, k)
    best = None
    attainers = []
    for g in _corpus(d, n_max, connected_only=False):
        for v in range(g.order):
            w = closed_walks_at_vertex(g, v, k)
            if best is None or w > best:
                best = w
                attainers = [(g, v)]
            elif w == best:
                attainers.append((g, v))
    # A component of a d-regular graph with d + 1 vertices is K_{d+1}.
    all_clique = all(len(_bfs(g.rows, v)[0]) == d + 1 for g, v in attainers)
    checks = (
        _check(
            "maximum equals the clique value",
            best == expected,
            {"max": best, "clique_value": expected},
        ),
        _check(
            "attained only at clique components",
            all_clique,
            {
                "attainers": sorted(
                    {write_graph6(g) for g, _ in attainers}
                )
            },
        ),
    )
    return CheckReport(name="vertexwise-walks", checks=checks)
