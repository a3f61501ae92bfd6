"""Acceptance criteria, one test per criterion.

Each test prints a single "[criterion NN] PASS/FAIL — ..." line before
asserting, so a plain run (pytest -s, or any failure report) shows the
per-criterion outcome at a glance.

Criterion 5 pins the 5-cycle polynomial's threshold scan over d in 2..12
to threshold 7 and failing degrees exactly {2, 3, 4, 5, 6}.  The paper's
named examples account for d = 4, 5, 6.  At d <= 3 no sound check can
pass: the polynomial is exact for inj(C5, .), K3 and K4 have fewer than
five vertices so inj(C5, K_{d+1}) = 0, while C5 (d = 2, inj 10) and the
Petersen graph (d = 3, inj 120) are d-regular graphs whose spectral
measures beat the clique's.  The test asserts those witnesses too.
"""

import time

import pytest

import oracles
from homcert import bounds, harness, optimize
from homcert import homomorphism as hm
from homcert.graphs import (
    Graph,
    bipartite_double_cover,
    canonical_form,
    cartesian_product,
    circulant,
    complete,
    complete_bipartite,
    complete_multipartite,
    cycle,
    enumerate_regular,
    enumerated_form,
    is_bipartite,
    metrics,
    parse_graph6,
    path,
    petersen,
    write_graph6,
)
from homcert.poly import BivarPoly
from homcert.spectral import eval_poly_sum, trace_power


def report(num, ok, label):
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} — {label}")
    return ok


@pytest.fixture(scope="module")
def patterns():
    """Every connected pattern with at most 5 vertices (31 graphs)."""
    return [g for n in range(1, 6) for g in oracles.all_connected_graphs(n)]


@pytest.fixture(scope="module")
def cubic10():
    """All 27 connected cubic graphs with at most 10 vertices."""
    return [
        g
        for n in (4, 6, 8, 10)
        for g in enumerate_regular(n, 3, connected_only=True)
    ]


@pytest.fixture(scope="module")
def constructed():
    """23 constructed regular graphs spanning degrees 1 through 8."""
    return (
        [cycle(k) for k in range(3, 13)]
        + [complete(5), complete(6), complete(7)]
        + [complete_bipartite(4, 4), complete_bipartite(5, 5)]
        + [
            complete_multipartite(2, 2, 2),
            complete_multipartite(2, 2, 2, 2),
            complete_multipartite(3, 3, 3),
        ]
        + [
            circulant(7, (1, 2)),
            circulant(7, (2, 3)),
            circulant(9, (2, 3)),
            cartesian_product(complete(3), complete(3)),
            complete(2),
        ]
    )


@pytest.fixture(scope="module")
def corpus50(cubic10, constructed):
    graphs = cubic10 + constructed
    assert len(graphs) == 50
    assert all(metrics(g).regular for g in graphs)
    return graphs


def c5_poly():
    """λ^5 + (5 − 5d)·λ^3."""
    return BivarPoly({(5, 0): 1, (3, 0): 5, (3, 1): -5})


def test_criterion_01_inversion_identities(patterns, corpus50):
    t0 = time.monotonic()
    failures = 0
    for h in patterns:
        for g in corpus50:
            if hm.hom_via_inj_sum(h, g) != hm.hom_count(h, g):
                failures += 1
            if hm.inj_via_moebius(h, g) != hm.inj_count(h, g):
                failures += 1
    elapsed = time.monotonic() - t0
    ok = failures == 0 and len(patterns) == 31
    assert report(
        1,
        ok,
        f"hom/inj inversion identities, {len(patterns)} patterns x "
        f"{len(corpus50)} graphs, {failures} failures, {elapsed:.1f}s",
    )


def test_criterion_02_spectral_identity(corpus50):
    failures = [
        (k, write_graph6(g))
        for g in corpus50
        for k in range(3, 9)
        if trace_power(g, k) != hm.hom_count(cycle(k), g)
    ]
    assert report(
        2,
        not failures,
        f"tr(A^k) = hom(C_k, .) for k in 3..8 over {len(corpus50)} graphs",
    ), failures


def test_criterion_03_c5_formula(cubic10):
    p = c5_poly()
    failures = [
        write_graph6(g)
        for g in cubic10
        if eval_poly_sum(p, g) != hm.inj_count(cycle(5), g)
    ]
    ok = not failures and len(cubic10) == 27
    assert report(
        3,
        ok,
        f"inj(C5, .) spectral formula exact on {len(cubic10)} cubic graphs",
    ), failures


def test_criterion_04_petersen_extremality():
    rep = harness.search_max_density(cycle(5), 3, 10, connected_only=True)
    ok = rep.best_density == 12 and [g6 for g6, _ in rep.maximizers] == [
        write_graph6(enumerated_form(petersen()))
    ]
    assert report(
        4,
        ok,
        f"Petersen unique maximizer, t_inj(C5) = {rep.best_density}",
    )


def test_criterion_05_threshold():
    p = c5_poly()
    rep = optimize.certify_threshold(p, "non-bipartite", 2, 12)
    # d = 2 and d = 3 must fail: C5 and Petersen are d-regular graphs whose
    # spectral sum, exactly inj(C5, .), beats that of K_{d+1}, which is 0.
    c5 = cycle(5)
    witnesses = [
        ("C5", c5),
        ("K3", complete(3)),
        ("Petersen", petersen()),
        ("K4", complete(4)),
    ]
    sums = {
        name: (eval_poly_sum(p, g), hm.inj_count(c5, g))
        for name, g in witnesses
    }
    ok = (
        rep.threshold == 7
        and set(rep.failures) == {2, 3, 4, 5, 6}
        and sums
        == {"C5": (10, 10), "K3": (0, 0), "Petersen": (120, 120), "K4": (0, 0)}
    )
    assert report(
        5,
        ok,
        f"threshold {rep.threshold} (want 7), failing degrees "
        f"{sorted(rep.failures)} (want [2, 3, 4, 5, 6]), "
        "spectral sums "
        + ", ".join(f"{name} {total}" for name, (total, _) in sums.items()),
    ), sums


def test_criterion_06_monomials_all_d():
    failures = []
    for d in range(2, 13):
        for k in (1, 3, 5, 7):
            if not optimize.majorant_check(
                BivarPoly({(k, 0): 1}), "non-bipartite", d
            ).passed:
                failures.append(("odd", k, d))
        for k in (2, 4, 6, 8):
            if not optimize.majorant_check(
                BivarPoly({(k, 0): 1}), "bipartite", d
            ).passed:
                failures.append(("even", k, d))
    assert report(
        6,
        not failures,
        "monomial majorants pass for odd k<=7 and even k<=8, d in 2..12",
    ), failures


def test_criterion_07_bound_soundness(patterns, cubic10):
    t0 = time.monotonic()
    quartic9 = [
        g
        for n in range(5, 10)
        for g in enumerate_regular(n, 4, connected_only=True)
    ]
    targets = cubic10 + quartic9
    assert len(targets) == 27 + 26
    nontree = [h for h in patterns if not metrics(h).tree]
    assert len(nontree) == 23
    exact_cycles = {write_graph6(canonical_form(cycle(k))) for k in (3, 4, 5)}
    problems = []
    anchors_checked = 0
    for h in nontree:
        cert = bounds.build_bound_poly(h)
        n = h.order
        # shape: unique top-degree monomial λ^anchor_k · d^(n − anchor_k)
        # with coefficient 1; nothing exceeds total degree n
        top = [(k, j) for k, j in cert.poly.coeffs if k + j == n]
        if any(k + j > n for k, j in cert.poly.coeffs):
            problems.append((cert.pattern, "degree overflow"))
        if top != [(cert.anchor_k, n - cert.anchor_k)]:
            problems.append((cert.pattern, f"leading monomials {top}"))
        if cert.poly.coefficient(cert.anchor_k, n - cert.anchor_k) != 1:
            problems.append((cert.pattern, "leading coefficient"))
        if cert.parity == "bipartite" and any(
            k % 2 for k, _ in cert.poly.coeffs
        ):
            problems.append((cert.pattern, "odd exponent in bipartite"))
        rep = bounds.verify_bound(cert, targets)
        if rep.min_gap is None or rep.min_gap < 0:
            problems.append((cert.pattern, f"min gap {rep.min_gap}"))
        if cert.pattern in exact_cycles:
            anchor_gaps = [e.gap for e in rep.entries if e.is_anchor]
            anchors_checked += len(anchor_gaps)
            if not anchor_gaps or any(gap != 0 for gap in anchor_gaps):
                problems.append((cert.pattern, f"anchor gaps {anchor_gaps}"))
    elapsed = time.monotonic() - t0
    ok = not problems and anchors_checked >= 6
    assert report(
        7,
        ok,
        f"{len(nontree)} certificates sound over {len(targets)} graphs, "
        f"{anchors_checked} exact anchor gaps zero, {elapsed:.1f}s",
    ), problems


def test_criterion_08_appendix_densities():
    rep = harness.verify_paper_examples()
    octa = harness.density(
        cycle(5), harness.named_paper_graphs()["octahedron"]
    )
    ok = rep.ok and octa == 40
    assert report(
        8,
        ok,
        f"named example densities (octahedron {octa}, all groups verified)",
    ), rep.failures()


def test_criterion_09_tree_theorem():
    rep = harness.tree_extremal_check(path(4), 3, 10)
    assert report(
        9, rep.ok, "P4 maximizers are exactly the girth > 3 cubic graphs"
    ), rep.failures()


def test_criterion_10_vertexwise_walks():
    rep = harness.vertexwise_walk_check(3, 5, 10)
    detail = rep.checks[0]["detail"]
    ok = rep.ok and detail["max"] == 60
    assert report(
        10,
        ok,
        f"max closed 5-walks per vertex = {detail['max']}, K4 components only",
    ), rep.failures()


def test_criterion_11_double_cover(constructed):
    graphs = [
        g for g in constructed if g.order * 2 <= 26 and g.order >= 2
    ]
    graphs = [
        g
        for g in graphs
        if write_graph6(g)
        not in {
            write_graph6(complete_bipartite(5, 5)),
            write_graph6(complete_multipartite(2, 2, 2, 2)),
            write_graph6(complete_multipartite(3, 3, 3)),
        }
    ]
    assert len(graphs) == 20
    bip_patterns = [
        complete(2),
        path(3),
        path(4),
        complete_bipartite(1, 3),
        cycle(4),
        path(5),
        complete_bipartite(1, 4),
        Graph(5, [(0, 1), (1, 2), (0, 3), (0, 4)]),  # spider
        Graph(5, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4)]),  # banner
        complete_bipartite(2, 3),
    ]
    assert all(is_bipartite(h) for h in bip_patterns)
    problems = []
    for g in graphs:
        cover = bipartite_double_cover(g)
        for k in range(1, 9):
            t = trace_power(cover, k)
            want = 0 if k % 2 else 2 * trace_power(g, k)
            if t != want:
                problems.append((write_graph6(g), "trace", k))
        for h in bip_patterns:
            if hm.inj_count(h, cover) < 2 * hm.inj_count(h, g):
                problems.append((write_graph6(g), "inj", write_graph6(h)))
    assert report(
        11,
        not problems,
        f"double-cover traces and inj(h, cover) >= 2 inj(h, g) over "
        f"{len(graphs)} graphs x {len(bip_patterns)} patterns",
    ), problems


def test_criterion_12_graph6_roundtrip():
    mix = [(n, 3) for n in range(4, 15, 2)]
    mix += [(n, 4) for n in range(5, 12)]
    mix += [(n, 2) for n in range(3, 13)]
    total = 0
    bad = 0
    for n, d in mix:
        for g in enumerate_regular(n, d, connected_only=False):
            total += 1
            text = write_graph6(g)
            back = parse_graph6(text)
            if back != g or write_graph6(back) != text:
                bad += 1
    ok = total >= 1000 and bad == 0
    assert report(
        12, ok, f"graph6 round-trip exact on {total} enumerated graphs"
    )
