"""The two benchmark workloads: extremal searches, and bound certificates
together with exact checks of bounds on corpora of regular graphs.

Each workload produces its inputs one cycle at a time from the seed and
the cycle index, so a run takes as many cycles of inputs it has not seen
as its time allows (homcert.spectral caches trace powers keyed on
adjacency rows, so a repeated input would measure cache hits).  Every
cycle of every seed draws the same mix of sizes, so costs are comparable
across seeds.

A workload has three methods:
  cycle(index)  -> list of items (inputs made here are not timed)
  run(item)     -> result; this call alone is timed
  check(item, result) -> (units, ok); units is what items_per_s counts
"""

from __future__ import annotations

import json
import math
import random
from fractions import Fraction

from inputs import (
    falling,
    graph6_decode,
    graph6_encode,
    random_pattern,
    random_regular_edges,
    relabel,
    two_colouring,
)

C4_EDGES = [(0, 1), (1, 2), (2, 3), (0, 3)]
C5_EDGES = [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]


class Context:
    """What every workload needs: the homcert modules, the seed and a
    scratch directory inside the checkout for CLI input/output files."""

    def __init__(self, hc, seed, workdir):
        self.hc = hc
        self.seed = seed
        self.workdir = workdir
        self._files = 0

    def rng(self, label):
        return random.Random(f"{label}/{self.seed}")

    def path(self, suffix):
        self._files += 1
        return str(self.workdir / f"{self._files:06d}{suffix}")

    def write(self, text, suffix):
        p = self.path(suffix)
        with open(p, "w", encoding="ascii") as fh:
            fh.write(text + "\n")
        return p

    def graph(self, n, edges):
        return self.hc.graphs.Graph(n, edges)


def certificates(ctx):
    """C5 (non-bipartite), C4 (bipartite) and one seeded connected 6-vertex
    non-bipartite pattern, as (pattern, certificate, tight).  Tight marks
    the two cycles: their certificates are exact and no edge was deleted,
    so the spectral sum equals the injective count on every regular graph.
    The 6-vertex certificate only bounds it from above."""
    rng = ctx.rng("certificates")
    pats = [(5, C5_EDGES, True), (4, C4_EDGES, True),
            (6, random_pattern(rng, 6, 8, False), False)]
    build = ctx.hc.bounds.build_bound_poly
    out = []
    for n, edges, tight in pats:
        cert = build(ctx.graph(n, edges))
        h = ctx.graph(*graph6_decode(cert.pattern))
        out.append((h, cert, tight))
    return out


class Search:
    """`homcert search --connected --table` for a seeded connected 5-vertex
    pattern with a cycle, over cubic graphs with n <= 12 and 4-regular
    graphs with n <= 9.  The unit is one isomorphism class scored; the
    latency sample is one search command."""

    PLAN = ((3, 12), (4, 9))
    # Connected d-regular graphs on n vertices, up to isomorphism.
    CLASSES = {
        3: {4: 1, 6: 2, 8: 5, 10: 19, 12: 85},
        4: {5: 1, 6: 1, 7: 2, 8: 6, 9: 16},
    }

    def __init__(self, ctx):
        self.ctx = ctx

    def cycle(self, index):
        rng = self.ctx.rng(f"search/{index}")
        edges = random_pattern(rng, 5, 6, rng.random() < 0.5, max_degree=3)
        pfile = self.ctx.write(graph6_encode(5, edges), ".g6")
        return [
            {"edges": edges, "pattern": pfile, "d": d, "n_max": n_max,
             "out": self.ctx.path(".json")}
            for d, n_max in self.PLAN
        ]

    def run(self, item):
        return self.ctx.hc.cli.main([
            "search", "--pattern", item["pattern"], "--d", str(item["d"]),
            "--n-max", str(item["n_max"]), "--connected", "--table",
            "--out", item["out"],
        ])

    def check(self, item, code):
        want = self.CLASSES[item["d"]]
        units = sum(want.values())
        if code != 0:
            return units, False
        with open(item["out"], encoding="ascii") as fh:
            doc = json.load(fh)
        table = doc["per_graph_table"]
        per_order = {}
        for g6, _ in table:
            n = graph6_decode(g6)[0]
            per_order[n] = per_order.get(n, 0) + 1
        ok = per_order == want and len({g6 for g6, _ in table}) == len(table)
        hm = self.ctx.hc.homomorphism
        h = self.ctx.graph(5, item["edges"])
        best = Fraction(doc["best_density"])
        ok = ok and best == max(Fraction(v) for _, v in table)
        for g6, v in doc["maximizers"]:
            n, edges = graph6_decode(g6)
            g = self.ctx.graph(n, edges)
            ok = ok and Fraction(hm.inj_via_moebius(h, g), n) == best == Fraction(v)
        return len(table), ok


class CliCertify:
    """`homcert bound` then `homcert certify --d-range 2..60`, for C5 and
    seeded connected patterns: one 5-vertex and two 7-vertex non-bipartite
    ones, and two 6-vertex bipartite ones, which take the even branch.
    Edge counts are fixed so that costs are comparable across seeds.  The
    unit is one pattern certified."""

    # (order, edges, bipartite); order 0 stands for C5 itself
    PLAN = ((0, 5, False), (5, 7, False), (6, 7, True), (6, 7, True),
            (7, 11, False), (7, 11, False))
    D_RANGE = (2, 60)

    def __init__(self, ctx):
        self.ctx = ctx

    def cycle(self, index):
        rng = self.ctx.rng(f"certify/{index}")
        items = []
        for k, m, bip in self.PLAN:
            c5 = k == 0
            if c5:
                k, edges = 5, relabel(rng, 5, C5_EDGES)
            else:
                edges = random_pattern(rng, k, m, bip)
            items.append({
                "k": k, "edges": edges, "bipartite": bip, "c5": c5,
                "pattern": self.ctx.write(graph6_encode(k, edges), ".g6"),
                "cert": self.ctx.path(".json"),
                "report": self.ctx.path(".json"),
            })
        return items

    def run(self, item):
        main = self.ctx.hc.cli.main
        code = main(["bound", item["pattern"], "--out", item["cert"]])
        if code != 0:
            return code
        parity = "bipartite" if item["bipartite"] else "non-bipartite"
        lo, hi = self.D_RANGE
        return main(["certify", "--poly", item["cert"], "--parity", parity,
                     "--d-range", f"{lo}..{hi}", "--out", item["report"]])

    def check(self, item, code):
        if code != 0:
            return 1, False
        hc = self.ctx.hc
        with open(item["cert"], encoding="ascii") as fh:
            cert_doc = json.load(fh)
        with open(item["report"], encoding="ascii") as fh:
            report = json.load(fh)
        cert = hc.bounds.BoundCertificate.from_json_dict(cert_doc)
        ok = cert.to_json_dict() == cert_doc
        ok = ok and report["source"] == cert_doc["poly"]
        lo, hi = self.D_RANGE
        fails = report["failures"]
        top_pass = not fails or fails[-1] < hi
        ok = ok and report["threshold"] == (
            (fails[-1] + 1 if fails else lo) if top_pass else None
        )
        if item["c5"]:
            ok = ok and report["threshold"] == 7 and fails == [2, 3, 4, 5, 6]
        # Equality report: spectral sum at the anchor minus the closed-form
        # injective count into K_{d+1} or K_{d,d}.
        k = item["k"]
        colour = two_colouring(k, item["edges"])
        for d, gap in cert.equality_report.items():
            if item["bipartite"]:
                a = sum(colour)
                inj = 2 * falling(d, a) * falling(d, k - a)
                anchor = hc.graphs.complete_bipartite(d, d)
            else:
                inj = falling(d + 1, k)
                anchor = hc.graphs.complete(d + 1)
            spec = hc.spectral.eval_poly_sum(cert.poly, anchor, d)
            ok = ok and gap == spec - inj
        return 1, ok


def _anchors():
    """(order, edges, degree, kind) of K4-K6, K3,3-K5,5, C12(2,3), C13(2,3)
    and the 3x3 rook graph; kind is "clique" for K_{d+1}, "biclique" for
    K_{d,d}, else None."""
    out = []
    for d in (3, 4, 5):
        edges = [(u, v) for v in range(d + 1) for u in range(v)]
        out.append((d + 1, edges, d, "clique"))
    for d in (3, 4, 5):
        edges = [(u, d + v) for u in range(d) for v in range(d)]
        out.append((2 * d, edges, d, "biclique"))
    for n in (12, 13):
        edges = {tuple(sorted((v, (v + s) % n))) for v in range(n) for s in (2, 3)}
        out.append((n, sorted(edges), 4, None))
    pairs = ((0, 1), (0, 2), (1, 2))
    rook = [(3 * r + a, 3 * r + b) for r in range(3) for a, b in pairs]
    rook += [(3 * a + c, 3 * b + c) for c in range(3) for a, b in pairs]
    out.append((9, rook, 4, None))
    return out


class Targets:
    """bounds.verify_bound with the three certificates on one random
    d-regular target for each n in {12, 14, 16} and d in {3, 4, 5} but the
    16-vertex cubic one, plus the anchors K4-K6 and K3,3-K5,5, C12(2,3),
    C13(2,3) and the 3x3 rook graph, each under a fresh random labelling.
    The unit is one target checked against all three certificates.

    Random 16-vertex cubic targets are left out: on the pure-Python
    backend (Python 3.11, 2-vCPU host) their canonical labelling alone
    takes 1.5 to 4.3 s each, a spread that drowned the cost of every other
    target and made throughput depend on which ones a seed drew."""

    SIZES = tuple(
        (n, d) for n in (12, 14, 16) for d in (3, 4, 5) if (n, d) != (16, 3)
    )

    def __init__(self, ctx, certs):
        self.ctx = ctx
        self.certs = certs
        self.anchors = _anchors()

    def cycle(self, index):
        rng = self.ctx.rng(f"verify/{index}")
        items = []
        for n, d in self.SIZES:
            edges = random_regular_edges(rng, n, d)
            items.append({"graph": self.ctx.graph(n, edges), "d": d, "kind": None})
        for n, edges, d, kind in self.anchors:
            g = self.ctx.graph(n, relabel(rng, n, edges))
            items.append({"graph": g, "d": d, "kind": kind})
        return items

    def run(self, item):
        verify = self.ctx.hc.bounds.verify_bound
        return [verify(cert, [item["graph"]]) for _, cert, _ in self.certs]

    def check(self, item, reports):
        if isinstance(reports, Exception):
            return 1, False
        ok = True
        for (_, cert, tight), rep in zip(self.certs, reports):
            if len(rep.entries) != 1 or rep.skipped:
                return 1, False
            e = rep.entries[0]
            want = "biclique" if cert.parity == "bipartite" else "clique"
            ok = ok and e.degree == item["d"] and e.gap >= 0
            ok = ok and e.is_anchor == (item["kind"] == want)
            if tight:
                ok = ok and cert.exact and e.gap == 0
        return 1, ok


class Spectral:
    """spectral_moments(g, 16), eigenvalues and eval_poly_sum of the three
    certificates, each compared with inj_count, on four random d-regular
    graphs for each n in {32, 48, 64} and d in {3, 4, 6}.  The unit is one
    graph checked.

    Four per size make these graphs most of the items of a Certify cycle,
    so that its p90 latency falls among them and not on the edge of the
    few items that take over a second (7-vertex patterns, K5,5, and now
    and then a random target whose canonical labelling runs long), which
    made it jump from run to run."""

    SIZES = tuple((n, d) for n in (32, 48, 64) for d in (3, 4, 6))
    PER_SIZE = 4
    KMAX = 16

    def __init__(self, ctx, certs):
        self.ctx = ctx
        self.certs = certs
        self.triangle = ctx.graph(3, [(0, 1), (1, 2), (0, 2)])

    def cycle(self, index):
        rng = self.ctx.rng(f"spectral/{index}")
        return [
            {"graph": self.ctx.graph(n, random_regular_edges(rng, n, d)), "d": d}
            for n, d in self.SIZES
            for _ in range(self.PER_SIZE)
        ]

    def run(self, item):
        hc = self.ctx.hc
        g = item["graph"]
        moments = hc.spectral.spectral_moments(g, self.KMAX)
        measure = hc.spectral.eigenvalues(g)
        sums = [hc.spectral.eval_poly_sum(c.poly, g) for _, c, _ in self.certs]
        injs = [hc.homomorphism.inj_count(h, g) for h, _, _ in self.certs]
        return moments, measure, sums, injs

    def check(self, item, result):
        if isinstance(result, Exception):
            return 1, False
        moments, measure, sums, injs = result
        g, d = item["graph"], item["d"]
        n = g.order
        ok = moments.traces[2] == n * d
        ok = ok and moments.traces[3] == self.ctx.hc.homomorphism.inj_count(
            self.triangle, g)
        ok = ok and measure.order == n
        ok = ok and math.isclose(measure.values[0][0], d, abs_tol=1e-6)
        for (_, cert, tight), s, i in zip(self.certs, sums, injs):
            ok = ok and (s == i if tight else s >= i)
        return 1, ok


class Certify:
    """Bound certificates and exact checks of bounds, in three parts per
    cycle: patterns certified through the CLI (CliCertify, L3-L4); then
    the certificates of C5, C4 and a seeded 6-vertex pattern checked on
    small targets through bounds.verify_bound, where canonical labelling
    (L0) dominates (Targets), and on larger graphs through the spectral
    layer (L2) directly, which verify_bound could not canonically label
    in reasonable time (Spectral).  Each item counts the unit of its
    part; every cycle holds the same mix of parts."""

    def __init__(self, ctx):
        certs = certificates(ctx)
        self.parts = (CliCertify(ctx), Targets(ctx, certs), Spectral(ctx, certs))

    def cycle(self, index):
        return [(part, item) for part in self.parts for item in part.cycle(index)]

    def run(self, item):
        part, item = item
        return part.run(item)

    def check(self, item, result):
        part, item = item
        return part.check(item, result)


WORKLOADS = {
    "search": Search,
    "certify": Certify,
}
