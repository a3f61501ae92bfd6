"""Spectral bounding polynomials for injective homomorphism counts.

For a connected pattern H that is not a tree, build_bound_poly produces a
bivariate polynomial p(lam, d) with

    inj(H, G)  <=  sum over adjacency eigenvalues lam of G of p(lam, d)

for every d-regular G (non-bipartite branch) or every bipartite d-regular
G (bipartite branch).  The construction chains four moves:

  1. edge deletion: inj(H, G) <= inj(H', G) for the spanning unicyclic
     subgraph H' = T + e, T the tree of graphs._bfs (the one breadth-first
     search, which every structural question also goes through) from
     vertex 0 of the canonical copy of H, and e a non-tree edge closing a
     shortest cycle (shortest odd cycle in the non-bipartite branch, so
     the anchor exponent is odd);
  2. the partition identity hom(Y) = sum_P inj(Y/P), applied twice, turns
     inj(H') into hom terms of quotients plus smaller inj terms:
     inj(Y) = hom(Y) - sum_P hom(Y/P) + sum_P sum_Q inj(Y/P/Q)
     over nontrivial partitions with loop-free quotients;
  3. every hom term is bounded below through the cycle profile of its
     pattern Z (n vertices, m edges, c_k BFS cycles of length k),
     hom(Z, G) >= sum_lam [ sum_k c_k lam^k d^(n-k) + (n - m) d^(n-1) ],
     with equality when Z is a tree (d^(n-1)) or unicyclic (lam^k d^(n-k));
  4. the remaining inj terms recurse through the same expansion.

In the bipartite branch every quotient that is not bipartite is dropped:
its hom and inj counts into bipartite targets vanish identically.  When
every loop-free quotient of H' is a tree or unicyclic (and, in the
bipartite branch, bipartite), the full Möbius inversion is taken instead
and the polynomial is exact: its spectral sum equals inj(H', G) for every
d-regular G.

The anchor monomial lam^k d^(n-k) has coefficient 1 and is the unique
monomial of total degree n = |V(H)|; bipartite-branch polynomials contain
only even powers of lam.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from homcert import homomorphism as hm
from homcert.graphs import (
    Graph,
    _bfs,
    _bipartition,
    canonical_form,
    is_bipartite,
    is_connected,
    parse_graph6,
    regularity,
    write_graph6,
)
from homcert.optimize import PARITIES, measure_expectation
from homcert.poly import (
    BivarPoly,
    frac_str,
    json_choice,
    json_field,
    parse_frac,
)
from homcert.spectral import eval_poly_sum

EQUALITY_REPORT_SPAN = 5


class BoundViolation(Exception):
    """A certified bound failed on a concrete graph: the exact gap
    sum_lam p(lam, d) - inj(h, g) came out negative."""

    def __init__(self, graph6, gap):
        super().__init__(
            f"bound violated on {graph6}: spectral sum minus count = {gap}"
        )
        self.graph6 = graph6
        self.gap = gap


class CertificateShapeError(RuntimeError):
    """The builder produced a polynomial without the certificate shape: a
    unique top monomial lam^k d^(n-k) with coefficient 1 and, in the
    bipartite branch, only even powers of lam.  Always a builder defect."""


@dataclass(frozen=True)
class CycleProfile:
    """BFS cycle structure of a connected graph, on its canonical labeling.

    graph is the canonical copy all edges refer to; the BFS tree is the
    parent array of graphs._bfs from vertex 0 (the canonically least
    vertex), which visits neighbours in ascending order.  Every non-tree
    edge uv closes the cycle formed with the tree path from u to v;
    counts[k] is the number of non-tree edges whose cycle has length k.
    """

    graph: Graph
    tree_edges: tuple
    non_tree: tuple  # of (u, v, cycle_length)
    counts: dict

    @property
    def order(self):
        return self.graph.order

    @property
    def size(self):
        return self.graph.size


def cycle_profile(h):
    return _canonical_profile(canonical_form(h))


def _canonical_profile(g):
    """cycle_profile of g, which already is its own canonical form."""
    n = g.order
    order, parent, depth = _bfs(g.rows, 0)
    if len(order) < n:
        raise ValueError("cycle profile requires a connected graph")
    tree = {(min(w, parent[w]), max(w, parent[w])) for w in range(1, n)}
    non_tree = []
    counts = {}
    for u, v in g.edges():
        if (u, v) in tree:
            continue
        a, b = u, v  # climb to the lowest common ancestor
        while a != b:
            if depth[a] < depth[b]:
                a, b = b, a
            a = parent[a]
        k = depth[u] + depth[v] - 2 * depth[a] + 1
        non_tree.append((u, v, k))
        counts[k] = counts.get(k, 0) + 1
    return CycleProfile(
        graph=g,
        tree_edges=tuple(sorted(tree)),
        non_tree=tuple(non_tree),
        counts=counts,
    )


def hom_lower_poly(h):
    """Polynomial p with sum_lam p(lam, d) <= hom(h, G) for d-regular G,
    with equality when h is a tree or unicyclic.

    From the cycle profile: the BFS tree plus one non-tree edge, closing a
    cycle of length k, has hom count sum_lam lam^k d^(n-k), and summing
    these m - n + 1 counts over-counts hom(h, G) by at most d^(n-1) per
    extra edge: p = sum_k c_k lam^k d^(n-k) + (n - m) d^(n-1).  A tree
    gives d^(n-1), a unicyclic graph with cycle length k gives
    lam^k d^(n-k).
    """
    return BivarPoly(_hom_lower_terms(cycle_profile(h)))


def _hom_lower_terms(prof):
    """The coefficients of hom_lower_poly, from the cycle profile prof, as
    a fresh Counter of ints."""
    n = prof.order
    terms = Counter({(k, n - k): c for k, c in prof.counts.items()})
    terms[(0, n - 1)] = n - prof.size
    return terms


def choose_unicyclic_subgraph(h, parity):
    """Spanning unicyclic subgraph T + e of the canonical copy of h.

    T is the BFS tree of the cycle profile; e is the non-tree edge whose
    BFS cycle is shortest, restricted to odd cycles in the non-bipartite
    branch (one always exists for connected non-bipartite h), ties broken
    by the lexicographically least edge.  Returns (subgraph, cycle_length)
    with the subgraph on the canonical labeling of h.
    """
    return _unicyclic_of(cycle_profile(h), parity)


def _unicyclic_of(prof, parity):
    """choose_unicyclic_subgraph from the cycle profile prof."""
    if parity not in PARITIES:
        raise ValueError(f"parity must be one of {PARITIES}")
    if not prof.non_tree:
        raise ValueError("pattern is a tree; no cycle to anchor the bound")
    if parity == "non-bipartite":
        candidates = [(k, u, v) for u, v, k in prof.non_tree if k % 2 == 1]
        if not candidates:
            raise ValueError(
                "no odd cycle available; pattern is bipartite, use the "
                "bipartite branch"
            )
    else:
        candidates = [(k, u, v) for u, v, k in prof.non_tree]
    k, u, v = min(candidates)
    edges = list(prof.tree_edges) + [(u, v)]
    return Graph(prof.order, edges), k


@dataclass(frozen=True)
class BoundCertificate:
    """A bounding polynomial with its derivation trace.

    steps is the ordered list of inequality/identity applications; each
    entry records the rule, the sub-pattern it was applied to (graph6),
    and whether the move is exact or an upper bound.  equality_report maps
    degrees d to the exact gap of the bound at the anchor clique (K_{d+1}
    or K_{d,d}); exact means the spectral sum equals inj(H', G) for every
    admissible G, not merely at the anchor.
    """

    pattern: str  # canonical graph6 of H
    parity: str
    anchor_k: int
    poly: BivarPoly
    steps: tuple
    equality_report: dict
    exact: bool

    def to_json_dict(self):
        return {
            "schema": "bound-certificate/1",
            "pattern": self.pattern,
            "parity": self.parity,
            "anchor_k": self.anchor_k,
            "poly": self.poly.coefficient_list(),
            "steps": [dict(s) for s in self.steps],
            "equality_report": {
                str(d): frac_str(gap)
                for d, gap in sorted(self.equality_report.items())
            },
            "exact": self.exact,
        }

    @classmethod
    def from_json_dict(cls, data):
        if data.get("schema") != "bound-certificate/1":
            raise ValueError("not a bound-certificate/1 document")
        report = {}
        for key, val in json_field(data, "equality_report", dict).items():
            d = int(key)
            if str(d) != key:
                raise ValueError(f"equality_report key {key!r} is not a degree")
            report[d] = parse_frac(val)
        pattern = json_field(data, "pattern", str)
        parse_graph6(pattern)
        steps = json_field(data, "steps", list)
        for step in steps:
            if type(step) is not dict:
                raise ValueError(f"a step must be a JSON object: {step!r}")
            json_field(step, "rule", str)
            json_field(step, "pattern", str)
            json_choice(step, "kind", ("exact", "upper"))
        return cls(
            pattern=pattern,
            parity=json_choice(data, "parity", PARITIES),
            anchor_k=json_field(data, "anchor_k", int),
            poly=BivarPoly.from_coefficient_list(json_field(data, "poly", list)),
            steps=tuple(steps),
            equality_report=report,
            exact=json_field(data, "exact", bool),
        )


def _quotients(y, parity):
    """Loop-free quotients of y by nontrivial partitions, parity-filtered."""
    return [
        q
        for _, q in hm.loop_free_quotients(y)
        if q.order < y.order and (parity != "bipartite" or is_bipartite(q))
    ]


class _Builder:
    """The one place where polynomial terms are summed: every expansion
    returns a Counter {(k, j): integer coefficient of lam^k d^j}."""

    def __init__(self, parity):
        self.parity = parity
        self.steps = []
        self.memo = {}

    def step(self, rule, pattern, kind, detail=None):
        entry = {"rule": rule, "pattern": write_graph6(pattern), "kind": kind}
        if detail is not None:
            entry["detail"] = detail
        if not self.steps or self.steps[-1] != entry:
            self.steps.append(entry)

    def exact_moebius_poly(self, y):
        """Full Möbius inversion over y's loop-free partitions, or None when
        it is not exact and parity-clean: some loop-free quotient (trivial
        included) has more than one cycle or, in the bipartite branch, is
        not bipartite.  Quotients of the connected y are connected."""
        total = Counter()
        count = 0
        for mu, q in hm.loop_free_quotients(y):
            if q.size > q.order or (
                self.parity == "bipartite" and not is_bipartite(q)
            ):
                return None
            terms = _hom_lower_terms(cycle_profile(q))
            total.update({m: mu * c for m, c in terms.items()})
            count += 1
        self.step(
            "exact-moebius",
            y,
            "exact",
            {"loop_free_terms": count},
        )
        return total

    def expand_inj(self, y, prof=None):
        """Exact-or-upper polynomial for inj(y, .): the two-level partition
        expansion.  y must be a tree (bipartite branch only) or unicyclic;
        prof, when given, is its cycle profile."""
        total = _hom_lower_terms(cycle_profile(y) if prof is None else prof)
        self.step("hom-identity", y, "exact")
        for z in _quotients(y, self.parity):
            total.subtract(_hom_lower_terms(cycle_profile(z)))
            if z.size <= z.order:
                self.step("exact-hom", z, "exact")
            else:
                self.step("hom-majorant", z, "upper")
            for w in _quotients(z, self.parity):
                total.update(self.inj_upper(w))
        return total

    def inj_upper(self, w):
        """Upper-bound polynomial for inj(w, .), memoized on canonical rows
        and only read by callers."""
        wc = canonical_form(w)
        key = wc.rows
        if key in self.memo:
            return self.memo[key]
        if not is_connected(wc):
            raise ValueError("quotient expansion produced a disconnected graph")
        # wc is its own canonical form, so its profile needs no labelling.
        prof = _canonical_profile(wc)
        if wc.size <= wc.order:
            terms = self.expand_inj(wc, prof)
        else:
            y, _ = _unicyclic_of(prof, self.parity)
            self.step(
                "edge-deletion",
                wc,
                "upper",
                {"kept_edges": y.size, "removed": wc.size - y.size},
            )
            terms = self.expand_inj(y)
        self.memo[key] = terms
        return terms


def _check_shape(poly, n, anchor_k, parity):
    if poly.total_degree() != n:
        raise CertificateShapeError(
            f"total degree {poly.total_degree()}, expected {n}"
        )
    top = [(k, j) for (k, j) in poly.coeffs if k + j == n]
    if top != [(anchor_k, n - anchor_k)]:
        raise CertificateShapeError(
            f"top monomials {sorted(top)}, expected [({anchor_k}, {n - anchor_k})]"
        )
    if poly.coefficient(anchor_k, n - anchor_k) != 1:
        raise CertificateShapeError("anchor coefficient is not 1")
    if parity == "bipartite" and any(k % 2 for k, _ in poly.coeffs):
        raise CertificateShapeError("odd power of lam in the bipartite branch")


def build_bound_poly(h):
    """Bounding certificate for a connected non-tree pattern.

    The pattern picks the branch: bipartite patterns get the bipartite
    branch (bound valid for bipartite d-regular targets, anchor K_{d,d}),
    others the non-bipartite branch (valid for all d-regular targets,
    anchor K_{d+1}).
    """
    if h.order > 8:
        raise ValueError("bound construction is limited to patterns with "
                         "at most 8 vertices")
    if not is_connected(h):
        raise ValueError("pattern must be connected")
    if h.size == h.order - 1:
        raise ValueError("pattern is a tree; the bound needs a cycle anchor")
    parity = "bipartite" if is_bipartite(h) else "non-bipartite"
    hc = canonical_form(h)
    n = hc.order
    builder = _Builder(parity)
    y, anchor_k = _unicyclic_of(_canonical_profile(hc), parity)
    if y.size < hc.size:
        builder.step(
            "edge-deletion",
            hc,
            "upper",
            {"kept_edges": y.size, "removed": hc.size - y.size},
        )
    terms = builder.exact_moebius_poly(y)
    exact = terms is not None
    if not exact:
        terms = builder.expand_inj(y)
    poly = BivarPoly(terms)
    _check_shape(poly, n, anchor_k, parity)

    # The spectral sum over the anchor is its order times the expectation
    # under its spectral measure.  inj into the anchor has a closed form:
    # ordered choices of n of the d + 1 vertices of K_{d+1}, or, for
    # connected bipartite H with colour classes of sizes a and n - a, each
    # class injected into one side of K_{d,d}, the sides either way round.
    if parity == "bipartite":
        a = sum(_bipartition(hc)[1])
    report = {}
    for d in range(n, n + EQUALITY_REPORT_SPAN):
        if parity == "bipartite":
            order = 2 * d
            inj = 2 * math.perm(d, a) * math.perm(d, n - a)
        else:
            order = d + 1
            inj = math.perm(d + 1, n)
        report[d] = order * measure_expectation(poly, parity, d) - inj
    return BoundCertificate(
        pattern=write_graph6(hc),
        parity=parity,
        anchor_k=anchor_k,
        poly=poly,
        steps=tuple(builder.steps),
        equality_report=report,
        exact=exact,
    )


@dataclass(frozen=True)
class VerificationEntry:
    graph6: str
    degree: int
    gap: Fraction
    is_anchor: bool


@dataclass(frozen=True)
class VerificationReport:
    pattern: str
    parity: str
    entries: tuple
    skipped: tuple
    min_gap: Fraction

    def to_json_dict(self):
        return {
            "schema": "bound-verification/1",
            "pattern": self.pattern,
            "parity": self.parity,
            "count": len(self.entries),
            "skipped": list(self.skipped),
            "min_gap": frac_str(self.min_gap),
            "entries": [
                {
                    "graph": e.graph6,
                    "d": e.degree,
                    "gap": frac_str(e.gap),
                    "is_anchor": e.is_anchor,
                }
                for e in self.entries
            ],
        }


def verify_bound(cert, graphs):
    """Check the certificate against concrete regular graphs, exactly.

    Every graph must be regular (any degree; the polynomial knows d).
    Exact certificates hold for every regular target and are checked
    against all of them.  A non-exact bipartite-branch certificate only
    asserts its bound for bipartite targets, so non-bipartite graphs are
    recorded as skipped rather than checked.  Raises BoundViolation on
    the first negative gap; otherwise returns the per-graph report.

    The anchor needs no canonical form: a d-regular graph on d + 1
    vertices is K_{d+1}, and a bipartite d-regular graph on 2d vertices
    is K_{d,d}.
    """
    h = parse_graph6(cert.pattern)
    entries = []
    skipped = []
    for g in graphs:
        d = regularity(g)
        if d is None:
            raise ValueError(
                f"verification corpus contains a non-regular graph: "
                f"{write_graph6(g)}"
            )
        g6 = write_graph6(canonical_form(g))
        if cert.parity == "bipartite":
            bipartite = is_bipartite(g)
            if not bipartite and not cert.exact:
                skipped.append(g6)
                continue
            is_anchor = bipartite and g.order == 2 * d
        else:
            is_anchor = g.order == d + 1
        gap = eval_poly_sum(cert.poly, g, d) - hm.inj_count(h, g)
        if gap < 0:
            raise BoundViolation(g6, gap)
        entries.append(
            VerificationEntry(graph6=g6, degree=d, gap=gap, is_anchor=is_anchor)
        )
    return VerificationReport(
        pattern=cert.pattern,
        parity=cert.parity,
        entries=tuple(entries),
        skipped=tuple(skipped),
        min_gap=min((e.gap for e in entries), default=Fraction(0)),
    )
